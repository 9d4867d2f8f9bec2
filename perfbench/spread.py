#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end
metric's median and quartile spread (IQR / median) against its bound.

    python3 perfbench/spread.py --workload escape-s7 --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload all --seeds $(seq 1 10)

Run from the root of the repository. The benchmark binary must already
be built (`cargo build --release --manifest-path perfbench/Cargo.toml`);
it is looked up under $CARGO_TARGET_DIR or perfbench/target.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def binary():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join("perfbench", "target"))
    return os.path.join(target, "release", "sg-perfbench")


def run(exe, workload, seed, seconds, trace):
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    exe = binary()
    worst = 0.0
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            res = run(exe, w, seed, seconds, 0)
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: {res['failed']} of {res['attempted']} ops failed")
                sys.exit(1)
            for name, v in res["metrics"].items():
                values[name].append(v["value"])
        print(f"== {w} ({len(args.seeds)} seeds)")
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:<16} median {med:<14.6g} spread {spread:7.4f}"
                  f"  bound {m['bound']}{flag}")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
