//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --describe | --emit-benchmark-json
//! ```
//!
//! A run prints its fingerprint, every metric of the selected set
//! (end-to-end with `--trace 0`, per-layer with `--trace 1`) by name
//! and unit, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The full result, spans
//! included, is also written under `perfbench/out/`.

use sg_perfbench::bench::{Corruption, Report, RunConfig};
use sg_perfbench::fingerprint::fingerprint;
use sg_perfbench::spec::{self, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use sg_perfbench::summary::{json_num, json_str};
use sg_perfbench::{run_workload, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: sg_perfbench::heap::CountingAlloc = sg_perfbench::heap::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <uniform-s8|escape-s7|tenants-s7|coll-s6|all> \
[--seed N] [--seconds S] [--trace 0|1]\n       perfbench --describe | --emit-benchmark-json";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = parse_u64(value()?).ok_or("--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && spec::workload(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--describe") => {
            print!("{}", spec::describe_json());
            return ExitCode::SUCCESS;
        }
        Some("--emit-benchmark-json") => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        corrupt: Corruption::None,
    };
    let report = run_workload(&args.workload, cfg).expect("workload name validated");
    let print = fingerprint(&args.workload, args.seed, args.seconds, args.trace);
    println!("# fingerprint {print}");
    for (k, v) in &report.detail {
        println!("# {k} {v}");
    }
    for e in report.errors.iter().take(5) {
        println!("# FAILED {e}");
    }
    let (table, values) = if args.trace {
        (PER_LAYER, &report.per_layer)
    } else {
        (END_TO_END, &report.end_to_end)
    };
    for m in table {
        println!("{:<28} {:>16} {}", m.name, json_num(values[m.name]), m.unit);
    }
    if let Err(e) = write_result(&args, &print, &report) {
        eprintln!("could not write the result file: {e}");
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(values[m.name]),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// Writes the full result (fingerprint, both metric sets, digests,
/// spans) to `perfbench/out/<workload>-seed<seed>-trace<t>.json`.
fn write_result(args: &Args, print: &str, r: &Report) -> std::io::Result<()> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let map = |m: &BTreeMap<&'static str, f64>| {
        m.iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let digest = r
        .digest
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect::<Vec<_>>()
        .join(", ");
    let detail = r
        .detail
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let errors = r
        .errors
        .iter()
        .map(|e| json_str(e))
        .collect::<Vec<_>>()
        .join(", ");
    let body = format!(
        "{{\n\"fingerprint\": {print},\n\"correct\": {}, \"attempted\": {}, \"failed\": {},\n\"detail\": {{{detail}}},\n\"errors\": [{errors}],\n\"input_digest\": {},\n\"digest\": {{{digest}}},\n\"end_to_end\": {{{}}},\n\"per_layer\": {{{}}},\n\"spans\": {}\n}}\n",
        r.correct,
        r.attempted,
        r.failed,
        r.input_digest,
        map(&r.end_to_end),
        map(&r.per_layer),
        r.spans_json.as_deref().unwrap_or("null"),
    );
    let file = format!(
        "{dir}/{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(file, body)
}

/// `--workload all`: each workload in its own process (so each gets
/// its own peak RSS), one after the other, with the same flags.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut flags: Vec<&String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            flags.push(a);
        }
    }
    for w in WORKLOADS {
        println!("== {}", w.name);
        let ok = Command::new(&exe)
            .args(&flags)
            .args(["--workload", w.name])
            .status()
            .is_ok_and(|s| s.success());
        if !ok {
            eprintln!("workload {} did not finish", w.name);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
