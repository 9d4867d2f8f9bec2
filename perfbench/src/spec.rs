//! Every workload and metric of the benchmark, declared once.
//!
//! Each entry carries what a reader needs to interpret a number:
//! unit, layer, kind (host time, simulated, or exact count), the
//! direction that is better, a description, and the end-to-end metric
//! and workload a change to it should move. `BENCHMARK.json` at the
//! repository root is rendered from these tables
//! (`--emit-benchmark-json`); the full declaration is printed by
//! `--describe`. A test keeps the committed file equal to the render.

use crate::summary::json_str;

/// How a metric is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host wall-clock time or a rate/size derived from it; noisy.
    Host,
    /// A simulated quantity, deterministic per seed.
    Sim,
    /// An exact work count (or a ratio of counts), deterministic per
    /// seed.
    Count,
}

impl Kind {
    /// Label used in the rendered spec.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "sim",
            Kind::Count => "count",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `e2e` for end-to-end metrics, else the layer (`net`, `sched`,
    /// `obs`, `coll`, `bench`).
    pub layer: &'static str,
    /// Host, simulated or count.
    pub kind: Kind,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change counts as a
    /// regression.
    pub bound: Option<f64>,
    /// What the number is.
    pub description: &'static str,
    /// The end-to-end metric and workload a change here should move.
    pub moves: &'static str,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Its parameters, for the reader.
    pub params: &'static str,
    /// Why it is in the benchmark, in one line.
    pub why: &'static str,
}

/// The program and arguments that run the benchmark from the root of
/// a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark.
pub const PATHS: &[&str] = &["perfbench"];

/// Seconds of closed-loop ops one run measures.
pub const RUN_SECONDS: u32 = 25;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "uniform-s8",
        params: "Network::new(8); bernoulli_uniform(8, 1, 100, seed) under GreedyRouting; tail-drop, unbounded queues",
        why: "S_8 full injection: a whole-star neighbour table build and a hop path larger than L2 with no flow control",
    },
    WorkloadSpec {
        name: "escape-s7",
        params: "Network::new(7) with EscapeChannel, queue_capacity 2; bernoulli_uniform(7, 100, 57, seed) under GreedyRouting",
        why: "S_7 just past saturation: credit stalls, escape banks and diversions do real work in a cache-resident round loop",
    },
    WorkloadSpec {
        name: "tenants-s7",
        params: "40-job stream on S_7 (mix drawn at seed 0xBEEF, traffic re-seeded by --seed): bursty 4/12, orders 3..=7, durations 10..=60, 20% greedy, 10% adaptive, 35% under-declaring; FirstFit, Drained + EASY; record, JSONL write, parse, replay",
        why: "many small drain co-simulations, partitioned attribution, sub-star embedding routing and the trace write/read paths",
    },
    WorkloadSpec {
        name: "coll-s6",
        params: "S_6 tree broadcast and reduce, reduce-scatter halving, allgather doubling, allreduce: build, compile, run, payload execute",
        why: "the only workload that measures sg-coll: schedule construction, barrier compilation and the payload executor",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    kind: Kind,
    bound: f64,
    description: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        layer: "e2e",
        kind,
        higher_is_better: false,
        bound: Some(bound),
        description,
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    kind: Kind,
    description: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        layer,
        kind,
        higher_is_better: false,
        bound: None,
        description,
        moves,
    }
}

const fn higher(m: Metric) -> Metric {
    Metric {
        higher_is_better: true,
        ..m
    }
}

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Kind::Host, 0.25,
        "network build plus input generation before the first op; median of several set-ups in one run",
        "itself, on every workload"),
    e2e("op_mean_s", "s", Kind::Host, 0.25,
        "mean wall time of one closed-loop op: the timed window's op time over its op count (every op does the same, checked work); median, tail and fastest op are printed as detail lines",
        "itself, on every workload"),
    higher(e2e("sim_hops_per_s", "1/s", Kind::Host, 0.25,
        "simulated link traversals per host second over all timed ops",
        "itself, on every workload")),
    e2e("peak_heap_mb", "MiB", Kind::Host, 0.1,
        "peak live heap of one set-up and one op, counted by the global allocator in an untimed pass before the timed ones; VmHWM is printed as a detail line",
        "itself, on every workload"),
    e2e("sim_rounds", "rounds", Kind::Sim, 0.25,
        "makespan (traffic workloads), schedule horizon (tenants-s7) or summed collective makespans (coll-s6)",
        "nothing: a perf change must leave it unchanged"),
    e2e("sim_wait_rounds", "flit-rounds", Kind::Sim, 0.15,
        "total flit-rounds spent queued in the simulated network",
        "nothing: a perf change must leave it unchanged"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// layer a workload does not call reports 0.
pub const PER_LAYER: &[Metric] = &[
    layer(
        "net.build_s",
        "s",
        "net",
        Kind::Host,
        "Network::new during set-up",
        "setup_s on uniform-s8 (about 95% of its set-up)",
    ),
    layer(
        "net.workload_s",
        "s",
        "net",
        Kind::Host,
        "Workload::* generation during set-up",
        "setup_s on uniform-s8 and escape-s7",
    ),
    layer(
        "net.run_s",
        "s",
        "net",
        Kind::Host,
        "Network::run_profiled in the traced op",
        "op_mean_s and sim_hops_per_s on uniform-s8 and escape-s7",
    ),
    layer(
        "net.arrivals_s",
        "s",
        "net",
        Kind::Host,
        "arrivals phase of the fast engine (run_profiled)",
        "op_mean_s on uniform-s8 and escape-s7",
    ),
    layer(
        "net.injections_s",
        "s",
        "net",
        Kind::Host,
        "injections phase of the fast engine (run_profiled)",
        "op_mean_s on uniform-s8 and escape-s7",
    ),
    layer(
        "net.arbitration_s",
        "s",
        "net",
        Kind::Host,
        "arbitration phase of the fast engine (run_profiled)",
        "op_mean_s on uniform-s8 and escape-s7",
    ),
    layer(
        "net.accounting_s",
        "s",
        "net",
        Kind::Host,
        "accounting phase of the fast engine (run_profiled)",
        "op_mean_s on uniform-s8 and escape-s7",
    ),
    layer(
        "net.outside_phases_s",
        "s",
        "net",
        Kind::Host,
        "run_profiled wall time minus its phase sum: route precompute and stats finalisation",
        "op_mean_s on uniform-s8",
    ),
    layer(
        "net.rounds",
        "rounds",
        "net",
        Kind::Count,
        "rounds the fast engine executed (run_profiled)",
        "op_mean_s on escape-s7",
    ),
    layer(
        "net.ns_per_hop",
        "ns",
        "net",
        Kind::Host,
        "net.run_s per simulated link traversal",
        "op_mean_s on uniform-s8 against escape-s7",
    ),
    layer(
        "net.packets",
        "count",
        "net",
        Kind::Count,
        "packets injected by the traffic run",
        "nothing: fixed by the seed",
    ),
    layer(
        "net.hops",
        "count",
        "net",
        Kind::Count,
        "link traversals of the traffic run",
        "nothing: fixed by the seed",
    ),
    layer(
        "net.escape_hops",
        "count",
        "net",
        Kind::Count,
        "link traversals on the escape channel",
        "nothing: fixed by the seed",
    ),
    layer(
        "net.escape_diversions",
        "count",
        "net",
        Kind::Count,
        "packets diverted onto the escape channel",
        "nothing: fixed by the seed",
    ),
    layer(
        "net.stall_rounds",
        "count",
        "net",
        Kind::Count,
        "packet-rounds stalled at the source for credit",
        "nothing: fixed by the seed",
    ),
    layer(
        "net.peak_node_occupancy",
        "count",
        "net",
        Kind::Count,
        "peak packets queued at one PE",
        "nothing: fixed by the seed",
    ),
    layer(
        "sched.generate_s",
        "s",
        "sched",
        Kind::Host,
        "stream::generate during set-up",
        "setup_s on tenants-s7",
    ),
    layer(
        "sched.schedule_s",
        "s",
        "sched",
        Kind::Host,
        "schedule_profiled (tick clock) in the traced op, drain co-simulations included",
        "op_mean_s on tenants-s7",
    ),
    layer(
        "sched.compose_s",
        "s",
        "sched",
        Kind::Host,
        "Schedule::tenant_run: composing the shared workload",
        "op_mean_s on tenants-s7",
    ),
    layer(
        "sched.tenant_run_s",
        "s",
        "sched",
        Kind::Host,
        "TenantRun::run: the shared multi-tenant network run",
        "op_mean_s on tenants-s7",
    ),
    layer(
        "sched.drain_cosims",
        "count",
        "sched",
        Kind::Count,
        "drain co-simulations the scheduler ran (tick-clock drain charges)",
        "op_mean_s on tenants-s7",
    ),
    layer(
        "sched.backfill_probes",
        "count",
        "sched",
        Kind::Count,
        "EASY backfill passes (tick-clock backfill charges)",
        "op_mean_s on tenants-s7",
    ),
    layer(
        "sched.event_rounds",
        "count",
        "sched",
        Kind::Count,
        "event rounds of the scheduler loop",
        "op_mean_s on tenants-s7",
    ),
    layer(
        "sched.cosim_packets_ratio",
        "ratio",
        "sched",
        Kind::Count,
        "packets simulated in drain co-simulations per shared-run packet: work simulated twice",
        "op_mean_s on tenants-s7",
    ),
    layer(
        "sched.job_delay_rounds",
        "rounds",
        "sched",
        Kind::Sim,
        "mean job queueing delay of the schedule",
        "nothing: a perf change must leave it unchanged",
    ),
    layer(
        "obs.record_s",
        "s",
        "obs",
        Kind::Host,
        "net::trace::record_partitioned: the probed shared run",
        "op_mean_s and peak_heap_mb on tenants-s7",
    ),
    layer(
        "obs.write_s",
        "s",
        "obs",
        Kind::Host,
        "Trace::to_jsonl",
        "op_mean_s and peak_heap_mb on tenants-s7",
    ),
    layer(
        "obs.parse_s",
        "s",
        "obs",
        Kind::Host,
        "Trace::parse",
        "op_mean_s and peak_heap_mb on tenants-s7",
    ),
    layer(
        "obs.replay_s",
        "s",
        "obs",
        Kind::Host,
        "net::trace::replay",
        "op_mean_s and peak_heap_mb on tenants-s7",
    ),
    layer(
        "obs.events",
        "count",
        "obs",
        Kind::Count,
        "events in the recorded trace",
        "obs.write_s and obs.parse_s on tenants-s7",
    ),
    layer(
        "obs.bytes",
        "bytes",
        "obs",
        Kind::Count,
        "size of the JSONL trace",
        "obs.write_s and obs.parse_s on tenants-s7",
    ),
    higher(layer(
        "obs.write_mb_per_s",
        "MB/s",
        "obs",
        Kind::Host,
        "JSONL bytes written per second",
        "op_mean_s on tenants-s7",
    )),
    higher(layer(
        "obs.parse_mb_per_s",
        "MB/s",
        "obs",
        Kind::Host,
        "JSONL bytes parsed per second",
        "op_mean_s on tenants-s7",
    )),
    layer(
        "obs.probe_overhead_ratio",
        "ratio",
        "obs",
        Kind::Host,
        "obs.record_s divided by sched.tenant_run_s: the cost of recording the same run",
        "op_mean_s on tenants-s7",
    ),
    layer(
        "coll.cases_s",
        "s",
        "coll",
        Kind::Host,
        "seeded payload cases and reference folds during set-up",
        "setup_s on coll-s6",
    ),
    layer(
        "coll.build_s",
        "s",
        "coll",
        Kind::Host,
        "tree and lattice schedule constructors",
        "op_mean_s on coll-s6",
    ),
    layer(
        "coll.compile_s",
        "s",
        "coll",
        Kind::Host,
        "CollSchedule::compile (chain_phases simulates every phase)",
        "op_mean_s on coll-s6",
    ),
    layer(
        "coll.run_s",
        "s",
        "coll",
        Kind::Host,
        "Network::run_profiled of the compiled collectives",
        "op_mean_s on coll-s6",
    ),
    layer(
        "coll.execute_s",
        "s",
        "coll",
        Kind::Host,
        "exec::execute payload executor",
        "op_mean_s and peak_heap_mb on coll-s6",
    ),
    layer(
        "coll.phases",
        "count",
        "coll",
        Kind::Count,
        "barrier phases over the five collectives",
        "coll.compile_s on coll-s6",
    ),
    layer(
        "coll.sends",
        "count",
        "coll",
        Kind::Count,
        "point-to-point sends (network packets)",
        "coll.run_s on coll-s6",
    ),
    layer(
        "coll.slots",
        "count",
        "coll",
        Kind::Count,
        "payload slots moved by the executor",
        "coll.execute_s on coll-s6",
    ),
    layer(
        "coll.exec_ns_per_slot",
        "ns",
        "coll",
        Kind::Host,
        "coll.execute_s per payload slot",
        "op_mean_s on coll-s6",
    ),
    layer(
        "coll.compile_sim_ratio",
        "ratio",
        "coll",
        Kind::Count,
        "packets chain_phases simulates per packet of the chained run",
        "coll.compile_s on coll-s6",
    ),
    layer(
        "bench.unattributed_s",
        "s",
        "bench",
        Kind::Host,
        "traced op wall time not covered by a layer span",
        "nothing: the benchmark's own overhead",
    ),
    layer(
        "bench.trace_overhead_s",
        "s",
        "bench",
        Kind::Host,
        "traced op wall time minus the median untraced op wall time",
        "nothing: the cost of tracing",
    ),
];

/// Looks a metric up by name in either table.
#[must_use]
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn better(m: &Metric) -> &'static str {
    if m.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// `BENCHMARK.json` as committed at the repository root.
#[must_use]
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| format!("[\n{}\n  ]", items.join(",\n"));
    let strs = |xs: &[&str]| {
        xs.iter()
            .map(|s| json_str(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                better(m),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                json_str(m.name),
                json_str(m.unit),
                better(m)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strs(COMMAND),
        strs(PATHS),
        RUN_SECONDS,
        list(workloads),
        list(e2e),
        list(layers)
    )
}

/// The full declaration: every workload with its parameters and every
/// metric with its layer, kind, description and what it should move.
#[must_use]
pub fn describe_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"params\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.params),
                json_str(w.why)
            )
        })
        .collect();
    let metrics: Vec<String> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|m| {
            let bound = m
                .bound
                .map_or_else(|| "null".to_string(), |b| b.to_string());
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"layer\": {}, \"kind\": \"{}\", \"better\": \"{}\", \"bound\": {}, \"description\": {}, \"moves\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.layer),
                m.kind.name(),
                better(m),
                bound,
                json_str(m.description),
                json_str(m.moves)
            )
        })
        .collect();
    format!(
        "{{\n  \"workloads\": [\n{}\n  ],\n  \"metrics\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        metrics.join(",\n")
    )
}
