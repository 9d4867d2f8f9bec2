//! The closed-loop runner every workload shares.
//!
//! One client issues one op at a time: the next op starts when the
//! previous one returns. A run sets the workload up several times
//! (reporting the median), then runs ops for the requested seconds,
//! checking every op's output and that its counts and simulated
//! figures repeat exactly. A traced run adds one op with spans around
//! every layer call and the extra checks only that pass makes.

use crate::heap;
use crate::span::Spans;
use crate::spec::{self, PER_LAYER};
use crate::summary::{median, tail};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A deliberate corruption of one workload's output, used to show
/// that the checks are not vacuous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Corruption {
    /// Outputs as produced.
    #[default]
    None,
    /// Traffic workloads: remove one packet record from the stats.
    DropPacketRecord,
    /// `tenants-s7`: flip one digit of the JSONL trace before parsing.
    FlipJsonlByte,
    /// `coll-s6`: perturb one value of the executed payload fold.
    PerturbFold,
}

/// How one op runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpMode {
    /// The traced op: profiled entry points where the library has
    /// them.
    pub traced: bool,
    /// Corruption applied to the output.
    pub corrupt: Corruption,
}

/// What checking one op's output found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Failed checks; empty when the op is correct.
    pub errors: Vec<String>,
    /// Counts and simulated figures that must repeat exactly on every
    /// op of a seed. Entries named like a metric feed that metric.
    pub digest: Vec<(&'static str, u64)>,
    /// Simulated link traversals of the op.
    pub hops: u64,
    /// Per-layer values the output yields (counts, ratios, profiled
    /// phase times).
    pub layer: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// One workload.
pub trait Bench: Sized {
    /// Sizes and knobs.
    type Params;
    /// What one op returns.
    type Output;

    /// Builds the network and generates the inputs from `seed`; every
    /// layer call sits in a span of `spans`.
    fn setup(params: &Self::Params, seed: u64, spans: &mut Spans) -> Self;

    /// A digest of the generated inputs.
    fn input_digest(&self) -> u64;

    /// One op: the library calls only, each in a span of `spans`.
    fn op(&self, spans: &mut Spans, mode: OpMode) -> Self::Output;

    /// Checks an op's output (after applying `mode.corrupt`).
    fn check(&self, out: Self::Output, mode: OpMode) -> Outcome;

    /// Checks only the traced pass makes, such as a second engine.
    fn traced_checks(&self, _out: &Self::Output) -> Vec<String> {
        Vec::new()
    }
}

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed ops.
    pub seconds: f64,
    /// Add the traced op and report per-layer metrics.
    pub trace: bool,
    /// Corruption applied to every op's output.
    pub corrupt: Corruption,
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// No op failed.
    pub correct: bool,
    /// Ops attempted, the traced op included.
    pub attempted: u64,
    /// Ops whose checks failed.
    pub failed: u64,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs only).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Context printed next to the metrics.
    pub detail: Vec<(&'static str, String)>,
    /// First failure messages, for the log.
    pub errors: Vec<String>,
    /// The traced op's spans as JSON (traced runs only).
    pub spans_json: Option<String>,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// The first op's digest.
    pub digest: Vec<(&'static str, u64)>,
}

/// Set-up is repeated at least this many times per run ...
const SETUP_MIN_REPS: usize = 5;
/// ... and until it has taken this long in total ...
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(2);
/// ... but never more often than this.
const SETUP_MAX_REPS: usize = 401;

/// Runs one workload end to end.
pub fn run<B: Bench>(params: &B::Params, cfg: RunConfig) -> Report {
    let mode = OpMode {
        traced: false,
        corrupt: cfg.corrupt,
    };
    // One untimed set-up and op with the live heap counted (the
    // counting would slow the timed passes); it also warms the caches
    // and the allocator before any timing.
    let ((), peak_heap_mb) = heap::measure(|| {
        let mut off = Spans::off();
        let warm = B::setup(params, cfg.seed, &mut off);
        drop(warm.op(&mut off, mode));
    });

    // Set-up, several times; keep the last state for the ops.
    let mut setup_walls = Vec::new();
    let mut setup_layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let started = Instant::now();
    let mut bench: Option<B> = None;
    while setup_walls.len() < SETUP_MIN_REPS
        || (started.elapsed() < SETUP_MIN_TOTAL && setup_walls.len() < SETUP_MAX_REPS)
    {
        drop(bench.take());
        let mut spans = Spans::on();
        let t = Instant::now();
        bench = Some(B::setup(params, cfg.seed, &mut spans));
        setup_walls.push(t.elapsed().as_secs_f64());
        for (name, secs) in spans.self_times() {
            setup_layers.entry(name).or_default().push(secs);
        }
    }
    let bench = bench.expect("set up at least once");

    let mut judge = Judge::default();

    // Timed closed-loop ops.
    let mut op_secs = Vec::new();
    let mut hops = 0;
    let mut off = Spans::off();
    let window = Instant::now();
    while op_secs.is_empty() || window.elapsed().as_secs_f64() < cfg.seconds {
        let t = Instant::now();
        let out = bench.op(&mut off, mode);
        op_secs.push(t.elapsed().as_secs_f64());
        let outcome = bench.check(out, mode);
        hops += outcome.hops;
        judge.judge(&outcome);
    }

    // Every op does the same work (its counts are checked), so op
    // times differ only by what the host lets through: on a shared
    // host, other virtual machines slow this one by up to half, in
    // spells of seconds to minutes. The whole window's mean (the
    // throughput) varied least between runs; the median, tail and
    // fastest op are printed as detail.
    let op_secs_total: f64 = op_secs.iter().sum();
    let op_p50 = median(&op_secs);
    let (op_tail, tail_pct, samples) = tail(&op_secs);
    let op_min = op_secs.iter().copied().fold(f64::INFINITY, f64::min);
    let first = judge.baseline.clone().unwrap_or_default();
    let mut end_to_end = BTreeMap::new();
    end_to_end.insert("setup_s", median(&setup_walls));
    end_to_end.insert("op_mean_s", op_secs_total / samples as f64);
    end_to_end.insert("sim_hops_per_s", hops as f64 / op_secs_total);
    end_to_end.insert("peak_heap_mb", peak_heap_mb);
    for name in ["sim_rounds", "sim_wait_rounds"] {
        let v = first
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |&(_, v)| v);
        end_to_end.insert(name, v as f64);
    }

    // The traced op, outside the timed window.
    let mut per_layer = BTreeMap::new();
    let mut spans_json = None;
    if cfg.trace {
        let mode = OpMode {
            traced: true,
            corrupt: cfg.corrupt,
        };
        let mut spans = Spans::on();
        spans.enter("bench.op");
        let out = bench.op(&mut spans, mode);
        spans.exit();
        let traced_wall = spans.spans()[0].secs();
        let extra = bench.traced_checks(&out);
        let mut outcome = bench.check(out, mode);
        outcome.errors.extend(extra);
        judge.judge(&outcome);
        per_layer = layer_metrics(&spans, &setup_layers, &outcome, traced_wall, op_p50);
        spans_json = Some(spans.to_json());
    }

    let Judge {
        attempted,
        failed,
        errors,
        ..
    } = judge;
    Report {
        correct: failed == 0,
        attempted,
        failed,
        end_to_end,
        per_layer,
        detail: vec![
            ("ops", samples.to_string()),
            ("op_p50_s", op_p50.to_string()),
            ("op_tail_s", op_tail.to_string()),
            ("op_tail_percentile", format!("{tail_pct:.1}")),
            ("op_min_s", op_min.to_string()),
            ("peak_rss_mb", peak_rss_mb().to_string()),
            ("setup_reps", setup_walls.len().to_string()),
            (
                "fail_ratio",
                format!("{}", failed as f64 / attempted as f64),
            ),
            (
                "op_secs",
                op_secs
                    .iter()
                    .map(|s| format!("{s:.4}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
        ],
        errors,
        spans_json,
        input_digest: bench.input_digest(),
        digest: first,
    }
}

/// Counts ops and failures; an op fails when a check fails or its
/// digest differs from the first op's.
#[derive(Default)]
struct Judge {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    baseline: Option<Vec<(&'static str, u64)>>,
}

impl Judge {
    fn judge(&mut self, outcome: &Outcome) {
        self.attempted += 1;
        let mut bad = outcome.errors.clone();
        match &self.baseline {
            None => self.baseline = Some(outcome.digest.clone()),
            Some(first) if *first != outcome.digest => bad.push(format!(
                "counts differ from the first op: {:?} vs {:?}",
                outcome.digest, first
            )),
            Some(_) => {}
        }
        if !bad.is_empty() {
            self.failed += 1;
            self.errors.extend(bad.into_iter().take(3));
        }
    }
}

/// Per-layer metrics of a traced run: set-up span medians, traced-op
/// span self times (`<span>_s`), the values the output yields, and the
/// ratios derived from them. Every declared metric is present; a layer
/// the workload does not call reads 0.
fn layer_metrics(
    spans: &Spans,
    setup_layers: &BTreeMap<&'static str, Vec<f64>>,
    outcome: &Outcome,
    traced_wall: f64,
    op_p50: f64,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|x| (x.name, 0.0)).collect();
    let mut set = |name: &str, v: f64| {
        let key = spec::metric(name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric"))
            .name;
        m.insert(key, v);
    };
    for (span, secs) in setup_layers {
        set(&format!("{span}_s"), median(secs));
    }
    let own = spans.self_times();
    for (span, secs) in &own {
        if *span != "bench.op" {
            set(&format!("{span}_s"), *secs);
        }
    }
    for &(name, v) in &outcome.digest {
        if spec::metric(name).is_some_and(|x| x.layer != "e2e") {
            set(name, v as f64);
        }
    }
    for &(name, v) in &outcome.layer {
        set(name, v);
    }
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let totals = spans.totals();
    let profiled_wall = totals.get("net.run").copied().unwrap_or(0.0)
        + totals.get("coll.run").copied().unwrap_or(0.0);
    let phases: f64 = [
        "net.arrivals_s",
        "net.injections_s",
        "net.arbitration_s",
        "net.accounting_s",
    ]
    .iter()
    .map(|k| get(&m, k))
    .sum();
    let derived = [
        (
            "net.outside_phases_s",
            if phases > 0.0 {
                profiled_wall - phases
            } else {
                0.0
            },
        ),
        (
            "net.ns_per_hop",
            ratio(get(&m, "net.run_s") * 1e9, get(&m, "net.hops")),
        ),
        (
            "obs.write_mb_per_s",
            ratio(get(&m, "obs.bytes") * 1e-6, get(&m, "obs.write_s")),
        ),
        (
            "obs.parse_mb_per_s",
            ratio(get(&m, "obs.bytes") * 1e-6, get(&m, "obs.parse_s")),
        ),
        (
            "obs.probe_overhead_ratio",
            ratio(get(&m, "obs.record_s"), get(&m, "sched.tenant_run_s")),
        ),
        (
            "coll.exec_ns_per_slot",
            ratio(get(&m, "coll.execute_s") * 1e9, get(&m, "coll.slots")),
        ),
        (
            "bench.unattributed_s",
            own.get("bench.op").copied().unwrap_or(0.0),
        ),
        ("bench.trace_overhead_s", traced_wall - op_p50),
    ];
    for (name, v) in derived {
        m.insert(name, v);
    }
    m
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
