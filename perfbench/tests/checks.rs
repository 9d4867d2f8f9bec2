//! The benchmark's own tests, on small instances of each workload:
//! seeds reproduce, checks catch corrupted outputs, and
//! `BENCHMARK.json` is the rendering of the spec.

use sg_perfbench::bench::{self, Bench, Corruption, Report, RunConfig};
use sg_perfbench::coll::{Coll, CollParams};
use sg_perfbench::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use sg_perfbench::tenants::{TenantParams, Tenants};
use sg_perfbench::traffic::{Traffic, TrafficParams};

const UNIFORM: TrafficParams = TrafficParams {
    n: 6,
    rounds: 1,
    rate_pct: 100,
    escape_capacity: None,
};
const ESCAPE: TrafficParams = TrafficParams {
    n: 5,
    rounds: 40,
    rate_pct: 60,
    escape_capacity: Some(2),
};
const TENANTS: TenantParams = TenantParams {
    n: 5,
    jobs: 12,
    min_order: 3,
};
const COLL: CollParams = CollParams { order: 4 };

fn once<B: Bench>(params: &B::Params, seed: u64, corrupt: Corruption) -> Report {
    bench::run::<B>(
        params,
        RunConfig {
            seed,
            seconds: 0.0,
            trace: true,
            corrupt,
        },
    )
}

/// Same seed: identical inputs, counts and simulated figures, and
/// every op passes. Another seed: other inputs.
fn reproducible<B: Bench>(params: &B::Params) {
    let a = once::<B>(params, 7, Corruption::None);
    let b = once::<B>(params, 7, Corruption::None);
    let c = once::<B>(params, 8, Corruption::None);
    for r in [&a, &b, &c] {
        assert!(r.correct && r.failed == 0, "failed checks: {:?}", r.errors);
        assert_eq!(r.attempted, 2, "one timed op and the traced op");
    }
    assert_eq!(a.input_digest, b.input_digest);
    assert_eq!(a.digest, b.digest);
    assert!(!a.digest.is_empty());
    for m in ["sim_rounds", "sim_wait_rounds"] {
        assert_eq!(a.end_to_end[m], b.end_to_end[m], "{m}");
    }
    for m in PER_LAYER.iter().filter(|m| m.kind != spec::Kind::Host) {
        assert_eq!(a.per_layer[m.name], b.per_layer[m.name], "{}", m.name);
    }
    assert_ne!(a.input_digest, c.input_digest, "another seed, other inputs");
}

/// A corrupted output fails every op it touches.
fn non_vacuous<B: Bench>(params: &B::Params, corrupt: Corruption) {
    let r = once::<B>(params, 7, corrupt);
    assert!(!r.correct);
    assert_eq!(
        r.failed, r.attempted,
        "every corrupted op must fail: {:?}",
        r.errors
    );
}

#[test]
fn uniform_is_reproducible() {
    reproducible::<Traffic>(&UNIFORM);
}

#[test]
fn escape_is_reproducible_and_uses_the_escape_channel() {
    reproducible::<Traffic>(&ESCAPE);
    let r = once::<Traffic>(&ESCAPE, 7, Corruption::None);
    assert!(r.per_layer["net.escape_diversions"] > 0.0);
}

#[test]
fn tenants_are_reproducible() {
    reproducible::<Tenants>(&TENANTS);
}

#[test]
fn coll_is_reproducible() {
    reproducible::<Coll>(&COLL);
}

#[test]
fn a_dropped_packet_record_fails_the_traffic_check() {
    non_vacuous::<Traffic>(&UNIFORM, Corruption::DropPacketRecord);
    non_vacuous::<Traffic>(&ESCAPE, Corruption::DropPacketRecord);
}

#[test]
fn a_flipped_jsonl_byte_fails_the_tenant_check() {
    non_vacuous::<Tenants>(&TENANTS, Corruption::FlipJsonlByte);
}

#[test]
fn a_perturbed_fold_fails_the_collective_check() {
    non_vacuous::<Coll>(&COLL, Corruption::PerturbFold);
}

#[test]
fn traced_run_reports_every_layer_metric() {
    let r = once::<Tenants>(&TENANTS, 7, Corruption::None);
    assert_eq!(r.per_layer.len(), PER_LAYER.len());
    for m in [
        "sched.schedule_s",
        "obs.write_s",
        "obs.parse_s",
        "sched.drain_cosims",
    ] {
        assert!(r.per_layer[m] > 0.0, "{m}");
    }
    assert!(r
        .spans_json
        .as_deref()
        .is_some_and(|s| s.contains("obs.replay")));
    assert_eq!(r.end_to_end.len(), END_TO_END.len());
}

#[test]
fn benchmark_json_is_the_rendered_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "regenerate with --emit-benchmark-json"
    );
}

#[test]
fn spec_meets_the_benchmark_contract() {
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
    for n in &names {
        assert!(name_ok(n), "bad name {n}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "names are used once");
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!(WORKLOADS
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(unit_ok(m.unit), "bad unit {}", m.unit);
    }
    for m in END_TO_END {
        let b = m.bound.expect("end-to-end bound");
        assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
    }
    let setup = spec::metric("setup_s").expect("setup_s is declared");
    assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
}

/// A workload whose counts drift from op to op.
struct Drifting(std::cell::Cell<u64>);

impl Bench for Drifting {
    type Params = ();
    type Output = u64;

    fn setup(_: &(), _: u64, _: &mut sg_perfbench::span::Spans) -> Self {
        Drifting(std::cell::Cell::new(0))
    }

    fn input_digest(&self) -> u64 {
        0
    }

    fn op(&self, _: &mut sg_perfbench::span::Spans, _: bench::OpMode) -> u64 {
        self.0.set(self.0.get() + 1);
        self.0.get()
    }

    fn check(&self, out: u64, _: bench::OpMode) -> bench::Outcome {
        bench::Outcome {
            digest: vec![("sim_rounds", out)],
            ..bench::Outcome::default()
        }
    }
}

#[test]
fn counts_that_do_not_repeat_fail_the_op() {
    let r = once::<Drifting>(&(), 7, Corruption::None);
    assert_eq!((r.attempted, r.failed), (2, 1), "the traced op drifted");
}
