//! `tenants-s7`: schedule a seeded job stream, run the tenants on one
//! shared network, record the run, write it as JSONL, parse it back
//! and replay it.

use crate::bench::{Bench, Corruption, OpMode, Outcome};
use crate::span::Spans;
use crate::summary::Fnv;
use crate::traffic::stats_hash;
use crate::DEFAULT_SEED;
use sg_net::{Network, TrafficStats};
use sg_obs::{tick_clock, NullProbe, Trace};
use sg_sched::{
    generate, schedule_profiled, schedule_with, AllocPolicy, ArrivalPattern, JobSpec, SchedConfig,
    Schedule, ScheduleReport, StreamConfig, TenantRun, TrafficProfile,
};

/// Sizes and knobs of the tenant workload.
#[derive(Debug, Clone, Copy)]
pub struct TenantParams {
    /// Host star order.
    pub n: usize,
    /// Jobs in the stream.
    pub jobs: usize,
    /// Smallest requested order.
    pub min_order: usize,
}

impl TenantParams {
    /// `tenants-s7`: 40 jobs of orders 3..=7 on `S_7`.
    pub const TENANTS_S7: TenantParams = TenantParams {
        n: 7,
        jobs: 40,
        min_order: 3,
    };

    /// The stream configuration the job mix is drawn from.
    #[must_use]
    pub fn stream(&self) -> StreamConfig {
        StreamConfig {
            n: self.n,
            jobs: self.jobs,
            min_order: self.min_order,
            max_order: self.n,
            pattern: ArrivalPattern::Bursty { burst: 4, gap: 12 },
            duration: (10, 60),
            greedy_pct: 20,
            adaptive_pct: 10,
            oblivious_pct: 0,
            escape_pct: 0,
            underdeclare_pct: 35,
            seed: DEFAULT_SEED,
        }
    }

    /// The jobs for `seed`. The job mix (orders, arrivals, walltimes,
    /// routing, traffic kind) is the stream drawn at [`DEFAULT_SEED`];
    /// `seed` re-seeds the traffic of every job whose profile is
    /// seeded, and leaves it as drawn at the default seed. Whole-stream
    /// redraws swing the op time by 4x between seeds (the count of
    /// whole-machine jobs dominates), which no run length averages
    /// out; re-seeding the traffic keeps the scenario and varies its
    /// packets.
    #[must_use]
    pub fn jobs(&self, seed: u64) -> Vec<JobSpec> {
        let salt = (seed ^ DEFAULT_SEED).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut jobs = generate(&self.stream());
        for j in &mut jobs {
            match &mut j.traffic {
                TrafficProfile::UniformPairs { seed, .. }
                | TrafficProfile::Bernoulli { seed, .. } => {
                    *seed ^= salt;
                }
                TrafficProfile::DimensionSweep { .. } | TrafficProfile::Transpose => {}
            }
        }
        jobs
    }
}

/// The tenant workload, set up.
pub struct Tenants {
    seed: u64,
    net: Network,
    jobs: Vec<JobSpec>,
}

/// Everything one op produced.
pub struct TenantsOut {
    schedule: Schedule,
    /// Scheduler profile under the tick clock (traced op only):
    /// event rounds, drain co-simulations, backfill passes.
    ticks: Option<(u64, u64, u64)>,
    run: TenantRun,
    report: ScheduleReport,
    recorded: (TrafficStats, Vec<TrafficStats>),
    trace: Trace,
    bytes: u64,
    parsed: Result<Trace, String>,
    replayed: Result<(TrafficStats, Vec<TrafficStats>), String>,
}

impl Bench for Tenants {
    type Params = TenantParams;
    type Output = TenantsOut;

    fn setup(p: &TenantParams, seed: u64, spans: &mut Spans) -> Self {
        let net = spans.time("net.build", || Network::new(p.n));
        let jobs = spans.time("sched.generate", || p.jobs(seed));
        Tenants { seed, net, jobs }
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for b in format!("{:?}", self.jobs).bytes() {
            h.word(u64::from(b));
        }
        h.finish()
    }

    fn op(&self, spans: &mut Spans, mode: OpMode) -> TenantsOut {
        let cfg = SchedConfig::drained(&self.net).with_backfill();
        let mut alloc = AllocPolicy::FirstFit.build(self.net.n());
        let (schedule, ticks) = if mode.traced {
            let (s, prof) = spans.time("sched.schedule", || {
                schedule_profiled(&self.jobs, alloc.as_mut(), &cfg, &mut NullProbe, tick_clock)
            });
            (
                s,
                Some((prof.rounds, prof.drain_ticks, prof.backfill_ticks)),
            )
        } else {
            let s = spans.time("sched.schedule", || {
                schedule_with(&self.jobs, alloc.as_mut(), &cfg, &mut NullProbe)
            });
            (s, None)
        };
        let run = spans.time("sched.compose", || schedule.tenant_run());
        let report = spans.time("sched.tenant_run", || run.run(&self.net));
        let escape: Vec<bool> = schedule.placements().iter().map(|p| p.job.escape).collect();
        let (total, per_job, trace) = spans.time("obs.record", || {
            sg_net::trace::record_partitioned(
                &self.net,
                run.workload(),
                &run.policies(),
                run.owner(),
                &escape,
                self.seed,
            )
        });
        let mut text = spans.time("obs.write", || trace.to_jsonl());
        if mode.corrupt == Corruption::FlipJsonlByte {
            flip_digit(&mut text);
        }
        let bytes = text.len() as u64;
        let parsed = spans
            .time("obs.parse", || Trace::parse(&text))
            .map_err(|e| format!("parse: {e}"));
        drop(text);
        let replayed = match &parsed {
            Ok(t) => spans
                .time("obs.replay", || sg_net::trace::replay(t))
                .map(|r| (r.total, r.per_job))
                .map_err(|e| format!("replay: {e}")),
            Err(e) => Err(e.clone()),
        };
        TenantsOut {
            schedule,
            ticks,
            run,
            report,
            recorded: (total, per_job),
            trace,
            bytes,
            parsed,
            replayed,
        }
    }

    fn check(&self, out: TenantsOut, _mode: OpMode) -> Outcome {
        let mut o = Outcome::default();
        let s = &out.schedule;
        let total = &out.report.total;
        o.expect(s.placements().len() == self.jobs.len(), || {
            format!(
                "{} of {} jobs placed",
                s.placements().len(),
                self.jobs.len()
            )
        });
        o.expect(s.concurrent_placements_disjoint(), || {
            "concurrent placements overlap".to_string()
        });
        let violations = out.run.quiescence_violations(&out.report);
        o.expect(violations.is_empty(), || {
            format!("{} quiescence violations under Drained", violations.len())
        });
        o.expect(
            total.delivered == total.injected && total.stranded == 0,
            || {
                format!(
                    "shared run delivered {} of {} ({} stranded)",
                    total.delivered, total.injected, total.stranded
                )
            },
        );
        o.expect(out.recorded.0 == *total, || {
            "recorded run differs from the unrecorded one".to_string()
        });
        match (&out.parsed, &out.replayed) {
            (Ok(parsed), Ok(replayed)) => {
                o.expect(*parsed == out.trace, || {
                    "the parsed JSONL differs from the recorded trace".to_string()
                });
                o.expect(*replayed == out.recorded, || {
                    "replayed total or per-job statistics differ from the live run".to_string()
                });
            }
            (Err(e), _) | (_, Err(e)) => o.errors.push(e.clone()),
        }

        let shared = out.run.workload().len() as u64;
        let cosim: u64 = (0..s.placements().len())
            .map(|i| out.run.part(i).len() as u64)
            .sum();
        let delay_sum: u64 = s
            .placements()
            .iter()
            .map(|p| u64::from(p.queueing_delay()))
            .sum();
        o.digest = vec![
            ("sim_rounds", u64::from(s.horizon())),
            ("sim_wait_rounds", total.total_wait_rounds),
            ("obs.events", out.trace.events.len() as u64),
            ("obs.bytes", out.bytes),
            ("backfills", s.backfills() as u64),
            ("queueing_delay_sum", delay_sum),
            ("shared_packets", shared),
            ("stats_hash", stats_hash(total)),
        ];
        o.hops = total.forwarded_flits + out.recorded.0.forwarded_flits;
        o.layer = vec![
            (
                "sched.cosim_packets_ratio",
                cosim as f64 / shared.max(1) as f64,
            ),
            ("sched.job_delay_rounds", s.mean_queueing_delay()),
        ];
        if let Some((rounds, drains, backfills)) = out.ticks {
            o.expect(drains == s.placements().len() as u64, || {
                format!(
                    "{drains} drain co-simulations for {} placements",
                    s.placements().len()
                )
            });
            o.layer.extend([
                ("sched.event_rounds", rounds as f64),
                ("sched.drain_cosims", drains as f64),
                ("sched.backfill_probes", backfills as f64),
            ]);
        }
        o
    }
}

/// Changes one digit in the middle of the event stream, so the text
/// still parses line by line but says something else.
fn flip_digit(text: &mut String) {
    let mid = text.len() / 2;
    let at = text.as_bytes()[mid..]
        .iter()
        .position(u8::is_ascii_digit)
        .map(|i| mid + i)
        .expect("the trace has a digit past its middle");
    let old = text.as_bytes()[at];
    let new = if old == b'9' { b'8' } else { old + 1 };
    text.replace_range(at..=at, std::str::from_utf8(&[new]).expect("ascii digit"));
}
