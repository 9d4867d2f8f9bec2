//! `coll-s6`: build, compile, run and payload-execute five collectives
//! on one star.

use crate::bench::{Bench, Corruption, OpMode, Outcome};
use crate::span::Spans;
use crate::summary::Fnv;
use crate::traffic::{phase_metrics, stats_hash};
use sg_coll::{
    allgather_case, allgather_doubling, allreduce_case, allreduce_lattice, broadcast_case,
    broadcast_tree, distance_lower_bound, execute, reduce_case, reduce_scatter_case,
    reduce_scatter_halving, reduce_tree, seeded_matrix, seeded_values, CollSchedule, GlobalState,
    PayloadCase, PayloadError,
};
use sg_net::{ChainedWorkload, GreedyRouting, Network, TrafficStats};
use sg_obs::PhaseProfile;

/// Sizes of the collective workload.
#[derive(Debug, Clone, Copy)]
pub struct CollParams {
    /// Star order.
    pub order: usize,
}

impl CollParams {
    /// `coll-s6`: the five collectives on `S_6`.
    pub const COLL_S6: CollParams = CollParams { order: 6 };
}

/// The collective workload, set up: the network, the seeded root and
/// the payload case (initial state and reference fold) of each
/// collective, in [`Coll::build`] order.
pub struct Coll {
    net: Network,
    order: usize,
    root: u64,
    cases: Vec<PayloadCase>,
}

/// One op's output.
pub struct CollOut {
    schedules: Vec<CollSchedule>,
    chained: Vec<ChainedWorkload>,
    stats: Vec<TrafficStats>,
    profile: Option<PhaseProfile>,
    folds: Vec<Result<GlobalState, PayloadError>>,
}

/// Collectives whose makespan must be exactly `2·ecc − 1` with no
/// waits: the two tree collectives, first in build order.
const TREES: usize = 2;

impl Coll {
    fn build(&self) -> Vec<CollSchedule> {
        let m = self.order;
        vec![
            broadcast_tree(m, self.root),
            reduce_tree(m, self.root),
            reduce_scatter_halving(m),
            allgather_doubling(m),
            allreduce_lattice(m),
        ]
    }
}

impl Bench for Coll {
    type Params = CollParams;
    type Output = CollOut;

    fn setup(p: &CollParams, seed: u64, spans: &mut Spans) -> Self {
        let m = p.order;
        let net = spans.time("net.build", || Network::new(m));
        let (root, cases) = spans.time("coll.cases", || {
            let values = seeded_values(m, seed);
            let matrix = seeded_matrix(m, seed.rotate_left(32));
            let root = seed % values.len() as u64;
            let cases = vec![
                broadcast_case(m, root, values[root as usize]),
                reduce_case(m, root, &values),
                reduce_scatter_case(m, &matrix),
                allgather_case(m, &values),
                allreduce_case(m, &matrix),
            ];
            (root, cases)
        });
        Coll {
            net,
            order: m,
            root,
            cases,
        }
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.word(self.root);
        for case in &self.cases {
            for (pe, slots) in &case.init {
                h.word(*pe);
                for (slot, v) in slots {
                    h.word(*slot);
                    h.word(*v);
                }
            }
        }
        h.finish()
    }

    fn op(&self, spans: &mut Spans, mode: OpMode) -> CollOut {
        let schedules = spans.time("coll.build", || self.build());
        let chained: Vec<ChainedWorkload> = spans.time("coll.compile", || {
            schedules
                .iter()
                .map(|s| s.compile(&self.net, &GreedyRouting))
                .collect()
        });
        let (stats, profile) = spans.time("coll.run", || {
            if mode.traced {
                let mut total = PhaseProfile::default();
                let stats = chained
                    .iter()
                    .map(|c| {
                        let (s, p) = self.net.run_profiled(&c.workload, &GreedyRouting);
                        total.rounds += p.rounds;
                        total.arrivals_ticks += p.arrivals_ticks;
                        total.injections_ticks += p.injections_ticks;
                        total.arbitration_ticks += p.arbitration_ticks;
                        total.accounting_ticks += p.accounting_ticks;
                        s
                    })
                    .collect();
                (stats, Some(total))
            } else {
                let stats = chained
                    .iter()
                    .map(|c| self.net.run(&c.workload, &GreedyRouting))
                    .collect();
                (stats, None)
            }
        });
        let folds = spans.time("coll.execute", || {
            schedules
                .iter()
                .zip(&self.cases)
                .map(|(s, case)| execute(s, &case.init))
                .collect()
        });
        CollOut {
            schedules,
            chained,
            stats,
            profile,
            folds,
        }
    }

    fn check(&self, mut out: CollOut, mode: OpMode) -> Outcome {
        if mode.corrupt == Corruption::PerturbFold {
            if let Some(Ok(state)) = out.folds.last_mut() {
                let v = state
                    .values_mut()
                    .flat_map(|slots| slots.values_mut())
                    .next()
                    .expect("the fold holds a value");
                *v = v.wrapping_add(1);
            }
        }
        let mut o = Outcome::default();
        let ecc = distance_lower_bound(self.order);
        let mut hash = Fnv::default();
        for (k, ((sched, s), fold)) in out
            .schedules
            .iter()
            .zip(&out.stats)
            .zip(&out.folds)
            .enumerate()
        {
            let name = sched.name();
            o.expect(s.delivered == s.injected && s.stranded == 0, || {
                format!("{name}: delivered {} of {}", s.delivered, s.injected)
            });
            o.expect(s.injected == sched.total_sends() as u64, || {
                format!(
                    "{name}: {} packets for {} sends",
                    s.injected,
                    sched.total_sends()
                )
            });
            if k < TREES {
                o.expect(
                    s.makespan == 2 * ecc - 1 && s.total_wait_rounds == 0,
                    || {
                        format!(
                            "{name}: makespan {} with {} waits, expected {} with none",
                            s.makespan,
                            s.total_wait_rounds,
                            2 * ecc - 1
                        )
                    },
                );
            }
            match fold {
                Ok(state) => o.expect(*state == self.cases[k].expected, || {
                    format!("{name}: payload differs from the reference fold")
                }),
                Err(e) => o.errors.push(format!("{name}: {e}")),
            }
            hash.word(stats_hash(s));
        }
        let sum = |f: fn(&TrafficStats) -> u64| out.stats.iter().map(f).sum::<u64>();
        let phases: u64 = out.schedules.iter().map(|s| s.phase_count() as u64).sum();
        let sends: u64 = out.schedules.iter().map(|s| s.total_sends() as u64).sum();
        let slots: u64 = out
            .schedules
            .iter()
            .flat_map(|s| s.phases().iter().flatten())
            .map(|send| send.slots.len() as u64)
            .sum();
        // chain_phases simulates every phase once on its own before
        // the chained run simulates them all again.
        let compiled: u64 = out
            .schedules
            .iter()
            .flat_map(CollSchedule::phase_workloads)
            .map(|w| w.len() as u64)
            .sum();
        let chained: u64 = out.chained.iter().map(|c| c.workload.len() as u64).sum();
        o.digest = vec![
            ("sim_rounds", sum(|s| u64::from(s.makespan))),
            ("sim_wait_rounds", sum(|s| s.total_wait_rounds)),
            ("coll.phases", phases),
            ("coll.sends", sends),
            ("coll.slots", slots),
            ("stats_hash", hash.finish()),
        ];
        o.hops = sum(|s| s.forwarded_flits);
        o.layer = vec![(
            "coll.compile_sim_ratio",
            compiled as f64 / chained.max(1) as f64,
        )];
        if let Some(p) = out.profile {
            o.layer.extend(phase_metrics(&p));
        }
        o
    }
}
