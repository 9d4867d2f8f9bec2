//! `uniform-s8` and `escape-s7`: one seeded Bernoulli workload on a
//! whole star, routed greedily.

use crate::bench::{Bench, Corruption, OpMode, Outcome};
use crate::span::Spans;
use crate::summary::Fnv;
use sg_net::{
    Engine, FlowControl, GreedyRouting, NetConfig, Network, PacketOutcome, TrafficStats, Workload,
};
use sg_obs::PhaseProfile;

/// Sizes and knobs of a traffic workload.
#[derive(Debug, Clone, Copy)]
pub struct TrafficParams {
    /// Star order.
    pub n: usize,
    /// Injection rounds of `bernoulli_uniform`.
    pub rounds: u32,
    /// Injection rate, percent.
    pub rate_pct: u32,
    /// Escape-channel flow control with this per-queue capacity;
    /// `None` is tail-drop with unbounded queues.
    pub escape_capacity: Option<u32>,
}

impl TrafficParams {
    /// `uniform-s8`: one full-injection round on `S_8`. On `S_9` one
    /// op takes about a second and is bound by memory latency, which a
    /// shared host varies by half from op to op; `S_8` keeps the path
    /// (full injection, tail-drop, no flow control) in ops short enough
    /// that a run holds hundreds.
    pub const UNIFORM_S8: TrafficParams = TrafficParams {
        n: 8,
        rounds: 1,
        rate_pct: 100,
        escape_capacity: None,
    };

    /// `escape-s7`: 100 rounds at 57 % on `S_7`, two-slot queues:
    /// about 16 k diversions and 230 k escape hops in ops of about half
    /// a second, with makespan and waits within a few percent between
    /// seeds. Short ops let a run catch the host's quiet spells (see
    /// `bench::run`); over 300 rounds the knee sits near 55 %, where
    /// makespan and waits swing by half between seeds.
    pub const ESCAPE_S7: TrafficParams = TrafficParams {
        n: 7,
        rounds: 100,
        rate_pct: 57,
        escape_capacity: Some(2),
    };
}

/// A traffic workload, set up.
pub struct Traffic {
    net: Network,
    workload: Workload,
}

/// One op's output: the run's statistics and, on the traced op, its
/// phase profile.
pub struct TrafficOut {
    stats: TrafficStats,
    profile: Option<PhaseProfile>,
}

impl Bench for Traffic {
    type Params = TrafficParams;
    type Output = TrafficOut;

    fn setup(p: &TrafficParams, seed: u64, spans: &mut Spans) -> Self {
        let net = spans.time("net.build", || Network::new(p.n));
        let net = match p.escape_capacity {
            Some(cap) => net.with_config(NetConfig {
                queue_capacity: Some(cap),
                flow_control: FlowControl::EscapeChannel,
                ..NetConfig::default()
            }),
            None => net,
        };
        let workload = spans.time("net.workload", || {
            Workload::bernoulli_uniform(p.n, p.rounds, p.rate_pct, seed)
        });
        Traffic { net, workload }
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for inj in self.workload.injections() {
            h.word(u64::from(inj.round));
            h.word(inj.src);
            h.word(inj.dst);
        }
        h.finish()
    }

    fn op(&self, spans: &mut Spans, mode: OpMode) -> TrafficOut {
        if mode.traced {
            let (stats, profile) = spans.time("net.run", || {
                self.net.run_profiled(&self.workload, &GreedyRouting)
            });
            TrafficOut {
                stats,
                profile: Some(profile),
            }
        } else {
            TrafficOut {
                stats: spans.time("net.run", || self.net.run(&self.workload, &GreedyRouting)),
                profile: None,
            }
        }
    }

    fn check(&self, mut out: TrafficOut, mode: OpMode) -> Outcome {
        if mode.corrupt == Corruption::DropPacketRecord {
            out.stats.packets.pop();
        }
        let s = &out.stats;
        let mut o = Outcome::default();
        let packets = self.workload.len() as u64;
        o.expect(s.injected == packets, || {
            format!("injected {} of {packets} packets", s.injected)
        });
        o.expect(s.delivered == s.injected, || {
            format!("delivered {} of {} injected", s.delivered, s.injected)
        });
        o.expect(s.stranded == 0, || {
            format!("{} packets stranded", s.stranded)
        });
        let delivered = s
            .packets
            .iter()
            .filter(|r| r.outcome.is_delivered())
            .count() as u64;
        o.expect(
            s.packets.len() as u64 == packets && delivered == packets,
            || {
                format!(
                    "{} packet records, {delivered} delivered, for {packets} packets",
                    s.packets.len()
                )
            },
        );
        o.digest = vec![
            ("sim_rounds", u64::from(s.makespan)),
            ("sim_wait_rounds", s.total_wait_rounds),
            ("net.packets", s.injected),
            ("net.hops", s.forwarded_flits),
            ("net.escape_hops", s.escape_forwarded_flits),
            ("net.escape_diversions", s.escape_diversions),
            ("net.stall_rounds", s.injection_stall_rounds),
            ("net.peak_node_occupancy", s.peak_node_occupancy),
            ("stats_hash", stats_hash(s)),
        ];
        o.hops = s.forwarded_flits;
        if let Some(p) = out.profile {
            o.layer = phase_metrics(&p);
        }
        o
    }

    fn traced_checks(&self, out: &TrafficOut) -> Vec<String> {
        let reference = self
            .net
            .run_with(&self.workload, &GreedyRouting, Engine::Reference);
        if reference == out.stats {
            Vec::new()
        } else {
            vec!["reference engine statistics differ from the fast engine's".to_string()]
        }
    }
}

/// The profiled phase times (ns) as per-layer metrics (s).
pub fn phase_metrics(p: &PhaseProfile) -> Vec<(&'static str, f64)> {
    vec![
        ("net.arrivals_s", p.arrivals_ticks as f64 * 1e-9),
        ("net.injections_s", p.injections_ticks as f64 * 1e-9),
        ("net.arbitration_s", p.arbitration_ticks as f64 * 1e-9),
        ("net.accounting_s", p.accounting_ticks as f64 * 1e-9),
        ("net.rounds", p.rounds as f64),
    ]
}

/// A digest of every field of `s`, per-packet records included.
#[must_use]
pub fn stats_hash(s: &TrafficStats) -> u64 {
    let mut h = Fnv::default();
    for w in [
        s.n as u64,
        s.injected,
        s.delivered,
        s.dropped_fault,
        s.dropped_unreachable,
        s.dropped_overflow,
        s.stranded,
        u64::from(s.makespan),
        s.total_wait_rounds,
        s.injection_stall_rounds,
        s.peak_edge_occupancy,
        s.peak_node_occupancy,
        s.forwarded_flits,
        s.escape_diversions,
        s.escape_forwarded_flits,
        s.peak_escape_occupancy,
        s.sum_latency,
        u64::from(s.max_latency),
    ] {
        h.word(w);
    }
    for &c in &s.latency_histogram {
        h.word(c);
    }
    for r in &s.packets {
        h.word(r.src);
        h.word(r.dst);
        h.word(u64::from(r.inject_round));
        let (tag, a, b) = match r.outcome {
            PacketOutcome::Delivered { round, hops } => (0, round, hops),
            PacketOutcome::DroppedFault { round } => (1, round, 0),
            PacketOutcome::DroppedUnreachable { round } => (2, round, 0),
            PacketOutcome::DroppedOverflow { round } => (3, round, 0),
            PacketOutcome::Stranded => (4, 0, 0),
        };
        h.word(tag | u64::from(a) << 8 | u64::from(b) << 40);
    }
    h.finish()
}
