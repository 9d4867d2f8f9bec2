//! Deadlock-freedom sweep: the escape channel's headline theorem,
//! checked exhaustively where it is checkable.
//!
//! For **every** (star order `n ≤ 4`) × (pool size 1–2) × (workload
//! pattern) × (routing policy) cell, [`FlowControl::EscapeChannel`]
//! must drain the network completely — every packet delivered, zero
//! stranded, zero dropped — with both engines byte-identical. The same
//! sweep runs under [`FlowControl::CreditBased`] and records which
//! cells deadlock (strand survivors at the fixed point); that set must
//! be **non-empty**, otherwise the theorem is vacuous: an escape
//! channel that is only ever exercised where credits already suffice
//! proves nothing.
//!
//! Why the argument is a theorem and not a hope: escape residents live
//! in a bank with one slot per (PE, residual-hop class), served
//! lowest-class-first with channel priority. At any hypothetical
//! fixed point the globally minimal-class resident would need a slot
//! held by a strictly lower class — infinite descent — so some escape
//! packet always moves; adaptive heads that starve for credit divert
//! into the bank. See `FlowControl::EscapeChannel` rustdoc for the
//! full invariant.

use sg_net::{
    AdaptiveRouting, EmbeddingRouting, Engine, FlowControl, GreedyRouting, NetConfig, Network,
    RoutingPolicy, Workload,
};
use sg_obs::{Event, EventLog};
use std::collections::HashMap;

fn policies() -> Vec<(&'static str, Box<dyn RoutingPolicy>)> {
    vec![
        ("greedy", Box::new(GreedyRouting)),
        ("embedding", Box::new(EmbeddingRouting)),
        ("adaptive", Box::new(AdaptiveRouting)),
    ]
}

/// Saturating workload patterns sized to wedge tiny pools: sustained
/// full-rate Bernoulli traffic, dense uniform pairs, permutation
/// all-to-all, and a hot spot. (The Lemma-5 sweeps are deliberately
/// absent — they are contention-free and wedge nothing.)
fn patterns(n: usize, seed: u64) -> Vec<Workload> {
    vec![
        Workload::bernoulli_uniform(n, 40, 100, seed),
        Workload::uniform_pairs(n, 48, seed),
        Workload::random_permutation(n, seed),
        Workload::hot_spot(n, seed % 2, 80, seed),
    ]
}

fn config(fc: FlowControl, cap: u32) -> NetConfig {
    NetConfig {
        queue_capacity: Some(cap),
        flow_control: fc,
        ..NetConfig::default()
    }
}

/// The exhaustive sweep. One test so the credit-deadlock set is
/// tallied across the whole grid before the non-emptiness assert.
#[test]
fn escape_drains_every_tiny_pool_cell_where_credit_deadlocks() {
    let mut cells = 0usize;
    let mut credit_deadlocks: Vec<String> = Vec::new();
    for n in 2..=4usize {
        for cap in 1..=2u32 {
            for seed in [1u64, 7, 596] {
                for w in patterns(n, seed) {
                    for (policy_name, policy) in policies() {
                        cells += 1;
                        let cell = format!(
                            "n={n} cap={cap} seed={seed} workload={} policy={policy_name}",
                            w.name()
                        );

                        // Credit side: record (not require) deadlock.
                        let credit = Network::new(n)
                            .with_config(config(FlowControl::CreditBased, cap))
                            .run(&w, policy.as_ref());
                        if credit.stranded > 0 {
                            credit_deadlocks.push(cell.clone());
                        }

                        // Escape side: the theorem, cell by cell.
                        let net =
                            Network::new(n).with_config(config(FlowControl::EscapeChannel, cap));
                        let fast = net.run_with(&w, policy.as_ref(), Engine::Fast);
                        let reference = net.run_with(&w, policy.as_ref(), Engine::Reference);
                        assert_eq!(fast, reference, "engines diverged: {cell}");
                        assert_eq!(fast.stranded, 0, "escape deadlocked: {cell}");
                        assert_eq!(fast.dropped(), 0, "escape dropped: {cell}");
                        assert_eq!(fast.delivered, fast.injected, "incomplete drain: {cell}");
                        assert_eq!(
                            fast.delivered + fast.dropped() + fast.stranded,
                            fast.injected,
                            "conservation: {cell}"
                        );
                    }
                }
            }
        }
    }
    assert!(
        !credit_deadlocks.is_empty(),
        "vacuous theorem: CreditBased never deadlocked in {cells} cells"
    );
    // The sweep is only meaningful if deadlock is the rule at tiny
    // pools, not a fluke of one seed: n = 4 at cap 1 under sustained
    // full-rate traffic wedges for every seed and policy.
    assert!(
        credit_deadlocks.len() >= 10,
        "credit deadlock set suspiciously small ({} of {cells}): {credit_deadlocks:?}",
        credit_deadlocks.len()
    );
}

/// Diversions are real work, not a dead branch: across the sweep grid
/// the escape channel must actually be used where credits wedge.
#[test]
fn escape_channel_is_exercised_not_vacuous() {
    let mut total_diversions = 0u64;
    let mut total_escape_flits = 0u64;
    for n in 3..=4usize {
        let w = Workload::bernoulli_uniform(n, 40, 100, 1);
        let net = Network::new(n).with_config(config(FlowControl::EscapeChannel, 1));
        let stats = net.run(&w, &GreedyRouting);
        total_diversions += stats.escape_diversions;
        total_escape_flits += stats.escape_forwarded_flits;
        assert!(
            stats.escape_forwarded_flits <= stats.forwarded_flits,
            "escape flits are a subset of all flits"
        );
        assert!(
            stats.peak_escape_occupancy > 0,
            "n={n}: bank never held a resident"
        );
    }
    assert!(total_diversions > 0, "no packet ever diverted");
    assert!(
        total_escape_flits >= total_diversions,
        "diverted packets move"
    );
}

/// Opt-out honored: when no packet may escape, `EscapeChannel`
/// degrades to exactly `CreditBased` — byte-identical stats, same
/// deadlock. (Packet-level opt-in is exercised through `sg-sched`;
/// here the equivalence is pinned at the network level with the
/// all-jobs-opted-out partitioned entry point.)
#[test]
fn all_opted_out_escape_equals_credit() {
    let n = 4;
    let w = Workload::bernoulli_uniform(n, 40, 100, 596);
    let owner: Vec<u32> = vec![0; w.len()];
    let policies: [&dyn RoutingPolicy; 1] = [&GreedyRouting];
    let credit = Network::new(n)
        .with_config(config(FlowControl::CreditBased, 1))
        .run_partitioned(&w, &policies, &owner);
    let escape = Network::new(n)
        .with_config(config(FlowControl::EscapeChannel, 1))
        .run_partitioned_with_escape(&w, &policies, &owner, &[false]);
    assert_eq!(credit.0, escape.0, "opted-out escape must match credit");
    assert_eq!(credit.1, escape.1, "per-job stats too");
    assert!(credit.0.stranded > 0, "scenario must actually deadlock");
}

/// Replays a fault-free escape run's event stream and checks
/// lowest-class-first service, returning how many escape forwards had
/// a lower-class rival at the same PE bound for the same link.
///
/// The bank is rebuilt from events alone: `Diverted` seats a resident
/// in its class slot, an escape `Forwarded` frees the sender's slot and
/// reserves class `c − 1` at the next PE (a final hop reserves
/// nothing), and an escape `Queued` turns that reservation back into a
/// resident. A resident wants the link its next escape hop takes.
/// Whenever link `(u, g)` forwards a class-`c` resident, every
/// lower-class resident of `u` wanting `g` must have been blocked —
/// its next slot held — or it would have gone first.
fn lowest_class_first_rivals(w: &Workload, events: &[Event], cell: &str) -> usize {
    let dst: Vec<u32> = w.injections().iter().map(|i| i.dst as u32).collect();
    let mut hops: Vec<Vec<u8>> = vec![Vec::new(); dst.len()];
    for ev in events {
        if let Event::Forwarded {
            pid,
            gen,
            escape: true,
            ..
        } = *ev
        {
            hops[pid as usize].push(gen);
        }
    }
    let mut taken = vec![0usize; dst.len()];
    let mut class = vec![0u32; dst.len()];
    // (PE, class) -> (holder, buffered rather than reserved)
    let mut bank: HashMap<(u32, u32), (u32, bool)> = HashMap::new();
    let mut rivals = 0;
    for ev in events {
        match *ev {
            Event::Diverted {
                pid, pe, class: c, ..
            } => {
                class[pid as usize] = c;
                assert!(bank.insert((pe, c), (pid, true)).is_none(), "{cell}");
            }
            Event::Queued {
                pid,
                pe,
                escape: true,
                ..
            } => {
                let slot = bank.get_mut(&(pe, class[pid as usize]));
                assert_eq!(slot, Some(&mut (pid, false)), "{cell}: unreserved arrival");
                *slot.expect("checked") = (pid, true);
            }
            Event::Forwarded {
                round,
                pid,
                from,
                to,
                gen,
                escape: true,
            } => {
                let p = pid as usize;
                let c = class[p];
                for lower in 1..c {
                    let Some(&(q, true)) = bank.get(&(from, lower)) else {
                        continue;
                    };
                    if hops[q as usize][taken[q as usize]] != gen {
                        continue;
                    }
                    rivals += 1;
                    assert!(
                        to != dst[q as usize] && bank.contains_key(&(to, lower - 1)),
                        "{cell}: round {round} link {from}/{gen} served class {c} \
                         (pid {pid}) over class {lower} (pid {q}) whose next slot was free"
                    );
                }
                assert_eq!(bank.remove(&(from, c)), Some((pid, true)), "{cell}");
                taken[p] += 1;
                if to != dst[p] {
                    class[p] = c - 1;
                    assert!(bank.insert((to, c - 1), (pid, false)).is_none(), "{cell}");
                }
            }
            _ => {}
        }
    }
    rivals
}

/// The service order the deadlock-freedom argument leans on, checked
/// against an event-stream model of the bank over the tiny-pool grid.
/// Both engines share the rule, so the differential suite cannot see
/// it change; this check can.
#[test]
fn escape_serves_the_lowest_residual_class_first() {
    let mut rivals = 0usize;
    for n in 3..=4usize {
        for cap in 1..=2u32 {
            for seed in [1u64, 7, 596] {
                for w in patterns(n, seed) {
                    for (policy_name, policy) in policies() {
                        let cell = format!(
                            "n={n} cap={cap} seed={seed} workload={} policy={policy_name}",
                            w.name()
                        );
                        let net =
                            Network::new(n).with_config(config(FlowControl::EscapeChannel, cap));
                        let mut log = EventLog::new();
                        let stats = net.run_probed(&w, policy.as_ref(), Engine::Fast, &mut log);
                        assert_eq!(stats.delivered, stats.injected, "{cell}");
                        rivals += lowest_class_first_rivals(&w, log.events(), &cell);
                    }
                }
            }
        }
    }
    assert!(
        rivals > 0,
        "vacuous: no escape forward ever had a lower-class rival for its link"
    );
}
