//! The probe trait and its typed event stream.
//!
//! Both `sg-net` engines and the `sg-sched` event loop emit [`Event`]s
//! through a [`Probe`] they are generic over. The associated
//! `ENABLED` constant lets the default [`NullProbe`] path constant-fold
//! every emission site away — instrumentation costs nothing unless a
//! probe is attached.

/// Why a flit (or a whole injection) could not make progress this
/// round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallKind {
    /// The source PE had no credit to inject (or re-inject) a packet.
    Injection,
    /// A queue head held its slot because the next hop had no credit.
    CreditHead,
}

/// Why a packet left the network without reaching its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// Source or next hop was a dead PE under `FaultPolicy::Drop`.
    Fault,
    /// No route survived the fault plan (BFS reroute failed).
    Unreachable,
    /// Tail-drop: the target queue was at capacity.
    Overflow,
    /// Deadlock detection stranded the packet at its fixed point.
    Stranded,
}

/// One observation from a simulation run, in deterministic
/// reference-scan order.
///
/// All fields are plain integers: PEs are Lehmer ranks (`u32`),
/// generators are `1..n` (`u8`), rounds are simulator rounds (`u32`).
/// Scheduler events reuse `round` for scheduler time.
///
/// `RoundBegin` / `RoundEnd` are emitted *lazily*: a round that
/// produces no other event (only in-flight flits crossing a
/// multi-round link) emits neither, which is what keeps the fast
/// engine's idle-round skipping observationally identical to the
/// reference engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// First event of a round that does something observable.
    RoundBegin {
        /// Simulator round.
        round: u32,
    },
    /// End of an observable round, with the accounting-phase totals.
    RoundEnd {
        /// Simulator round.
        round: u32,
        /// Flits sitting in output queues (and escape banks) after
        /// arbitration — exactly what `total_wait_rounds` charges.
        queued: u64,
        /// Flits crossing links (in some arrival batch).
        in_flight: u64,
        /// Injections stalled at their source this round.
        stalled: u64,
    },
    /// A flit won arbitration and crossed a link.
    Forwarded {
        /// Simulator round.
        round: u32,
        /// Packet id.
        pid: u32,
        /// Link tail PE.
        from: u32,
        /// Link head PE.
        to: u32,
        /// Generator of the link (`1..n`).
        gen: u8,
        /// True when the flit left an escape bank rather than an
        /// adaptive output queue.
        escape: bool,
    },
    /// A flit entered an output queue (or an escape-bank slot).
    Queued {
        /// Simulator round.
        round: u32,
        /// Packet id.
        pid: u32,
        /// PE holding the queue.
        pe: u32,
        /// Generator of the queue (`1..n`).
        gen: u8,
        /// Queue depth after the push (1 for an escape slot).
        depth: u32,
        /// True when the slot is an escape-bank slot.
        escape: bool,
    },
    /// A packet could not make progress this round.
    Stalled {
        /// Simulator round.
        round: u32,
        /// Packet id.
        pid: u32,
        /// PE where the stall happened.
        pe: u32,
        /// What kind of stall.
        kind: StallKind,
    },
    /// A starved adaptive head diverted into the escape bank.
    Diverted {
        /// Simulator round.
        round: u32,
        /// Packet id.
        pid: u32,
        /// PE whose bank absorbed the flit.
        pe: u32,
        /// Residual-hop class of the occupied slot.
        class: u32,
    },
    /// A packet left the network undelivered.
    Dropped {
        /// Simulator round.
        round: u32,
        /// Packet id.
        pid: u32,
        /// PE where the packet died.
        pe: u32,
        /// Why.
        reason: DropReason,
    },
    /// A packet reached its destination.
    Delivered {
        /// Simulator round.
        round: u32,
        /// Packet id.
        pid: u32,
        /// Destination PE.
        pe: u32,
        /// Hops travelled (0 for a self-send).
        hops: u32,
    },
    /// A job entered the scheduler's pending queue.
    JobArrived {
        /// Scheduler time.
        round: u32,
        /// Job id.
        job: u32,
    },
    /// A job was admitted onto a sub-star.
    JobPlaced {
        /// Scheduler time (the job's start).
        round: u32,
        /// Job id.
        job: u32,
        /// Order of the allocated sub-star.
        order: u8,
        /// PEs in the allocated sub-star (`order!`).
        pes: u64,
    },
    /// A job finished and returned its sub-star to the allocator.
    JobReleased {
        /// Scheduler time (the job's finish).
        round: u32,
        /// Job id.
        job: u32,
    },
    /// EASY backfill: the blocked queue head was promised a start
    /// round, computed from the *declared* walltimes of the running
    /// jobs. Under drained release the actual start can come later —
    /// the gap is the scheduler's optimism, measured per job by
    /// [`crate::JobSpan::optimism_gap`].
    JobReserved {
        /// Scheduler time the reservation was computed.
        round: u32,
        /// The reserved (head) job.
        job: u32,
        /// Promised start round.
        start: u32,
    },
    /// A job jumped the FCFS queue (EASY backfill): placed now because
    /// its declared walltime cannot delay the reserved head. Always
    /// paired with a [`Event::JobPlaced`] at the same round.
    JobBackfilled {
        /// Scheduler time.
        round: u32,
        /// Job id.
        job: u32,
    },
}

impl Event {
    /// The round (or scheduler time) the event belongs to.
    #[must_use]
    pub fn round(&self) -> u32 {
        match *self {
            Event::RoundBegin { round }
            | Event::RoundEnd { round, .. }
            | Event::Forwarded { round, .. }
            | Event::Queued { round, .. }
            | Event::Stalled { round, .. }
            | Event::Diverted { round, .. }
            | Event::Dropped { round, .. }
            | Event::Delivered { round, .. }
            | Event::JobArrived { round, .. }
            | Event::JobPlaced { round, .. }
            | Event::JobReleased { round, .. }
            | Event::JobReserved { round, .. }
            | Event::JobBackfilled { round, .. } => round,
        }
    }

    /// Render the event as one newline-free JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Append the event's JSON object (no trailing newline) to `out`.
    /// The one serializer behind [`Event::to_json`],
    /// [`EventLog::to_jsonl`] and `Trace::to_jsonl`: it writes straight
    /// into the caller's buffer, so a whole log costs no allocation
    /// beyond the buffer's own growth.
    pub fn write_json(&self, out: &mut String) {
        match *self {
            Event::RoundBegin { round } => {
                put_u64(out, "{\"ev\":\"round_begin\",\"round\":", round);
            }
            Event::RoundEnd {
                round,
                queued,
                in_flight,
                stalled,
            } => {
                put_u64(out, "{\"ev\":\"round_end\",\"round\":", round);
                put_u64(out, ",\"queued\":", queued);
                put_u64(out, ",\"in_flight\":", in_flight);
                put_u64(out, ",\"stalled\":", stalled);
            }
            Event::Forwarded {
                round,
                pid,
                from,
                to,
                gen,
                escape,
            } => {
                put_u64(out, "{\"ev\":\"forwarded\",\"round\":", round);
                put_u64(out, ",\"pid\":", pid);
                put_u64(out, ",\"from\":", from);
                put_u64(out, ",\"to\":", to);
                put_u64(out, ",\"gen\":", gen);
                put_bool(out, ",\"escape\":", escape);
            }
            Event::Queued {
                round,
                pid,
                pe,
                gen,
                depth,
                escape,
            } => {
                put_u64(out, "{\"ev\":\"queued\",\"round\":", round);
                put_u64(out, ",\"pid\":", pid);
                put_u64(out, ",\"pe\":", pe);
                put_u64(out, ",\"gen\":", gen);
                put_u64(out, ",\"depth\":", depth);
                put_bool(out, ",\"escape\":", escape);
            }
            Event::Stalled {
                round,
                pid,
                pe,
                kind,
            } => {
                put_u64(out, "{\"ev\":\"stalled\",\"round\":", round);
                put_u64(out, ",\"pid\":", pid);
                put_u64(out, ",\"pe\":", pe);
                put_name(out, ",\"kind\":", kind.name());
            }
            Event::Diverted {
                round,
                pid,
                pe,
                class,
            } => {
                put_u64(out, "{\"ev\":\"diverted\",\"round\":", round);
                put_u64(out, ",\"pid\":", pid);
                put_u64(out, ",\"pe\":", pe);
                put_u64(out, ",\"class\":", class);
            }
            Event::Dropped {
                round,
                pid,
                pe,
                reason,
            } => {
                put_u64(out, "{\"ev\":\"dropped\",\"round\":", round);
                put_u64(out, ",\"pid\":", pid);
                put_u64(out, ",\"pe\":", pe);
                put_name(out, ",\"reason\":", reason.name());
            }
            Event::Delivered {
                round,
                pid,
                pe,
                hops,
            } => {
                put_u64(out, "{\"ev\":\"delivered\",\"round\":", round);
                put_u64(out, ",\"pid\":", pid);
                put_u64(out, ",\"pe\":", pe);
                put_u64(out, ",\"hops\":", hops);
            }
            Event::JobArrived { round, job } => {
                put_u64(out, "{\"ev\":\"job_arrived\",\"time\":", round);
                put_u64(out, ",\"job\":", job);
            }
            Event::JobPlaced {
                round,
                job,
                order,
                pes,
            } => {
                put_u64(out, "{\"ev\":\"job_placed\",\"time\":", round);
                put_u64(out, ",\"job\":", job);
                put_u64(out, ",\"order\":", order);
                put_u64(out, ",\"pes\":", pes);
            }
            Event::JobReleased { round, job } => {
                put_u64(out, "{\"ev\":\"job_released\",\"time\":", round);
                put_u64(out, ",\"job\":", job);
            }
            Event::JobReserved { round, job, start } => {
                put_u64(out, "{\"ev\":\"job_reserved\",\"time\":", round);
                put_u64(out, ",\"job\":", job);
                put_u64(out, ",\"start\":", start);
            }
            Event::JobBackfilled { round, job } => {
                put_u64(out, "{\"ev\":\"job_backfilled\",\"time\":", round);
                put_u64(out, ",\"job\":", job);
            }
        }
        out.push('}');
    }
}

impl StallKind {
    /// The name the trace schema writes for this kind.
    pub(crate) fn name(self) -> &'static str {
        match self {
            StallKind::Injection => "injection",
            StallKind::CreditHead => "credit_head",
        }
    }

    /// Inverse of [`StallKind::name`].
    pub(crate) fn from_name(name: &str) -> Option<Self> {
        match name {
            "injection" => Some(StallKind::Injection),
            "credit_head" => Some(StallKind::CreditHead),
            _ => None,
        }
    }
}

impl DropReason {
    /// The name the trace schema writes for this reason.
    pub(crate) fn name(self) -> &'static str {
        match self {
            DropReason::Fault => "fault",
            DropReason::Unreachable => "unreachable",
            DropReason::Overflow => "overflow",
            DropReason::Stranded => "stranded",
        }
    }

    /// Inverse of [`DropReason::name`].
    pub(crate) fn from_name(name: &str) -> Option<Self> {
        match name {
            "fault" => Some(DropReason::Fault),
            "unreachable" => Some(DropReason::Unreachable),
            "overflow" => Some(DropReason::Overflow),
            "stranded" => Some(DropReason::Stranded),
            _ => None,
        }
    }
}

/// Append `prefix` and then a JSON bool.
fn put_bool(out: &mut String, prefix: &str, v: bool) {
    out.push_str(prefix);
    out.push_str(if v { "true" } else { "false" });
}

/// Append `prefix` and then `s` as a JSON string. `s` is one of the
/// schema's fixed names, which never need escaping.
fn put_name(out: &mut String, prefix: &str, s: &str) {
    out.push_str(prefix);
    out.push('"');
    out.push_str(s);
    out.push('"');
}

/// Append `prefix` (a key with its punctuation) and then `v` in
/// decimal — the digits `write!(out, "{v}")` would produce, without
/// going through the formatting machinery.
pub(crate) fn put_u64(out: &mut String, prefix: &str, v: impl Into<u64>) {
    out.push_str(prefix);
    let mut v: u64 = v.into();
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &buf[i..] {
        out.push(char::from(d));
    }
}

/// A sink for simulation events.
///
/// Implementations are attached by value (`&mut probe`) and the
/// engines are monomorphized over them, so a probe with
/// `ENABLED = false` erases every emission site at compile time. The
/// trait is deliberately **not** dyn-safe (the associated constant is
/// the whole point); to combine probes, use the tuple impl.
pub trait Probe {
    /// Whether emission sites should run at all. Leave at the default
    /// `true` for any probe that observes anything.
    const ENABLED: bool = true;

    /// Receive one event. Called in deterministic reference-scan
    /// order; must not assume anything about wall-clock time.
    fn event(&mut self, ev: &Event);
}

/// The default probe: observes nothing, costs nothing.
///
/// `ENABLED = false` means every `if P::ENABLED { ... }` emission
/// block in the engines constant-folds to dead code on this path —
/// the unprobed entry points compile to exactly the pre-probe loops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _ev: &Event) {}
}

impl<P: Probe + ?Sized> Probe for &mut P {
    const ENABLED: bool = P::ENABLED;

    #[inline(always)]
    fn event(&mut self, ev: &Event) {
        (**self).event(ev);
    }
}

/// Fan-out: both probes see every event, in tuple order.
impl<A: Probe, B: Probe> Probe for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline(always)]
    fn event(&mut self, ev: &Event) {
        if A::ENABLED {
            self.0.event(ev);
        }
        if B::ENABLED {
            self.1.event(ev);
        }
    }
}

/// A probe that records the raw event stream.
///
/// Unbounded by default; [`EventLog::with_capacity`] bounds memory by
/// dropping (and counting) everything past the cap — useful at
/// `n = 9` scale where a full log would not fit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<Event>,
    cap: Option<usize>,
    dropped: u64,
}

impl EventLog {
    /// An unbounded log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A log that keeps at most `cap` events and counts the rest.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            events: Vec::new(),
            cap: Some(cap),
            dropped: 0,
        }
    }

    /// The recorded events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events that arrived past the cap and were not recorded.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Render the log as newline-delimited JSON, one event per line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            ev.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

impl Probe for EventLog {
    fn event(&mut self, ev: &Event) {
        if self.cap.is_some_and(|c| self.events.len() >= c) {
            self.dropped += 1;
        } else {
            self.events.push(*ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_disabled() {
        const {
            assert!(!NullProbe::ENABLED);
            assert!(!<&mut NullProbe as Probe>::ENABLED);
            assert!(!<(NullProbe, NullProbe) as Probe>::ENABLED);
            assert!(<(NullProbe, EventLog) as Probe>::ENABLED);
        }
    }

    #[test]
    fn event_log_caps_and_counts() {
        let mut log = EventLog::with_capacity(2);
        for round in 0..5 {
            log.event(&Event::RoundBegin { round });
        }
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.dropped(), 3);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut log = EventLog::new();
        log.event(&Event::RoundBegin { round: 3 });
        log.event(&Event::Delivered {
            round: 4,
            pid: 7,
            pe: 1,
            hops: 2,
        });
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"ev\":\"round_begin\""));
        assert!(lines[1].contains("\"hops\":2"));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn tuple_fans_out_in_order() {
        let mut pair = (EventLog::new(), EventLog::new());
        let ev = Event::RoundBegin { round: 1 };
        Probe::event(&mut pair, &ev);
        assert_eq!(pair.0.events(), &[ev]);
        assert_eq!(pair.1.events(), &[ev]);
    }

    #[test]
    fn round_accessor_covers_every_variant() {
        let evs = [
            Event::RoundBegin { round: 9 },
            Event::RoundEnd {
                round: 9,
                queued: 0,
                in_flight: 0,
                stalled: 0,
            },
            Event::JobPlaced {
                round: 9,
                job: 0,
                order: 3,
                pes: 6,
            },
        ];
        for ev in evs {
            assert_eq!(ev.round(), 9);
        }
    }
}
