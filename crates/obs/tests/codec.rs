//! The `sg-trace` JSONL codec at the line level: what the one-pass
//! parser must reject (and on which line), what it must keep
//! accepting, and property tests that the writer and parser are exact
//! inverses — with the writer's bytes pinned to the schema-1
//! `format!` rendering, kept here as a test-only oracle.

use proptest::prelude::*;
use sg_obs::{
    DropReason, Event, EventLog, Probe, SchedPhaseProfile, StallKind, Trace, TraceError,
    TraceHeader, TracePacket, SCHEMA_VERSION,
};

// ---- the schema-1 oracle -------------------------------------------

/// The schema-1 event rendering, written with `format!` exactly as the
/// first version of the writer did.
fn oracle_event(ev: &Event) -> String {
    match *ev {
        Event::RoundBegin { round } => {
            format!("{{\"ev\":\"round_begin\",\"round\":{round}}}")
        }
        Event::RoundEnd {
            round,
            queued,
            in_flight,
            stalled,
        } => format!(
            "{{\"ev\":\"round_end\",\"round\":{round},\"queued\":{queued},\
             \"in_flight\":{in_flight},\"stalled\":{stalled}}}"
        ),
        Event::Forwarded {
            round,
            pid,
            from,
            to,
            gen,
            escape,
        } => format!(
            "{{\"ev\":\"forwarded\",\"round\":{round},\"pid\":{pid},\"from\":{from},\
             \"to\":{to},\"gen\":{gen},\"escape\":{escape}}}"
        ),
        Event::Queued {
            round,
            pid,
            pe,
            gen,
            depth,
            escape,
        } => format!(
            "{{\"ev\":\"queued\",\"round\":{round},\"pid\":{pid},\"pe\":{pe},\
             \"gen\":{gen},\"depth\":{depth},\"escape\":{escape}}}"
        ),
        Event::Stalled {
            round,
            pid,
            pe,
            kind,
        } => format!(
            "{{\"ev\":\"stalled\",\"round\":{round},\"pid\":{pid},\"pe\":{pe},\
             \"kind\":\"{}\"}}",
            match kind {
                StallKind::Injection => "injection",
                StallKind::CreditHead => "credit_head",
            }
        ),
        Event::Diverted {
            round,
            pid,
            pe,
            class,
        } => format!(
            "{{\"ev\":\"diverted\",\"round\":{round},\"pid\":{pid},\"pe\":{pe},\
             \"class\":{class}}}"
        ),
        Event::Dropped {
            round,
            pid,
            pe,
            reason,
        } => format!(
            "{{\"ev\":\"dropped\",\"round\":{round},\"pid\":{pid},\"pe\":{pe},\
             \"reason\":\"{}\"}}",
            match reason {
                DropReason::Fault => "fault",
                DropReason::Unreachable => "unreachable",
                DropReason::Overflow => "overflow",
                DropReason::Stranded => "stranded",
            }
        ),
        Event::Delivered {
            round,
            pid,
            pe,
            hops,
        } => format!(
            "{{\"ev\":\"delivered\",\"round\":{round},\"pid\":{pid},\"pe\":{pe},\
             \"hops\":{hops}}}"
        ),
        Event::JobArrived { round, job } => {
            format!("{{\"ev\":\"job_arrived\",\"time\":{round},\"job\":{job}}}")
        }
        Event::JobPlaced {
            round,
            job,
            order,
            pes,
        } => format!(
            "{{\"ev\":\"job_placed\",\"time\":{round},\"job\":{job},\"order\":{order},\
             \"pes\":{pes}}}"
        ),
        Event::JobReleased { round, job } => {
            format!("{{\"ev\":\"job_released\",\"time\":{round},\"job\":{job}}}")
        }
        Event::JobReserved { round, job, start } => {
            format!("{{\"ev\":\"job_reserved\",\"time\":{round},\"job\":{job},\"start\":{start}}}")
        }
        Event::JobBackfilled { round, job } => {
            format!("{{\"ev\":\"job_backfilled\",\"time\":{round},\"job\":{job}}}")
        }
    }
}

/// The schema-1 packet-preamble rendering.
fn oracle_packet(p: &TracePacket) -> String {
    match p.job {
        Some(j) => format!(
            "{{\"packet\":{},\"src\":{},\"dst\":{},\"round\":{},\"job\":{j}}}",
            p.pid, p.src, p.dst, p.round
        ),
        None => format!(
            "{{\"packet\":{},\"src\":{},\"dst\":{},\"round\":{}}}",
            p.pid, p.src, p.dst, p.round
        ),
    }
}

// ---- random values ---------------------------------------------------

/// SplitMix64, for building whole traces from one drawn seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value of any digit count, 0 and the type's maximum included.
    fn int(&mut self) -> u64 {
        let x = self.next();
        match x % 8 {
            0 => 0,
            1 => u64::MAX,
            _ => x >> (x % 64),
        }
    }

    fn u32(&mut self) -> u32 {
        let x = self.int();
        if x > u64::from(u32::MAX) {
            u32::MAX
        } else {
            x as u32
        }
    }

    fn u8(&mut self) -> u8 {
        self.u32().to_le_bytes()[0]
    }

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn event(&mut self) -> Event {
        let (round, pid, pe) = (self.u32(), self.u32(), self.u32());
        match self.next() % 15 {
            0 => Event::RoundBegin { round },
            1 => Event::RoundEnd {
                round,
                queued: self.int(),
                in_flight: self.int(),
                stalled: self.int(),
            },
            2 => Event::Forwarded {
                round,
                pid,
                from: pe,
                to: self.u32(),
                gen: self.u8(),
                escape: self.bool(),
            },
            3 => Event::Queued {
                round,
                pid,
                pe,
                gen: self.u8(),
                depth: self.u32(),
                escape: self.bool(),
            },
            4 => Event::Stalled {
                round,
                pid,
                pe,
                kind: if self.bool() {
                    StallKind::Injection
                } else {
                    StallKind::CreditHead
                },
            },
            5 => Event::Diverted {
                round,
                pid,
                pe,
                class: self.u32(),
            },
            6 => Event::Dropped {
                round,
                pid,
                pe,
                reason: [
                    DropReason::Fault,
                    DropReason::Unreachable,
                    DropReason::Overflow,
                    DropReason::Stranded,
                ][(self.next() % 4) as usize],
            },
            7 | 8 => Event::Delivered {
                round,
                pid,
                pe,
                hops: self.u32(),
            },
            9 => Event::JobArrived { round, job: pid },
            10 => Event::JobPlaced {
                round,
                job: pid,
                order: self.u8(),
                pes: self.int(),
            },
            11 => Event::JobReleased { round, job: pid },
            12 => Event::JobReserved {
                round,
                job: pid,
                start: self.u32(),
            },
            _ => Event::JobBackfilled { round, job: pid },
        }
    }

    /// A string with quotes, backslashes, control characters and
    /// non-ASCII text mixed in.
    fn text(&mut self) -> String {
        const PIECES: [&str; 10] = [
            "s7", ";", "\"", "\\", "\n", "\t", "\r", "\u{1}", "\u{1f}", "é∂",
        ];
        (0..self.next() % 8)
            .map(|_| PIECES[(self.next() % PIECES.len() as u64) as usize])
            .collect()
    }

    fn trace(&mut self) -> Trace {
        let packets: Vec<TracePacket> = (0..self.next() % 5)
            .map(|pid| TracePacket {
                pid: pid as u32,
                src: self.int(),
                dst: self.int(),
                round: self.u32(),
                job: self.bool().then(|| self.u32()),
            })
            .collect();
        let events: Vec<Event> = (0..self.next() % 12).map(|_| self.event()).collect();
        Trace {
            header: TraceHeader {
                schema: SCHEMA_VERSION,
                engine: self.text(),
                n: self.u32(),
                seed: self.int(),
                fingerprint: self.text(),
                jobs: self.u32(),
                packets: packets.len() as u64,
                events: events.len() as u64,
                dropped: self.int(),
                sched_profile: self.bool().then(|| SchedPhaseProfile {
                    rounds: self.int(),
                    placement_ticks: self.int(),
                    drain_ticks: self.int(),
                    backfill_ticks: self.int(),
                    release_ticks: self.int(),
                }),
            },
            packets,
            events,
        }
    }
}

proptest! {
    #[test]
    fn events_match_the_oracle_and_round_trip(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for _ in 0..16 {
            let ev = g.event();
            let line = ev.to_json();
            prop_assert_eq!(&line, &oracle_event(&ev));
            let mut buf = String::from("prefix;");
            ev.write_json(&mut buf);
            prop_assert_eq!(&buf[7..], line.as_str());
            prop_assert_eq!(Event::from_json(&line), Ok(ev));
        }
    }

    #[test]
    fn small_traces_round_trip(seed in any::<u64>()) {
        let t = Gen(seed).trace();
        let text = t.to_jsonl();
        let body: String = t
            .packets
            .iter()
            .map(oracle_packet)
            .chain(t.events.iter().map(oracle_event))
            .map(|l| l + "\n")
            .collect();
        prop_assert_eq!(text.split_once('\n').map(|(_, b)| b), Some(body.as_str()));
        prop_assert_eq!(Trace::parse(&text), Ok(t));
    }

    #[test]
    fn event_log_jsonl_matches_the_oracle(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut log = EventLog::new();
        let mut expected = String::new();
        for _ in 0..g.next() % 10 {
            let ev = g.event();
            log.event(&ev);
            expected.push_str(&oracle_event(&ev));
            expected.push('\n');
        }
        prop_assert_eq!(log.to_jsonl(), expected);
    }
}

#[test]
fn packets_match_the_oracle() {
    for job in [None, Some(0), Some(u32::MAX)] {
        let p = TracePacket {
            pid: 7,
            src: u64::MAX,
            dst: 0,
            round: 12,
            job,
        };
        assert_eq!(p.to_json(), oracle_packet(&p));
    }
}

// ---- rejection -------------------------------------------------------

/// A two-packet trace whose fifth physical line (after a blank fourth)
/// is `bad`, followed by one more valid event. Every malformed record
/// must be reported as `Malformed` on line 5.
fn trace_with(bad: &str) -> String {
    let header = TraceHeader {
        schema: SCHEMA_VERSION,
        engine: "fast".into(),
        n: 3,
        seed: 1,
        fingerprint: "s3".into(),
        jobs: 0,
        packets: 1,
        events: 3,
        dropped: 0,
        sched_profile: None,
    };
    let packet = TracePacket {
        pid: 0,
        src: 0,
        dst: 5,
        round: 0,
        job: None,
    };
    let ev = Event::RoundBegin { round: 0 };
    format!(
        "{}\n{}\n{}\n\n{bad}\n{}\n",
        header.to_json(),
        packet.to_json(),
        ev.to_json(),
        Event::RoundEnd {
            round: 0,
            queued: 0,
            in_flight: 0,
            stalled: 0
        }
        .to_json()
    )
}

#[test]
fn the_well_formed_fixture_parses() {
    let good = Event::Delivered {
        round: 0,
        pid: 0,
        pe: 5,
        hops: 3,
    }
    .to_json();
    let t = Trace::parse(&trace_with(&good)).expect("fixture parses");
    assert_eq!(t.events.len(), 3);
}

#[test]
fn malformed_records_are_rejected_on_their_line() {
    let cases: &[(&str, &str, &str)] = &[
        (
            "bad bool",
            r#"{"ev":"forwarded","round":1,"pid":0,"from":0,"to":1,"gen":1,"escape":yes}"#,
            "is not a bool",
        ),
        (
            "quoted bool",
            r#"{"ev":"queued","round":1,"pid":0,"pe":0,"gen":1,"depth":1,"escape":"true"}"#,
            "is not a bool",
        ),
        (
            "gen over 255",
            r#"{"ev":"forwarded","round":1,"pid":0,"from":0,"to":1,"gen":256,"escape":false}"#,
            "overflows u8",
        ),
        (
            "u32 overflow",
            r#"{"ev":"round_begin","round":4294967296}"#,
            "overflows u32",
        ),
        (
            "u64 overflow",
            r#"{"ev":"round_end","round":1,"queued":18446744073709551616,"in_flight":0,"stalled":0}"#,
            "is not a u64",
        ),
        (
            "negative number",
            r#"{"ev":"round_begin","round":-1}"#,
            "is not a u64",
        ),
        (
            "lone plus sign",
            r#"{"ev":"round_begin","round":+}"#,
            "is not a u64",
        ),
        (
            "float",
            r#"{"ev":"round_begin","round":1.5}"#,
            "is not a u64",
        ),
        (
            "quoted number",
            r#"{"ev":"round_begin","round":"1"}"#,
            "is not a u64",
        ),
        (
            "unknown ev",
            r#"{"ev":"teleported","round":1}"#,
            "unknown event kind",
        ),
        (
            "escaped ev name",
            r#"{"ev":"round\u005fbegin","round":1}"#,
            "unsupported escape",
        ),
        (
            "unknown stall kind",
            r#"{"ev":"stalled","round":1,"pid":0,"pe":0,"kind":"sleepy"}"#,
            "unknown stall kind",
        ),
        (
            "unknown drop reason",
            r#"{"ev":"dropped","round":1,"pid":0,"pe":0,"reason":"boredom"}"#,
            "unknown drop reason",
        ),
        (
            "missing field",
            r#"{"ev":"delivered","round":1,"pid":0,"pe":0}"#,
            "missing field \"hops\"",
        ),
        (
            "trailing garbage",
            r#"{"ev":"round_begin","round":1} x"#,
            "trailing garbage",
        ),
        (
            "unterminated string",
            r#"{"ev":"round_begin"#,
            "unterminated string",
        ),
        (
            "unterminated object",
            r#"{"ev":"round_begin","round":1"#,
            "expected ',' or '}'",
        ),
        ("not an object", r#"["ev"]"#, "expected '{'"),
        ("missing colon", r#"{"ev" "round_begin"}"#, "expected ':'"),
        ("unquoted key", r#"{ev:"round_begin"}"#, "expected key"),
        (
            "packet after the first event",
            r#"{"packet":1,"src":0,"dst":1,"round":0}"#,
            "packet record after the first event record",
        ),
        (
            "second header",
            r#"{"trace":"sg-trace","schema":1}"#,
            "second header record",
        ),
        (
            "neither event nor packet",
            r#"{"round":1}"#,
            "unrecognized record",
        ),
    ];
    for &(what, bad, expect) in cases {
        match Trace::parse(&trace_with(bad)) {
            Err(TraceError::Malformed { line, msg }) => {
                assert_eq!(line, 5, "{what}: wrong line ({msg})");
                assert!(msg.contains(expect), "{what}: message {msg:?}");
            }
            other => panic!("{what}: expected Malformed on line 5, got {other:?}"),
        }
    }
}

#[test]
fn malformed_packet_records_are_rejected_on_their_line() {
    let header = TraceHeader {
        schema: SCHEMA_VERSION,
        engine: "fast".into(),
        n: 3,
        seed: 1,
        fingerprint: "s3".into(),
        jobs: 0,
        packets: 2,
        events: 0,
        dropped: 0,
        sched_profile: None,
    };
    let cases = [
        (r#"{"packet":1,"src":0,"round":0}"#, "missing field \"dst\""),
        (
            r#"{"packet":1,"src":0,"dst":1,"round":99999999999}"#,
            "overflows u32",
        ),
        (
            r#"{"packet":1,"src":0,"dst":1,"round":0,"job":x}"#,
            "is not a u64",
        ),
        (r#"{"packet":2,"src":0,"dst":1,"round":0}"#, "out of order"),
    ];
    for (bad, expect) in cases {
        let text = format!(
            "{}\n{{\"packet\":0,\"src\":0,\"dst\":1,\"round\":0}}\n{bad}\n",
            header.to_json()
        );
        match Trace::parse(&text) {
            Err(TraceError::Malformed { line: 3, msg }) => {
                assert!(msg.contains(expect), "{bad}: message {msg:?}");
            }
            other => panic!("{bad}: expected Malformed on line 3, got {other:?}"),
        }
    }
}

#[test]
fn from_json_rejects_what_the_trace_parser_rejects() {
    for bad in [
        r#"{"ev":"round_begin","round":4294967296}"#,
        r#"{"ev":"teleported","round":1}"#,
        r#"{"ev":"round_begin","round":1} x"#,
        r#"{"packet":0,"src":0,"dst":1,"round":0}"#,
        "",
    ] {
        assert!(Event::from_json(bad).is_err(), "{bad:?} accepted");
    }
}

// ---- acceptance ------------------------------------------------------

#[test]
fn equivalent_spellings_decode_to_the_same_event() {
    let ev = Event::Forwarded {
        round: 4,
        pid: 9,
        from: 2,
        to: 3,
        gen: 1,
        escape: true,
    };
    let spellings = [
        // Canonical.
        r#"{"ev":"forwarded","round":4,"pid":9,"from":2,"to":3,"gen":1,"escape":true}"#,
        // Reordered keys.
        r#"{"escape":true,"gen":1,"to":3,"from":2,"pid":9,"round":4,"ev":"forwarded"}"#,
        // Interior and surrounding whitespace.
        " { \"ev\" : \"forwarded\" ,\t\"round\": 4 , \"pid\" :9,\"from\":2 ,\"to\":3,\"gen\":1,\"escape\":true } ",
        // An extra key, a nested object and a string holding a brace.
        r#"{"ev":"forwarded","note":"x}","meta":{"a":1},"round":4,"pid":9,"from":2,"to":3,"gen":1,"escape":true}"#,
        // A repeated key: the first occurrence wins.
        r#"{"ev":"forwarded","round":4,"round":5,"pid":9,"from":2,"to":3,"gen":1,"escape":true}"#,
        // Leading zeros and a leading plus, as `str::parse` allows.
        r#"{"ev":"forwarded","round":004,"pid":+9,"from":2,"to":3,"gen":1,"escape":true}"#,
    ];
    for line in spellings {
        assert_eq!(Event::from_json(line), Ok(ev), "{line}");
        let text = trace_with(line);
        let t = Trace::parse(&text).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(t.events[1], ev, "{line}");
    }
}

#[test]
fn crlf_line_endings_and_blank_lines_are_accepted() {
    let text = trace_with(&Event::JobArrived { round: 2, job: 1 }.to_json());
    let crlf = text.replace('\n', "\r\n\n");
    assert_eq!(Trace::parse(&crlf), Trace::parse(&text));
    assert!(Trace::parse(&text).is_ok());
}
