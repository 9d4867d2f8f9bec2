//! The `sg-trace` on-disk format: a versioned, self-describing JSONL
//! schema for probe event streams, with a streaming parser that
//! round-trips every [`Event`] losslessly.
//!
//! A trace is newline-delimited JSON in three sections:
//!
//! 1. **Header** (first line): `{"trace":"sg-trace","schema":1,...}` —
//!    schema version, engine, star order, workload seed, a
//!    config fingerprint, section counts, the number of events the
//!    recording [`crate::EventLog`] dropped past its capacity bound,
//!    and (for scheduler runs) the embedded [`SchedPhaseProfile`].
//! 2. **Packet preamble**: one `{"packet":pid,...}` line per injection
//!    in packet-id order. Events alone cannot reconstruct the
//!    source/destination of a packet that dies early (a fault drop
//!    names only the source PE), so the preamble carries what the
//!    workload knew: `src`, `dst`, injection `round`, and — for
//!    partitioned runs — the owning `job`.
//! 3. **Events**: the verbatim [`Event::to_json`] stream.
//!
//! The parser is strict: the header must come first, every packet
//! line must precede the first event line, and the section counts
//! must match the header — a truncated file is an error, never a
//! silently shorter run. Everything here is plain integers plus two
//! opaque strings (`engine`, `fingerprint`), so the module — like the
//! rest of `sg-obs` — depends on nothing above it.
//!
//! # One pass, no allocation per line
//!
//! Traces of a few million events are routine, so both directions of
//! the codec touch each record once and allocate nothing per line:
//!
//! * **Writing** goes through [`Event::write_json`] and
//!   [`TracePacket::write_json`], which append straight into the
//!   caller's buffer with hand-rolled decimal formatting;
//!   [`Trace::to_jsonl`] grows one `String` and nothing else.
//! * **Reading** tokenizes each line exactly once into borrowed
//!   `(key, raw value)` slices, kept in one working buffer reused for
//!   every line. An event's pairs are sorted into per-key slots in one
//!   more pass over the slices, the variant is picked by matching the
//!   borrowed event name, and integers are decoded straight from the
//!   bytes. The only allocations are that working buffer, the output
//!   vectors (sized from the header) and the header's two strings.
//!   [`Event::from_json`] is a thin wrapper over the same tokenizer
//!   and field decoder, so there is exactly one parser.

use crate::probe::{put_u64, DropReason, Event, StallKind};
use crate::profile::SchedPhaseProfile;
use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// The schema version this build writes and understands.
pub const SCHEMA_VERSION: u32 = 1;

/// Everything that can go wrong reading (or replaying) a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The input had no lines at all.
    Empty,
    /// The first line is not an `sg-trace` header record.
    NotATrace,
    /// The header names a schema version this build cannot read.
    UnsupportedSchema {
        /// Version found in the header.
        found: u32,
    },
    /// A line failed to parse (1-based line number + reason).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// A section ended before the header said it would.
    Truncated {
        /// Which section ("packet" or "event").
        kind: &'static str,
        /// Count promised by the header.
        expected: u64,
        /// Count actually present.
        found: u64,
    },
    /// The recording log was capacity-bounded and dropped events; the
    /// stream is incomplete, so derived state cannot be reconstructed.
    DroppedEvents {
        /// How many events the recorder discarded.
        dropped: u64,
    },
    /// Replay found the stream internally inconsistent (e.g. a
    /// `round_end` total disagreeing with the replayed queue state).
    Inconsistent {
        /// First inconsistency found.
        msg: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => write!(f, "empty input: not a trace"),
            TraceError::NotATrace => {
                write!(f, "first line is not an sg-trace header record")
            }
            TraceError::UnsupportedSchema { found } => write!(
                f,
                "unsupported schema version {found} (this build reads {SCHEMA_VERSION})"
            ),
            TraceError::Malformed { line, msg } => write!(f, "line {line}: {msg}"),
            TraceError::Truncated {
                kind,
                expected,
                found,
            } => write!(
                f,
                "truncated trace: header promises {expected} {kind} record(s), found {found}"
            ),
            TraceError::DroppedEvents { dropped } => write!(
                f,
                "refusing to replay a truncated log: the recorder's capacity bound dropped \
                 {dropped} event(s), so derived state cannot be reconstructed — record with an \
                 unbounded EventLog"
            ),
            TraceError::Inconsistent { msg } => {
                write!(f, "inconsistent event stream: {msg}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The self-describing first record of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Schema version ([`SCHEMA_VERSION`] when written by this build).
    pub schema: u32,
    /// Which engine produced the stream (`"fast"`, `"reference"`,
    /// `"sched"`).
    pub engine: String,
    /// Star order of the run.
    pub n: u32,
    /// Workload (or job-stream) seed.
    pub seed: u64,
    /// Opaque configuration fingerprint — enough to tell two logs
    /// were recorded under the same knobs.
    pub fingerprint: String,
    /// Number of tenant jobs for a partitioned run; 0 when the run
    /// was not partitioned.
    pub jobs: u32,
    /// Packet-preamble records that follow.
    pub packets: u64,
    /// Event records that follow.
    pub events: u64,
    /// Events the recording [`crate::EventLog`] dropped past its
    /// capacity bound. Non-zero means the stream is incomplete and
    /// replay will refuse it.
    pub dropped: u64,
    /// The scheduler's event-loop self-profile, embedded for
    /// `schedule_probed` runs.
    pub sched_profile: Option<SchedPhaseProfile>,
}

impl TraceHeader {
    /// Render the header as one newline-free JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"trace\":\"sg-trace\",\"schema\":{},\"engine\":\"{}\",\"n\":{},\"seed\":{},\
             \"fingerprint\":\"{}\",\"jobs\":{},\"packets\":{},\"events\":{},\"dropped\":{}",
            self.schema,
            escape(&self.engine),
            self.n,
            self.seed,
            escape(&self.fingerprint),
            self.jobs,
            self.packets,
            self.events,
            self.dropped,
        );
        if let Some(p) = &self.sched_profile {
            out.push_str(",\"sched_profile\":");
            out.push_str(&p.to_json());
        }
        out.push('}');
        out
    }
}

/// One packet-preamble record: what the workload knew about packet
/// `pid` before the run started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracePacket {
    /// Packet id (= injection index; records appear in this order).
    pub pid: u32,
    /// Source PE (Lehmer rank).
    pub src: u64,
    /// Destination PE (Lehmer rank).
    pub dst: u64,
    /// Scheduled injection round.
    pub round: u32,
    /// Owning job for a partitioned run.
    pub job: Option<u32>,
}

impl TracePacket {
    /// Render the record as one newline-free JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Append the record's JSON object (no trailing newline) to `out`;
    /// the serializer behind [`TracePacket::to_json`] and
    /// [`Trace::to_jsonl`].
    pub fn write_json(&self, out: &mut String) {
        put_u64(out, "{\"packet\":", self.pid);
        put_u64(out, ",\"src\":", self.src);
        put_u64(out, ",\"dst\":", self.dst);
        put_u64(out, ",\"round\":", self.round);
        if let Some(job) = self.job {
            put_u64(out, ",\"job\":", job);
        }
        out.push('}');
    }
}

/// A fully parsed trace: header, packet preamble, event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The self-describing header record.
    pub header: TraceHeader,
    /// Packet preamble in packet-id order (empty for scheduler runs).
    pub packets: Vec<TracePacket>,
    /// The recorded event stream, in emission order.
    pub events: Vec<Event>,
}

impl Trace {
    /// Serialize the whole trace back to JSONL. Inverse of
    /// [`Trace::parse`]: `parse(t.to_jsonl())` reproduces `t` exactly.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        debug_assert_eq!(self.header.packets, self.packets.len() as u64);
        debug_assert_eq!(self.header.events, self.events.len() as u64);
        let mut out = self.header.to_json();
        out.push('\n');
        for p in &self.packets {
            p.write_json(&mut out);
            out.push('\n');
        }
        for ev in &self.events {
            ev.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL trace. Streaming and strict: one pass over the
    /// lines, each tokenized once into a reused working buffer, and any
    /// structural problem — missing header, wrong schema version,
    /// malformed line, out-of-order section, counts short of the
    /// header's promise — is an error.
    ///
    /// # Errors
    /// See [`TraceError`].
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, first) = lines.next().ok_or(TraceError::Empty)?;
        let header = parse_header(first)?;
        let mut packets = Vec::with_capacity(usize::try_from(header.packets).unwrap_or(0));
        let mut events = Vec::with_capacity(usize::try_from(header.events).unwrap_or(0));
        let mut in_events = false;
        // One working buffer of borrowed slices, refilled per line.
        let mut fields = Vec::new();
        for (idx, line) in lines {
            let lineno = idx + 1;
            let err = |msg: String| TraceError::Malformed { line: lineno, msg };
            tokenize(line, &mut fields).map_err(err)?;
            if field(&fields, "ev").raw.is_some() {
                in_events = true;
                events.push(decode_event(&fields).map_err(err)?);
            } else if field(&fields, "packet").raw.is_some() {
                if in_events {
                    return Err(err("packet record after the first event record".into()));
                }
                let pid = field(&fields, "packet").u32().map_err(err)?;
                if u64::from(pid) != packets.len() as u64 {
                    return Err(err(format!(
                        "packet records out of order: expected pid {}, found {pid}",
                        packets.len()
                    )));
                }
                packets.push(TracePacket {
                    pid,
                    src: field(&fields, "src").u64().map_err(err)?,
                    dst: field(&fields, "dst").u64().map_err(err)?,
                    round: field(&fields, "round").u32().map_err(err)?,
                    job: field(&fields, "job").opt_u32().map_err(err)?,
                });
            } else if field(&fields, "trace").raw.is_some() {
                return Err(err("second header record".into()));
            } else {
                return Err(err("unrecognized record (no \"ev\"/\"packet\" key)".into()));
            }
        }
        if (packets.len() as u64) < header.packets {
            return Err(TraceError::Truncated {
                kind: "packet",
                expected: header.packets,
                found: packets.len() as u64,
            });
        }
        if (packets.len() as u64) > header.packets {
            return Err(TraceError::Inconsistent {
                msg: format!(
                    "header promises {} packet record(s), found {}",
                    header.packets,
                    packets.len()
                ),
            });
        }
        if (events.len() as u64) < header.events {
            return Err(TraceError::Truncated {
                kind: "event",
                expected: header.events,
                found: events.len() as u64,
            });
        }
        if (events.len() as u64) > header.events {
            return Err(TraceError::Inconsistent {
                msg: format!(
                    "header promises {} event record(s), found {}",
                    header.events,
                    events.len()
                ),
            });
        }
        Ok(Trace {
            header,
            packets,
            events,
        })
    }
}

impl Event {
    /// Parse one [`Event::to_json`] line back into the event. Total
    /// inverse: every variant round-trips losslessly (property-tested
    /// in this crate and across whole recorded runs by the round-trip
    /// suite). The same tokenizer and field decoder [`Trace::parse`]
    /// runs on every event line.
    ///
    /// # Errors
    /// A human-readable reason when the line is not a valid event
    /// record.
    pub fn from_json(line: &str) -> Result<Event, String> {
        let mut fields = Vec::new();
        tokenize(line, &mut fields)?;
        decode_event(&fields)
    }
}

/// Decode an event record from its tokenized fields.
fn decode_event(pairs: &[(&str, &str)]) -> Result<Event, String> {
    let f = EventFields::gather(pairs);
    let name = f.get(Key::Ev).str()?;
    Ok(match &*name {
        "round_begin" => Event::RoundBegin {
            round: f.get(Key::Round).u32()?,
        },
        "round_end" => Event::RoundEnd {
            round: f.get(Key::Round).u32()?,
            queued: f.get(Key::Queued).u64()?,
            in_flight: f.get(Key::InFlight).u64()?,
            stalled: f.get(Key::Stalled).u64()?,
        },
        "forwarded" => Event::Forwarded {
            round: f.get(Key::Round).u32()?,
            pid: f.get(Key::Pid).u32()?,
            from: f.get(Key::From).u32()?,
            to: f.get(Key::To).u32()?,
            gen: f.get(Key::Gen).u8()?,
            escape: f.get(Key::Escape).bool()?,
        },
        "queued" => Event::Queued {
            round: f.get(Key::Round).u32()?,
            pid: f.get(Key::Pid).u32()?,
            pe: f.get(Key::Pe).u32()?,
            gen: f.get(Key::Gen).u8()?,
            depth: f.get(Key::Depth).u32()?,
            escape: f.get(Key::Escape).bool()?,
        },
        "stalled" => Event::Stalled {
            round: f.get(Key::Round).u32()?,
            pid: f.get(Key::Pid).u32()?,
            pe: f.get(Key::Pe).u32()?,
            kind: {
                let kind = f.get(Key::Kind).str()?;
                StallKind::from_name(&kind).ok_or_else(|| format!("unknown stall kind {kind:?}"))?
            },
        },
        "diverted" => Event::Diverted {
            round: f.get(Key::Round).u32()?,
            pid: f.get(Key::Pid).u32()?,
            pe: f.get(Key::Pe).u32()?,
            class: f.get(Key::Class).u32()?,
        },
        "dropped" => Event::Dropped {
            round: f.get(Key::Round).u32()?,
            pid: f.get(Key::Pid).u32()?,
            pe: f.get(Key::Pe).u32()?,
            reason: {
                let reason = f.get(Key::Reason).str()?;
                DropReason::from_name(&reason)
                    .ok_or_else(|| format!("unknown drop reason {reason:?}"))?
            },
        },
        "delivered" => Event::Delivered {
            round: f.get(Key::Round).u32()?,
            pid: f.get(Key::Pid).u32()?,
            pe: f.get(Key::Pe).u32()?,
            hops: f.get(Key::Hops).u32()?,
        },
        "job_arrived" => Event::JobArrived {
            round: f.get(Key::Time).u32()?,
            job: f.get(Key::Job).u32()?,
        },
        "job_placed" => Event::JobPlaced {
            round: f.get(Key::Time).u32()?,
            job: f.get(Key::Job).u32()?,
            order: f.get(Key::Order).u8()?,
            pes: f.get(Key::Pes).u64()?,
        },
        "job_released" => Event::JobReleased {
            round: f.get(Key::Time).u32()?,
            job: f.get(Key::Job).u32()?,
        },
        "job_reserved" => Event::JobReserved {
            round: f.get(Key::Time).u32()?,
            job: f.get(Key::Job).u32()?,
            start: f.get(Key::Start).u32()?,
        },
        "job_backfilled" => Event::JobBackfilled {
            round: f.get(Key::Time).u32()?,
            job: f.get(Key::Job).u32()?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    })
}

fn parse_header(line: &str) -> Result<TraceHeader, TraceError> {
    let mut fields = Vec::new();
    tokenize(line, &mut fields).map_err(|_| TraceError::NotATrace)?;
    match field(&fields, "trace").raw.map(unquote) {
        Some(Ok(tag)) if tag == "sg-trace" => {}
        _ => return Err(TraceError::NotATrace),
    }
    let err = |msg: String| TraceError::Malformed { line: 1, msg };
    let schema = field(&fields, "schema").u32().map_err(err)?;
    if schema != SCHEMA_VERSION {
        return Err(TraceError::UnsupportedSchema { found: schema });
    }
    let sched_profile = match field(&fields, "sched_profile").raw {
        None => None,
        Some(raw) => {
            let mut inner = Vec::new();
            tokenize(raw, &mut inner).map_err(err)?;
            Some(SchedPhaseProfile {
                rounds: field(&inner, "rounds").u64().map_err(err)?,
                placement_ticks: field(&inner, "placement").u64().map_err(err)?,
                drain_ticks: field(&inner, "drain").u64().map_err(err)?,
                backfill_ticks: field(&inner, "backfill").u64().map_err(err)?,
                release_ticks: field(&inner, "release").u64().map_err(err)?,
            })
        }
    };
    Ok(TraceHeader {
        schema,
        engine: field(&fields, "engine").str().map_err(err)?.into_owned(),
        n: field(&fields, "n").u32().map_err(err)?,
        seed: field(&fields, "seed").u64().map_err(err)?,
        fingerprint: field(&fields, "fingerprint")
            .str()
            .map_err(err)?
            .into_owned(),
        jobs: field(&fields, "jobs").u32().map_err(err)?,
        packets: field(&fields, "packets").u64().map_err(err)?,
        events: field(&fields, "events").u64().map_err(err)?,
        dropped: field(&fields, "dropped").u64().map_err(err)?,
        sched_profile,
    })
}

// ---- flat-JSON tokenizer and field decoders -----------------------
//
// The build container is offline (no serde); every record we read is
// one flat JSON object whose values are integers, booleans, strings,
// or one nested flat object. The tokenizer below parses exactly that
// grammar, byte by byte, and rejects anything else. It only records
// where each key and raw value sit in the line; the decoders turn a
// raw value into a number, bool or string on demand, borrowing
// wherever the value needs no unescaping.

/// Tokenize one JSON object into borrowed `(key, raw-value)` slices,
/// replacing the contents of `pairs` (the caller's reusable working
/// buffer). Values are not decoded here: a string value keeps its
/// quotes and a nested object its braces.
fn tokenize<'a>(line: &'a str, pairs: &mut Vec<(&'a str, &'a str)>) -> Result<(), String> {
    pairs.clear();
    let s = line.trim();
    let b = s.as_bytes();
    if b.first() != Some(&b'{') {
        return Err("expected '{'".into());
    }
    let mut i = 1usize;
    loop {
        i = skip_ws(b, i);
        match b.get(i) {
            None => return Err("unterminated object".into()),
            Some(b'}') => {
                i += 1;
                break;
            }
            Some(b'"') => {}
            Some(c) => return Err(format!("expected key, found {:?}", *c as char)),
        }
        let kstart = i + 1;
        let kend = quote_end(b, kstart)?;
        let key = &s[kstart..kend];
        i = skip_ws(b, kend + 1);
        if b.get(i) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i = skip_ws(b, i + 1);
        let vstart = i;
        let value = match b.get(i) {
            Some(b'"') => {
                i = quote_end(b, i + 1)? + 1;
                &s[vstart..i]
            }
            Some(b'{') => {
                i = brace_end(b, i)?;
                &s[vstart..i]
            }
            Some(_) => {
                while i < b.len() && b[i] != b',' && b[i] != b'}' {
                    i += 1;
                }
                s[vstart..i].trim_end()
            }
            None => return Err(format!("missing value for key {key:?}")),
        };
        pairs.push((key, value));
        i = skip_ws(b, i);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {}
            _ => return Err(format!("expected ',' or '}}' after value of {key:?}")),
        }
    }
    if b[i..].iter().any(|c| !c.is_ascii_whitespace()) {
        return Err("trailing garbage after object".into());
    }
    Ok(())
}

/// Index of the first non-whitespace byte at or after `i`.
fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && b[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Index of the closing quote of a string whose body starts at `i`.
fn quote_end(b: &[u8], mut i: usize) -> Result<usize, String> {
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return Ok(i),
            _ => i += 1,
        }
    }
    Err("unterminated string".into())
}

/// Index one past the matching `}` of an object opening at `i`.
fn brace_end(b: &[u8], mut i: usize) -> Result<usize, String> {
    let mut depth = 0usize;
    while i < b.len() {
        match b[i] {
            b'"' => i = quote_end(b, i + 1)?,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Ok(i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    Err("unterminated nested object".into())
}

/// One field of a tokenized record: its raw value, if the record has
/// it, and its key — a `&str`, or an event [`Key`] — which is only
/// rendered when an error message needs it. The typed accessors are
/// the module's only value decoders. They are forced inline: left to
/// the optimizer, each became an out-of-line call taking the field by
/// value, and parsing a trace took about 15 % longer.
#[derive(Clone, Copy)]
struct Field<'a, K> {
    key: K,
    raw: Option<&'a str>,
}

/// The first `key` in `pairs`; a repeated key's later values are
/// ignored.
fn field<'a>(pairs: &[(&'a str, &'a str)], key: &'static str) -> Field<'a, &'static str> {
    Field {
        key,
        raw: pairs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v),
    }
}

impl<'a, K: fmt::Debug + Copy> Field<'a, K> {
    #[inline(always)]
    fn req(self) -> Result<&'a str, String> {
        self.raw
            .ok_or_else(|| format!("missing field {:?}", self.key))
    }

    #[inline(always)]
    fn u64(self) -> Result<u64, String> {
        let raw = self.req()?;
        decode_u64(raw).ok_or_else(|| format!("field {:?}: {raw:?} is not a u64", self.key))
    }

    #[inline(always)]
    fn u32(self) -> Result<u32, String> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| format!("field {:?}: {v} overflows u32", self.key))
    }

    #[inline(always)]
    fn opt_u32(self) -> Result<Option<u32>, String> {
        match self.raw {
            None => Ok(None),
            Some(_) => self.u32().map(Some),
        }
    }

    #[inline(always)]
    fn u8(self) -> Result<u8, String> {
        let v = self.u64()?;
        u8::try_from(v).map_err(|_| format!("field {:?}: {v} overflows u8", self.key))
    }

    #[inline(always)]
    fn bool(self) -> Result<bool, String> {
        match self.req()? {
            "true" => Ok(true),
            "false" => Ok(false),
            raw => Err(format!("field {:?}: {raw:?} is not a bool", self.key)),
        }
    }

    #[inline(always)]
    fn str(self) -> Result<Cow<'a, str>, String> {
        unquote(self.req()?).map_err(|msg| format!("field {:?}: {msg}", self.key))
    }
}

/// Declares [`Key`], the keys event records use, from one list of
/// `Variant => "name"` pairs.
macro_rules! event_keys {
    ($($key:ident => $name:literal),+ $(,)?) => {
        /// A key some event record carries; its discriminant is its
        /// slot in [`EventFields`]. It debug-prints as its quoted name,
        /// like the `&str` keys of other records.
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum Key {
            $($key),+
        }

        impl Key {
            /// Every key, in slot order.
            const ALL: [Key; [$($name),+].len()] = [$(Key::$key),+];

            fn name(self) -> &'static str {
                match self {
                    $(Key::$key => $name),+
                }
            }

            fn from_name(name: &str) -> Option<Key> {
                match name {
                    $($name => Some(Key::$key),)+
                    _ => None,
                }
            }
        }

        impl fmt::Debug for Key {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(self.name(), f)
            }
        }
    };
}

event_keys! {
    Ev => "ev",
    Round => "round",
    Time => "time",
    Pid => "pid",
    Pe => "pe",
    From => "from",
    To => "to",
    Gen => "gen",
    Escape => "escape",
    Depth => "depth",
    Queued => "queued",
    InFlight => "in_flight",
    Stalled => "stalled",
    Kind => "kind",
    Class => "class",
    Reason => "reason",
    Hops => "hops",
    Job => "job",
    Order => "order",
    Pes => "pes",
    Start => "start",
}

/// An event line's raw values, one slot per [`Key`], gathered in one
/// pass over its pairs. As with [`field`], a key's first occurrence
/// wins; keys no event uses are skipped.
struct EventFields<'a>([Option<&'a str>; Key::ALL.len()]);

impl<'a> EventFields<'a> {
    fn gather(pairs: &[(&'a str, &'a str)]) -> Self {
        let mut slots = [None; Key::ALL.len()];
        for &(k, v) in pairs {
            if let Some(key) = Key::from_name(k) {
                slots[key as usize].get_or_insert(v);
            }
        }
        EventFields(slots)
    }

    #[inline(always)]
    fn get(&self, key: Key) -> Field<'a, Key> {
        Field {
            key,
            raw: self.0[key as usize],
        }
    }
}

/// Decimal digits (after an optional `+`, as `str::parse` allows) to a
/// `u64`; `None` on an empty, non-digit or overflowing value.
fn decode_u64(raw: &str) -> Option<u64> {
    let b = raw.as_bytes();
    let digits = b.strip_prefix(b"+").unwrap_or(b);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |v, &c| {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v.checked_mul(10)?.checked_add(u64::from(d))
    })
}

/// The contents of a JSON string value: borrowed from the line when
/// it holds no escape, decoded otherwise. Understands exactly the
/// escapes [`escape`] writes — `\"`, `\\`, `\n`, `\r`, `\t`, and
/// `\u00XX` for the other control characters — and rejects any other.
fn unquote(raw: &str) -> Result<Cow<'_, str>, String> {
    let inner = raw
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| format!("{raw:?} is not a string"))?;
    if !inner.contains('\\') {
        return Ok(Cow::Borrowed(inner));
    }
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex = chars.as_str().get(..4).unwrap_or_default();
                let control = hex
                    .strip_prefix("00")
                    .filter(|h| h.bytes().all(|d| d.is_ascii_hexdigit()))
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .filter(|&c| c < 0x20)
                    .ok_or_else(|| format!("unsupported escape \\u{hex}"))?;
                out.push(char::from(control));
                chars.nth(3);
            }
            other => return Err(format!("unsupported escape \\{other:?}")),
        }
    }
    Ok(Cow::Owned(out))
}

/// Escape a string for embedding in a JSON value: quote, backslash,
/// and every control character (`\n`, `\r`, `\t` by name, the rest as
/// `\u00XX`), so the value never breaks its line.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_variant() -> Vec<Event> {
        vec![
            Event::RoundBegin { round: 3 },
            Event::RoundEnd {
                round: 3,
                queued: 7,
                in_flight: 2,
                stalled: 1,
            },
            Event::Forwarded {
                round: 3,
                pid: 9,
                from: 4,
                to: 5,
                gen: 2,
                escape: true,
            },
            Event::Queued {
                round: 3,
                pid: 9,
                pe: 4,
                gen: 1,
                depth: 2,
                escape: false,
            },
            Event::Stalled {
                round: 3,
                pid: 9,
                pe: 4,
                kind: StallKind::Injection,
            },
            Event::Stalled {
                round: 4,
                pid: 9,
                pe: 4,
                kind: StallKind::CreditHead,
            },
            Event::Diverted {
                round: 3,
                pid: 9,
                pe: 4,
                class: 2,
            },
            Event::Dropped {
                round: 3,
                pid: 9,
                pe: 4,
                reason: DropReason::Overflow,
            },
            Event::Dropped {
                round: 3,
                pid: 10,
                pe: 4,
                reason: DropReason::Stranded,
            },
            Event::Delivered {
                round: 3,
                pid: 9,
                pe: 4,
                hops: 2,
            },
            Event::JobArrived { round: 0, job: 1 },
            Event::JobPlaced {
                round: 2,
                job: 1,
                order: 3,
                pes: 6,
            },
            Event::JobReleased { round: 9, job: 1 },
            Event::JobReserved {
                round: 2,
                job: 4,
                start: 9,
            },
            Event::JobBackfilled { round: 2, job: 5 },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for ev in every_variant() {
            let line = ev.to_json();
            let back = Event::from_json(&line).expect("parses");
            assert_eq!(back, ev, "round-trip failed for {line}");
        }
    }

    fn sample_trace() -> Trace {
        Trace {
            header: TraceHeader {
                schema: SCHEMA_VERSION,
                engine: "fast".into(),
                n: 3,
                seed: 42,
                fingerprint: "s3;latency=1;flow=tail_drop(cap=none)".into(),
                jobs: 2,
                packets: 2,
                events: 3,
                dropped: 0,
                sched_profile: Some(SchedPhaseProfile {
                    rounds: 4,
                    placement_ticks: 5,
                    drain_ticks: 2,
                    backfill_ticks: 4,
                    release_ticks: 5,
                }),
            },
            packets: vec![
                TracePacket {
                    pid: 0,
                    src: 0,
                    dst: 5,
                    round: 0,
                    job: Some(0),
                },
                TracePacket {
                    pid: 1,
                    src: 3,
                    dst: 1,
                    round: 2,
                    job: Some(1),
                },
            ],
            events: vec![
                Event::RoundBegin { round: 0 },
                Event::Queued {
                    round: 0,
                    pid: 0,
                    pe: 0,
                    gen: 1,
                    depth: 1,
                    escape: false,
                },
                Event::RoundEnd {
                    round: 0,
                    queued: 1,
                    in_flight: 0,
                    stalled: 0,
                },
            ],
        }
    }

    #[test]
    fn trace_round_trips() {
        let t = sample_trace();
        let text = t.to_jsonl();
        let back = Trace::parse(&text).expect("parses");
        assert_eq!(back, t);
    }

    #[test]
    fn header_without_profile_round_trips() {
        let mut t = sample_trace();
        t.header.sched_profile = None;
        t.header.jobs = 0;
        t.packets.iter_mut().for_each(|p| p.job = None);
        let back = Trace::parse(&t.to_jsonl()).expect("parses");
        assert_eq!(back, t);
    }

    #[test]
    fn missing_header_is_rejected() {
        let t = sample_trace();
        let text = t.to_jsonl();
        let body = text.split_once('\n').unwrap().1;
        assert_eq!(Trace::parse(body), Err(TraceError::NotATrace));
        assert_eq!(Trace::parse(""), Err(TraceError::Empty));
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let mut t = sample_trace();
        t.header.schema = SCHEMA_VERSION + 1;
        assert_eq!(
            Trace::parse(&t.to_jsonl()),
            Err(TraceError::UnsupportedSchema {
                found: SCHEMA_VERSION + 1
            })
        );
    }

    #[test]
    fn truncated_sections_are_rejected() {
        let t = sample_trace();
        let text = t.to_jsonl();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop();
        assert_eq!(
            Trace::parse(&lines.join("\n")),
            Err(TraceError::Truncated {
                kind: "event",
                expected: 3,
                found: 2
            })
        );
        let only_header: String = text.lines().take(1).collect();
        assert_eq!(
            Trace::parse(&only_header),
            Err(TraceError::Truncated {
                kind: "packet",
                expected: 2,
                found: 0
            })
        );
    }

    #[test]
    fn packet_after_event_is_rejected() {
        let t = sample_trace();
        let text = t.to_jsonl();
        let mut lines: Vec<&str> = text.lines().collect();
        let pkt = lines.remove(1);
        lines.push(pkt);
        let got = Trace::parse(&lines.join("\n"));
        assert!(
            matches!(got, Err(TraceError::Malformed { .. })),
            "got {got:?}"
        );
    }

    #[test]
    fn fingerprint_escaping_round_trips() {
        let mut t = sample_trace();
        t.header.fingerprint = "quote \" and backslash \\ survive".into();
        let back = Trace::parse(&t.to_jsonl()).expect("parses");
        assert_eq!(back.header.fingerprint, t.header.fingerprint);
    }

    #[test]
    fn control_characters_in_header_strings_round_trip() {
        for (s, written) in [
            ("line\nbreak", r#""engine":"line\nbreak""#),
            ("tab\there", r#""engine":"tab\there""#),
            ("carriage\rreturn", r#""engine":"carriage\rreturn""#),
            ("bell\u{7}rings", r#""engine":"bell\u0007rings""#),
        ] {
            let mut t = sample_trace();
            t.header.engine = s.into();
            t.header.fingerprint = format!("{s} \" \\ {s}");
            let text = t.to_jsonl();
            assert_eq!(text.lines().count(), 1 + 2 + 3, "{s:?} broke its line");
            assert!(text.contains(written), "{s:?} written as {text}");
            assert_eq!(Trace::parse(&text), Ok(t), "{s:?} did not round-trip");
        }
    }

    #[test]
    fn escapes_outside_the_written_set_are_rejected() {
        for bad in [
            r#""\b""#,
            r#""\u0041""#,
            r#""\u00""#,
            r#""\u00zz""#,
            r#""\""#,
        ] {
            assert!(unquote(bad).is_err(), "{bad} accepted");
        }
        assert_eq!(unquote(r#""a\u001fb""#).as_deref(), Ok("a\u{1f}b"));
        assert!(matches!(unquote(r#""plain""#), Ok(Cow::Borrowed("plain"))));
    }

    #[test]
    fn event_key_table_is_consistent() {
        for (slot, key) in Key::ALL.into_iter().enumerate() {
            assert_eq!(key as usize, slot);
            assert_eq!(Key::from_name(key.name()), Some(key));
            assert_eq!(format!("{key:?}"), format!("{:?}", key.name()));
        }
        assert_eq!(Key::from_name("packet"), None);
    }

    #[test]
    fn malformed_lines_name_their_line() {
        let t = sample_trace();
        let mut text = t.to_jsonl();
        text.push_str("{\"ev\":\"no_such_event\"}\n");
        match Trace::parse(&text) {
            Err(TraceError::Malformed { line, .. }) => assert_eq!(line, 7),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
