//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent)`. Spans are only recorded
//! when the recorder is enabled, so an untimed call site costs one
//! branch in the timed ops. A layer's self time is the duration of its
//! spans minus the part their child spans cover.

use crate::summary::json_str;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's
/// origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `net.run`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records.
    #[must_use]
    pub fn on() -> Self {
        Spans {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Spans {
            enabled: false,
            ..Spans::on()
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; it encloses every span opened before the matching
    /// [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The recorded spans, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Total duration per span name, in seconds.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.secs();
        }
        out
    }

    /// The spans as a JSON array, for the trace file.
    #[must_use]
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                    json_str(s.name),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::on();
        s.enter("op");
        s.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        s.exit();
        let own = s.self_times();
        let total = s.totals();
        assert!(own["child"] >= 0.005);
        assert!((own["op"] + own["child"] - total["op"]).abs() < 1e-6);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::off();
        assert_eq!(s.time("x", || 7), 7);
        assert!(s.spans().is_empty());
    }
}
