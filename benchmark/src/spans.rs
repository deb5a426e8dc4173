//! Stopwatch spans recorded by the benchmark around its own steps.
//!
//! Nothing here reaches inside the program: a span brackets a call the
//! generator makes (write, read, query). Spans live in memory and are
//! written out once, when the run is over. A span's *self time* is its
//! duration minus the part its children cover — for a window's root
//! span that is the time the generator spent waiting for acks.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept verbatim per run; later ones only feed the totals, so a
/// 46k reports/s window cannot grow the file without bound.
const KEEP: usize = 200_000;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent span; a window's root is its own parent.
    parent: u32,
    window: u8,
    /// Reports (or reads) the step covered.
    count: u64,
}

/// Per-name totals over *every* span, kept or not.
#[derive(Debug, Clone, Default)]
struct Total {
    name: &'static str,
    spans: u64,
    count: u64,
    ns: u64,
}

/// The in-memory span store of one run.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    totals: Vec<Total>,
    dropped: u64,
}

fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog::default()
    }

    /// Opens a window's root span; [`SpanLog::extend`] closes it.
    pub fn open_root(
        &mut self,
        name: &'static str,
        window: u8,
        origin: Instant,
        at: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let t = ns_since(origin, at);
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent: id,
            window,
            count: 0,
        });
        id
    }

    /// Moves a span's end out to `at` (a parent must cover its children).
    pub fn extend(&mut self, id: u32, origin: Instant, at: Instant) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = span.end_ns.max(ns_since(origin, at));
        }
    }

    /// Records a finished child span and returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn child(
        &mut self,
        name: &'static str,
        parent: u32,
        window: u8,
        origin: Instant,
        from: Instant,
        to: Instant,
        count: u64,
    ) -> u32 {
        let (start_ns, end_ns) = (ns_since(origin, from), ns_since(origin, to));
        match self.totals.iter_mut().find(|t| t.name == name) {
            Some(t) => {
                t.spans += 1;
                t.count += count;
                t.ns += end_ns - start_ns;
            }
            None => self.totals.push(Total {
                name,
                spans: 1,
                count,
                ns: end_ns - start_ns,
            }),
        }
        if self.spans.len() >= KEEP {
            self.dropped += 1;
            return u32::MAX;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            window,
            count,
        });
        self.spans.len() as u32 - 1
    }

    /// Folds another phase's spans in (ids and parents shift).
    pub fn absorb(&mut self, other: SpanLog) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent += shift;
            s
        }));
        for t in other.totals {
            match self.totals.iter_mut().find(|mine| mine.name == t.name) {
                Some(mine) => {
                    mine.spans += t.spans;
                    mine.count += t.count;
                    mine.ns += t.ns;
                }
                None => self.totals.push(t),
            }
        }
        self.dropped += other.dropped;
    }

    /// `{"provenance": …, "totals": […], "dropped": n, "spans": […]}`.
    pub fn to_json(&self, provenance: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 1_024);
        let _ = write!(out, "{{\"provenance\": {provenance},\n \"totals\": [");
        for (i, t) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"spans\": {}, \"count\": {}, \"total_us\": {:.3}}}",
                t.name,
                t.spans,
                t.count,
                t.ns as f64 / 1e3
            );
        }
        let _ = write!(out, "],\n \"dropped\": {},\n \"spans\": [\n", self.dropped);
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {}, \"window\": {}, \"count\": {}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.parent,
                s.window,
                s.count
            );
        }
        out.push_str(" ]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_nest_under_their_window_and_totals_survive_the_cap() {
        let origin = Instant::now();
        let at = |us: u64| origin + Duration::from_micros(us);
        let mut log = SpanLog::new();
        let root = log.open_root("measure", 1, origin, at(0));
        let recv = log.child("recv", root, 1, origin, at(10), at(20), 3);
        log.child("verify", recv, 1, origin, at(20), at(35), 1);
        log.extend(recv, origin, at(35));
        log.extend(root, origin, at(100));
        let json = log.to_json("{}");
        assert!(json.contains(
            "\"name\": \"measure\", \"start_us\": 0.000, \"end_us\": 100.000, \"parent\": 0"
        ));
        assert!(json.contains(
            "\"name\": \"recv\", \"start_us\": 10.000, \"end_us\": 35.000, \"parent\": 0"
        ));
        assert!(json.contains(
            "\"name\": \"verify\", \"start_us\": 20.000, \"end_us\": 35.000, \"parent\": 1"
        ));
        assert!(
            json.contains("{\"name\": \"recv\", \"spans\": 1, \"count\": 3, \"total_us\": 10.000}")
        );
    }
}
