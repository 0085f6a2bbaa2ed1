//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing under `crates/` is instrumented. A recorder
//! that is off runs the closure and nothing else, so the untraced passes
//! that produce the end-to-end numbers pay no clock reads for it.

use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` is the span that was open when this one
/// started; spans of one repetition share `rep`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rep: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
    /// Counts taken at the same boundaries as the spans, keyed by name and
    /// summed within a repetition.
    counts: BTreeMap<&'static str, f64>,
}

impl Recorder {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            counts: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whichever span is
    /// open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// A span whose inside is not traced: `f` runs with the recorder off,
    /// so work repeated for a comparison adds one span and no counts.
    pub fn opaque<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.span(name, |rec| {
            let was = std::mem::replace(&mut rec.enabled, false);
            let out = f(rec);
            rec.enabled = was;
            out
        })
    }

    /// Adds `delta` to the count `name` of the current repetition.
    pub fn count(&mut self, name: &'static str, delta: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += delta;
        }
    }

    /// Starts repetition `rep`: later spans carry it, and counts restart.
    pub fn begin_rep(&mut self, rep: u32) {
        self.rep = rep;
        self.counts.clear();
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans of repetition `rep`.
    pub fn rep_spans(&self, rep: u32) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.rep == rep)
    }

    /// One JSON object per line: `id`, `parent`, `name`, `start_ns`,
    /// `end_ns`, `workload`, `rep`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(out, "{{\"id\":{},\"parent\":", s.id);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"name\":");
            json::write_str(&mut out, s.name);
            let _ = write!(
                out,
                ",\"start_ns\":{},\"end_ns\":{},\"workload\":",
                s.start_ns, s.end_ns
            );
            json::write_str(&mut out, workload);
            let _ = writeln!(out, ",\"rep\":{}}}", s.rep);
        }
        out
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Summed over a tree, self times give back the root's duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_times_sum_to_the_root() {
        let mut rec = Recorder::on();
        rec.span("root", |rec| {
            rec.span("a", |rec| rec.span("a.inner", |_| std::hint::black_box(3)));
            rec.span("b", |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        for s in spans {
            if let Some(p) = s.parent {
                let p = &spans[p as usize];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            }
        }
        let total: u64 = self_times(spans).iter().sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut rec = Recorder::off();
        assert_eq!(rec.span("x", |rec| rec.span("y", |_| 7)), 7);
        rec.count("n", 1.0);
        assert!(rec.spans().is_empty() && rec.counts().is_empty());
    }
}
