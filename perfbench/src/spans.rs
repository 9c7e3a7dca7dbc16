//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end on one monotonic clock, the span
//! that caused it and the request it belongs to. Spans stay in memory
//! while a pass runs and are written out as JSON lines at the end.

use std::io::{self, Write};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One finished span; times are nanoseconds since the recorder began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the recorder, the id children name as `parent`.
    pub id: usize,
    /// The layer call this span wraps, e.g. `protocol.parse`.
    pub name: &'static str,
    /// Start, nanoseconds.
    pub start: u64,
    /// End, nanoseconds.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The request both spans belong to.
    pub request: u64,
}

impl Span {
    /// Duration, nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// A thread-safe span recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`close`](Self::close).
    pub fn open(&self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let id = spans.len();
        spans.push(Span {
            id,
            name,
            start,
            end: start,
            parent,
            request,
        });
        id
    }

    /// Closes span `id` now.
    pub fn close(&self, id: usize) {
        let end = self.now();
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans[id].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Durations in microseconds of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64 / 1e3)
        .collect()
}

/// Self time of `span`, nanoseconds: its duration minus the part of it
/// that its children cover. Overlapping children count once.
pub fn self_time(span: &Span, spans: &[Span]) -> u64 {
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| s < e)
        .collect();
    covered.sort_unstable();
    let mut union = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in covered {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                union += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        union += ce - cs;
    }
    span.duration() - union
}

/// Self times in microseconds of every span named `name`.
pub fn self_times_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| self_time(s, spans) as f64 / 1e3)
        .collect()
}

/// Writes `spans` as JSON lines, one span per line.
pub fn write_jsonl(out: &mut impl Write, pass: &str, spans: &[Span]) -> io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"pass\":\"{pass}\",\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.id, s.name, s.start, s.end, s.request
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            id,
            name: "x",
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = vec![
            span(0, 0, 100, None),
            // Two children overlapping on 20..30, a third disjoint one.
            span(1, 10, 30, Some(0)),
            span(2, 20, 40, Some(0)),
            span(3, 60, 70, Some(0)),
            // A grandchild is its parent's business, not the root's.
            span(4, 12, 90, Some(1)),
        ];
        assert_eq!(self_time(&spans[0], &spans), 100 - 30 - 10);
        assert_eq!(self_time(&spans[1], &spans), 20 - 18);
        assert_eq!(self_time(&spans[3], &spans), 10);
    }

    #[test]
    fn nested_and_out_of_span_children_are_clipped() {
        let spans = vec![
            span(0, 100, 200, None),
            span(1, 110, 150, Some(0)),
            span(2, 120, 130, Some(0)),
            // A child on another thread that outlives its parent.
            span(3, 190, 260, Some(0)),
        ];
        assert_eq!(self_time(&spans[0], &spans), 100 - 40 - 10);
    }

    #[test]
    fn recorder_links_children_to_parents() {
        let rec = Recorder::default();
        let root = rec.open("root", None, 7);
        rec.time("child", Some(root), 7, || std::hint::black_box(1 + 1));
        rec.close(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(self_time(&spans[0], &spans) <= spans[0].duration());
        let mut out = Vec::new();
        write_jsonl(&mut out, "t", &spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            dram_perf::json::parse("span", line).expect("valid JSON");
        }
    }
}
