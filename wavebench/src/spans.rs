//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and an end on the host clock, the span that
//! caused it (the innermost span open when it began), and the request
//! (frame) it belongs to. Spans are recorded around calls into the
//! library's public functions from the benchmark's own code, kept in a
//! pre-sized vector, and summarized when the run ends.

use std::time::Instant;

/// Handle of an open or closed span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `dtcwt.forward`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request (frame) identifier shared by the spans of one request.
    pub request: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Records spans in memory.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    open: Vec<SpanId>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans before it reallocates.
    pub fn new(capacity: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span, a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, request);
        let r = f();
        self.end(id);
        r
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name, in first-seen order: count, total milliseconds and
    /// self milliseconds (duration minus the time its child spans cover).
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ms) {
            let i = match rows.iter().position(|r| r.0 == s.name) {
                Some(i) => i,
                None => {
                    rows.push((s.name, 0, 0.0, 0.0));
                    rows.len() - 1
                }
            };
            rows[i].1 += 1;
            rows[i].2 += s.ms();
            rows[i].3 += s.ms() - child;
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_under_the_open_span_and_self_time_excludes_them() {
        let mut rec = Recorder::new(4);
        let root = rec.begin("frame", 7);
        rec.time("child", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(root);
        assert_eq!(rec.spans()[1].parent, Some(root));
        assert_eq!(rec.spans()[1].request, 7);
        let rows = rec.summary();
        let frame = rows.iter().find(|r| r.0 == "frame").unwrap();
        let child = rows.iter().find(|r| r.0 == "child").unwrap();
        assert_eq!(frame.1, 1);
        assert!(child.2 >= 2.0);
        assert!((frame.2 - frame.3 - child.2).abs() < 1e-9);
    }
}
