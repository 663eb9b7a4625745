//! In-memory span recorder for the traced run.
//!
//! A span wraps one call the benchmark makes into a library layer's public
//! function: its name, start and end (nanoseconds since the recorder was
//! created), the span that was open when it started, and the id of the
//! request (shootout cell, oracle batch, engine run, scale cell) it belongs
//! to.  Spans stay in memory while the benchmark runs and are written out
//! once at exit.  A disabled recorder calls the wrapped closure and reads no
//! clock, which is what the untraced run measures.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// No parent: the span was opened at the top level.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary name, e.g. `core.kssp.theorem14`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Request id shared by every span of one cell or batch.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; single-threaded (spans are opened by the benchmark's one
/// caller, never from inside the rayon pool).
pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u32>>,
    request: Cell<u64>,
}

impl Tracer {
    /// A recorder, initially off.
    pub fn new() -> Self {
        Tracer {
            enabled: Cell::new(false),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            request: Cell::new(0),
        }
    }

    /// Switches recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Sets the request id stamped on the spans opened from now on.
    pub fn set_request(&self, id: u64) {
        self.request.set(id);
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (just runs it when disabled).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let parent = self.stack.borrow().last().copied().unwrap_or(ROOT);
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                request: self.request.get(),
            });
            (spans.len() - 1) as u32
        };
        self.stack.borrow_mut().push(idx);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx as usize].start_ns = start;
        spans[idx as usize].end_ns = end;
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// The spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
    /// `request`), for writing out at exit.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            );
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-name aggregate over a span list: calls, total ms, and self ms (total
/// minus the time covered by direct children).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Number of spans with the name.
    pub calls: u64,
    /// Sum of their durations, milliseconds.
    pub busy_ms: f64,
    /// `busy_ms` minus the durations of their direct children.
    pub self_ms: f64,
}

/// Aggregates `spans` whose start lies in `[from_ns, to_ns]` by name.
pub fn totals(spans: &[Span], from_ns: u64, to_ns: u64, name: &str) -> SpanTotals {
    let mut t = SpanTotals::default();
    let mut child_ns: u64 = 0;
    for s in spans {
        if s.start_ns < from_ns || s.start_ns > to_ns {
            continue;
        }
        if s.name == name {
            t.calls += 1;
            t.busy_ms += s.ns() as f64 / 1e6;
        }
        if s.parent != ROOT && spans[s.parent as usize].name == name {
            child_ns += s.ns();
        }
    }
    t.self_ms = t.busy_ms - child_ns as f64 / 1e6;
    t
}

/// Total milliseconds of top-level spans starting in `[from_ns, to_ns]`.
pub fn top_level_ms(spans: &[Span], from_ns: u64, to_ns: u64) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent == ROOT && s.start_ns >= from_ns && s.start_ns <= to_ns)
        .map(|s| s.ns() as f64 / 1e6)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.set_request(7);
        tr.span("outer", || {
            tr.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert!(spans.iter().all(|s| s.request == 7));
        let outer = totals(&spans, 0, u64::MAX, "outer");
        let inner = totals(&spans, 0, u64::MAX, "inner");
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(outer.busy_ms >= inner.busy_ms);
        assert!((outer.self_ms - (outer.busy_ms - inner.busy_ms)).abs() < 1e-9);
        assert!((top_level_ms(&spans, 0, u64::MAX) - outer.busy_ms).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new();
        assert_eq!(tr.span("x", || 5), 5);
        assert!(tr.spans().is_empty());
    }
}
