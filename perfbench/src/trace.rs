//! In-memory spans recorded around the calls the benchmark makes into
//! each module's public functions.
//!
//! A span has a name, a start and end relative to the tracer's origin,
//! the request it belongs to, and the span that was open when it began
//! (its parent). A disabled tracer records nothing, so the untraced
//! end-to-end runs pay one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Module-qualified name, e.g. `core.compete`.
    pub name: &'static str,
    /// The request this span served.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u128,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u128,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder. Spans nest by call order.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    request: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            request: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts a new request: spans opened from now on carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Turns recording on or off (open spans still close normally).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span named `name` nested in the innermost open span;
    /// pass the returned handle to [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos(),
            end_ns: 0,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the span `enter` opened.
    pub fn exit(&mut self, handle: Option<usize>) {
        if let Some(idx) = handle {
            self.open.retain(|&o| o != idx);
            self.spans[idx].end_ns = self.origin.elapsed().as_nanos();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let h = self.enter(name);
        let out = f();
        self.exit(h);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed duration (ms) of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Per-name `(count, total ms, self ms)`, where self time is a span's
    /// duration minus the time its direct children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ms = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ms) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += s.ms() - child;
        }
        out
    }

    /// The summary as a fixed-width table, one span name per line.
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "{:<28} {:>8} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (n, total, own)) in self.summary() {
            let _ = writeln!(out, "{name:<28} {n:>8} {total:>12.3} {own:>12.3}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time() {
        let mut t = Tracer::new(true);
        t.next_request();
        let outer = t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].request, 1);
        assert_eq!(t.spans()[1].parent, Some(0));
        let s = t.summary();
        let (n, total, own) = s["outer"];
        assert_eq!(n, 1);
        assert!(own < total && total >= 2.0, "{total} {own}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 3), 3);
        assert!(t.spans().is_empty());
    }
}
