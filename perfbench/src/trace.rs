//! Spans recorded from outside the program.
//!
//! The benchmark wraps every call it makes into a layer's public API in a
//! span: name, start, end, parent, and the id of the operation (batch,
//! read, or propagation sweep) it belongs to. Spans stay in memory and
//! are written out when the run ends. A span's *self time* is its duration
//! minus the time its children cover; a root's self time is the time the
//! operation spent in no layer at all (`trace.unaccounted_ms`), so for every
//! operation the self times of its spans add up to its latency exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call (`text.parse`, `multistore.apply`, …) or operation root
    /// (`op.commit`, `op.read`, …).
    pub name: &'static str,
    /// Operation id shared by every span of one batch, read or sweep.
    pub op: u64,
    /// Index of the enclosing span, `None` for an operation root.
    pub parent: Option<usize>,
    /// Offset from the tracer's origin.
    pub start: Duration,
    /// Offset from the tracer's origin.
    pub end: Duration,
}

impl Span {
    /// Wall duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Handle of an open span.
#[must_use]
pub struct Open(Option<usize>);

/// In-memory span recorder. When disabled every call is a no-op and no
/// clock is read.
pub struct Tracer {
    enabled: bool,
    active: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes it free.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            active: enabled,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Is this a traced run at all?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start operation `op`; `traced = false` runs it without spans (the
    /// traced run alternates, so its untraced half measures the overhead).
    pub fn start_op(&mut self, op: u64, traced: bool) {
        debug_assert!(self.stack.is_empty(), "operations do not nest");
        self.op = op;
        self.active = self.enabled && traced;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.active {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::begin`] (innermost first).
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end = self.origin.elapsed();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut out: Vec<Duration> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.duration());
        }
    }
    out
}

/// Index of each span's operation root.
fn roots(spans: &[Span]) -> Vec<usize> {
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        root_of.push(s.parent.map_or(i, |p| root_of[p]));
    }
    root_of
}

/// For operation roots named `root`: the mean self time per root of every
/// layer span under them, and the roots' own (unaccounted) mean self
/// time, in milliseconds.
pub fn layer_means(spans: &[Span], root: &str) -> (BTreeMap<&'static str, f64>, f64) {
    let selfs = self_times(spans);
    let root_of = roots(spans);
    let n = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
        .count()
        .max(1) as f64;
    let mut per: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut own = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if spans[root_of[i]].name != root {
            continue;
        }
        let ms = selfs[i].as_secs_f64() * 1e3;
        if s.parent.is_none() {
            own += ms;
        } else {
            *per.entry(s.name).or_default() += ms;
        }
    }
    for v in per.values_mut() {
        *v /= n;
    }
    (per, own / n)
}

/// The spans as JSON lines (one object per span, self time included).
pub fn spans_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, (s, st)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
            s.op,
            s.name,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6,
            st.as_secs_f64() * 1e6,
        );
    }
    out
}

/// A per-layer table: calls, total self time, self time per root of each
/// kind, and the layer's share of its roots' summed latency.
pub fn layer_table(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let root_of = roots(spans);
    let mut latency: BTreeMap<&'static str, (u64, Duration)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        let e = latency.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration();
    }
    let mut rows: BTreeMap<(&'static str, &'static str), (u64, Duration)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let root = spans[root_of[i]].name;
        let name = if s.parent.is_none() {
            "(unaccounted)"
        } else {
            s.name
        };
        let e = rows.entry((root, name)).or_default();
        e.0 += 1;
        e.1 += selfs[i];
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<30} {:>8} {:>12} {:>12} {:>7}",
        "root", "layer", "calls", "self_ms", "ms_per_root", "share"
    );
    for ((root, name), (calls, t)) in &rows {
        let (n, lat) = latency[root];
        let _ = writeln!(
            out,
            "{:<14} {:<30} {:>8} {:>12.3} {:>12.4} {:>6.1}%",
            root,
            name,
            calls,
            t.as_secs_f64() * 1e3,
            t.as_secs_f64() * 1e3 / n.max(1) as f64,
            100.0 * t.as_secs_f64() / lat.as_secs_f64().max(1e-12),
        );
    }
    for (root, (n, lat)) in &latency {
        let _ = writeln!(
            out,
            "{:<14} {:<30} {:>8} {:>12.3} {:>12.4} {:>6.1}%",
            root,
            "(latency)",
            n,
            lat.as_secs_f64() * 1e3,
            lat.as_secs_f64() * 1e3 / (*n).max(1) as f64,
            100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::new(true);
        t.start_op(1, true);
        let root = t.begin("op.commit");
        let a = t.begin("a");
        let b = t.begin("b");
        std::thread::sleep(Duration::from_millis(2));
        t.end(b);
        t.end(a);
        let c = t.begin("c");
        t.end(c);
        t.end(root);
        let spans = t.spans();
        let total: Duration = self_times(spans).iter().sum();
        assert_eq!(total, spans[0].duration());
    }

    #[test]
    fn untraced_operations_record_nothing() {
        let mut t = Tracer::new(true);
        t.start_op(1, false);
        let s = t.begin("op.commit");
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
