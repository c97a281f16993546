//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, its start and end on the process clock, the
//! span that caused it, and the iteration (run id) it belongs to. Spans
//! stay in memory and are written out once, when the benchmark ends, so
//! the traced run pays one clock read and one push per span.
//!
//! A layer is the part of a span name before the first `.`; a layer's
//! self time is the time its spans cover minus the part their child spans
//! cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the process, starting at 1.
    pub id: u64,
    /// The span that caused this one (`None` for an iteration's root).
    pub parent: Option<u64>,
    /// The iteration this span belongs to.
    pub run: u64,
    /// `layer.call`, e.g. `builder.build`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer this span is attributed to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Where a new span hangs: an iteration plus, below the root, a parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    run: u64,
    parent: Option<u64>,
}

impl SpanCtx {
    /// The top of iteration `run`.
    pub fn root(run: u64) -> Self {
        Self { run, parent: None }
    }
}

/// Collects spans when enabled; costs nothing but a branch when not.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Self {
            origin: Some(Instant::now()),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            origin: None,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `ctx`; `f` receives the
    /// context for child spans.
    pub fn span<T>(&self, ctx: SpanCtx, name: &'static str, f: impl FnOnce(SpanCtx) -> T) -> T {
        let Some(origin) = self.origin else {
            return f(ctx);
        };
        // A span id only names the span; no other data is published by it.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = origin.elapsed();
        let out = f(SpanCtx {
            run: ctx.run,
            parent: Some(id),
        });
        let end = origin.elapsed();
        let span = Span {
            id,
            parent: ctx.parent,
            run: ctx.run,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        };
        self.spans
            .lock()
            .expect("no span holder panics while pushing")
            .push(span);
        out
    }

    /// Every span closed so far, sorted by id (open order).
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no span holder panics while pushing")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// The closed spans of iteration `run`, sorted by id.
    pub fn spans_of(&self, run: u64) -> Vec<Span> {
        let mut spans = self.spans();
        spans.retain(|s| s.run == run);
        spans
    }
}

/// Self time of each span: its duration minus the union of its
/// children's intervals, clipped to the span. Children running in
/// parallel (sweep cells on two workers) are counted once.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(cursor);
                    let hi = hi.min(s.end_ns);
                    if hi > lo {
                        covered += hi - lo;
                        cursor = hi;
                    }
                }
            }
            let total = s.end_ns - s.start_ns;
            (s.id, total.saturating_sub(covered) as f64 * 1e-9)
        })
        .collect()
}

/// Self time summed per layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_insert(0.0) += selfs[&s.id];
    }
    out
}

/// Total duration of the spans called `name`.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Renders spans as JSON lines: one object per span.
pub fn render_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, parent, s.run, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, lo: u64, hi: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name,
            start_ns: lo,
            end_ns: hi,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = [
            span(1, None, "sweep.run", 0, 100),
            // Two overlapping cells on two workers cover 10..70 once.
            span(2, Some(1), "consensus.cell", 10, 50),
            span(3, Some(1), "consensus.cell", 30, 70),
            span(4, Some(1), "statesync.cell", 90, 120), // clipped to 90..100
        ];
        let selfs = self_times(&spans);
        assert!((selfs[&1] - 30e-9).abs() < 1e-15);
        assert!((selfs[&2] - 40e-9).abs() < 1e-15);
        let layers = layer_self_times(&spans);
        assert!((layers["sweep"] - 30e-9).abs() < 1e-15);
        assert!((layers["consensus"] - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        let v = t.span(SpanCtx::root(0), "net.run", |_| 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        let t = Tracer::on();
        t.span(SpanCtx::root(3), "bench.iteration", |ctx| {
            t.span(ctx, "net.run", |_| ());
        });
        let spans = t.spans_of(3);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
    }
}
