//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span's name is `<layer>.<operation>`; its layer is the part before
//! the first dot. Spans are kept in memory during the run and written out
//! as JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Shared by every span of one query execution (0 = run set-up).
    pub query: u64,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, query: u64, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        self.spans.push(Span { name, query, start, end: start, parent });
        self.spans.len() - 1
    }

    /// Close a span and return its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now();
        let span = &mut self.spans[id];
        span.end = now;
        span.duration()
    }

    /// Run `f` inside a span; returns its result and the span's duration
    /// in nanoseconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        query: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.begin(name, query, parent);
        let out = f();
        (out, self.end(id))
    }

    #[cfg(test)]
    pub fn from_spans(spans: Vec<Span>) -> Self {
        Tracer { origin: Instant::now(), spans }
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (overlapping children counted
    /// once, parts outside the parent ignored).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, kids)| span.duration() - covered(span.start, span.end, kids))
            .collect()
    }

    /// Total self time per layer, in nanoseconds.
    pub fn layer_self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (span, self_time) in self.spans.iter().zip(self.self_times()) {
            *out.entry(span.layer()).or_insert(0) += self_time;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"query\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.query, span.start, span.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name, query: 1, start, end, parent }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tracer = Tracer::from_spans(vec![
            span("bench.query", 0, 100, None),
            span("sql.plan", 10, 30, Some(0)),
            // Overlaps the first child: the overlap counts once.
            span("engine.collect", 20, 50, Some(0)),
            // Runs past its parent's end: only the inside part counts.
            span("bench.check", 90, 120, Some(0)),
            span("batch.split_encode", 200, 260, None),
        ]);
        assert_eq!(tracer.self_times(), vec![50, 20, 30, 30, 60]);
        let layers = tracer.layer_self_times();
        assert_eq!(layers["bench"], 80);
        assert_eq!(layers["sql"], 20);
        assert_eq!(layers["engine"], 30);
        assert_eq!(layers["batch"], 60);
    }

    #[test]
    fn nested_children_only_count_against_their_parent() {
        let tracer = Tracer::from_spans(vec![
            span("bench.setup", 0, 10, None),
            span("tpch.register_all", 2, 9, Some(0)),
            span("plan.optimize", 3, 5, Some(1)),
        ]);
        assert_eq!(tracer.self_times(), vec![3, 5, 2]);
    }

    #[test]
    fn live_spans_are_recorded_in_order() {
        let mut tracer = Tracer::default();
        let root = tracer.begin("bench.query", 7, None);
        let (value, inner) = tracer.span("sql.plan", 7, Some(root), || 41 + 1);
        let outer = tracer.end(root);
        assert_eq!(value, 42);
        assert!(outer >= inner);
        assert_eq!(tracer.self_times().iter().sum::<u64>(), outer);
    }
}
