//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in a buffer allocated before the traced phase and are
//! written out once, at the end. Each span records its name, start, end,
//! parent and the op it belongs to. A span's *self time* is its duration
//! minus the part of its interval that its children cover; children may
//! overlap (pool tasks), so the covered part is the length of their union.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            enabled: true,
        }
    }

    /// A tracer that records nothing: the same code path, untraced.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::with_capacity(0)
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, op: u32, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId(u32::MAX);
        }
        let id = SpanId(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            let end = self.now_ns();
            self.spans[id.0 as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the buffer as one JSON document.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end_ns - s.start_ns) - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Per span name: self time in µs summed within each of `ops` ops (0 for
/// an op without such a span).
pub fn self_us_by_op(spans: &[Span], ops: usize) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name).or_insert_with(|| vec![0.0; ops])[s.op as usize] += t as f64 / 1e3;
    }
    out
}

/// Median over ops of the summed self time of the spans named `names`.
pub fn p50_self_us(by_op: &BTreeMap<&'static str, Vec<f64>>, ops: usize, names: &[&str]) -> f64 {
    let mut sums = vec![0.0; ops];
    for v in names.iter().filter_map(|n| by_op.get(n)) {
        for (s, x) in sums.iter_mut().zip(v) {
            *s += x;
        }
    }
    crate::stats::median(&sums)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Root [0, 100]; children [10, 40] and [30, 60] overlap on
        // [30, 40], so they cover 50, not 60; a grandchild does not count
        // against the root.
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),
            span("c", Some(1), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 30, 5]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("root", None, 10, 20),
            span("a", Some(0), 5, 12),
            span("b", Some(0), 18, 30),
            span("c", Some(0), 11, 19),
        ];
        // Union of the clipped children is [10, 20]: no self time left.
        assert_eq!(self_times(&spans)[0], 0);
        let mut nested = [(0, 10), (2, 3), (20, 25)];
        assert_eq!(covered(0, 100, &mut nested), 15);
    }

    #[test]
    fn per_op_sums_repeat_names() {
        let mut spans = vec![
            span("op", None, 0, 100_000),
            span("x", Some(0), 0, 10_000),
            span("x", Some(0), 20_000, 30_000),
        ];
        spans.push(Span {
            op: 1,
            ..span("op", None, 200_000, 250_000)
        });
        let per = self_us_by_op(&spans, 2);
        assert_eq!(per["x"], vec![20.0, 0.0]);
        assert_eq!(per["op"], vec![80.0, 50.0]);
        // Per-op sums are [100, 50]; the nearest-rank median is 50.
        assert_eq!(p50_self_us(&per, 2, &["op", "x"]), 50.0);
        assert_eq!(p50_self_us(&per, 2, &["absent"]), 0.0);
    }

    #[test]
    fn recorded_spans_nest() {
        let mut t = Tracer::with_capacity(4);
        let root = t.open("op", 0, None);
        t.span("child", 0, Some(root), || std::hint::black_box(1 + 1));
        t.close(root);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
