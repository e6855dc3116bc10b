//! In-memory spans recorded around calls into the program's layers.
//!
//! The recorder lives in the benchmark, never in the program: each span
//! brackets one call into a layer's public function. Spans nest through an
//! explicit stack, carry the id of the page or request they belong to, and
//! are written out when the run ends. A disabled recorder does the same
//! bookkeeping calls but records nothing, which is how the traced and the
//! untraced replay of the same inputs are told apart.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The page or request the span belongs to.
    pub item: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Span and count recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before its exit.
    pub fn enter(&mut self, name: &'static str, item: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, item });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close the span `open` refers to (it must be the innermost one).
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, item: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, item);
        let out = f();
        self.exit(open);
        out
    }

    /// Add `n` to a count recorded at a layer boundary.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines, numbering them from `first_id` so
    /// several recorders can share one file.
    pub fn write_spans(&self, out: &mut impl Write, first_id: usize) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| (first_id + p).to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"item\":{}}}",
                first_id + i,
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.item
            )?;
        }
        Ok(())
    }
}

/// Time `pass` untraced and traced, alternating twice after one untimed
/// warm-up pass, and keep the faster of each; `pass` returns its own wall
/// seconds. Returns the recorder of the last traced pass and the two times
/// (untraced, traced), whose difference is the tracing overhead.
pub fn paired(mut pass: impl FnMut(&mut Tracer) -> f64) -> (Tracer, f64, f64) {
    pass(&mut Tracer::new(false));
    let (mut untraced, mut traced) = (f64::INFINITY, f64::INFINITY);
    let mut last = Tracer::new(true);
    for _ in 0..2 {
        untraced = untraced.min(pass(&mut Tracer::new(false)));
        let mut tr = Tracer::new(true);
        traced = traced.min(pass(&mut tr));
        last = tr;
    }
    (last, untraced, traced)
}

/// Per span name: total duration and self time (duration minus the part
/// of its interval that its child spans cover), in nanoseconds, plus the
/// number of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub total_ns: u64,
    pub self_ns: u64,
    pub spans: u64,
}

/// Fold spans into per-name totals and self times. Children may overlap
/// each other (then their union counts once) and are clipped to their
/// parent's interval.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let covered = union_within(kids, s.start_ns, s.end_ns);
        let t = out.entry(s.name).or_default();
        t.total_ns += duration;
        t.self_ns += duration - covered;
        t.spans += 1;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, item: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // page [0,100) > parse [10,60) > tokenize [20,30); page > check [60,90).
        let spans = vec![
            span("page", 0, 100, None),
            span("parse", 10, 60, Some(0)),
            span("tokenize", 20, 30, Some(1)),
            span("check", 60, 90, Some(0)),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["page"], LayerTime { total_ns: 100, self_ns: 20, spans: 1 });
        assert_eq!(t["parse"], LayerTime { total_ns: 50, self_ns: 40, spans: 1 });
        assert_eq!(t["tokenize"].self_ns, 10);
        assert_eq!(t["check"].self_ns, 30);
        // Self times of a tree add up to the root's duration.
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("req", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 140, 160, Some(0)),
            span("c", 190, 250, Some(0)),
        ];
        let t = layer_times(&spans);
        // Covered: [100,160) + [190,200) = 70.
        assert_eq!(t["req"].self_ns, 30);
    }

    #[test]
    fn same_name_spans_accumulate() {
        let spans = vec![span("x", 0, 10, None), span("x", 20, 25, None)];
        let t = layer_times(&spans);
        assert_eq!(t["x"], LayerTime { total_ns: 15, self_ns: 15, spans: 2 });
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("outer", 7);
        tr.span("inner", 7, || std::hint::black_box(1 + 1));
        tr.exit(outer);
        tr.count("pages", 3);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[0].parent, None);
        assert!(tr.spans()[0].start_ns <= tr.spans()[1].start_ns);
        assert!(tr.spans()[1].end_ns <= tr.spans()[0].end_ns);
        assert_eq!(tr.counts()["pages"], 3);
        let mut buf = Vec::new();
        tr.write_spans(&mut buf, 0).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 2);

        let mut off = Tracer::new(false);
        let o = off.enter("outer", 1);
        off.span("inner", 1, || ());
        off.exit(o);
        off.count("pages", 1);
        assert!(off.spans().is_empty() && off.counts().is_empty());
    }
}
