//! In-memory spans for the traced run, and their reduction to a
//! per-layer self-time table.
//!
//! A span is a name, a start and an end, the span that caused it and a
//! request id. Spans stay in memory while the workload runs and are
//! written out once at exit, so tracing adds no I/O to the measured
//! path.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer or request name.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or kernel) id shared by a request's spans.
    pub request: u64,
}

/// A span recorder. Each thread owns one; [`Tracer::absorb`] merges
/// them at the end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished interval; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends; children recorded in
    /// between name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
    }

    /// Times `f` as a span; returns its result and duration in µs.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, request);
        (out, (end - start).as_secs_f64() * 1e6)
    }

    /// Appends another tracer's spans (same epoch), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans and their self-time table as JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.request,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "],\"self_time\":{{")?;
        let table = self_times(&self.spans);
        for (i, (name, t)) in table.iter().enumerate() {
            writeln!(
                out,
                "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}{}",
                t.count,
                t.total_ns,
                t.self_ns,
                if i + 1 < table.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "}}}}")?;
        out.flush()
    }
}

/// Per-name totals of the self-time table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans, ns.
    pub self_ns: u64,
}

/// Reduces spans to a per-name self-time table: a span's self time is
/// its duration minus the union of its children's intervals (clipped to
/// the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let total = s.end_ns.saturating_sub(s.start_ns);
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let t = table.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += total;
        t.self_ns += total - covered;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("kernel", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            // Overlapping siblings count once.
            span("run", 25, 60, Some(0)),
            span("sim", 40, 50, Some(2)),
            // A child running past its parent is clipped.
            span("late", 90, 120, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["kernel"].self_ns, 100 - (60 - 10) - 10);
        assert_eq!(t["kernel"].total_ns, 100);
        assert_eq!(t["parse"].self_ns, 20);
        assert_eq!(t["run"].self_ns, 35 - 10);
        assert_eq!(t["sim"].self_ns, 10);
        assert_eq!(t["late"].self_ns, 30);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.open("a", None, 1);
        a.close(root);
        let mut b = Tracer::new(epoch);
        let p = b.open("b", None, 2);
        b.record("c", epoch, epoch, Some(p), 2);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].request, 2);
    }
}
