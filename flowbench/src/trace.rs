//! Span recorder for traced runs. Every span the benchmark records wraps
//! one of its own calls into a layer's public functions; spans stay in
//! memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifies a span: (recording thread, sequence number on it).
pub type SpanId = (u16, u32);

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// The workload operation the span belongs to.
    pub op: u64,
    /// Layer (`crate.module`) plus call, e.g. `serve.http` / `poll`.
    pub layer: &'static str,
    pub call: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
}

/// A span opened but not yet closed.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: SpanId,
    parent: Option<SpanId>,
    op: u64,
    layer: &'static str,
    call: &'static str,
    start: u64,
}

impl Open {
    pub fn id(&self) -> SpanId {
        self.id
    }
}

/// One thread's recorder. A disabled recorder records nothing and costs
/// one branch per call.
pub struct Tracer {
    thread: u16,
    epoch: Instant,
    next: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(thread: u16, epoch: Instant) -> Tracer {
        Tracer {
            thread,
            epoch,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when this operation is not traced.
    pub fn open(
        &mut self,
        traced: bool,
        layer: &'static str,
        call: &'static str,
        parent: Option<SpanId>,
        op: u64,
    ) -> Option<Open> {
        if !traced {
            return None;
        }
        self.next += 1;
        Some(Open {
            id: (self.thread, self.next),
            parent,
            op,
            layer,
            call,
            start: self.now(),
        })
    }

    pub fn close(&mut self, open: Option<Open>) {
        if let Some(o) = open {
            let end = self.now();
            self.spans.push(Span {
                id: o.id,
                parent: o.parent,
                op: o.op,
                layer: o.layer,
                call: o.call,
                start: o.start,
                end,
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        traced: bool,
        layer: &'static str,
        call: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(traced, layer, call, parent, op);
        let out = f();
        self.close(open);
        out
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Span time minus the part of it that child spans cover, ns.
    pub self_ns: u64,
    pub spans: usize,
}

/// Self time and span count per layer. A span's self time is its duration
/// minus the union of its children's intervals clipped to it.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let t = totals.entry(s.layer).or_default();
        t.self_ns += (s.end - s.start).saturating_sub(covered);
        t.spans += 1;
    }
    totals
}

/// Durations (µs) of every span of `layer`/`call`.
pub fn durations_us(spans: &[Span], layer: &str, call: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.call == call)
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .collect()
}

/// Writes the spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = match s.parent {
            Some((t, n)) => format!("\"{t}.{n}\""),
            None => "null".to_string(),
        };
        writeln!(
            out,
            "{{\"id\":\"{}.{}\",\"parent\":{parent},\"op\":{},\"name\":\"{}.{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id.0, s.id.1, s.op, s.layer, s.call, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id: (0, id),
            parent: parent.map(|p| (0, p)),
            op: 0,
            layer,
            call: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "op", 0, 100),
            span(2, Some(1), "http", 10, 30),
            span(3, Some(1), "http", 20, 40),
            span(4, Some(1), "wire", 90, 120),
            span(5, Some(2), "wire", 12, 14),
        ];
        let t = layer_totals(&spans);
        assert_eq!(t["op"].self_ns, 100 - 30 - 10);
        assert_eq!(t["http"].self_ns, (20 - 2) + 20);
        assert_eq!(t["wire"].self_ns, 30 + 2);
        assert_eq!(t["http"].spans, 2);
    }
}
