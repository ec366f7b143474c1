//! In-memory spans around the calls the harness makes into a layer.
//!
//! A span is (name, start, end, parent, operation id). Spans are kept in
//! memory during the traced window and written out when the workload
//! ends. A layer's **self time** is its span's duration minus the part of
//! that interval its child spans cover. End-to-end metrics never come
//! from a traced run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Boundary name, e.g. `client.wait` or `evaluate_sampled.static`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Operation the span belongs to; spans of one request share it.
    pub op: u64,
}

/// Span store of one load-generator thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// Recorder measuring from `origin`, with room for `capacity` spans
    /// so recording never reallocates inside an operation.
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Recorder { origin, spans: Vec::with_capacity(capacity) }
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent, op });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, ns: duration minus the union of its
/// children's intervals (clipped to the span, so overlapping or parallel
/// children are not subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(SpanId(p)) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: `(count, total duration ns, total self ns)`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    out
}

/// Median duration of the spans called `name`, ms (0 if none).
pub fn median_duration_ms(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    if d.is_empty() {
        0.0
    } else {
        crate::stats::median(&d)
    }
}

/// Write the spans as JSON lines (one span per line).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |SpanId(p)| p.to_string());
        writeln!(
            w,
            r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, us: u64) -> Instant {
        origin + Duration::from_micros(us)
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let o = Instant::now();
        let mut r = Recorder::new(o, 8);
        let root = r.record("request", None, 1, at(o, 0), at(o, 100));
        r.record("write", Some(root), 1, at(o, 0), at(o, 10));
        // Two overlapping children (parallel scatter): 20..60 and 40..80
        // cover 60 µs, not 80.
        r.record("wait", Some(root), 1, at(o, 20), at(o, 60));
        r.record("wait", Some(root), 1, at(o, 40), at(o, 80));
        // A child that overruns its parent is clipped.
        r.record("read", Some(root), 1, at(o, 90), at(o, 130));
        let selfs = self_times_ns(r.spans());
        assert_eq!(selfs[0], (100 - 10 - 60 - 10) * 1000);
        assert_eq!(selfs[1], 10_000);
        let by_name = totals_by_name(r.spans());
        assert_eq!(by_name["wait"], (2, 80_000, 80_000));
        assert_eq!(by_name["request"].2, 20_000);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let o = Instant::now();
        let mut r = Recorder::new(o, 4);
        let a = r.record("a", None, 0, at(o, 0), at(o, 100));
        let b = r.record("b", Some(a), 0, at(o, 10), at(o, 90));
        r.record("c", Some(b), 0, at(o, 20), at(o, 50));
        assert_eq!(self_times_ns(r.spans()), vec![20_000, 50_000, 30_000]);
    }

    #[test]
    fn median_duration_by_name() {
        let o = Instant::now();
        let mut r = Recorder::new(o, 4);
        let root = r.record("request", None, 7, at(o, 0), at(o, 10));
        r.record("wait", Some(root), 7, at(o, 2), at(o, 8));
        r.record("wait", Some(root), 8, at(o, 2), at(o, 4));
        r.record("wait", Some(root), 9, at(o, 2), at(o, 12));
        assert_eq!(median_duration_ms(r.spans(), "wait"), 0.006);
        assert_eq!(median_duration_ms(r.spans(), "absent"), 0.0);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let o = Instant::now();
        let mut r = Recorder::new(o, 2);
        let root = r.record("request", None, 3, at(o, 0), at(o, 5));
        r.record("wait", Some(root), 3, at(o, 1), at(o, 4));
        let dir = crate::inputs::WorkDir::create("trace-test").unwrap();
        let path = dir.join("spans.jsonl");
        write_jsonl(&path, r.spans()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains(r#""name":"wait""#) && lines[1].contains(r#""parent":0"#));
        assert!(kgeval::serve::Json::parse(lines[0]).is_ok());
    }
}
