//! Harness-side spans: recorded around the calls into each layer, kept
//! in memory, written out when the run ends. Nothing here reaches into
//! the server; spans inside the program are a later change.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Index, in the replayed sequence, of the (first) request the span
    /// covers; spans of one request share it.
    pub request: u64,
    /// Calls covered: sub-microsecond calls are timed in batches.
    pub calls: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(&mut self, span: Span) -> SpanId {
        assert!(span.end_ns >= span.start_ns, "span ends before it starts");
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// A span from two clock reads taken around `calls` calls.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        calls: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
            calls,
        })
    }

    /// Open a span now, to be closed with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.ns(Instant::now());
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request: 0,
            calls: 1,
        })
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and total calls of every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, calls), s| {
                (ns + s.duration_ns(), calls + u64::from(s.calls))
            })
    }

    /// A span's self time: its duration minus the part of its interval
    /// that its child spans cover (overlapping children count once).
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let me = &self.spans[id as usize];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(start, end)| end > start)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = me.start_ns;
        for (start, end) in children {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        me.duration_ns() - covered
    }

    /// One JSON document: `head` fields, then every span.
    pub fn write_json(&self, path: &Path, head: &[(&str, String)]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::from("{");
        for (k, v) in head {
            let _ = write!(line, "{}: {}, ", json::quote(k), v);
        }
        line.push_str("\"spans\": [\n");
        out.write_all(line.as_bytes())?;
        for (id, s) in self.spans.iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}, \"calls\": {}}}",
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.request,
                s.calls,
            );
            line.push_str(if id + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
            out.write_all(line.as_bytes())?;
        }
        out.write_all(b"]}\n")?;
        // Dropping a BufWriter discards its write errors.
        out.flush()
    }
}

/// Self time of a layer whose callees cannot be wrapped from outside:
/// the callees are timed separately on the same input, and their
/// per-request times subtracted. Never negative: a callee that measures
/// slower alone than inside its caller leaves the caller no self time.
pub fn self_after_separate(total: f64, separately_timed_children: &[f64]) -> f64 {
    (total - separately_timed_children.iter().sum::<f64>()).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut t = Trace::new();
        let root = t.push(span("root", 0, 1000, None));
        let a = t.push(span("a", 100, 400, Some(root)));
        t.push(span("a.inner", 150, 250, Some(a)));
        t.push(span("b", 300, 600, Some(root))); // overlaps a by 100
        t.push(span("c", 900, 1200, Some(root))); // runs past the parent
        t.push(span("elsewhere", 0, 1000, None));
        // Children cover [100, 600) and [900, 1000): 600 of 1000.
        assert_eq!(t.self_ns(root), 400);
        // Grandchildren are the child's business, not the root's.
        assert_eq!(t.self_ns(a), 200);
        assert_eq!(t.self_ns(2), 100, "a leaf's self time is its duration");
    }

    #[test]
    fn totals_add_up_durations_and_calls_by_name() {
        let mut t = Trace::new();
        t.push(Span {
            calls: 64,
            ..span("http.parse", 0, 6400, None)
        });
        t.push(Span {
            calls: 10,
            ..span("http.parse", 7000, 8000, None)
        });
        t.push(span("other", 0, 5, None));
        assert_eq!(t.total("http.parse"), (7400, 74));
        assert_eq!(t.total("missing"), (0, 0));
    }

    #[test]
    fn separately_timed_children_are_subtracted_and_floor_at_zero() {
        assert_eq!(self_after_separate(1000.0, &[300.0, 250.0]), 450.0);
        assert_eq!(self_after_separate(1000.0, &[]), 1000.0);
        assert_eq!(self_after_separate(100.0, &[80.0, 40.0]), 0.0);
    }

    #[test]
    fn the_span_file_is_json_the_reader_accepts() {
        let mut t = Trace::new();
        let root = t.push(span("rung \"x\"", 0, 10, None));
        t.push(span("leaf", 2, 4, Some(root)));
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-span-{}.json", std::process::id()));
        t.write_json(
            &path,
            &[("workload", json::quote("w")), ("seed", "7".into())],
        )
        .unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(doc.get("seed").unwrap().as_f64(), Some(7.0));
        let spans = doc.get("spans").unwrap().as_arr();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("rung \"x\""));
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&json::Value::Null));
    }
}
