//! In-memory spans recorded around the calls into each layer.
//!
//! A span is (name, start, end, parent, op id). Spans of one operation
//! share the op id. Nothing is written while the benchmark measures;
//! [`Trace::self_times`] aggregates after the last operation and
//! [`Trace::write_jsonl`] dumps the raw spans on request.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Trace {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start the next operation: spans recorded from here carry its id.
    pub fn next_op(&mut self) {
        assert!(self.open.is_empty(), "an operation ended with open spans");
        self.op += 1;
    }

    /// Run `f` inside a span named `name`, nested in the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in seconds: a span's duration
    /// minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                own[s.parent as usize] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0.0) += ns.max(0) as f64 * 1e-9;
        }
        by_name
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// One JSON object per span, one per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        Ok(())
    }
}
