//! In-memory spans for the traced run.
//!
//! A span has a name, start, end, parent and request id. Spans are kept
//! in memory while the run measures and written out once at the end. A
//! layer's self time is its spans' durations minus the time their
//! direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u64,
}

const NO_PARENT: u32 = u32::MAX;

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per-name totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for request `req`; spans opened before
    /// the matching [`exit`](Self::exit) become its children.
    pub fn enter(&mut self, name: &'static str, req: u64) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            req,
        });
        self.open.push(idx as u32);
        idx
    }

    /// Closes the innermost open span, which `enter` returned as `idx`.
    pub fn exit(&mut self, idx: usize) {
        debug_assert_eq!(self.open.last().copied(), Some(idx as u32));
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let idx = self.enter(name, req);
        let r = f();
        self.exit(idx);
        r
    }

    /// Records an already-measured interval as a root span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        let s = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let e = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: s,
            end_ns: e,
            parent: NO_PARENT,
            req,
        });
    }

    /// Busy and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.busy_ns += d;
            t.self_ns += d.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `id name start_ns end_ns parent req`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                f,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        f.flush()
    }
}
