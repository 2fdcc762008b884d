//! In-memory spans for the traced run.
//!
//! A span is recorded around each call into a layer: its name, start,
//! end, parent span, and job id. Spans stay in memory while the
//! workload runs and are written out once, at the end. A span's *self
//! time* is its duration minus the durations of its direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    job: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span for a new job; later spans carry its id.
    pub fn open_job(&mut self, name: &'static str) -> usize {
        self.job += 1;
        self.open(name)
    }

    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job: self.job,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in the order they opened");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Total self time per span name, in nanoseconds, and the number of
    /// spans of each name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut totals = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(s.name).or_insert((0, 0));
            entry.0 += (s.end_ns - s.start_ns).saturating_sub(children);
            entry.1 += 1;
        }
        totals
    }

    /// Total duration of every span named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span as one tab-separated line:
    /// `id job parent name start_ns end_ns` (parent `-` for a root).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tjob\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}",
                s.job, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
