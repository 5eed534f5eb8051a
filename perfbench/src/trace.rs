//! Client-side spans around the calls this benchmark makes into the
//! program's layers. Spans are kept in memory and written out when the
//! run ends; recording is off in untraced runs.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: layer boundary name, interval, and the span (index
/// into the same recorder) that caused it.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// A span recorder for one load-generating thread.
pub struct Spans {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool, t0: Instant) -> Spans {
        Spans { enabled, t0, spans: Vec::new() }
    }

    /// Open a span; returns its id (or `None` when recording is off).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.t0.elapsed().as_nanos() as u64;
        }
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, None);
        let r = f();
        self.close(id);
        r
    }

    /// Fold another thread's spans in (parents are re-based).
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-name count and median self time (duration minus the part its
    /// child spans cover), in microseconds.
    pub fn summary(&self) -> Vec<String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            by_name
                .entry(s.name)
                .or_default()
                .push((s.end_ns - s.start_ns).saturating_sub(child_ns[i]));
        }
        by_name
            .into_iter()
            .map(|(name, mut v)| {
                v.sort_unstable();
                format!(
                    "span {name}: {} spans, self time p50 {:.3} us",
                    v.len(),
                    v[v.len() / 2] as f64 / 1e3
                )
            })
            .collect()
    }

    /// Write every span as a tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(f, "{i}\t{}\t{}\t{}\t{parent}", s.name, s.start_ns, s.end_ns)?;
        }
        f.flush()
    }
}
