//! A run of a daemon workload is several segments, each a full set-up
//! (daemon start, PUTs, warm pass) followed by a timed window, so one
//! unlucky daemon start or thread placement does not decide a figure.

use crate::stats::{median, Samples};
use crate::trace::Spans;
use crate::{Config, Report};

/// Segments per run: `untraced` of them in an untraced run; a traced
/// run has half as many (at least two), alternating untraced and traced.
pub fn count(cfg: &Config, untraced: usize) -> usize {
    if cfg.trace {
        (untraced / 2).max(2) & !1
    } else {
        untraced
    }
}

/// Whether segment `i` records spans.
pub fn traced(cfg: &Config, i: usize) -> bool {
    cfg.trace && i % 2 == 1
}

/// The timed window of each of `segments` segments, in seconds.
pub fn window(cfg: &Config, segments: usize) -> f64 {
    cfg.seconds / segments as f64
}

/// What one segment measured.
pub struct Segment {
    pub setup_s: f64,
    pub window_s: f64,
    pub completed: u64,
    pub vertices: u64,
    /// Latencies of the workload's primary request class.
    pub primary: Samples,
    /// Latencies of its second request class.
    pub second: Samples,
    pub peak_rss_mb: f64,
    pub spans: Spans,
}

/// Segments of one kind (traced or untraced) merged.
#[derive(Default)]
struct Pool {
    primary: Samples,
    second: Samples,
    completed: u64,
    vertices: u64,
    window_s: f64,
}

/// Put the end-to-end metrics (pooled over untraced segments; set-up
/// time and peak RSS as medians), the per-segment and pooled latency
/// lines, and — for a traced run — the tracing overhead and the span
/// summary into `report`.
pub fn summarise(
    cfg: &Config,
    report: &mut Report,
    segs: Vec<Segment>,
    primary: &str,
    second: &str,
) -> Result<(), String> {
    // Pooled over segments, not the median of per-segment figures: the
    // daemon workloads switch between throughput regimes for seconds at
    // a time, and a pooled figure moves smoothly with the share of time
    // spent in each, where a median of segments jumps between them.
    let pool = |traced: bool| {
        let mut p = Pool::default();
        for (_, s) in segs.iter().enumerate().filter(|(i, _)| self::traced(cfg, *i) == traced) {
            p.primary.extend(&s.primary);
            p.second.extend(&s.second);
            p.completed += s.completed;
            p.vertices += s.vertices;
            p.window_s += s.window_s;
        }
        p
    };
    let mut all = pool(false);
    let m = &mut report.metrics;
    m.put("setup_s", median(&segs.iter().map(|s| s.setup_s).collect::<Vec<_>>()), "s");
    m.put("vertices_per_s", all.vertices as f64 / all.window_s, "vertices/s");
    m.put("requests_per_s", all.completed as f64 / all.window_s, "req/s");
    m.put("latency_p50_ms", all.primary.median_ns() / 1e6, "ms");
    m.put("second_class_p50_ms", all.second.median_ns() / 1e6, "ms");
    m.put("peak_rss_mb", median(&segs.iter().map(|s| s.peak_rss_mb).collect::<Vec<_>>()), "MiB");
    if cfg.trace {
        let traced_p50 = pool(true).primary.median_ns();
        report.layers.put("trace.overhead_ratio", traced_p50 / all.primary.median_ns(), "ratio");
    }

    for (i, s) in segs.iter().enumerate() {
        report.lines.push(format!(
            "segment {i}{}: setup {:.4} s, {:.1} req/s, p50 {:.4} ms / {:.4} ms",
            if traced(cfg, i) { " (traced)" } else { "" },
            s.setup_s,
            s.completed as f64 / s.window_s,
            s.primary.clone().median_ns() / 1e6,
            s.second.clone().median_ns() / 1e6,
        ));
    }
    let mut spans = Spans::new(false, std::time::Instant::now());
    for (i, s) in segs.into_iter().enumerate() {
        if traced(cfg, i) {
            spans.absorb(s.spans);
        }
    }
    let l = &mut report.lines;
    l.push(format!("{primary} (all untraced segments): {}", all.primary.describe_ms()));
    l.push(format!("{second} (all untraced segments): {}", all.second.describe_ms()));
    if cfg.trace {
        l.extend(spans.summary());
        let path = cfg.run_dir.join(format!("spans-{}-{}.tsv", cfg.workload, cfg.seed));
        spans.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}
