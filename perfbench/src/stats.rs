//! Sample summaries: exact percentiles over recorded latencies and the
//! metric record every workload and probe reports into.

use std::fmt::Write as _;

/// Recorded durations in nanoseconds, kept exactly (no bucketing) so a
/// percentile is an observed sample, not a bucket bound.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile (`p` in 0..=100) in nanoseconds.
    pub fn percentile(&mut self, p: f64) -> u64 {
        assert!(!self.ns.is_empty(), "percentile of no samples");
        self.sort();
        self.ns[rank(p, self.ns.len()) - 1]
    }

    /// The median in nanoseconds; NaN (reported as `null`) when there
    /// are no samples, as when every op of a class failed its check.
    pub fn median_ns(&mut self) -> f64 {
        if self.ns.is_empty() {
            return f64::NAN;
        }
        self.percentile(50.0) as f64
    }

    pub fn mean_ns(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 / self.ns.len().max(1) as f64
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// The highest of the conventional percentiles that still has at
    /// least ten samples beyond it.
    pub fn tail_percentile(&self) -> Option<f64> {
        let n = self.ns.len();
        [99.9, 99.0, 95.0, 90.0, 75.0, 50.0].into_iter().find(|&p| n - rank(p, n) >= 10)
    }

    /// `"<p50> ms p50, <tail> ms p<q> over <n> samples"` for the report.
    pub fn describe_ms(&mut self) -> String {
        if self.ns.is_empty() {
            return "no samples".to_string();
        }
        let p50 = self.percentile(50.0) as f64 / 1e6;
        let mut s = format!("p50 {p50:.4} ms");
        if let Some(q) = self.tail_percentile() {
            let _ = write!(s, ", p{q} {:.4} ms", self.percentile(q) as f64 / 1e6);
        }
        let _ = write!(s, " over {} samples", self.ns.len());
        s
    }
}

/// 1-based nearest rank of percentile `p` among `n > 0` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64) / 100.0).ceil().clamp(1.0, n as f64) as usize
}

/// Median of a small set of repeated measurements.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One reported metric: name, value, unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered metric list with name-based insertion.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        s.push('}');
        s
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits (non-finite values become `null`,
/// which the result check then rejects).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v);
        }
        assert_eq!(s.percentile(50.0), 50);
        assert_eq!(s.percentile(99.0), 99);
        assert_eq!(s.percentile(100.0), 100);
        assert_eq!(s.tail_percentile(), Some(90.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
