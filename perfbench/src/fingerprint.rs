//! Host and input fingerprint printed with every result, so a figure is
//! never separated from the machine and inputs that produced it.

use crate::stats::{json_num, json_str};

/// What the host reports about itself.
#[derive(Clone, Debug)]
pub struct Host {
    pub cores: usize,
    pub cpu_model: String,
    pub kernel: String,
    /// Size of the last-level cache in bytes, as sysfs reports it.
    pub llc_bytes: u64,
}

impl Host {
    pub fn probe() -> Host {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Host { cores, cpu_model, kernel, llc_bytes: llc_bytes().unwrap_or(0) }
    }
}

/// The largest cache level's size under cpu0 (`index*/level`, `size`).
fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let mut best: Option<(u32, u64)> = None;
    for entry in dir.flatten() {
        let p = entry.path();
        let read = |f: &str| std::fs::read_to_string(p.join(f)).ok();
        let (Some(level), Some(size)) = (
            read("level").and_then(|s| s.trim().parse::<u32>().ok()),
            read("size").and_then(|s| parse_size(s.trim())),
        ) else {
            continue; // not a cache index directory
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, size));
        }
    }
    best.map(|(_, s)| s)
}

/// `"105M"`, `"4096K"`, `"512"` → bytes.
fn parse_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|v| v * mult)
}

/// The fingerprint line: host, revision, seed, and workload-specific
/// input facts (`extra` holds already-formatted numeric fields).
pub fn line(host: &Host, rev: &str, seed: u64, workload: &str, extra: &[(&str, f64)]) -> String {
    let mut s = format!(
        "{{\"fingerprint\": {{\"workload\": {}, \"seed\": {seed}, \"rev\": {}, \"cores\": {}, \"cpu_model\": {}, \"kernel\": {}, \"llc_bytes\": {}",
        json_str(workload),
        json_str(rev),
        host.cores,
        json_str(&host.cpu_model),
        json_str(&host.kernel),
        host.llc_bytes
    );
    for (k, v) in extra {
        s.push_str(&format!(", {}: {}", json_str(k), json_num(*v)));
    }
    s.push_str("}}");
    s
}

/// Peak resident set (VmHWM) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::parse_size;

    #[test]
    fn sysfs_sizes() {
        assert_eq!(parse_size("105M"), Some(105 << 20));
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
    }
}
