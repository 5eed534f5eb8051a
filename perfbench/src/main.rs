//! `perfbench` — the seeded benchmark for the rankd stack.
//!
//! ```sh
//! python3 perfbench/run.py --workload bulk --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `run.py` builds `rankd` and this binary, then runs it. Three
//! closed-loop workloads drive the program's public entry points:
//!
//! * `bulk` — an in-process [`engine::Engine`] ranking and scanning
//!   2^22-vertex random lists (the paper's regime);
//! * `small_rpc` — a `rankd serve` child over a depth-1 Unix connection
//!   and a pipelined batch-class TCP connection on 256-vertex jobs;
//! * `resident_mutate` — the same daemon holding sharded 2^17-vertex
//!   resident lists under reads and MUTATE batches.
//!
//! Every output is checked against the serial oracle (`listkit::serial`).
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, measured by timing
//! calls into each layer's public functions from here (see `layers`).

mod bulk;
mod daemon;
mod fingerprint;
mod layers;
mod rpc;
mod segment;
mod stats;
mod trace;

use stats::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;

/// Everything a workload needs from the command line.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scaled-down inputs for the self-tests (never used for figures).
    pub tiny: bool,
    /// Self-test hook: corrupt every k-th checked reply before the
    /// parity check (0 = never), proving mismatches are caught.
    pub corrupt_every: u64,
    pub rankd: PathBuf,
    /// Directory (relative to the checkout) for sockets and daemon logs.
    pub run_dir: PathBuf,
    pub rev: String,
}

/// Oracle parity bookkeeping for one load-generating thread.
#[derive(Clone, Debug, Default)]
pub struct Parity {
    pub attempted: u64,
    pub failed: u64,
    corrupt_every: u64,
}

impl Parity {
    pub fn new(cfg: &Config) -> Self {
        Parity { corrupt_every: cfg.corrupt_every, ..Parity::default() }
    }

    /// Count one op whose reply is `got`; it fails unless it equals
    /// `want` exactly.
    pub fn check<T: PartialEq + Copy>(&mut self, got: &mut [T], want: &[T]) -> bool {
        self.attempted += 1;
        if self.corrupt_every > 0 && self.attempted.is_multiple_of(self.corrupt_every) {
            corrupt(got);
        }
        let ok = got == want;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Count one op that failed outright: a typed error or refusal.
    pub fn error(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn merge(&mut self, other: &Parity) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Swap two differing elements, so the reply no longer matches.
fn corrupt<T: PartialEq + Copy>(got: &mut [T]) {
    if let Some(j) = (1..got.len()).find(|&j| got[j] != got[0]) {
        got.swap(0, j);
    }
}

/// What one run reports.
#[derive(Default)]
pub struct Report {
    /// End-to-end metrics (the result line of an untraced run).
    pub metrics: Metrics,
    /// Per-layer metrics (the result line of a traced run).
    pub layers: Metrics,
    pub parity: Parity,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
    /// Workload-specific fingerprint fields.
    pub fingerprint: Vec<(&'static str, f64)>,
}

/// A small deterministic generator (SplitMix64) for edits and values.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..m` (`m > 0`).
    pub fn below(&mut self, m: u64) -> u64 {
        ((self.next_u64() as u128 * m as u128) >> 64) as u64
    }
}

/// A sub-seed for input `k` of a run seeded with `seed`.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    Rng::new(seed, k + 1).next_u64()
}

const USAGE: &str = "USAGE: perfbench --workload bulk|small_rpc|resident_mutate --seed N \
--seconds S --trace 0|1 --rankd PATH [--run-dir DIR] [--rev REV] [--tiny] [--corrupt-every K]";

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rankd = None;
    let mut run_dir = PathBuf::from(".bench_build/perfbench-run");
    let mut rev = "unknown".to_string();
    let mut tiny = false;
    let mut corrupt_every = 0;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--rankd" => rankd = Some(PathBuf::from(val()?)),
            "--run-dir" => run_dir = PathBuf::from(val()?),
            "--rev" => rev = val()?,
            "--tiny" => tiny = true,
            "--corrupt-every" => {
                corrupt_every = val()?.parse().map_err(|e| format!("--corrupt-every: {e}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "bulk" | "small_rpc" | "resident_mutate") {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        corrupt_every,
        rankd: rankd.ok_or("--rankd is required")?,
        run_dir,
        rev,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.run_dir.display());
        return ExitCode::from(2);
    }
    let host = fingerprint::Host::probe();
    let mut report = Report::default();
    let result = match cfg.workload.as_str() {
        "bulk" => bulk::run(&cfg, &mut report),
        "small_rpc" => rpc::run_small(&cfg, &mut report),
        _ => rpc::run_mutate(&cfg, &mut report),
    }
    .and_then(|()| if cfg.trace { layers::run(&cfg, &mut report) } else { Ok(()) });
    if let Err(e) = result {
        eprintln!("perfbench: {} failed: {e}", cfg.workload);
        return ExitCode::from(1);
    }

    println!(
        "{}",
        fingerprint::line(&host, &cfg.rev, cfg.seed, &cfg.workload, &report.fingerprint)
    );
    for line in &report.lines {
        println!("{line}");
    }
    let p = &report.parity;
    println!(
        "error_rate: {:.6} ratio ({} failed of {} attempted)",
        p.failed as f64 / p.attempted.max(1) as f64,
        p.failed,
        p.attempted
    );
    for m in report.metrics.0.iter().chain(&report.layers.0) {
        println!("{}: {} {}", m.name, m.value, m.unit);
    }
    let correct = p.failed == 0 && p.attempted > 0;
    let result = if cfg.trace { &report.layers } else { &report.metrics };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        p.attempted,
        p.failed,
        result.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
