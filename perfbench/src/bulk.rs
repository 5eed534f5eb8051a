//! `bulk`: one caller drives an in-process engine (1 worker × 2 inner
//! threads) at depth 1 with rank, add-scan and affine-scan jobs over a
//! few 2^22-vertex random-layout lists — the paper's regime, where the
//! time is in the walk kernel and Reid-Miller, not in handoff or wire.

use crate::stats::{median, Samples};
use crate::trace::Spans;
use crate::{derive_seed, fingerprint, Config, Parity, Report, Rng};
use engine::{Engine, EngineConfig, Request};
use listkit::ops::{AddOp, Affine, AffineOp};
use listkit::{gen, serial, LinkedList};
use std::sync::Arc;
use std::time::Instant;

/// One input list with its add-scan and affine-scan values.
pub struct Input {
    pub list: Arc<LinkedList>,
    pub add: Arc<Vec<i64>>,
    pub affine: Arc<Vec<Affine>>,
}

/// Serial-oracle outputs for one [`Input`].
struct Expected {
    rank: Vec<u64>,
    add: Vec<i64>,
    affine: Vec<Affine>,
}

/// Vertices per list and list count.
pub fn shape(cfg: &Config) -> (usize, usize) {
    if cfg.tiny {
        (1 << 14, 2)
    } else {
        (1 << 22, 2)
    }
}

pub fn make_input(n: usize, seed: u64) -> Input {
    let list = gen::random_list(n, seed);
    let mut rng = Rng::new(seed, 7);
    let add = (0..n).map(|_| rng.below(2001) as i64 - 1000).collect();
    let affine =
        (0..n).map(|_| Affine::new(1 + rng.below(3) as i64, rng.below(201) as i64 - 100)).collect();
    Input { list: Arc::new(list), add: Arc::new(add), affine: Arc::new(affine) }
}

pub fn make_inputs(cfg: &Config) -> Vec<Input> {
    let (n, lists) = shape(cfg);
    (0..lists as u64).map(|k| make_input(n, derive_seed(cfg.seed, k))).collect()
}

/// The engine the workload drives: one worker, two inner threads.
pub fn engine_config() -> EngineConfig {
    EngineConfig::default().with_workers(1).with_inner_threads(2)
}

/// The three ops of one list, in the order the loop sends them.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Rank,
    Add,
    Affine,
}

const OPS: [Op; 3] = [Op::Rank, Op::Add, Op::Affine];

/// Submit one job and wait for it; `Err` is a typed engine refusal or
/// job failure.
fn run_op(engine: &Engine, input: &Input, op: Op, spans: &mut Spans) -> Result<Output, String> {
    let req = spans.open("engine.request", None);
    let out = match op {
        Op::Rank => {
            let h =
                engine.submit(Request::rank(Arc::clone(&input.list))).map_err(|e| e.to_string())?;
            Output::Rank(spans_wait(spans, req, || h.wait())?.output)
        }
        Op::Add => {
            let h = engine
                .submit(Request::scan(Arc::clone(&input.list), Arc::clone(&input.add), AddOp))
                .map_err(|e| e.to_string())?;
            Output::Add(spans_wait(spans, req, || h.wait())?.output)
        }
        Op::Affine => {
            let h = engine
                .submit(Request::scan(Arc::clone(&input.list), Arc::clone(&input.affine), AffineOp))
                .map_err(|e| e.to_string())?;
            Output::Affine(spans_wait(spans, req, || h.wait())?.output)
        }
    };
    spans.close(req);
    Ok(out)
}

fn spans_wait<R>(
    spans: &mut Spans,
    parent: Option<usize>,
    wait: impl FnOnce() -> Result<engine::JobReport<R>, engine::JobError>,
) -> Result<engine::JobReport<R>, String> {
    let id = spans.open("engine.wait", parent);
    let r = wait().map_err(|e| e.to_string());
    spans.close(id);
    r
}

enum Output {
    Rank(Vec<u64>),
    Add(Vec<i64>),
    Affine(Vec<Affine>),
}

/// Result of one timed window.
struct Window {
    rank: Samples,
    affine: Samples,
    all: Samples,
    vertices: u64,
}

fn timed(
    engine: &Engine,
    inputs: &[Input],
    expected: &[Expected],
    seconds: f64,
    parity: &mut Parity,
    spans: &mut Spans,
) -> Window {
    let mut w =
        Window { rank: Samples::new(), affine: Samples::new(), all: Samples::new(), vertices: 0 };
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds || i < OPS.len() {
        let k = (i / OPS.len()) % inputs.len();
        let op = OPS[i % OPS.len()];
        i += 1;
        let t = Instant::now();
        let out = run_op(engine, &inputs[k], op, spans);
        let dt = t.elapsed().as_nanos() as u64;
        let want = &expected[k];
        let ok = match out {
            Err(e) => {
                eprintln!("bulk: job failed: {e}");
                parity.error();
                false
            }
            Ok(Output::Rank(mut got)) => parity.check(&mut got, &want.rank),
            Ok(Output::Add(mut got)) => parity.check(&mut got, &want.add),
            Ok(Output::Affine(mut got)) => parity.check(&mut got, &want.affine),
        };
        if !ok {
            continue;
        }
        w.all.push(dt);
        w.vertices += inputs[k].list.len() as u64;
        match op {
            Op::Rank => w.rank.push(dt),
            Op::Affine => w.affine.push(dt),
            Op::Add => {}
        }
    }
    w
}

pub fn run(cfg: &Config, report: &mut Report) -> Result<(), String> {
    // Set-up, repeated: input generation, engine start and one warm pass
    // over every (list, op). The median is `setup_s`.
    let reps = 3;
    let mut setup = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        drop(state.take()); // release the previous inputs before regenerating
        let t0 = Instant::now();
        let inputs = make_inputs(cfg);
        let engine = Engine::new(engine_config());
        let mut off = Spans::new(false, t0);
        for input in &inputs {
            for op in OPS {
                run_op(&engine, input, op, &mut off)?;
            }
        }
        setup.push(t0.elapsed().as_secs_f64());
        state = Some((inputs, engine));
    }
    let (inputs, engine) = state.expect("at least one set-up");

    // Oracle outputs, outside set-up and timing; the serial rank doubles
    // as the in-cache/out-of-cache check of the fingerprint.
    let mut serial_ns = Vec::new();
    let expected: Vec<Expected> = inputs
        .iter()
        .map(|input| {
            let t = Instant::now();
            let rank = serial::rank(&input.list);
            serial_ns.push(t.elapsed().as_nanos() as f64 / input.list.len() as f64);
            Expected {
                rank,
                add: serial::scan(&input.list, &input.add, &AddOp),
                affine: serial::scan(&input.list, &input.affine, &AffineOp),
            }
        })
        .collect();
    let (n, lists) = shape(cfg);
    let big = gen::random_list(4 * n, derive_seed(cfg.seed, 99));
    let t = Instant::now();
    drop(serial::rank(&big));
    let ns_4n = t.elapsed().as_nanos() as f64 / big.len() as f64;
    drop(big);
    // Links, both value arrays and one output of each kind per list.
    let working_set = lists * n * (4 + 8 + 16 + 8 + 8 + 16);
    report.fingerprint.extend([
        ("n", n as f64),
        ("lists", lists as f64),
        ("working_set_bytes", working_set as f64),
        ("serial.rank_ns_per_vertex.n", median(&serial_ns)),
        ("serial.rank_ns_per_vertex.4n", ns_4n),
    ]);

    let mut parity = Parity::new(cfg);
    let mut spans = Spans::new(false, Instant::now());
    let window = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let mut w = timed(&engine, &inputs, &expected, window, &mut parity, &mut spans);
    if cfg.trace {
        let mut traced = Spans::new(true, Instant::now());
        let mut t = timed(&engine, &inputs, &expected, window, &mut parity, &mut traced);
        report.layers.put("trace.overhead_ratio", t.all.mean_ns() / w.all.mean_ns(), "ratio");
        report.lines.extend(traced.summary());
        let path = cfg.run_dir.join(format!("spans-bulk-{}.tsv", cfg.seed));
        traced.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.lines.push(format!("traced window: all jobs {}", t.all.describe_ms()));
    }
    report.parity.merge(&parity);

    let busy_s = w.all.total_ns() as f64 / 1e9;
    let m = &mut report.metrics;
    m.put("setup_s", median(&setup), "s");
    m.put("vertices_per_s", w.vertices as f64 / busy_s, "vertices/s");
    m.put("requests_per_s", w.all.len() as f64 / busy_s, "req/s");
    m.put("latency_p50_ms", w.rank.median_ns() / 1e6, "ms");
    m.put("second_class_p50_ms", w.affine.median_ns() / 1e6, "ms");
    m.put("peak_rss_mb", fingerprint::peak_rss_mb("self").unwrap_or(f64::NAN), "MiB");
    report.lines.push(format!("setup_s runs: {setup:?}"));
    report.lines.push(format!("latency (rank jobs): {}", w.rank.describe_ms()));
    report.lines.push(format!("latency (affine-scan jobs): {}", w.affine.describe_ms()));
    report.lines.push(format!("latency (all jobs): {}", w.all.describe_ms()));
    Ok(())
}
