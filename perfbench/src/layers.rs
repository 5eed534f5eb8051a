//! Per-layer costs for the traced run, measured from outside: each probe
//! times calls into one layer's public functions on the workloads'
//! inputs (same seed, same generators), or reads the daemon's existing
//! STATS/STATS_V2 counters over the wire. Every probe output that has a
//! serial-oracle answer is checked against it.
//!
//! Layers, bottom up: `listkit::walk`/`serial`, `listrank::host`, the
//! `compat/rayon` shim, `listkit::sharded`, `engine::planner`, the
//! in-process engine (`engine`/`queue`/`sched`/`pool`), the resident
//! store and mutation plane (`engine::store`/`dynamic`), and the wire
//! (`engine::server`/`protocol`/`poll`/`client`).

use crate::rpc::{self, SmallConn};
use crate::stats::{median, Metrics, Samples};
use crate::{bulk, derive_seed, Config, Parity, Report, Rng};
use engine::protocol::{self, Frame, FrameKind, OutputMeta, WireOp, WireStatsV2};
use engine::{Engine, EngineConfig, OpKind, Phase, Planner, Request};
use listkit::dynamic::MutableList;
use listkit::ops::{AddOp, Affine, AffineOp};
use listkit::sharded::ShardedList;
use listkit::walk::{self, BitSet, LaneStats, WalkPolicy};
use listkit::{gen, serial, Idx, LinkedList};
use listrank::host::{instrument, RankScratch, ReidMiller};
use listrank::{Algorithm, HostRunner};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median wall time of `reps` calls of `f`, in nanoseconds.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&v)
}

/// Median per-call time of a cheap call, timed in batches of `batch`.
fn time_batched_ns(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    time_ns(samples, || {
        for _ in 0..batch {
            f();
        }
    }) / batch as f64
}

/// Repetition counts: full-size probes, or a quick pass for self-tests.
struct Reps {
    big: usize,
    small: usize,
    calls: usize,
}

pub fn run(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let reps = if cfg.tiny {
        Reps { big: 3, small: 5, calls: 200 }
    } else {
        Reps { big: 5, small: 21, calls: 2000 }
    };
    let mut parity = Parity::new(cfg);
    let m = &mut report.layers;
    let walk_ns = kernel_layers(cfg, &reps, &mut parity, m);
    rayon_layer(&reps, m);
    sharded_layer(cfg, &reps, &mut parity, m);
    let engine_us = engine_layers(cfg, &reps, &mut parity, m)?;
    let wire_us = wire_layers(cfg, &reps, &mut parity, m)?;
    let (wire_big_ms, engine_big_ms) = store_layers(cfg, &reps, &mut parity, m)?;

    let get = |m: &Metrics, k: &str| m.get(k).expect("probe reported it");
    m.put("ratio.host_over_walk", get(m, "host.rank_ns_per_vertex") / walk_ns, "ratio");
    m.put("ratio.wire_over_engine.n256", wire_us / engine_us, "ratio");
    m.put("ratio.wire_over_engine.n131072", wire_big_ms / engine_big_ms, "ratio");
    report.parity.merge(&parity);
    Ok(())
}

/// `listkit::walk`, `listkit::serial` and `listrank::host` on the first
/// `bulk` list. Returns the walk's ns per vertex.
fn kernel_layers(cfg: &Config, reps: &Reps, parity: &mut Parity, m: &mut Metrics) -> f64 {
    let (n, _) = bulk::shape(cfg);
    let input = bulk::make_input(n, derive_seed(cfg.seed, 0));
    let list: &LinkedList = &input.list;
    let want_rank = serial::rank(list);
    let want_add = serial::scan(list, &input.add, &AddOp);
    let want_affine = serial::scan(list, &input.affine, &AffineOp);

    // Phase-1 reduce over Reid-Miller's default split, one thread.
    let splits = gen::random_split_positions(
        list,
        ReidMiller::default_m(n),
        &mut StdRng::seed_from_u64(cfg.seed),
    );
    let mut heads: Vec<Idx> = vec![list.head()];
    heads.extend(splits.iter().map(|&s| list.links()[s as usize]));
    let mut boundary = BitSet::new();
    boundary.reset(n);
    boundary.set(list.tail() as usize);
    for &s in &splits {
        boundary.set(s as usize);
    }
    let mut sums = vec![(0i64, 0 as Idx); heads.len()];
    let mut lanes = LaneStats::default();
    let walk_ns = time_ns(reps.big, || {
        walk::reduce_chains(
            list,
            &input.add,
            &AddOp,
            &heads,
            &boundary,
            WalkPolicy::default(),
            &mut sums,
            &mut lanes,
        )
    }) / n as f64;
    let total: i64 = sums.iter().map(|s| s.0).sum();
    let want_total: i64 = input.add.iter().sum();
    parity.check(&mut [total, heads.len() as i64], &[want_total, heads.len() as i64]);
    m.put("walk.reduce_ns_per_vertex", walk_ns, "ns/vertex");

    let mut ranks = Vec::new();
    let serial_ns = time_ns(reps.big, || serial::rank_into(list, &mut ranks)) / n as f64;
    parity.check(&mut ranks, &want_rank);
    m.put("serial.rank_ns_per_vertex", serial_ns, "ns/vertex");

    let mut scratch = RankScratch::new();
    let t2 = HostRunner::new(Algorithm::ReidMiller).with_threads(2);
    let t1 = HostRunner::new(Algorithm::ReidMiller).with_threads(1);
    let host2 = time_ns(reps.big, || t2.rank_into(list, &mut scratch, &mut ranks)) / n as f64;
    parity.check(&mut ranks, &want_rank);
    let host1 = time_ns(reps.big, || t1.rank_into(list, &mut scratch, &mut ranks)) / n as f64;
    parity.check(&mut ranks, &want_rank);
    let mut adds = Vec::new();
    let add2 =
        time_ns(reps.big, || t2.scan_into(list, &input.add, &AddOp, &mut scratch, &mut adds))
            / n as f64;
    parity.check(&mut adds, &want_add);
    let mut affs: Vec<Affine> = Vec::new();
    let aff2 =
        time_ns(reps.big, || t2.scan_into(list, &input.affine, &AffineOp, &mut scratch, &mut affs))
            / n as f64;
    parity.check(&mut affs, &want_affine);
    m.put("host.rank_ns_per_vertex", host2, "ns/vertex");
    m.put("host.rank_t1_ns_per_vertex", host1, "ns/vertex");
    m.put("host.scan_add_ns_per_vertex", add2, "ns/vertex");
    m.put("host.scan_affine_ns_per_vertex", aff2, "ns/vertex");
    m.put("host.parallel_efficiency", host1 / (2.0 * host2), "ratio");
    m.put("host.speedup_vs_serial", serial_ns / host2, "ratio");

    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("shim pool");
    let mut phases = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..reps.big.min(3) {
        let (mut out, st) =
            pool.install(|| instrument::rank_with_stats(list, ReidMiller::default_m(n), cfg.seed));
        parity.check(&mut out, &want_rank);
        phases[0].push(st.phase1_ms);
        phases[1].push(st.phase2_ms);
        phases[2].push(st.phase3_ms);
    }
    m.put("host.phase1_ms", median(&phases[0]), "ms");
    m.put("host.phase2_ms", median(&phases[1]), "ms");
    m.put("host.phase3_ms", median(&phases[2]), "ms");

    walk_ns
}

/// One 2-item parallel `for_each` at 2 threads: the shim's per-operation
/// fixed cost.
fn rayon_layer(reps: &Reps, m: &mut Metrics) {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("shim pool");
    let us = pool.install(|| {
        time_batched_ns(reps.small, 50, || {
            (0..2usize).into_par_iter().with_min_len(1).for_each(|i| {
                black_box(i);
            })
        })
    }) / 1e3;
    m.put("rayon.par_op_us", us, "us");
}

/// `listkit::sharded` on the `resident_mutate` shard grid.
fn sharded_layer(cfg: &Config, reps: &Reps, parity: &mut Parity, m: &mut Metrics) {
    let (n, budget) = rpc::mutate_shape(cfg);
    let list = gen::random_list(n, derive_seed(cfg.seed, 40));
    let mut sh = ShardedList::build(&list, budget);
    let build = time_ns(reps.small, || sh = ShardedList::build(&list, budget));
    let mut out = Vec::new();
    let rank = time_ns(reps.small, || sh.rank_into(&mut out));
    parity.check(&mut out, &serial::rank(&list));

    let mut mirror = MutableList::from_list(&list);
    let edits = rpc::gen_edits(&mut Rng::new(cfg.seed, 60), n as u64, true);
    let dirty = mirror.apply(&edits).expect("generated batch is valid").dirty_shards(budget);
    let edited = mirror.snapshot();
    let mut patched = sh.rebuild_dirty(&edited, &dirty);
    let rebuild = time_ns(reps.small, || patched = sh.rebuild_dirty(&edited, &dirty));
    parity.check(&mut patched.rank(), &serial::rank(&edited));
    m.put("sharded.build_ms", build / 1e6, "ms");
    m.put("sharded.rank_ms", rank / 1e6, "ms");
    m.put("sharded.rebuild_dirty_ms", rebuild / 1e6, "ms");
}

/// `engine::planner` and the in-process engine. Returns the depth-1
/// submit→wait median for a 256-vertex rank, in µs. The handoff is that
/// median minus a direct `HostRunner` call of the algorithm the engine
/// dispatched most often for the same list.
fn engine_layers(
    cfg: &Config,
    reps: &Reps,
    parity: &mut Parity,
    m: &mut Metrics,
) -> Result<f64, String> {
    let planner = Planner::new(2);
    let choose = time_batched_ns(reps.small, 1000, || {
        black_box(planner.choose(black_box(256), OpKind::Rank, 8, None));
    });
    m.put("planner.choose_us", choose / 1e3, "us");

    // The first 2^22 job through a fresh engine pays the planner's
    // first-plan and lane-probing costs that land in `bulk`'s setup_s.
    let (n, _) = bulk::shape(cfg);
    let big = Arc::new(gen::random_list(n, derive_seed(cfg.seed, 0)));
    let fresh = Engine::new(bulk::engine_config());
    let t = Instant::now();
    let mut first = submit_wait(&fresh, Request::rank(Arc::clone(&big)))?;
    m.put("planner.first_plan_ms", t.elapsed().as_nanos() as f64 / 1e6, "ms");
    parity.check(&mut first, &serial::rank(&big));
    drop((fresh, big, first));

    let engine = Engine::new(bulk::engine_config());
    let small = Arc::new(gen::random_list(rpc::SMALL_N, derive_seed(cfg.seed, 10)));
    let want = serial::rank(&small);
    for _ in 0..reps.calls / 10 {
        submit_wait(&engine, Request::rank(Arc::clone(&small)))?;
    }
    let mut d1 = Samples::new();
    let mut by_alg = [0usize; Algorithm::ALL.len()];
    for _ in 0..reps.calls {
        let t = Instant::now();
        let h = engine.submit(Request::rank(Arc::clone(&small))).map_err(|e| e.to_string())?;
        let mut done = h.wait().map_err(|e| e.to_string())?;
        d1.push(t.elapsed().as_nanos() as u64);
        parity.check(&mut done.output, &want);
        by_alg[alg_index(done.algorithm)] += 1;
    }
    let (most, _) = by_alg.iter().enumerate().max_by_key(|&(_, &c)| c).expect("known algorithms");
    let dispatched = Algorithm::ALL[most];
    let submit_wait_us = d1.median_ns() / 1e3;
    let mut inflight = VecDeque::new();
    let t = Instant::now();
    for _ in 0..reps.calls {
        if inflight.len() == 16 {
            let h: engine::JobHandle<Vec<u64>> = inflight.pop_front().expect("16 in flight");
            parity.check(&mut h.wait().map_err(|e| e.to_string())?.output, &want);
        }
        inflight.push_back(
            engine.submit(Request::rank(Arc::clone(&small))).map_err(|e| e.to_string())?,
        );
    }
    for h in inflight {
        parity.check(&mut h.wait().map_err(|e| e.to_string())?.output, &want);
    }
    let d16_us = t.elapsed().as_nanos() as f64 / reps.calls as f64 / 1e3;
    let stats = engine.stats();
    let ran: u64 = stats.dispatch_by_op.iter().flat_map(|(_, row)| row.iter()).sum();
    let rm_idx = alg_index(Algorithm::ReidMiller);
    let rm: u64 = stats.dispatch_by_op.iter().map(|(_, row)| row[rm_idx]).sum();
    let scale = engine::planner::MISPREDICT_SCALE as f64;
    m.put("planner.mispredict_p50", stats.mispredict.percentile(50.0) as f64 / scale, "ratio");
    m.put("planner.mispredict_p95", stats.mispredict.percentile(95.0) as f64 / scale, "ratio");
    m.put("planner.reid_miller_share", rm as f64 / ran.max(1) as f64, "ratio");
    m.put("engine.submit_wait_us", submit_wait_us, "us");
    // The direct call gets the engine's inner thread budget, as a worker
    // installs it around every job.
    let direct_us = {
        let direct = HostRunner::new(dispatched).with_threads(2);
        let (mut scratch, mut out) = (RankScratch::new(), Vec::new());
        let us =
            time_batched_ns(reps.small, 100, || direct.rank_into(&small, &mut scratch, &mut out))
                / 1e3;
        parity.check(&mut out, &want);
        us
    };
    m.put("engine.handoff_us", submit_wait_us - direct_us, "us");
    m.put("ratio.engine_over_host", submit_wait_us / direct_us, "ratio");
    m.put("engine.submit_wait_us_d16", d16_us, "us");
    m.put("engine.pool_hit_ratio", stats.pool.hit_rate(), "ratio");
    Ok(submit_wait_us)
}

fn alg_index(a: Algorithm) -> usize {
    Algorithm::ALL.iter().position(|&x| x == a).expect("listed algorithm")
}

fn submit_wait(engine: &Engine, req: Request<Vec<u64>>) -> Result<Vec<u64>, String> {
    let h = engine.submit(req).map_err(|e| e.to_string())?;
    Ok(h.wait().map_err(|e| e.to_string())?.output)
}

fn phase_p50_us(s: &WireStatsV2, p: Phase) -> f64 {
    s.phase[p.index()].percentile(50.0) as f64 / 1e3
}

/// The wire: depth-1 RANK_H round trips over Unix and TCP, the server's
/// phase histograms, byte counters, the codec, and the scheduler block
/// after a short `small_rpc` window. Returns the Unix RTT p50 in µs.
fn wire_layers(
    cfg: &Config,
    reps: &Reps,
    parity: &mut Parity,
    m: &mut Metrics,
) -> Result<f64, String> {
    let (daemon, mut conns) = rpc::small_setup(cfg, "probe-small")?;
    rpc::small_oracle(&mut conns);
    let before = conns[0].client.stats().map_err(|e| e.to_string())?;
    let unix_us = rtt_p50_us(&mut conns[0], reps.calls, parity)?;
    let tcp_us = rtt_p50_us(&mut conns[1], reps.calls, parity)?;
    let after = conns[0].client.stats().map_err(|e| e.to_string())?;
    let frames = after.frames_in.saturating_sub(before.frames_in).max(1) as f64;
    let v2 = conns[0].client.stats_v2().map_err(|e| e.to_string())?;
    m.put("wire.rtt_p50_us.unix", unix_us, "us");
    m.put("wire.rtt_p50_us.tcp", tcp_us, "us");
    let server: f64 = Phase::ALL.iter().map(|&p| phase_p50_us(&v2, p)).sum();
    m.put("server.decode_p50_us", phase_p50_us(&v2, Phase::Decode), "us");
    m.put("server.exec_p50_us", phase_p50_us(&v2, Phase::Exec), "us");
    m.put("server.reply_write_p50_us", phase_p50_us(&v2, Phase::ReplyWrite), "us");
    m.put("engine.queue_wait_p50_us", phase_p50_us(&v2, Phase::QueueWait), "us");
    m.put("wire.unattributed_p50_us", unix_us - server, "us");
    m.put("wire.bytes_in_per_request", (after.bytes_in - before.bytes_in) as f64 / frames, "bytes");
    m.put(
        "wire.bytes_out_per_request",
        (after.bytes_out - before.bytes_out) as f64 / frames,
        "bytes",
    );

    let c = &conns[0];
    let scan = protocol::scan_body(&c.scan_list, &c.scan_vals, WireOp::Add, false);
    let frame = Frame { kind: FrameKind::Scan as u8, body: scan };
    let decode_req = time_batched_ns(reps.small, 100, || {
        black_box(protocol::decode_request(black_box(&frame)).expect("valid frame"));
    });
    let meta = OutputMeta {
        algorithm: Algorithm::Serial,
        shards: 0,
        queued_ns: 0,
        exec_ns: 0,
        trace_id: 1,
    };
    let body = protocol::output_body(&meta, &c.want_rank);
    let decode_out = time_batched_ns(reps.small, 100, || {
        black_box(protocol::decode_output::<u64>(black_box(&body)).expect("valid body"));
    });
    m.put("protocol.decode_request_us", decode_req / 1e3, "us");
    m.put("protocol.decode_output_us", decode_out / 1e3, "us");

    let seconds = if cfg.tiny { 0.3 } else { 1.0 };
    let (ia, ib, _) = rpc::small_window(cfg, &mut conns, seconds, false, true)?;
    parity.merge(&ia.parity);
    parity.merge(&ib.parity);
    let v2 = conns[0].client.stats_v2().map_err(|e| e.to_string())?;
    let s = &v2.sched;
    m.put(
        "sched.reordered_ratio",
        s.reply_reorders as f64 / s.pipelined_requests.max(1) as f64,
        "ratio",
    );
    m.put("sched.aged_dispatches", s.aged_dispatches as f64, "count");
    drop(conns);
    daemon.stop();
    Ok(unix_us)
}

fn rtt_p50_us(c: &mut SmallConn, calls: usize, parity: &mut Parity) -> Result<f64, String> {
    let body = protocol::rank_h_body(c.handle, false);
    let mut s = Samples::new();
    for _ in 0..calls {
        let t = Instant::now();
        let mut out =
            c.client.request_encoded::<u64>(FrameKind::RankH, &body).map_err(|e| e.to_string())?;
        s.push(t.elapsed().as_nanos() as u64);
        parity.check(&mut out.output, &c.want_rank);
    }
    Ok(s.median_ns() / 1e3)
}

/// `engine::store` and `engine::dynamic` on the `resident_mutate`
/// daemon. Returns the depth-1 sharded RANK_H p50 over the wire and the
/// in-process sharded rank p50 at the same size, both in ms.
fn store_layers(
    cfg: &Config,
    reps: &Reps,
    parity: &mut Parity,
    m: &mut Metrics,
) -> Result<(f64, f64), String> {
    let (daemon, mut conns) = rpc::mutate_setup(cfg, "probe-mutate")?;
    for c in &mut conns {
        c.refresh_oracle();
    }
    let (n, budget) = rpc::mutate_shape(cfg);
    let list = gen::random_list(n, derive_seed(cfg.seed, 40));
    let mut put = Samples::new();
    {
        let c = &mut conns[0];
        for _ in 0..reps.small.min(9) {
            let t = Instant::now();
            let receipt = c.client.put(&list).map_err(|e| e.to_string())?;
            put.push(t.elapsed().as_nanos() as u64);
            c.client.drop_handle(receipt.handle).map_err(|e| e.to_string())?;
        }
    }
    m.put("store.put_ms", put.median_ns() / 1e6, "ms");

    let mut wire = Samples::new();
    {
        let c = &mut conns[0];
        let body = protocol::rank_h_body(c.handle, true);
        for _ in 0..reps.small {
            let t = Instant::now();
            let mut out = c
                .client
                .request_encoded::<u64>(FrameKind::RankH, &body)
                .map_err(|e| e.to_string())?;
            wire.push(t.elapsed().as_nanos() as u64);
            parity.check(&mut out.output, &c.want_rank);
        }
    }

    let seconds = if cfg.tiny { 0.3 } else { 2.0 };
    let (d, _) = rpc::mutate_window(cfg, &mut conns, seconds, false)?;
    parity.merge(&d.parity);
    let writes = d.mutations.len().max(1) as f64;
    let mut exec = Samples::new();
    for &(ns, _, _) in &d.mutations {
        exec.push(ns);
    }
    let exec_ms = if exec.len() > 0 { exec.median_ns() / 1e6 } else { f64::NAN };
    m.put("dynamic.mutate_exec_ms", exec_ms, "ms");
    let incremental = d.mutations.iter().filter(|x| x.2).count() as f64;
    m.put("dynamic.incremental_ratio", incremental / writes, "ratio");
    let dirty: f64 = d.mutations.iter().map(|x| x.1 as f64).sum();
    m.put("dynamic.dirty_shards_per_write", dirty / writes, "count");
    let v2 = conns[0].client.stats_v2().map_err(|e| e.to_string())?;
    let st = &v2.store;
    m.put("store.hit_ratio", st.hits as f64 / st.lookups.max(1) as f64, "ratio");
    let artifacts = (st.artifacts_built + st.artifacts_reused).max(1) as f64;
    m.put("store.artifact_reuse_ratio", st.artifacts_reused as f64 / artifacts, "ratio");
    drop(conns);
    daemon.stop();

    // The same sharded rank in process, with the daemon's engine shape.
    let engine = Engine::new(
        EngineConfig::default().with_workers(2).with_inner_threads(1).with_shard_budget(budget),
    );
    let list = Arc::new(list);
    let want = serial::rank(&list);
    let mut local = Samples::new();
    for _ in 0..reps.small {
        let t = Instant::now();
        let mut out = submit_wait(&engine, Request::rank_sharded(Arc::clone(&list)))?;
        local.push(t.elapsed().as_nanos() as u64);
        parity.check(&mut out, &want);
    }
    Ok((wire.median_ns() / 1e6, local.median_ns() / 1e6))
}
