//! The two daemon workloads, each driven from one benchmark process
//! with two closed-loop connections to a `rankd serve` child.
//!
//! * `small_rpc`: a depth-1 interactive Unix connection and a batch-class
//!   TCP connection with a pipelined window of 16, each alternating
//!   RANK_H on its own resident 256-vertex list and an inline SCAN(add)
//!   of a 256-vertex list.
//! * `resident_mutate`: two depth-1 Unix connections, each on its own
//!   resident 2^17-vertex list cut into ≥ 32 shards, alternating sharded
//!   RANK_H and SCAN_ADD_H, with every 4th request a MUTATE batch
//!   (single splices alternating with 8-edit batches).

use crate::daemon::Daemon;
use crate::segment::{self, Segment};
use crate::stats::Samples;
use crate::trace::Spans;
use crate::{derive_seed, Config, Parity, Report, Rng};
use engine::client::Client;
use engine::protocol::{self, FrameKind, ReqFlags, WireOp};
use listkit::dynamic::{Edit, MutableList};
use listkit::ops::AddOp;
use listkit::{gen, serial, LinkedList};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Vertices per list in `small_rpc`.
pub const SMALL_N: usize = 256;

/// Pipelined window of the batch connection.
pub const BATCH_WINDOW: usize = 16;

/// Deterministic scan values for vertex `i` of a list seeded `seed`.
pub fn values(seed: u64, len: usize) -> Vec<i64> {
    (0..len as u64)
        .map(|i| ((i.wrapping_mul(0x9E37_79B9).wrapping_add(seed)) % 2001) as i64 - 1000)
        .collect()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ------------------------------------------------------------ small_rpc

/// One `small_rpc` connection's inputs and oracle outputs.
pub struct SmallConn {
    pub client: Client,
    pub handle: u64,
    pub own: LinkedList,
    pub scan_list: LinkedList,
    pub scan_vals: Vec<i64>,
    pub want_rank: Vec<u64>,
    pub want_scan: Vec<i64>,
}

/// Start the `small_rpc` daemon and set up both connections
/// (connection 0 over Unix, 1 over TCP): PUT, then one warm pass.
pub fn small_setup(cfg: &Config, tag: &str) -> Result<(Daemon, Vec<SmallConn>), String> {
    let daemon = Daemon::start(&cfg.rankd, &cfg.run_dir, tag, true, &[])?;
    let mut conns = Vec::new();
    for k in 0..2u64 {
        let own = gen::random_list(SMALL_N, derive_seed(cfg.seed, 10 + k));
        let scan_list = gen::random_list(SMALL_N, derive_seed(cfg.seed, 20 + k));
        let scan_vals = values(derive_seed(cfg.seed, 30 + k), SMALL_N);
        let mut client = if k == 0 { daemon.connect_unix()? } else { daemon.connect_tcp()? };
        let handle = client.put(&own).map_err(err)?.handle;
        for _ in 0..100 {
            client.rank_h(handle).map_err(err)?;
            client.scan_add(&scan_list, &scan_vals).map_err(err)?;
        }
        conns.push(SmallConn {
            client,
            handle,
            own,
            scan_list,
            scan_vals,
            want_rank: Vec::new(),
            want_scan: Vec::new(),
        });
    }
    Ok((daemon, conns))
}

/// Fill in the oracle outputs (outside set-up and timing).
pub fn small_oracle(conns: &mut [SmallConn]) {
    for c in conns {
        c.want_rank = serial::rank(&c.own);
        c.want_scan = serial::scan(&c.scan_list, &c.scan_vals, &AddOp);
    }
}

/// Per-connection result of a timed window.
pub struct Driven {
    /// Latencies of completed requests (reads, on `resident_mutate`).
    pub lat: Samples,
    /// Latencies of completed MUTATEs (`resident_mutate` only).
    pub writes: Samples,
    pub completed: u64,
    pub vertices: u64,
    pub parity: Parity,
    pub spans: Spans,
    /// MUTATE replies: (exec_ns, dirty shards, incremental).
    pub mutations: Vec<(u64, u32, bool)>,
}

impl Driven {
    fn new(cfg: &Config, trace: bool, t0: Instant) -> Driven {
        Driven {
            lat: Samples::new(),
            writes: Samples::new(),
            completed: 0,
            vertices: 0,
            parity: Parity::new(cfg),
            spans: Spans::new(trace, t0),
            mutations: Vec::new(),
        }
    }
}

/// Depth-1 loop: alternate RANK_H and inline SCAN(add) until `until`.
pub fn drive_interactive(
    cfg: &Config,
    c: &mut SmallConn,
    until: Instant,
    trace: bool,
) -> Result<Driven, String> {
    let mut d = Driven::new(cfg, trace, Instant::now());
    let rank_body = protocol::rank_h_body(c.handle, false);
    let scan_body = protocol::scan_body(&c.scan_list, &c.scan_vals, WireOp::Add, false);
    let mut i = 0u64;
    while Instant::now() < until {
        let rank = i.is_multiple_of(2);
        i += 1;
        let t = Instant::now();
        let checked = if rank {
            let r = d.spans.time("client.rank_h", || {
                c.client.request_encoded::<u64>(FrameKind::RankH, &rank_body)
            });
            let dt = t.elapsed().as_nanos() as u64;
            r.map(|mut out| (dt, d.parity.check(&mut out.output, &c.want_rank)))
        } else {
            let r = d.spans.time("client.scan", || {
                c.client.request_encoded::<i64>(FrameKind::Scan, &scan_body)
            });
            let dt = t.elapsed().as_nanos() as u64;
            r.map(|mut out| (dt, d.parity.check(&mut out.output, &c.want_scan)))
        };
        match checked {
            Ok((dt, true)) => {
                d.lat.push(dt);
                d.completed += 1;
                d.vertices += SMALL_N as u64;
            }
            Ok((_, false)) => {}
            Err(e) => {
                eprintln!("small_rpc: interactive request refused: {e}");
                d.parity.error();
            }
        }
    }
    Ok(d)
}

/// Pipelined batch-class loop: keep `window` requests in flight,
/// alternating RANK_H and inline SCAN(add); stop sending at `until` and
/// drain what is in flight.
pub fn drive_batch(
    cfg: &Config,
    c: &mut SmallConn,
    until: Instant,
    window: usize,
    trace: bool,
) -> Result<Driven, String> {
    let mut d = Driven::new(cfg, trace, Instant::now());
    let mut inflight: HashMap<u64, (bool, Instant, Option<usize>)> = HashMap::new();
    let mut next_id = 1u64;
    loop {
        while inflight.len() < window && Instant::now() < until {
            let flags = ReqFlags::default().with_batch().with_request_id(next_id);
            let rank = next_id % 2 == 1;
            let (kind, body) = if rank {
                (FrameKind::RankH, protocol::rank_h_body_flags(c.handle, flags))
            } else {
                (
                    FrameKind::Scan,
                    protocol::scan_body_flags(&c.scan_list, &c.scan_vals, WireOp::Add, flags),
                )
            };
            let span = d.spans.open("client.pipelined", None);
            let t = Instant::now();
            c.client.send_encoded(kind, &body).map_err(err)?;
            inflight.insert(next_id, (rank, t, span));
            next_id += 1;
        }
        if inflight.is_empty() {
            break;
        }
        let (id, reply) = c.client.recv_pipelined::<u64>().map_err(err)?;
        let (rank, t, span) =
            inflight.remove(&id).ok_or_else(|| format!("reply for unknown request id {id}"))?;
        let dt = t.elapsed().as_nanos() as u64;
        d.spans.close(span);
        let ok = match reply {
            Ok(out) if rank => {
                let mut got = out.output;
                d.parity.check(&mut got, &c.want_rank)
            }
            // An add-scan reply carries i64 values in the same 8 bytes.
            Ok(out) => {
                let mut got: Vec<i64> = out.output.iter().map(|&v| v as i64).collect();
                d.parity.check(&mut got, &c.want_scan)
            }
            Err(e) => {
                eprintln!("small_rpc: batch request {id} refused: {e}");
                d.parity.error();
                false
            }
        };
        if ok {
            d.lat.push(dt);
            d.completed += 1;
            d.vertices += SMALL_N as u64;
        }
    }
    Ok(d)
}

/// Drive the `small_rpc` connections for `seconds`: the interactive one
/// alone, or both concurrently. Returns the two connections' results (the
/// batch one empty when it did not run) and the window length.
pub fn small_window(
    cfg: &Config,
    conns: &mut [SmallConn],
    seconds: f64,
    trace: bool,
    with_batch: bool,
) -> Result<(Driven, Driven, f64), String> {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let (a, b) = conns.split_at_mut(1);
    let (ia, ib) = std::thread::scope(|s| {
        let ha = s.spawn(|| drive_interactive(cfg, &mut a[0], until, trace));
        let ib = if with_batch {
            drive_batch(cfg, &mut b[0], until, BATCH_WINDOW, trace)
        } else {
            Ok(Driven::new(cfg, trace, start))
        };
        (ha.join().expect("interactive load thread panicked"), ib)
    });
    Ok((ia?, ib?, start.elapsed().as_secs_f64()))
}

/// Segments per untraced `small_rpc` run.
const SMALL_SEGMENTS: usize = 8;

/// Each `small_rpc` segment first drives the interactive connection
/// alone for this share of its window, then both connections together.
///
/// Under the batch connection's saturating load, the interactive p50
/// is set mostly by how the OS schedules five busy threads on two CPUs:
/// run-to-run it spread by a third of its median. Alone it repeats
/// within a few percent, so the gated `latency_p50_ms` is the alone
/// phase; the loaded interactive p50/p99 are printed beside it.
const ALONE_SHARE: f64 = 1.0 / 3.0;

pub fn run_small(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let mut segs = Vec::new();
    let mut loaded = Samples::new();
    let count = segment::count(cfg, SMALL_SEGMENTS);
    let window = segment::window(cfg, count);
    for i in 0..count {
        let t0 = Instant::now();
        let (daemon, mut conns) = small_setup(cfg, &format!("small{i}"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        small_oracle(&mut conns);
        let traced = segment::traced(cfg, i);
        let (mut alone, _, _) = small_window(cfg, &mut conns, window * ALONE_SHARE, traced, false)?;
        let (ia, ib, window_s) =
            small_window(cfg, &mut conns, window * (1.0 - ALONE_SHARE), traced, true)?;
        let peak_rss_mb = daemon.peak_rss_mb()?;
        drop(conns);
        daemon.stop();
        for d in [&alone, &ia, &ib] {
            report.parity.merge(&d.parity);
        }
        if !traced {
            loaded.extend(&ia.lat);
        }
        alone.spans.absorb(ia.spans);
        alone.spans.absorb(ib.spans);
        segs.push(Segment {
            setup_s,
            window_s,
            completed: ia.completed + ib.completed,
            vertices: ia.vertices + ib.vertices,
            primary: alone.lat,
            second: ib.lat,
            peak_rss_mb,
            spans: alone.spans,
        });
    }
    segment::summarise(
        cfg,
        report,
        segs,
        "interactive alone, unix depth 1",
        &format!("batch beside interactive, tcp window {BATCH_WINDOW}"),
    )?;
    report.lines.push(format!(
        "interactive beside batch (interactive_p50_ms, interactive_p99_ms): {}",
        loaded.describe_ms()
    ));
    Ok(())
}

// ------------------------------------------------------ resident_mutate

/// Vertices per resident list and the daemon's shard budget (≥ 32
/// shards per list).
pub fn mutate_shape(cfg: &Config) -> (usize, usize) {
    if cfg.tiny {
        (1 << 12, 1 << 7)
    } else {
        (1 << 17, 1 << 12)
    }
}

/// Daemon flags of the `resident_mutate` workload.
pub fn mutate_flags(cfg: &Config) -> Vec<String> {
    vec!["--shard-budget".to_string(), mutate_shape(cfg).1.to_string()]
}

/// One `resident_mutate` connection: its handle, a client-side mirror
/// of the resident list, and the oracle outputs for the mirror.
pub struct MutConn {
    pub client: Client,
    pub handle: u64,
    pub mirror: MutableList,
    pub vals_seed: u64,
    pub vals: Vec<i64>,
    pub want_rank: Vec<u64>,
    pub want_scan: Vec<i64>,
    pub rng: Rng,
}

impl MutConn {
    /// Recompute the oracle from the mirror (never inside a timed op).
    pub fn refresh_oracle(&mut self) {
        let snap = self.mirror.snapshot();
        self.vals = values(self.vals_seed, snap.len());
        self.want_rank = serial::rank(&snap);
        self.want_scan = serial::scan(&snap, &self.vals, &AddOp);
    }
}

/// A valid edit batch for a `len`-vertex list: one single-vertex
/// splice, or six splices plus a delete and an append (the length stays
/// put).
pub fn gen_edits(rng: &mut Rng, len: u64, batch: bool) -> Vec<Edit> {
    let mut splice = || {
        let a = rng.below(len) as u32;
        let after = if rng.below(8) == 0 {
            None
        } else {
            let b = rng.below(len) as u32;
            Some(if b == a { (a + 1) % len as u32 } else { b })
        };
        Edit::Splice { first: a, last: a, after }
    };
    if !batch {
        return vec![splice()];
    }
    let mut e: Vec<Edit> = (0..6).map(|_| splice()).collect();
    e.push(Edit::Delete { v: rng.below(len) as u32 });
    e.push(Edit::Append { count: 1 });
    e
}

pub fn mutate_setup(cfg: &Config, tag: &str) -> Result<(Daemon, Vec<MutConn>), String> {
    let (n, _) = mutate_shape(cfg);
    let daemon = Daemon::start(&cfg.rankd, &cfg.run_dir, tag, false, &mutate_flags(cfg))?;
    let mut conns = Vec::new();
    for k in 0..2u64 {
        let list = gen::random_list(n, derive_seed(cfg.seed, 40 + k));
        let vals_seed = derive_seed(cfg.seed, 50 + k);
        let vals = values(vals_seed, n);
        let mut client = daemon.connect_unix()?;
        let handle = client.put(&list).map_err(err)?.handle;
        for _ in 0..2 {
            client.rank_h_sharded(handle).map_err(err)?;
            client.scan_add_h_sharded(handle, &vals).map_err(err)?;
        }
        conns.push(MutConn {
            client,
            handle,
            mirror: MutableList::from_list(&list),
            vals_seed,
            vals,
            want_rank: Vec::new(),
            want_scan: Vec::new(),
            rng: Rng::new(cfg.seed, 60 + k),
        });
    }
    Ok((daemon, conns))
}

/// Depth-1 loop on one resident list until `until`: reads alternate
/// sharded RANK_H and SCAN_ADD_H; every 4th request is a MUTATE.
pub fn drive_mutate(
    cfg: &Config,
    c: &mut MutConn,
    until: Instant,
    trace: bool,
) -> Result<Driven, String> {
    let mut d = Driven::new(cfg, trace, Instant::now());
    let rank_body = protocol::rank_h_body(c.handle, true);
    let mut scan_body = protocol::scan_h_body(c.handle, &c.vals, WireOp::Add, true);
    let mut i = 0u64;
    let mut writes = 0u64;
    while Instant::now() < until {
        let slot = i % 4;
        i += 1;
        if slot == 3 {
            let edits = gen_edits(&mut c.rng, c.mirror.len() as u64, writes % 2 == 1);
            writes += 1;
            c.mirror.apply(&edits).map_err(|e| format!("generated an invalid batch: {e}"))?;
            let body = protocol::mutate_body(c.handle, &edits);
            let t = Instant::now();
            let r = d.spans.time("client.mutate", || c.client.mutate_encoded(&body));
            let dt = t.elapsed().as_nanos() as u64;
            match r {
                Ok(ok) => {
                    let mut got = [ok.applied as u64, ok.len];
                    if d.parity.check(&mut got, &[edits.len() as u64, c.mirror.len() as u64]) {
                        d.writes.push(dt);
                        d.completed += 1;
                        d.mutations.push((ok.exec_ns, ok.dirty_shards, ok.incremental));
                    }
                }
                Err(e) => {
                    // The mirror now disagrees with the daemon; stop.
                    d.parity.error();
                    return Err(format!("MUTATE refused: {e}"));
                }
            }
            c.refresh_oracle();
            scan_body = protocol::scan_h_body(c.handle, &c.vals, WireOp::Add, true);
            continue;
        }
        let rank = slot.is_multiple_of(2);
        let t = Instant::now();
        let checked = if rank {
            let r = d.spans.time("client.rank_h_sharded", || {
                c.client.request_encoded::<u64>(FrameKind::RankH, &rank_body)
            });
            let dt = t.elapsed().as_nanos() as u64;
            r.map(|mut out| (dt, d.parity.check(&mut out.output, &c.want_rank)))
        } else {
            let r = d.spans.time("client.scan_add_h_sharded", || {
                c.client.request_encoded::<i64>(FrameKind::ScanH, &scan_body)
            });
            let dt = t.elapsed().as_nanos() as u64;
            r.map(|mut out| (dt, d.parity.check(&mut out.output, &c.want_scan)))
        };
        match checked {
            Ok((dt, true)) => {
                d.lat.push(dt);
                d.completed += 1;
                d.vertices += c.mirror.len() as u64;
            }
            Ok((_, false)) => {}
            Err(e) => {
                eprintln!("resident_mutate: read refused: {e}");
                d.parity.error();
            }
        }
    }
    Ok(d)
}

/// Both connections concurrently for `seconds`; results merged.
pub fn mutate_window(
    cfg: &Config,
    conns: &mut [MutConn],
    seconds: f64,
    trace: bool,
) -> Result<(Driven, f64), String> {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let (a, b) = conns.split_at_mut(1);
    let (ra, rb) = std::thread::scope(|s| {
        let ha = s.spawn(|| drive_mutate(cfg, &mut a[0], until, trace));
        let hb = s.spawn(|| drive_mutate(cfg, &mut b[0], until, trace));
        (
            ha.join().expect("mutate load thread panicked"),
            hb.join().expect("mutate load thread panicked"),
        )
    });
    let (mut ra, rb) = (ra?, rb?);
    let secs = start.elapsed().as_secs_f64();
    ra.lat.extend(&rb.lat);
    ra.writes.extend(&rb.writes);
    ra.completed += rb.completed;
    ra.vertices += rb.vertices;
    ra.parity.merge(&rb.parity);
    ra.mutations.extend(rb.mutations);
    ra.spans.absorb(rb.spans);
    Ok((ra, secs))
}

/// Segments per untraced `resident_mutate` run.
const MUTATE_SEGMENTS: usize = 6;

pub fn run_mutate(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let mut segs = Vec::new();
    let (mut writes, mut incremental) = (0, 0);
    let count = segment::count(cfg, MUTATE_SEGMENTS);
    for i in 0..count {
        let t0 = Instant::now();
        let (daemon, mut conns) = mutate_setup(cfg, &format!("mutate{i}"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        for c in &mut conns {
            c.refresh_oracle();
        }
        let traced = segment::traced(cfg, i);
        let (d, window_s) = mutate_window(cfg, &mut conns, segment::window(cfg, count), traced)?;
        let peak_rss_mb = daemon.peak_rss_mb()?;
        drop(conns);
        daemon.stop();
        report.parity.merge(&d.parity);
        writes += d.mutations.len();
        incremental += d.mutations.iter().filter(|m| m.2).count();
        segs.push(Segment {
            setup_s,
            window_s,
            completed: d.completed,
            vertices: d.vertices,
            primary: d.lat,
            second: d.writes,
            peak_rss_mb,
            spans: d.spans,
        });
    }
    report.lines.push(format!("mutations: {writes} ({incremental} incremental)"));
    segment::summarise(
        cfg,
        report,
        segs,
        "reads, sharded RANK_H/SCAN_ADD_H (latency_p50_ms, latency_p99_ms)",
        "writes, MUTATE (write_p50_ms, write_p99_ms)",
    )
}
