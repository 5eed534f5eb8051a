//! Adaptive algorithm selection: model prior + measured history.
//!
//! The planner decides, per job, which of the five algorithms to run and
//! (for Reid-Miller) which split count `m` to use. Its prior is the
//! paper's cost model ([`rankmodel::predict::predict_best_op`], keyed on
//! the job's value width); as jobs complete it folds measured
//! per-element times into per-(size bucket × **op kind**) EWMAs, so the
//! dispatch threshold migrates to wherever *this* machine's crossover
//! actually sits **for that operator** — a wide affine-composition scan
//! moves twice the memory of a ranking and can cross over at a
//! different size, and their histories must not contaminate each other.
//!
//! Three decisions learn this way — the algorithm (Serial vs
//! Reid-Miller), the Reid-Miller lane count, and the maintenance
//! strategy after a mutation — and all three share one EWMA fold
//! (`Ewma::fold`) and one pick rule (`contest`): an unmeasured prior
//! runs; otherwise a probe tick tries the least-sampled arm while any
//! arm is unmeasured; otherwise the cheapest measured arm wins, ties to
//! the first arm in order. Each decision keeps its own history table
//! and probe counter.

use crate::op::OpKind;
use crate::telemetry::log::Level;
use crate::telemetry::{AtomicHistogram, Histogram, Ring};
use listrank::Algorithm;
use rankmodel::predict::{default_lanes, predict_best_op_lanes, predict_patch, AlgChoice};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Size buckets are powers of two: bucket `b` holds `2^(b-1) ≤ n < 2^b`.
const BUCKETS: usize = usize::BITS as usize + 1;
const ALGS: usize = Algorithm::ALL.len();
const OPS: usize = OpKind::ALL.len();

/// EWMA smoothing factor for new measurements.
const ALPHA: f64 = 0.25;

/// Probe an unmeasured arm once in this many decisions (each decision
/// counts its own), so measured history covers every arm.
const PROBE_EVERY: u64 = 16;

/// Lane counts the per-bucket lane tuner picks between. The model's
/// prior seeds the choice; measured Reid-Miller completions at each
/// candidate migrate it to wherever *this* machine's miss-buffer depth
/// and cache sizes actually put the optimum.
pub const LANE_CANDIDATES: [usize; 5] = [1, 2, 4, 8, 16];

const LANE_SLOTS: usize = LANE_CANDIDATES.len();

pub(crate) fn bucket_of(n: usize) -> usize {
    (usize::BITS - n.leading_zeros()) as usize
}

/// The lane-ladder slot nearest to `lanes`.
fn lane_slot(lanes: usize) -> usize {
    (0..LANE_SLOTS)
        .min_by_key(|&i| LANE_CANDIDATES[i].abs_diff(lanes))
        .expect("ladder is non-empty")
}

pub(crate) fn alg_index(alg: Algorithm) -> usize {
    Algorithm::ALL.iter().position(|&a| a == alg).expect("algorithm in ALL")
}

/// One dispatch decision.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// Reid-Miller split-count override (`None` = host heuristic).
    pub m: Option<usize>,
    /// Interleaved traversal lanes for the multi-chain walks (always
    /// `1` for algorithms without one — a serial chain has a single
    /// cursor, structurally).
    pub lanes: usize,
}

/// The plan branch for sharded requests: lists that fit the per-worker
/// budget fall back to the ordinary monolithic dispatch, larger ones go
/// to the shard-parallel path with a balanced shard size from the cost
/// model.
#[derive(Clone, Copy, Debug)]
pub enum ShardDecision {
    /// The list fits one worker's budget (or the caller pinned an
    /// algorithm): run it like a plain monolithic job.
    Monolithic(Plan),
    /// Split into shards of `shard_size` vertices.
    Sharded {
        /// Per-shard vertex count (balanced; ≤ the budget).
        shard_size: usize,
        /// Number of shards the list will split into.
        shards: usize,
        /// Interleaved lanes for the shard-local fragment walks.
        lanes: usize,
    },
}

#[derive(Clone, Copy, Default)]
struct Ewma {
    ns_per_elem: f64,
    samples: u64,
}

impl Ewma {
    /// Fold one measurement of `x` ns per work unit in (the first
    /// sample seeds the average outright). With `mispredict`, first
    /// score the pre-update average — what the planner would have
    /// predicted — as `x / prediction ×` [`MISPREDICT_SCALE`].
    fn fold(&mut self, x: f64, mispredict: Option<&AtomicHistogram>) {
        if let Some(h) = mispredict.filter(|_| self.samples > 0 && self.ns_per_elem > 0.0) {
            let ratio = (x / self.ns_per_elem) * MISPREDICT_SCALE as f64;
            h.record(ratio.clamp(0.0, u64::MAX as f64) as u64);
        }
        self.ns_per_elem =
            if self.samples == 0 { x } else { (1.0 - ALPHA) * self.ns_per_elem + ALPHA * x };
        self.samples += 1;
    }
}

/// Whether a decision whose probe counter reads `count` is on its
/// probe tick (one in every [`PROBE_EVERY`]).
fn probe_tick(count: u64) -> bool {
    count % PROBE_EVERY == PROBE_EVERY - 1
}

/// The one pick rule of every EWMA decision. `arms` are listed in
/// tie-break order, `prior` is the model's arm, and `cost(i)` turns arm
/// `i`'s EWMA into the predicted cost being compared. An unmeasured
/// prior runs (which covers a bucket with no history too), so one
/// stray sample cannot pull a bucket off its prior before the prior is
/// measured; otherwise, on a probe tick while any arm is unmeasured,
/// the least-sampled arm runs so history covers every arm; otherwise
/// the cheapest measured arm wins. Returns the arm and its predicted
/// cost (`0.0` when that arm is unmeasured).
fn contest(arms: &[Ewma], prior: usize, probe: bool, cost: impl Fn(usize) -> f64) -> (usize, f64) {
    let measured = |i: &usize| arms[*i].samples > 0;
    let pick = if !measured(&prior) {
        prior
    } else if probe && !(0..arms.len()).all(|i| measured(&i)) {
        (0..arms.len()).min_by_key(|&i| arms[i].samples).expect("arms are non-empty")
    } else {
        (0..arms.len())
            .filter(measured)
            .min_by(|&a, &b| cost(a).total_cmp(&cost(b)))
            .expect("the prior is measured")
    };
    (pick, if measured(&pick) { cost(pick) } else { 0.0 })
}

/// The algorithm contest's arms, in tie-break order. Reid-Miller is the
/// host's only work-efficient parallel algorithm (see
/// [`Planner::prior_choice`]), so the other three run only when pinned.
const ALG_ARMS: [Algorithm; 2] = [Algorithm::Serial, Algorithm::ReidMiller];

/// The maintenance decision for one mutated artifact: patch the dirty
/// shards in place, or rebuild the decomposition from scratch. Returned
/// by [`Planner::choose_maintenance`].
#[derive(Clone, Copy, Debug)]
pub struct MutateDecision {
    /// `true` = patch dirty shards incrementally; `false` = rebuild.
    pub incremental: bool,
    /// Dirty shards the decision was made for.
    pub dirty: usize,
    /// Total shards of the decomposition.
    pub shards: usize,
    /// The EWMA's predicted ns for the chosen strategy at decision
    /// time, or `0.0` when the bucket had no measurement yet
    /// (prior-driven decision).
    pub predicted_ns: f64,
}

/// Maintenance-strategy slots in the mutate EWMA table, in the
/// contest's tie-break order (equal predictions rebuild).
const MAINT_REBUILD: usize = 0;
const MAINT_INCREMENTAL: usize = 1;

/// The work-unit count a maintenance EWMA normalizes by: the vertices
/// actually re-derived plus the contracted rows re-assembled. Using
/// per-unit times (rather than per-job) lets one bucket's history
/// predict across different dirty fractions.
fn maint_units(n: usize, shard_size: usize, fragments: usize, dirty: usize, kind: usize) -> u64 {
    let touched = if kind == MAINT_REBUILD { n } else { (dirty * shard_size.max(1)).min(n) };
    (touched + fragments).max(1) as u64
}

/// How many recent dispatch decisions the introspection ring keeps.
const DECISION_RING_CAPACITY: usize = 128;

/// Scale of the mispredict-ratio histogram: a recorded value of
/// [`MISPREDICT_SCALE`] means measured cost == predicted cost; `2×` the
/// scale means the job ran twice as slow as predicted.
pub const MISPREDICT_SCALE: u64 = 1000;

/// One dispatch decision, as kept in the planner's introspection log
/// ([`Planner::recent_decisions`]) and printed by `RANKD_LOG=debug`.
#[derive(Clone, Copy, Debug)]
pub struct PlanDecision {
    /// Job size.
    pub n: usize,
    /// Operation kind the dispatch was keyed on.
    pub op: OpKind,
    /// Chosen algorithm (stitch algorithm is not known yet for sharded
    /// dispatches; this is the monolithic pick or `Serial` placeholder).
    pub algorithm: Algorithm,
    /// Chosen interleaved-lane count.
    pub lanes: usize,
    /// Shards the job will split into (`0` = monolithic).
    pub shards: usize,
    /// The EWMA's predicted ns/element for the chosen algorithm at
    /// decision time, or `0.0` when the bucket had no measurement yet
    /// (prior-driven dispatch) and for every sharded dispatch (sharded
    /// runs feed no per-algorithm EWMA).
    pub predicted_ns_per_elem: f64,
    /// Whether the caller pinned the algorithm.
    pub pinned: bool,
}

/// The adaptive planner. Thread-safe; shared by all workers.
pub struct Planner {
    /// Parallelism available to a single job.
    p: usize,
    /// Pinned lane count (`None` = tune per bucket).
    lanes_override: Option<usize>,
    /// Measured per-element times by (bucket, op kind, algorithm).
    measured: Mutex<Vec<[[Ewma; ALGS]; OPS]>>,
    /// Measured per-element times of Reid-Miller jobs by (bucket, lane
    /// candidate) — the lane tuner's history. Kept separate from the
    /// algorithm EWMAs: lane counts only vary *within* the Reid-Miller
    /// dispatch, and mixing lane experiments into the serial/RM contest
    /// would double-count them.
    lane_measured: Mutex<Vec<[Ewma; LANE_SLOTS]>>,
    /// Dispatch counts by (bucket, algorithm) — the stats surface that
    /// makes "different algorithms by job size" visible.
    dispatched: Vec<[AtomicU64; ALGS]>,
    /// Dispatch counts by (op kind, algorithm) — the op dimension of
    /// the stats surface.
    dispatched_by_op: Vec<[AtomicU64; ALGS]>,
    /// Cached tuned Reid-Miller `m` per bucket.
    tuned_m: Mutex<HashMap<usize, usize>>,
    /// Recent dispatch decisions (introspection; `RANKD_LOG=debug`
    /// prints them live).
    decisions: Ring<PlanDecision>,
    /// Mispredict ratios: for every completion whose (bucket, op,
    /// algorithm) EWMA held a prediction, `measured/predicted ×`
    /// [`MISPREDICT_SCALE`]. A tight mode at the scale value means the
    /// EWMA layer predicts well; heavy tails mean it is being surprised.
    mispredict: AtomicHistogram,
    /// Measured per-unit maintenance times by (size bucket × strategy):
    /// slot [`MAINT_INCREMENTAL`] holds dirty-shard patching, slot
    /// [`MAINT_REBUILD`] holds from-scratch decomposition. Kept apart
    /// from the query EWMAs — maintenance touches different code (shard
    /// builds and boundary stitching, no ranking) and its history must
    /// not contaminate dispatch.
    maint_measured: Mutex<Vec<[Ewma; 2]>>,
    /// Maintenance dispatch counts: `[incremental, rebuild]`.
    maint_dispatched: [AtomicU64; 2],
    /// Mispredict ratios for maintenance decisions, same scale and
    /// scoring rule as [`Planner::mispredict`] but fed by
    /// [`Planner::record_maintenance`].
    maint_mispredict: AtomicHistogram,
}

impl Planner {
    /// A planner for jobs that may use up to `p` threads each, tuning
    /// the lane count per size bucket.
    pub fn new(p: usize) -> Self {
        Planner {
            p: p.max(1),
            lanes_override: None,
            measured: Mutex::new(vec![[[Ewma::default(); ALGS]; OPS]; BUCKETS]),
            lane_measured: Mutex::new(vec![[Ewma::default(); LANE_SLOTS]; BUCKETS]),
            dispatched: (0..BUCKETS).map(|_| std::array::from_fn(|_| AtomicU64::new(0))).collect(),
            dispatched_by_op: (0..OPS)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            tuned_m: Mutex::new(HashMap::new()),
            decisions: Ring::new(DECISION_RING_CAPACITY),
            mispredict: AtomicHistogram::new(),
            maint_measured: Mutex::new(vec![[Ewma::default(); 2]; BUCKETS]),
            maint_dispatched: std::array::from_fn(|_| AtomicU64::new(0)),
            maint_mispredict: AtomicHistogram::new(),
        }
    }

    /// Pin the lane count instead of tuning it (`None` restores
    /// tuning). The engine threads `EngineConfig::lanes` through here.
    pub fn with_lanes_override(mut self, lanes: Option<usize>) -> Self {
        self.lanes_override = lanes.map(|k| k.max(1));
        self
    }

    /// Choose the algorithm (plus `m` and the lane count) for an
    /// `n`-vertex job computing `op` over `elem_bytes`-byte values.
    /// `pinned` overrides adaptivity (but still records the dispatch).
    pub fn choose(
        &self,
        n: usize,
        op: OpKind,
        elem_bytes: usize,
        pinned: Option<Algorithm>,
    ) -> Plan {
        let (algorithm, predicted_ns_per_elem) = match pinned {
            Some(alg) => {
                let e = self.measured.lock().expect("planner poisoned")[bucket_of(n)][op.index()]
                    [alg_index(alg)];
                (alg, if e.samples > 0 { e.ns_per_elem } else { 0.0 })
            }
            None => self.adaptive_choice(n, op, elem_bytes),
        };
        self.dispatched[bucket_of(n)][alg_index(algorithm)].fetch_add(1, Ordering::Relaxed);
        self.dispatched_by_op[op.index()][alg_index(algorithm)].fetch_add(1, Ordering::Relaxed);
        let (m, lanes) = if algorithm == Algorithm::ReidMiller {
            let lanes = self.tuned_lanes(n);
            (self.tuned_m(n, lanes), lanes)
        } else {
            (None, 1)
        };
        let pinned = pinned.is_some();
        let d = PlanDecision { n, op, algorithm, lanes, shards: 0, predicted_ns_per_elem, pinned };
        self.log_decision(d);
        Plan { algorithm, m, lanes }
    }

    /// Record one decision in the introspection ring (and at
    /// `RANKD_LOG=debug`, on stderr).
    fn log_decision(&self, d: PlanDecision) {
        if crate::telemetry::log::enabled(Level::Debug) {
            crate::telemetry::log::write(
                Level::Debug,
                "planner",
                &format!(
                    "dispatch n={} op={} alg={} lanes={} shards={} predicted_ns_per_elem={:.2}{}",
                    d.n,
                    d.op,
                    d.algorithm.name(),
                    d.lanes,
                    d.shards,
                    d.predicted_ns_per_elem,
                    if d.pinned { " pinned" } else { "" }
                ),
            );
        }
        self.decisions.push(d);
    }

    /// Cold-start prior. The `rankmodel` prediction locates the size
    /// threshold below which startup costs dominate (→ Serial) for the
    /// job's value width; above it, the host's only *work-efficient*
    /// parallel algorithm is Reid-Miller, so every parallel pick maps
    /// there. (The C90 model can prefer the random-mate algorithms
    /// because vector hardware runs them wide even at `p = 1`; a
    /// multicore host has no such discount.) With the K-lane walker the
    /// model crosses over to Reid-Miller even on one thread for large
    /// lists — interleaved chains are the single-core parallelism the
    /// paper's vector pipeline provided. The prior is keyed on the
    /// lane count the job would actually run with (override included),
    /// so pinning `--lanes 1` restores the old serial-on-one-thread
    /// rule instead of promising a discount the walker won't deliver.
    fn prior_choice(&self, n: usize, elem_bytes: usize) -> Algorithm {
        let lanes = self.lanes_override.unwrap_or_else(|| default_lanes(n));
        match predict_best_op_lanes(n, self.p, elem_bytes, lanes) {
            AlgChoice::Serial => Algorithm::Serial,
            _ => Algorithm::ReidMiller,
        }
    }

    /// The lane count for an `n`-vertex Reid-Miller job: the override
    /// if pinned, else the [`contest`] over the bucket's lane ladder,
    /// seeded by the model's default and probed on the bucket's
    /// Reid-Miller dispatch count.
    fn tuned_lanes(&self, n: usize) -> usize {
        if let Some(k) = self.lanes_override {
            return k;
        }
        let b = bucket_of(n);
        let arms = self.lane_measured.lock().expect("planner poisoned")[b];
        let rm = self.dispatched[b][alg_index(Algorithm::ReidMiller)].load(Ordering::Relaxed);
        let prior = lane_slot(default_lanes(n));
        LANE_CANDIDATES[contest(&arms, prior, probe_tick(rm), |i| arms[i].ns_per_elem).0]
    }

    /// The [`contest`] between Serial and Reid-Miller in the job's
    /// (bucket, op) history, probed on the bucket's dispatch count.
    /// Returns the pick and its predicted ns/element.
    fn adaptive_choice(&self, n: usize, op: OpKind, elem_bytes: usize) -> (Algorithm, f64) {
        let b = bucket_of(n);
        let prior = self.prior_choice(n, elem_bytes);
        let prior = ALG_ARMS.iter().position(|&a| a == prior).expect("the prior is an arm");
        let row = self.measured.lock().expect("planner poisoned")[b][op.index()];
        let arms = ALG_ARMS.map(|a| row[alg_index(a)]);
        let count: u64 = self.dispatched[b].iter().map(|c| c.load(Ordering::Relaxed)).sum();
        let (i, predicted) = contest(&arms, prior, probe_tick(count), |i| arms[i].ns_per_elem);
        (ALG_ARMS[i], predicted)
    }

    /// The plan branch for sharded requests. Budget-aware: a list of at
    /// most `budget` vertices is dispatched monolithically through
    /// [`Self::choose`]; a pinned algorithm also forces the monolithic
    /// path (pinning means "run exactly this backend"). Above the
    /// budget, [`rankmodel::predict::shard_size_for`] balances the
    /// shard size over the job's thread budget.
    pub fn choose_sharded(
        &self,
        n: usize,
        budget: usize,
        op: OpKind,
        elem_bytes: usize,
        pinned: Option<Algorithm>,
    ) -> ShardDecision {
        if pinned.is_some() || n <= budget.max(1) {
            return ShardDecision::Monolithic(self.choose(n, op, elem_bytes, pinned));
        }
        let shard_size = rankmodel::predict::shard_size_for(n, budget, self.p);
        // The shard-local fragment walks interleave like Reid-Miller's
        // phases; key the lane choice on the shard size (the walk's
        // working set), overridable like everything else.
        let lanes = self.lanes_override.unwrap_or_else(|| default_lanes(shard_size));
        // Sharded executions are counted at completion time by the
        // engine's `Counters` (the stats surface); the planner keeps no
        // duplicate tally.
        let shards = n.div_ceil(shard_size);
        // The stitch algorithm is chosen downstream by the sharded
        // runner; log the shard-local phase (a serial walk per shard),
        // with no prediction: sharded runs feed no EWMA.
        let (algorithm, predicted_ns_per_elem, pinned) = (Algorithm::Serial, 0.0, false);
        let d = PlanDecision { n, op, algorithm, lanes, shards, predicted_ns_per_elem, pinned };
        self.log_decision(d);
        ShardDecision::Sharded { shard_size, shards, lanes }
    }

    /// Model-tuned Reid-Miller split count for `n` walked with `lanes`
    /// interleaved lanes, clamped to the host backend's
    /// over-decomposition bounds (≥ `8·lanes` tasks per thread — each
    /// worker needs ≥ `lanes` *live* sublists to keep its lanes full,
    /// with the 8× on top so work stealing levels the exponential
    /// sublist skew — and ≤ n/4 so sublists stay non-trivial). Cached
    /// per size bucket, tuned for the bucket's geometric midpoint
    /// (`1.5·2^(b-1)`) rather than whichever `n` happens to arrive
    /// first, so the cached value is equally representative for every
    /// job the bucket covers. The tune runs outside the cache lock, so
    /// one bucket's first job never stalls other plans; the value is
    /// deterministic, so two threads racing on a bucket only tune twice.
    fn tuned_m(&self, n: usize, lanes: usize) -> Option<usize> {
        let b = bucket_of(n);
        let cached = self.tuned_m.lock().expect("planner poisoned").get(&b).copied();
        let m = cached.unwrap_or_else(|| {
            let rep = if b >= 2 { 3usize << (b - 2) } else { n };
            let m = listrank::SimParams::tuned_rank(rep, self.p).m;
            *self.tuned_m.lock().expect("planner poisoned").entry(b).or_insert(m)
        });
        if m < 2 {
            return None; // model says don't split; host heuristic decides
        }
        let floor = self.p * 8 * lanes.max(1);
        Some(m.clamp(floor.min(n / 4), (n / 4).max(1)).max(2))
    }

    /// Fold one completed Reid-Miller job into the (bucket, lane)
    /// history. `lanes` snaps to the nearest candidate rung.
    pub fn record_lanes(&self, n: usize, lanes: usize, exec_ns: u64) {
        if n == 0 {
            return;
        }
        let mut measured = self.lane_measured.lock().expect("planner poisoned");
        measured[bucket_of(n)][lane_slot(lanes)].fold(exec_ns as f64 / n as f64, None);
    }

    /// Fold one completed job into the (bucket, op) history, scoring
    /// the EWMA's prediction against the measurement on the way in.
    pub fn record(&self, n: usize, op: OpKind, alg: Algorithm, exec_ns: u64) {
        if n == 0 {
            return;
        }
        let mut measured = self.measured.lock().expect("planner poisoned");
        let e = &mut measured[bucket_of(n)][op.index()][alg_index(alg)];
        e.fold(exec_ns as f64 / n as f64, Some(&self.mispredict));
    }

    /// Choose how to bring an `n`-vertex sharded decomposition
    /// (`shards` shards of `shard_size`, `fragments` contracted rows)
    /// up to date after a mutation batch dirtied `dirty` shards: patch
    /// the dirty shards in place, or rebuild from scratch.
    ///
    /// Same pick rule as [`Self::choose`], over the size bucket's
    /// per-unit history: the cost model
    /// ([`rankmodel::predict::predict_patch`]) names the prior; once
    /// both strategies are measured the cheaper predicted time wins
    /// (rebuild on a tie); with one unmeasured, the other is probed on
    /// the `PROBE_EVERY` cadence so history covers both sides of the
    /// crossover. A fully-dirty batch always rebuilds.
    pub fn choose_maintenance(
        &self,
        n: usize,
        shard_size: usize,
        fragments: usize,
        dirty: usize,
    ) -> MutateDecision {
        let shards = n.div_ceil(shard_size.max(1)).max(1);
        let dirty = dirty.min(shards);
        let b = bucket_of(n);
        let lanes = self.lanes_override.unwrap_or_else(|| default_lanes(shard_size.min(n)));
        let patch = dirty < shards && predict_patch(n, shard_size, fragments, dirty, self.p, lanes);
        let prior = if patch { MAINT_INCREMENTAL } else { MAINT_REBUILD };
        let row = self.maint_measured.lock().expect("planner poisoned")[b];
        let count: u64 = self.maint_dispatched.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        // A fully-dirty batch has nothing clean to reuse: patching is a
        // rebuild with extra bookkeeping, so rebuild is the only arm.
        let arms = if dirty < shards { &row[..] } else { &row[..=MAINT_REBUILD] };
        let units = |k: usize| maint_units(n, shard_size, fragments, dirty, k) as f64;
        let (kind, predicted_ns) =
            contest(arms, prior, probe_tick(count), |k| row[k].ns_per_elem * units(k));
        let incremental = kind == MAINT_INCREMENTAL;
        self.maint_dispatched[kind].fetch_add(1, Ordering::Relaxed);
        if crate::telemetry::log::enabled(Level::Debug) {
            crate::telemetry::log::write(
                Level::Debug,
                "planner",
                &format!(
                    "maintenance n={n} shard_size={shard_size} dirty={dirty}/{shards} \
                     fragments={fragments} -> {} predicted_ns={predicted_ns:.0}",
                    if incremental { "incremental" } else { "rebuild" }
                ),
            );
        }
        MutateDecision { incremental, dirty, shards, predicted_ns }
    }

    /// Fold one completed maintenance pass into the (bucket, strategy)
    /// history, scoring the EWMA's prediction against the measurement
    /// on the way in (same rule as [`Self::record`], into the separate
    /// maintenance mispredict histogram).
    pub fn record_maintenance(
        &self,
        n: usize,
        shard_size: usize,
        fragments: usize,
        dirty: usize,
        incremental: bool,
        exec_ns: u64,
    ) {
        if n == 0 {
            return;
        }
        let kind = if incremental { MAINT_INCREMENTAL } else { MAINT_REBUILD };
        let per_unit = exec_ns as f64 / maint_units(n, shard_size, fragments, dirty, kind) as f64;
        let mut measured = self.maint_measured.lock().expect("planner poisoned");
        measured[bucket_of(n)][kind].fold(per_unit, Some(&self.maint_mispredict));
    }

    /// Maintenance dispatch counts: `(incremental, rebuild)`.
    pub fn maintenance_dispatches(&self) -> (u64, u64) {
        (
            self.maint_dispatched[MAINT_INCREMENTAL].load(Ordering::Relaxed),
            self.maint_dispatched[MAINT_REBUILD].load(Ordering::Relaxed),
        )
    }

    /// Snapshot of the maintenance mispredict-ratio histogram (same
    /// scale as [`Self::mispredict_histogram`]).
    pub fn maint_mispredict_histogram(&self) -> Histogram {
        self.maint_mispredict.snapshot()
    }

    /// Dispatch counts per algorithm, summed over all size buckets
    /// (order matches [`Algorithm::ALL`]).
    pub fn dispatch_totals(&self) -> [u64; ALGS] {
        let mut totals = [0u64; ALGS];
        for row in &self.dispatched {
            for (t, c) in totals.iter_mut().zip(row) {
                *t += c.load(Ordering::Relaxed);
            }
        }
        totals
    }

    /// Non-empty rows of the (size-bucket × algorithm) dispatch matrix:
    /// `(upper size bound of bucket, per-algorithm counts)`.
    pub fn dispatch_by_bucket(&self) -> Vec<(usize, [u64; ALGS])> {
        let mut rows = Vec::new();
        for (b, row) in self.dispatched.iter().enumerate() {
            let counts: [u64; ALGS] = std::array::from_fn(|i| row[i].load(Ordering::Relaxed));
            if counts.iter().any(|&c| c > 0) {
                let hi = if b >= usize::BITS as usize { usize::MAX } else { 1usize << b };
                rows.push((hi, counts));
            }
        }
        rows
    }

    /// The up-to-`k` most recent dispatch decisions, oldest first.
    pub fn recent_decisions(&self, k: usize) -> Vec<PlanDecision> {
        self.decisions.recent(k)
    }

    /// Snapshot of the mispredict-ratio histogram (values are
    /// `measured/predicted ×` [`MISPREDICT_SCALE`]; only completions
    /// whose bucket already held a prediction are scored).
    pub fn mispredict_histogram(&self) -> Histogram {
        self.mispredict.snapshot()
    }

    /// Non-empty rows of the (op kind × algorithm) dispatch matrix.
    pub fn dispatch_by_op(&self) -> Vec<(OpKind, [u64; ALGS])> {
        let mut rows = Vec::new();
        for (k, row) in self.dispatched_by_op.iter().enumerate() {
            let counts: [u64; ALGS] = std::array::from_fn(|i| row[i].load(Ordering::Relaxed));
            if counts.iter().any(|&c| c > 0) {
                rows.push((OpKind::ALL[k], counts));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default dimension most tests dispatch under.
    const RANK: OpKind = OpKind::Rank;
    const RB: usize = 8;

    fn choose1(planner: &Planner, n: usize, pinned: Option<Algorithm>) -> Plan {
        planner.choose(n, RANK, RB, pinned)
    }

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
    }

    #[test]
    fn prior_dispatches_by_size() {
        let planner = Planner::new(4);
        assert_eq!(choose1(&planner, 100, None).algorithm, Algorithm::Serial);
        let big = choose1(&planner, 2_000_000, None);
        assert_eq!(big.algorithm, Algorithm::ReidMiller);
        // Tuned m is within the host over-decomposition bounds.
        let m = big.m.expect("reid-miller gets a tuned m");
        assert!((2..=500_000).contains(&m), "m = {m}");
    }

    #[test]
    fn measurements_override_prior() {
        let planner = Planner::new(4);
        let n = 1 << 20;
        // Feed history claiming serial is far cheaper in this bucket.
        for _ in 0..8 {
            planner.record(n, RANK, Algorithm::Serial, 1_000);
            planner.record(n, RANK, Algorithm::ReidMiller, 1_000_000_000);
        }
        assert_eq!(choose1(&planner, n, None).algorithm, Algorithm::Serial);
    }

    #[test]
    fn history_is_keyed_per_op_kind() {
        // Rank history claiming Serial wins must not leak into the
        // affine dimension of the same bucket: affine still follows its
        // own (parallel) prior, and once affine history lands it drives
        // affine dispatch independently.
        let planner = Planner::new(4);
        let n = 1 << 21;
        for _ in 0..8 {
            planner.record(n, OpKind::Rank, Algorithm::Serial, 1_000);
            planner.record(n, OpKind::Rank, Algorithm::ReidMiller, 1_000_000_000);
        }
        assert_eq!(planner.choose(n, OpKind::Rank, 8, None).algorithm, Algorithm::Serial);
        assert_eq!(
            planner.choose(n, OpKind::Affine, 16, None).algorithm,
            Algorithm::ReidMiller,
            "affine dimension starts from its own prior"
        );
        for _ in 0..8 {
            planner.record(n, OpKind::Affine, Algorithm::Serial, 2_000_000_000);
            planner.record(n, OpKind::Affine, Algorithm::ReidMiller, 1_000);
        }
        assert_eq!(planner.choose(n, OpKind::Affine, 16, None).algorithm, Algorithm::ReidMiller);
        assert_eq!(
            planner.choose(n, OpKind::Rank, 8, None).algorithm,
            Algorithm::Serial,
            "rank dimension unchanged by affine history"
        );
    }

    #[test]
    fn pinned_sample_does_not_poison_bucket() {
        // One pinned ReidMiller job leaves an RM-only measurement in a
        // bucket; unpinned dispatch must still follow the prior
        // (Serial on a 1-thread engine) rather than the stray sample.
        let planner = Planner::new(1);
        let n = 1 << 14;
        planner.record(n, RANK, Algorithm::ReidMiller, 1_000);
        for _ in 0..8 {
            assert_eq!(choose1(&planner, n, None).algorithm, Algorithm::Serial);
        }
    }

    #[test]
    fn ewma_history_overrides_prior_in_both_directions() {
        // The converse of `measurements_override_prior`: a bucket whose
        // prior is Serial (tiny jobs) must flip to Reid-Miller once
        // measured history says Reid-Miller is cheaper there.
        let planner = Planner::new(4);
        let n = 100;
        assert_eq!(choose1(&planner, n, None).algorithm, Algorithm::Serial, "prior");
        for _ in 0..8 {
            planner.record(n, RANK, Algorithm::Serial, 1_000_000);
            planner.record(n, RANK, Algorithm::ReidMiller, 1_000);
        }
        assert_eq!(choose1(&planner, n, None).algorithm, Algorithm::ReidMiller);
    }

    #[test]
    fn ewma_converges_past_a_first_sample_outlier() {
        // The first sample seeds the EWMA outright; sustained later
        // samples must pull it to the true level (α = 0.25 closes an
        // initial 100× gap well within 20 observations).
        let planner = Planner::new(4);
        let n = 1 << 20;
        planner.record(n, RANK, Algorithm::Serial, 100_000_000); // outlier: 100ns/elem
        for _ in 0..20 {
            planner.record(n, RANK, Algorithm::Serial, 1_000_000); // steady: 1ns/elem
        }
        planner.record(n, RANK, Algorithm::ReidMiller, 10_000_000); // 10ns/elem
        assert_eq!(
            choose1(&planner, n, None).algorithm,
            Algorithm::Serial,
            "EWMA must have converged below Reid-Miller's 10ns/elem"
        );
    }

    #[test]
    fn probing_still_exercises_the_unmeasured_contender() {
        // Prior (Reid-Miller at this size / parallelism) measured, the
        // contender not: every PROBE_EVERY-th dispatch in the bucket
        // must go to the unmeasured algorithm so history covers both.
        let planner = Planner::new(4);
        let n = 2_000_000;
        assert_eq!(choose1(&planner, n, None).algorithm, Algorithm::ReidMiller);
        planner.record(n, RANK, Algorithm::ReidMiller, 1_000);
        let picks: Vec<Algorithm> =
            (0..2 * PROBE_EVERY).map(|_| choose1(&planner, n, None).algorithm).collect();
        let serial = picks.iter().filter(|&&a| a == Algorithm::Serial).count();
        assert!(serial >= 1, "no probe of the unmeasured contender in {picks:?}");
        assert!(
            serial <= 2 * (PROBE_EVERY as usize).div_ceil(8),
            "probing should be rare: {serial} of {} dispatches",
            picks.len()
        );
    }

    #[test]
    fn bucket_boundaries_dispatch_stably() {
        // 2^k - 1 and 2^k sit in different buckets; history recorded in
        // one must not leak into the other, and every n inside one
        // bucket sees the same decision.
        assert_ne!(bucket_of((1 << 14) - 1), bucket_of(1 << 14));
        assert_eq!(bucket_of(1 << 14), bucket_of((1 << 15) - 1));
        let planner = Planner::new(4);
        for _ in 0..8 {
            planner.record(1 << 14, RANK, Algorithm::Serial, 1_000_000_000);
            planner.record(1 << 14, RANK, Algorithm::ReidMiller, 1_000);
        }
        assert_eq!(choose1(&planner, 1 << 14, None).algorithm, Algorithm::ReidMiller);
        assert_eq!(choose1(&planner, (1 << 15) - 1, None).algorithm, Algorithm::ReidMiller);
        // The bucket below holds no history: prior (Serial at 4 threads
        // for 2^14 - 1 vertices? the model decides — but stably).
        let below = choose1(&planner, (1 << 14) - 1, None).algorithm;
        for _ in 0..4 {
            assert_eq!(choose1(&planner, (1 << 14) - 1, None).algorithm, below);
        }
    }

    #[test]
    fn sharded_decision_is_budget_aware() {
        let planner = Planner::new(4);
        let budget = 1 << 20;
        // Fits: monolithic, and not counted as a sharded dispatch.
        match planner.choose_sharded(budget, budget, RANK, RB, None) {
            ShardDecision::Monolithic(_) => {}
            other => panic!("expected monolithic fallback, got {other:?}"),
        }
        // Above budget: sharded, balanced, within budget.
        match planner.choose_sharded(10 * budget + 17, budget, RANK, RB, None) {
            ShardDecision::Sharded { shard_size, shards, lanes } => {
                assert!(shard_size <= budget);
                assert_eq!(shards, (10 * budget + 17usize).div_ceil(shard_size));
                assert!(lanes >= 1);
            }
            other => panic!("expected sharded dispatch, got {other:?}"),
        }
        // Pinning forces the monolithic path even above budget.
        match planner.choose_sharded(10 * budget, budget, RANK, RB, Some(Algorithm::Wyllie)) {
            ShardDecision::Monolithic(plan) => assert_eq!(plan.algorithm, Algorithm::Wyllie),
            other => panic!("pinned must be monolithic, got {other:?}"),
        }
    }

    #[test]
    fn tuned_m_scales_with_lanes() {
        // The m/lanes contract: with K lanes each worker wants ≥ K live
        // sublists, so the task floor is p·8·K and the planner's chosen
        // m must clear it (until the n/4 cap binds).
        let planner = Planner::new(4);
        let n = 1 << 22;
        let plan = choose1(&planner, n, None);
        assert_eq!(plan.algorithm, Algorithm::ReidMiller);
        let m = plan.m.expect("reid-miller gets a tuned m");
        assert!(m >= 4 * 8 * plan.lanes, "m = {m} below the 8·K floor for lanes = {}", plan.lanes);
        assert!(m <= n / 4);
        // Pinning a taller lane count raises the floor accordingly.
        let tall = Planner::new(4).with_lanes_override(Some(16));
        let plan = tall.choose(n, RANK, RB, None);
        assert_eq!(plan.lanes, 16);
        assert!(plan.m.expect("tuned m") >= 4 * 8 * 16);
    }

    #[test]
    fn lane_override_pins_every_bucket() {
        let planner = Planner::new(2).with_lanes_override(Some(4));
        for n in [100usize, 1 << 18, 1 << 24] {
            let plan = planner.choose(n, RANK, RB, None);
            if plan.algorithm == Algorithm::ReidMiller {
                assert_eq!(plan.lanes, 4);
            }
        }
        match planner.choose_sharded(1 << 24, 1 << 20, RANK, RB, None) {
            ShardDecision::Sharded { lanes, .. } => assert_eq!(lanes, 4),
            other => panic!("expected sharded dispatch, got {other:?}"),
        }
    }

    #[test]
    fn lane_history_overrides_prior_and_probes_the_ladder() {
        let planner = Planner::new(4);
        let n = 1 << 22;
        // Cold start: the model's prior (default lanes above the
        // cache-resident threshold).
        assert_eq!(choose1(&planner, n, None).lanes, rankmodel::predict::default_lanes(n), "prior");
        // Feed history claiming 2 lanes beat the default in this
        // bucket: the tuner must follow the measurement.
        for _ in 0..8 {
            planner.record_lanes(n, 2, 1_000_000);
            planner.record_lanes(n, rankmodel::predict::default_lanes(n), 64_000_000);
        }
        let picks: Vec<usize> =
            (0..2 * PROBE_EVERY).map(|_| choose1(&planner, n, None).lanes).collect();
        assert!(
            picks.iter().filter(|&&k| k == 2).count() >= picks.len() / 2,
            "measured best must dominate: {picks:?}"
        );
        // The unmeasured rungs (1, 4, 16) still get probed.
        assert!(
            picks.iter().any(|&k| k != 2 && k != rankmodel::predict::default_lanes(n)),
            "no probe of unmeasured lane candidates in {picks:?}"
        );
    }

    #[test]
    fn single_thread_prior_uses_lanes_for_big_jobs() {
        // p = 1 is no longer auto-Serial: above the cache-resident
        // threshold the lane-discounted model sends big jobs to
        // Reid-Miller even on one thread (and small jobs stay Serial).
        let planner = Planner::new(1);
        assert_eq!(choose1(&planner, 10_000, None).algorithm, Algorithm::Serial);
        let plan = choose1(&planner, 1 << 23, None);
        assert_eq!(plan.algorithm, Algorithm::ReidMiller);
        assert!(plan.lanes >= 2, "latency hiding needs lanes: {plan:?}");
    }

    #[test]
    fn pinned_overrides_everything() {
        let planner = Planner::new(4);
        assert_eq!(choose1(&planner, 100, Some(Algorithm::Wyllie)).algorithm, Algorithm::Wyllie);
        let totals = planner.dispatch_totals();
        assert_eq!(totals[alg_index(Algorithm::Wyllie)], 1);
    }

    #[test]
    fn mispredict_histogram_scores_predictions() {
        let planner = Planner::new(4);
        let n = 1 << 20;
        // First sample seeds the EWMA — nothing to score yet.
        planner.record(n, RANK, Algorithm::Serial, n as u64); // 1 ns/elem
        assert!(planner.mispredict_histogram().is_empty());
        // Second sample runs 2× the prediction: ratio ≈ 2 × SCALE.
        planner.record(n, RANK, Algorithm::Serial, 2 * n as u64);
        let h = planner.mispredict_histogram();
        assert_eq!(h.count(), 1);
        let (lo, hi) = h.percentile_bounds(50.0);
        assert!(
            lo <= 2 * MISPREDICT_SCALE && 2 * MISPREDICT_SCALE <= hi,
            "2× mispredict outside [{lo}, {hi}]"
        );
    }

    #[test]
    fn decision_log_records_dispatches() {
        let planner = Planner::new(4);
        planner.choose(100, OpKind::Rank, 8, None);
        planner.choose(2_000_000, OpKind::Add, 8, None);
        let ds = planner.recent_decisions(8);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0].n, 100);
        assert_eq!(ds[0].op, OpKind::Rank);
        assert!(!ds[0].pinned);
        assert_eq!(ds[1].op, OpKind::Add);
        // A measured bucket reports its prediction with the decision.
        planner.record(100, OpKind::Rank, ds[0].algorithm, 1_000);
        planner.choose(100, OpKind::Rank, 8, None);
        let last = planner.recent_decisions(1);
        assert!(last[0].predicted_ns_per_elem > 0.0);
        // Sharded dispatches log their shard count.
        planner.choose_sharded(1 << 24, 1 << 20, OpKind::Rank, 8, None);
        let last = planner.recent_decisions(1);
        assert!(last[0].shards > 1, "sharded decision logged: {:?}", last[0]);
        // ...and no prediction, even where the bucket's monolithic
        // Serial EWMA holds one: sharded runs never feed it.
        planner.record(1 << 24, OpKind::Rank, Algorithm::Serial, 1 << 24);
        planner.choose_sharded(1 << 24, 1 << 20, OpKind::Rank, 8, None);
        let last = planner.recent_decisions(1);
        assert_eq!(last[0].predicted_ns_per_elem, 0.0, "sharded decision predicted: {:?}", last[0]);
    }

    /// The paper-scale dynamic case the rankmodel prior is pinned on:
    /// 2^22 vertices, 64 shards of 2^16, blocked-topology fragments.
    const MAINT_N: usize = 1 << 22;
    const MAINT_SHARD: usize = 1 << 16;
    const MAINT_FRAGS: usize = MAINT_N / 4096;

    #[test]
    fn maintenance_prior_pins_both_crossover_sides() {
        let planner = Planner::new(8);
        let shards = MAINT_N / MAINT_SHARD;
        // ≤ 5% dirty: patch in place.
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, shards / 20);
        assert!(d.incremental, "low dirty fraction must go incremental: {d:?}");
        assert_eq!((d.dirty, d.shards), (shards / 20, shards));
        assert_eq!(d.predicted_ns, 0.0, "cold bucket has no EWMA prediction");
        // Most shards dirty: fall back to a from-scratch build.
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, (9 * shards) / 10);
        assert!(!d.incremental, "high dirty fraction must rebuild: {d:?}");
        // Fully dirty short-circuits (nothing clean to reuse).
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, shards);
        assert!(!d.incremental);
        // Fragment-heavy topologies pay the serial re-assembly: rebuild
        // even at one dirty shard.
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_N, 1);
        assert!(!d.incremental, "fragment-heavy must rebuild: {d:?}");
        let (incr, reb) = planner.maintenance_dispatches();
        assert_eq!((incr, reb), (1, 3));
    }

    #[test]
    fn maintenance_history_overrides_prior_in_both_directions() {
        let shards = MAINT_N / MAINT_SHARD;
        // Measured history claiming patching is ruinously slow must
        // flip a prior-incremental bucket to rebuild...
        let planner = Planner::new(8);
        for _ in 0..8 {
            planner.record_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, 3, true, u64::MAX >> 20);
            planner.record_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, shards, false, 1_000);
        }
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, 3);
        assert!(!d.incremental, "measured-slow patching must fall back: {d:?}");
        assert!(d.predicted_ns > 0.0, "measured bucket reports its prediction");
        // ...and cheap measured patching must rescue a prior-rebuild
        // dirty fraction.
        let planner = Planner::new(8);
        for _ in 0..8 {
            planner.record_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, 57, true, 1_000);
            planner.record_maintenance(
                MAINT_N,
                MAINT_SHARD,
                MAINT_FRAGS,
                shards,
                false,
                u64::MAX >> 20,
            );
        }
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, (9 * shards) / 10);
        assert!(d.incremental, "measured-cheap patching must win: {d:?}");
        // But never on a fully-dirty batch, whatever the history says.
        let d = planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, shards);
        assert!(!d.incremental, "fully dirty is a rebuild by construction");
    }

    #[test]
    fn maintenance_probes_the_unmeasured_strategy() {
        let planner = Planner::new(8);
        // Only the prior side (incremental at 3/64 dirty) measured:
        // the probe cadence must still exercise rebuild.
        planner.record_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, 3, true, 1_000);
        let picks: Vec<bool> = (0..2 * PROBE_EVERY)
            .map(|_| planner.choose_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, 3).incremental)
            .collect();
        let rebuilds = picks.iter().filter(|&&i| !i).count();
        assert!(rebuilds >= 1, "no probe of the unmeasured rebuild in {picks:?}");
        assert!(rebuilds <= 4, "probing should be rare: {rebuilds} of {}", picks.len());
    }

    #[test]
    fn maintenance_mispredict_histogram_scores_predictions() {
        let planner = Planner::new(8);
        // First sample seeds the EWMA — nothing to score yet.
        planner.record_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, 3, true, 1_000_000);
        assert!(planner.maint_mispredict_histogram().is_empty());
        // Second sample runs 2× the prediction: ratio ≈ 2 × SCALE.
        planner.record_maintenance(MAINT_N, MAINT_SHARD, MAINT_FRAGS, 3, true, 2_000_000);
        let h = planner.maint_mispredict_histogram();
        assert_eq!(h.count(), 1);
        let (lo, hi) = h.percentile_bounds(50.0);
        assert!(
            lo <= 2 * MISPREDICT_SCALE && 2 * MISPREDICT_SCALE <= hi,
            "2× mispredict outside [{lo}, {hi}]"
        );
        // The query-plane histogram is untouched.
        assert!(planner.mispredict_histogram().is_empty());
    }

    #[test]
    fn op_dispatch_matrix_tracks_kinds() {
        let planner = Planner::new(4);
        planner.choose(100, OpKind::Rank, 8, None);
        planner.choose(100, OpKind::Max, 8, None);
        planner.choose(100, OpKind::Max, 8, None);
        let rows = planner.dispatch_by_op();
        let get = |k: OpKind| {
            rows.iter().find(|(op, _)| *op == k).map(|(_, c)| c.iter().sum::<u64>()).unwrap_or(0)
        };
        assert_eq!(get(OpKind::Rank), 1);
        assert_eq!(get(OpKind::Max), 2);
        assert_eq!(get(OpKind::Xor), 0);
    }

    /// `PROBE_EVERY` consecutive picks: exactly one of them lands on
    /// the decision's probe tick (index [`ALG_TICK`], [`MAINT_TICK`] or
    /// [`LANE_TICK`] on a fresh planner).
    fn cadence<T>(mut pick: impl FnMut() -> T) -> Vec<T> {
        (0..PROBE_EVERY).map(|_| pick()).collect()
    }

    /// `PROBE_EVERY` copies of `base` with `tick` at `at`.
    fn expect_cadence<T: Copy>(base: T, at: usize, tick: T) -> Vec<T> {
        let mut v = vec![base; PROBE_EVERY as usize];
        v[at] = tick;
        v
    }

    /// The algorithm and maintenance contests count dispatches before
    /// this one; the lane contest counts Reid-Miller dispatches
    /// including this one.
    const ALG_TICK: usize = PROBE_EVERY as usize - 1;
    const MAINT_TICK: usize = PROBE_EVERY as usize - 1;
    const LANE_TICK: usize = PROBE_EVERY as usize - 2;

    #[test]
    fn contest_decision_table() {
        use Algorithm::{ReidMiller as Rm, Serial};
        // Algorithm contest, arms [Serial, Reid-Miller]. At p = 4 the
        // prior is Serial for 100 vertices and Reid-Miller for 2M.
        let alg = |p: &Planner, n: usize| choose1(p, n, None).algorithm;
        let per_elem = |p: &Planner, n: usize, a: Algorithm, ns: f64| {
            p.record(n, RANK, a, (ns * n as f64) as u64)
        };
        // No arm measured: the prior, tick or not.
        let p = Planner::new(4);
        assert_eq!(cadence(|| alg(&p, 100)), vec![Serial; 16]);
        let p = Planner::new(4);
        assert_eq!(cadence(|| alg(&p, 2_000_000)), vec![Rm; 16]);
        assert_eq!(p.recent_decisions(1)[0].predicted_ns_per_elem, 0.0);
        // Prior unmeasured, the other measured: the prior, tick or not.
        let p = Planner::new(4);
        per_elem(&p, 100, Rm, 1.0);
        assert_eq!(cadence(|| alg(&p, 100)), vec![Serial; 16]);
        let p = Planner::new(4);
        per_elem(&p, 2_000_000, Serial, 1.0);
        assert_eq!(cadence(|| alg(&p, 2_000_000)), vec![Rm; 16]);
        // Prior measured, the other unmeasured: the prior off the tick,
        // the unmeasured arm on it.
        let p = Planner::new(4);
        per_elem(&p, 100, Serial, 3.0);
        assert_eq!(cadence(|| alg(&p, 100)), expect_cadence(Serial, ALG_TICK, Rm));
        let p = Planner::new(4);
        per_elem(&p, 2_000_000, Rm, 3.0);
        assert_eq!(cadence(|| alg(&p, 2_000_000)), expect_cadence(Rm, ALG_TICK, Serial));
        assert_eq!(p.recent_decisions(1)[0].predicted_ns_per_elem, 0.0, "probe is unmeasured");
        assert_eq!(alg(&p, 2_000_000), Rm);
        assert_eq!(p.recent_decisions(1)[0].predicted_ns_per_elem, 3.0);
        // Every arm measured: the cheapest, with no probe on the tick.
        let p = Planner::new(4);
        per_elem(&p, 100, Serial, 2.0);
        per_elem(&p, 100, Rm, 1.0);
        assert_eq!(cadence(|| alg(&p, 100)), vec![Rm; 16]);
        assert_eq!(p.recent_decisions(1)[0].predicted_ns_per_elem, 1.0);
        let p = Planner::new(4);
        per_elem(&p, 2_000_000, Serial, 1.0);
        per_elem(&p, 2_000_000, Rm, 2.0);
        assert_eq!(cadence(|| alg(&p, 2_000_000)), vec![Serial; 16]);
        // Equal EWMAs: Serial, whichever arm the prior is.
        for n in [100, 2_000_000] {
            let p = Planner::new(4);
            per_elem(&p, n, Serial, 2.0);
            per_elem(&p, n, Rm, 2.0);
            assert_eq!(cadence(|| alg(&p, n)), vec![Serial; 16], "n = {n}");
        }

        // Maintenance contest, arms [rebuild, incremental]. At p = 8
        // the prior patches 3 of 64 dirty shards and rebuilds 57.
        let (n, shard, frags) = (MAINT_N, MAINT_SHARD, MAINT_FRAGS);
        let shards = n / shard;
        let units = |dirty: usize, incremental: bool| {
            let kind = if incremental { MAINT_INCREMENTAL } else { MAINT_REBUILD };
            maint_units(n, shard, frags, dirty, kind)
        };
        let incr =
            |p: &Planner, dirty: usize| p.choose_maintenance(n, shard, frags, dirty).incremental;
        // `ns` per work unit of the given strategy at `dirty`.
        let per_unit = |p: &Planner, dirty: usize, incremental: bool, ns: u64| {
            p.record_maintenance(
                n,
                shard,
                frags,
                dirty,
                incremental,
                ns * units(dirty, incremental),
            )
        };
        // No arm measured: the prior.
        let p = Planner::new(8);
        assert_eq!(cadence(|| incr(&p, 3)), vec![true; 16]);
        assert_eq!(cadence(|| incr(&p, 57)), vec![false; 16]);
        // Prior unmeasured: the prior, tick or not.
        let p = Planner::new(8);
        per_unit(&p, 3, false, 1);
        assert_eq!(cadence(|| incr(&p, 3)), vec![true; 16]);
        let p = Planner::new(8);
        per_unit(&p, 3, true, 1);
        assert_eq!(cadence(|| incr(&p, 57)), vec![false; 16]);
        // Prior measured, the other unmeasured: probe on the tick.
        let p = Planner::new(8);
        per_unit(&p, 3, true, 1);
        assert_eq!(cadence(|| incr(&p, 3)), expect_cadence(true, MAINT_TICK, false));
        let p = Planner::new(8);
        per_unit(&p, 3, false, 1);
        assert_eq!(cadence(|| incr(&p, 57)), expect_cadence(false, MAINT_TICK, true));
        // Every arm measured: the cheaper total, no probe; the
        // prediction is the chosen arm's per-unit EWMA times its units.
        let p = Planner::new(8);
        per_unit(&p, 3, true, 1_000);
        per_unit(&p, 3, false, 1);
        assert_eq!(cadence(|| incr(&p, 3)), vec![false; 16]);
        let d = p.choose_maintenance(n, shard, frags, 3);
        assert_eq!(d.predicted_ns, units(3, false) as f64);
        // Equal predicted totals at 3 dirty shards: rebuild.
        let p = Planner::new(8);
        let (ui, ur) = (units(3, true), units(3, false));
        p.record_maintenance(n, shard, frags, 3, true, ui * ur);
        p.record_maintenance(n, shard, frags, 3, false, ui * ur);
        assert_eq!(cadence(|| incr(&p, 3)), vec![false; 16]);
        // Fully dirty: rebuild, whatever the history says.
        let p = Planner::new(8);
        per_unit(&p, 3, true, 1);
        per_unit(&p, 3, false, 1_000);
        assert_eq!(cadence(|| incr(&p, shards)), vec![false; 16]);

        // Lane contest, arms LANE_CANDIDATES (fewest first); the prior
        // is the model default for the job size.
        let n = 1 << 22;
        let prior = rankmodel::predict::default_lanes(n);
        let lanes = |p: &Planner| choose1(p, n, None).lanes;
        let rung = |p: &Planner, k: usize, ns: u64| p.record_lanes(n, k, ns * n as u64);
        // No rung measured: the prior.
        let p = Planner::new(4);
        assert_eq!(cadence(|| lanes(&p)), vec![prior; 16]);
        // Prior measured, the others unmeasured: the least-sampled rung
        // (the first unmeasured) on the tick.
        let p = Planner::new(4);
        rung(&p, prior, 1);
        assert_eq!(cadence(|| lanes(&p)), expect_cadence(prior, LANE_TICK, 1));
        // Every rung measured: the cheapest, no probe.
        let p = Planner::new(4);
        for k in LANE_CANDIDATES {
            rung(&p, k, if k == 4 { 1 } else { 5 });
        }
        assert_eq!(cadence(|| lanes(&p)), vec![4; 16]);
        // Equal EWMAs: the fewest lanes.
        let p = Planner::new(4);
        for k in LANE_CANDIDATES {
            rung(&p, k, 3);
        }
        assert_eq!(cadence(|| lanes(&p)), vec![1; 16]);
        // Prior unmeasured, another rung measured: the prior, tick or
        // not. Only bucket 17 reaches this state in the engine: its
        // 2^16-vertex jobs default to 1 lane and its larger ones to 8.
        let p = Planner::new(4);
        rung(&p, 2, 1);
        assert_eq!(cadence(|| lanes(&p)), vec![prior; 16]);
        // The model's defaults are rungs of the ladder, so an unmeasured
        // prior runs exactly the lane count the model asked for.
        for n in [1, 1 << 16, (1 << 16) + 1, 1 << 30] {
            assert!(LANE_CANDIDATES.contains(&rankmodel::predict::default_lanes(n)), "n = {n}");
        }
    }
}
