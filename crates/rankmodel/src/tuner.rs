//! Parameter tuning (paper §4.4).
//!
//! "Our approach is to estimate the running time of the algorithm using
//! Eq. (3) for various values of m, S1 and n ... Then, for each value of
//! n we find values of m and S1 that minimize the running time ...
//! Finally, we fit functions to m vs. n and S1 vs. n. It appears that m
//! and S1 are approximately cubic polynomials of log n."
//!
//! [`Tuner::tune`] performs the grid minimization, choosing the Phase-2
//! strategy (serial / Wyllie / recursive) by cost. Recursion is
//! memoized and bounded: a candidate `m` whose recursive Phase-2 tune
//! provably cannot produce a new best is skipped without running it
//! (branch and bound), so the result is the exhaustive grid's, bit for
//! bit, at a fraction of the nested tunes (2 instead of 329 for a
//! 3·2²¹-vertex rank at `p = 2`).
//! [`Tuner::fit_m_curve`] / [`Tuner::fit_s1_curve`] produce the cubic
//! polylog fits an implementation would ship.

use crate::coeffs::ModelCoeffs;
use crate::polyfit;
use crate::predict::{self, Phase2Choice, Prediction};
use std::collections::BTreeMap;

/// Tuning context: machine and minimization options.
#[derive(Clone, Copy, Debug)]
pub struct TunerOptions {
    /// Physical processors.
    pub procs: usize,
    /// Memory-contention factor on per-element costs (1.0 on one CPU).
    pub te_factor: f64,
    /// Schedule construction stops when `g(S) <= stop_g`.
    pub stop_g: f64,
    /// Lists no longer than this run serially outright.
    pub serial_cutoff: usize,
}

impl Default for TunerOptions {
    fn default() -> Self {
        Self { procs: 1, te_factor: 1.0, stop_g: 1.0, serial_cutoff: 128 }
    }
}

impl TunerOptions {
    /// Options for `p` C90 CPUs (Table I contention calibration).
    pub fn c90(p: usize) -> Self {
        Self { procs: p, te_factor: 1.0 + 0.027 * (p as f64 - 1.0), ..Self::default() }
    }
}

/// Tuned parameters for one list length.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TunedParams {
    /// List length.
    pub n: usize,
    /// Optimal split count (`m+1` sublists).
    pub m: usize,
    /// Optimal first load-balance point.
    pub s1: f64,
    /// Resulting Phase-1 balance count.
    pub l: usize,
    /// Phase-2 strategy at the optimum.
    pub phase2: Phase2Choice,
    /// Predicted total cycles.
    pub predicted: f64,
}

/// The minimizer, memoizing recursive Phase-2 tunings.
///
/// The grid search is branch and bound over `m`. Before a candidate
/// whose reduced list of `x = m + 1` vertices could recurse pays for
/// `tune(x)`, its 12 `S1` grid points are priced with Phase 2 free; if
/// the cheapest of them plus a lower bound on Phase 2 (serial, Wyllie,
/// or a recursion that must still traverse every one of the `x`
/// vertices once per phase) exceeds the best total so far, the
/// candidate is skipped. The best is replaced only on a strict `<`, so
/// a skipped candidate could never have been chosen: the argmin, its
/// tie-breaking and every `f64` of the result equal the exhaustive
/// search's.
///
/// ```
/// let mut tuner = rankmodel::Tuner::c90_scan();
/// let p = tuner.tune(1_000_000);
/// assert!(p.m > 100 && p.m < 250_000);          // m ≪ n, m ≫ 1
/// assert!(p.predicted / 1_000_000.0 < 11.0);     // ≈ 8–10 cycles/vertex
/// ```
#[derive(Clone, Debug)]
pub struct Tuner {
    coeffs: ModelCoeffs,
    opts: TunerOptions,
    memo: BTreeMap<usize, TunedParams>,
}

impl Tuner {
    /// A tuner for the given coefficients and options.
    pub fn new(coeffs: ModelCoeffs, opts: TunerOptions) -> Self {
        Self { coeffs, opts, memo: BTreeMap::new() }
    }

    /// Convenience: 1-CPU C90 list scan.
    pub fn c90_scan() -> Self {
        Self::new(ModelCoeffs::c90_scan(), TunerOptions::default())
    }

    /// The options in use.
    pub fn options(&self) -> &TunerOptions {
        &self.opts
    }

    /// The coefficients in use.
    pub fn coeffs(&self) -> &ModelCoeffs {
        &self.coeffs
    }

    /// Best Phase-2 cost for a reduced list of `x` vertices.
    pub fn phase2_cost(&mut self, x: usize) -> (f64, Phase2Choice) {
        let (serial, wyllie) = self.phase2_direct(x);
        let mut best = (serial, Phase2Choice::Serial);
        if wyllie < best.0 {
            best = (wyllie, Phase2Choice::Wyllie);
        }
        if x > RECURSE_ABOVE {
            let rec = self.tune(x).predicted;
            if rec < best.0 {
                best = (rec, Phase2Choice::Recurse);
            }
        }
        best
    }

    /// The serial and Wyllie Phase-2 costs for `x` vertices.
    fn phase2_direct(&self, x: usize) -> (f64, f64) {
        let serial = predict::phase2_serial(&self.coeffs, x);
        let wyllie =
            predict::phase2_wyllie(&self.coeffs, x, self.opts.procs as f64, self.opts.te_factor);
        (serial, wyllie)
    }

    /// A lower bound on [`Self::phase2_cost`]`(x)` that runs no tune.
    ///
    /// Serial and Wyllie are priced exactly. Recursion costs `tune(x)`:
    /// the serial cost at or below the serial cutoff, and otherwise at
    /// least `(a₁ + a₃)·te·x/p + f`. Every grid point's Phase-1 and
    /// Phase-3 traversal is a left Riemann sum of the decreasing `g`
    /// over `[0, s_final]`, so it is at least `∫g = (x/m′)(m′ + ½) ≥ x`
    /// sublist steps for the inner split count `m′`; every other term
    /// of the prediction is non-negative, and the fixed `f` terms are
    /// paid once.
    fn phase2_lower_bound(&self, x: usize) -> f64 {
        let (serial, wyllie) = self.phase2_direct(x);
        let rec = if x <= self.opts.serial_cutoff.max(4) {
            serial
        } else {
            self.coeffs.combined_a() * self.opts.te_factor * x as f64 / self.opts.procs as f64
                + self.coeffs.combined_f()
        };
        serial.min(wyllie).min(rec)
    }

    /// Minimize predicted time over `(m, S1)` for list length `n`.
    pub fn tune(&mut self, n: usize) -> TunedParams {
        if let Some(&hit) = self.memo.get(&n) {
            return hit;
        }
        let result = self.tune_uncached(n);
        self.memo.insert(n, result);
        result
    }

    /// The prediction at one grid point, Phase 2 priced by the caller.
    fn predict(&self, n: usize, m: usize, s1: f64, phase2: (f64, Phase2Choice)) -> Prediction {
        let o = &self.opts;
        predict::predict_with_phase2(&self.coeffs, n, m, s1, o.procs, o.te_factor, o.stop_g, phase2)
    }

    /// Whether no `S1` at split count `m` can beat `best_total`, judged
    /// without running the recursive tune its Phase 2 may need: the
    /// cheapest grid point with Phase 2 free, plus the Phase-2 lower
    /// bound, still exceeds it. The `1e-9` margin covers the rounding
    /// of the sum, so a skipped candidate could never have won the
    /// strict `<` in [`Self::tune_uncached`].
    fn cannot_beat(&self, n: usize, m: usize, best_total: f64) -> bool {
        let rest_min = s1_grid(n, m)
            .map(|s1| self.predict(n, m, s1, (0.0, Phase2Choice::Serial)).total)
            .fold(f64::INFINITY, f64::min);
        (rest_min + self.phase2_lower_bound(m + 1)) * (1.0 - 1e-9) > best_total
    }

    fn tune_uncached(&mut self, n: usize) -> TunedParams {
        if n <= self.opts.serial_cutoff.max(4) {
            // Tiny lists: the algorithm degenerates; model it as serial.
            let t = predict::phase2_serial(&self.coeffs, n);
            return TunedParams {
                n,
                m: 0,
                s1: 0.0,
                l: 0,
                phase2: Phase2Choice::Serial,
                predicted: t,
            };
        }
        let mut best: Option<(Prediction, f64)> = None;
        for m in m_candidates(n) {
            // Branch and bound: skip the recursive Phase-2 tune of a
            // candidate that provably loses to the best so far.
            if m + 1 > RECURSE_ABOVE
                && best.as_ref().is_some_and(|(b, _)| self.cannot_beat(n, m, b.total))
            {
                continue;
            }
            let p2 = self.phase2_cost(m + 1);
            for s1 in s1_grid(n, m) {
                let pred = self.predict(n, m, s1, p2);
                if best.as_ref().is_none_or(|(b, _)| pred.total < b.total) {
                    best = Some((pred, s1));
                }
            }
        }
        let (pred, s1) = best.expect("non-empty candidate grid");
        TunedParams {
            n,
            m: pred.m,
            s1,
            l: pred.l1,
            phase2: pred.phase2_choice,
            predicted: pred.total,
        }
    }

    /// Tune a range of lengths and fit `m(n)` as a cubic in `ln n`
    /// (coefficients lowest-order first).
    pub fn fit_m_curve(&mut self, ns: &[usize]) -> Vec<f64> {
        let xs: Vec<f64> = ns.iter().map(|&n| (n as f64).ln()).collect();
        let ys: Vec<f64> = ns.iter().map(|&n| self.tune(n).m as f64).collect();
        polyfit::polyfit(&xs, &ys, 3)
    }

    /// Fit `S1(n)` as a cubic in `ln n`.
    pub fn fit_s1_curve(&mut self, ns: &[usize]) -> Vec<f64> {
        let xs: Vec<f64> = ns.iter().map(|&n| (n as f64).ln()).collect();
        let ys: Vec<f64> = ns.iter().map(|&n| self.tune(n).s1).collect();
        polyfit::polyfit(&xs, &ys, 3)
    }

    /// Evaluate a fitted polylog curve at `n`, clamped to sane bounds.
    pub fn eval_curve(curve: &[f64], n: usize) -> f64 {
        polyfit::polyval(curve, (n as f64).ln()).max(1.0)
    }
}

/// Log-spaced `m` candidates between a small floor and `n/4`.
fn m_candidates(n: usize) -> Vec<usize> {
    let lo = 4.0f64;
    let hi = (n as f64 / 4.0).max(lo + 1.0);
    let steps = 28;
    let mut out: Vec<usize> = (0..=steps)
        .map(|i| {
            let t = i as f64 / steps as f64;
            (lo * (hi / lo).powf(t)).round() as usize
        })
        .collect();
    out.dedup();
    out
}

/// The `S1` candidates at split count `m`: [`S1_FRACTIONS`] of the mean
/// sublist length `n/m`, at least 1.
fn s1_grid(n: usize, m: usize) -> impl Iterator<Item = f64> {
    let mean = n as f64 / m as f64;
    S1_FRACTIONS.into_iter().map(move |frac| (frac * mean).max(1.0))
}

/// Reduced lists longer than this may recurse in Phase 2; shorter ones
/// cannot amortize the algorithm's fixed overheads.
const RECURSE_ABOVE: usize = 4096;

/// `S1` candidates as fractions of the mean sublist length `n/m`.
const S1_FRACTIONS: [f64; 12] = [0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8, 1.0, 1.2, 1.5];

#[cfg(test)]
mod tests {
    use super::*;

    /// The tuner without branch and bound: every candidate's Phase 2 is
    /// priced, recursing exhaustively, with its own memo. The reference
    /// the bounded [`Tuner::tune`] must match bit for bit.
    fn tune_exhaustive(
        t: &Tuner,
        n: usize,
        memo: &mut BTreeMap<usize, TunedParams>,
    ) -> TunedParams {
        if let Some(&hit) = memo.get(&n) {
            return hit;
        }
        let result = if n <= t.opts.serial_cutoff.max(4) {
            let t = predict::phase2_serial(&t.coeffs, n);
            TunedParams { n, m: 0, s1: 0.0, l: 0, phase2: Phase2Choice::Serial, predicted: t }
        } else {
            let mut best: Option<(Prediction, f64)> = None;
            for m in m_candidates(n) {
                let x = m + 1;
                let serial = predict::phase2_serial(&t.coeffs, x);
                let wyllie =
                    predict::phase2_wyllie(&t.coeffs, x, t.opts.procs as f64, t.opts.te_factor);
                let mut p2 = (serial, Phase2Choice::Serial);
                if wyllie < p2.0 {
                    p2 = (wyllie, Phase2Choice::Wyllie);
                }
                if x > 4096 {
                    let rec = tune_exhaustive(t, x, memo).predicted;
                    if rec < p2.0 {
                        p2 = (rec, Phase2Choice::Recurse);
                    }
                }
                let mean = n as f64 / m as f64;
                for frac in S1_FRACTIONS {
                    let s1 = (frac * mean).max(1.0);
                    let pred = predict::predict_with_phase2(
                        &t.coeffs,
                        n,
                        m,
                        s1,
                        t.opts.procs,
                        t.opts.te_factor,
                        t.opts.stop_g,
                        p2,
                    );
                    if best.as_ref().is_none_or(|(b, _)| pred.total < b.total) {
                        best = Some((pred, s1));
                    }
                }
            }
            let (pred, s1) = best.expect("non-empty candidate grid");
            TunedParams {
                n,
                m: pred.m,
                s1,
                l: pred.l1,
                phase2: pred.phase2_choice,
                predicted: pred.total,
            }
        };
        memo.insert(n, result);
        result
    }

    /// Assert the bounded tuner equals the exhaustive reference, `f64`s
    /// compared bit for bit, at each size-bucket representative
    /// `3 << (b − 2)` for `b` in `buckets`.
    fn assert_parity(
        coeffs: ModelCoeffs,
        opts: TunerOptions,
        buckets: std::ops::RangeInclusive<u32>,
    ) {
        let mut bounded = Tuner::new(coeffs, opts);
        let reference = Tuner::new(coeffs, opts);
        let mut memo = BTreeMap::new();
        for b in buckets {
            let n = 3usize << (b - 2);
            let got = bounded.tune(n);
            let want = tune_exhaustive(&reference, n, &mut memo);
            assert_eq!(got, want, "n={n} {opts:?}");
            assert_eq!(got.predicted.to_bits(), want.predicted.to_bits(), "n={n} {opts:?}");
            assert_eq!(got.s1.to_bits(), want.s1.to_bits(), "n={n} {opts:?}");
        }
    }

    #[test]
    fn bounded_tune_matches_exhaustive_search() {
        for coeffs in [ModelCoeffs::c90_rank(), ModelCoeffs::c90_scan()] {
            for p in [1, 2] {
                assert_parity(coeffs, TunerOptions::c90(p), 2..=17);
            }
        }
        // The smallest bucket whose optimum recurses in Phase 2 (rank,
        // p = 2), where a bound that overshoots the recursive cost would
        // prune the winner.
        let opts = TunerOptions::c90(2);
        let p = Tuner::new(ModelCoeffs::c90_rank(), opts).tune(3 << 19);
        assert_eq!(p.phase2, Phase2Choice::Recurse);
        assert_parity(ModelCoeffs::c90_rank(), opts, 21..=21);
    }

    #[test]
    fn bounded_tune_matches_exhaustive_search_above_a_raised_serial_cutoff() {
        // Reduced lists of 4097..=8192 vertices recurse into a tune that
        // is the serial cost: the bound's serial-cutoff branch.
        let opts = TunerOptions { serial_cutoff: 8192, ..TunerOptions::c90(2) };
        assert_parity(ModelCoeffs::c90_rank(), opts, 2..=18);
    }

    #[test]
    #[ignore = "full sweep: about 2 minutes unoptimized, 1 in release"]
    fn bounded_tune_matches_exhaustive_search_full_sweep() {
        for coeffs in [ModelCoeffs::c90_rank(), ModelCoeffs::c90_scan()] {
            for p in [1, 2, 3, 4, 8, 16] {
                assert_parity(coeffs, TunerOptions::c90(p), 2..=24);
            }
        }
    }

    #[test]
    fn planner_sized_tune_runs_few_nested_tunes() {
        // The planner's 2^22-bucket tune at 2 threads: the exhaustive
        // search memoizes 329 tunes; the bound prunes all but a few.
        let mut t = Tuner::new(ModelCoeffs::c90_rank(), TunerOptions::c90(2));
        t.tune(3 << 21);
        assert!(t.memo.len() <= 4, "{} tunes memoized", t.memo.len());
    }

    #[test]
    fn tuned_m_grows_with_n() {
        let mut t = Tuner::c90_scan();
        let m4 = t.tune(10_000).m;
        let m6 = t.tune(1_000_000).m;
        assert!(m6 > m4, "m must grow with n: {m4} vs {m6}");
        assert!(m4 > 16, "m(10k) should be well above the floor: {m4}");
    }

    #[test]
    fn tuned_m_is_sublinear() {
        // m < n / log n keeps the algorithm work-efficient.
        let mut t = Tuner::c90_scan();
        for &n in &[10_000usize, 100_000, 1_000_000] {
            let m = t.tune(n).m as f64;
            let bound = n as f64 / (n as f64).log2() * 4.0;
            assert!(m < bound, "n={n}: m={m} too large (bound {bound})");
        }
    }

    #[test]
    fn asymptotic_cost_matches_paper() {
        // Paper: 7.4 cycles/vertex measured asymptotically on 1 CPU; the
        // model (which the paper says slightly over-predicts) should land
        // between 8 and 10 for very long lists.
        let mut t = Tuner::c90_scan();
        let n = 8_000_000;
        let per_vertex = t.tune(n).predicted / n as f64;
        assert!(per_vertex > 7.4 && per_vertex < 10.5, "per-vertex {per_vertex:.2}");
    }

    #[test]
    fn tiny_lists_fall_back_to_serial() {
        let mut t = Tuner::c90_scan();
        let p = t.tune(64);
        assert_eq!(p.phase2, Phase2Choice::Serial);
        assert_eq!(p.m, 0);
    }

    #[test]
    fn phase2_choice_progresses_with_size() {
        let mut t = Tuner::c90_scan();
        // Tiny reduced list → serial; moderate → Wyllie.
        let (_, c_small) = t.phase2_cost(8);
        assert_eq!(c_small, Phase2Choice::Serial);
        let (_, c_mid) = t.phase2_cost(400);
        assert_eq!(c_mid, Phase2Choice::Wyllie);
        // Very large → recursion beats both.
        let (_, c_big) = t.phase2_cost(500_000);
        assert_eq!(c_big, Phase2Choice::Recurse);
    }

    #[test]
    fn multiprocessor_tuning_is_faster() {
        let mut t1 = Tuner::new(ModelCoeffs::c90_scan(), TunerOptions::c90(1));
        let mut t8 = Tuner::new(ModelCoeffs::c90_scan(), TunerOptions::c90(8));
        let n = 2_000_000;
        let p1 = t1.tune(n).predicted;
        let p8 = t8.tune(n).predicted;
        let speedup = p1 / p8;
        assert!(
            speedup > 4.0 && speedup < 8.0,
            "8-CPU speedup {speedup:.2} should be substantial but sublinear"
        );
    }

    #[test]
    fn memoization_is_consistent() {
        let mut t = Tuner::c90_scan();
        let a = t.tune(50_000);
        let b = t.tune(50_000);
        assert_eq!(a, b);
    }

    #[test]
    fn polylog_fits_are_usable() {
        let mut t = Tuner::c90_scan();
        let ns: Vec<usize> =
            [1usize, 2, 4, 8, 16, 32, 64, 128, 256].iter().map(|k| k * 8192).collect();
        let m_curve = t.fit_m_curve(&ns);
        let s1_curve = t.fit_s1_curve(&ns);
        assert_eq!(m_curve.len(), 4);
        // The fitted curve should reproduce tuned m within a factor ~2
        // at interpolated points (the paper: "within about two percent"
        // of the *runtime*, which is much flatter than m itself).
        for &n in &[20_000usize, 200_000, 1_500_000] {
            let fitted = Tuner::eval_curve(&m_curve, n);
            let tuned = t.tune(n).m as f64;
            let ratio = fitted / tuned;
            assert!(
                ratio > 0.4 && ratio < 2.5,
                "n={n}: fitted m {fitted:.0} vs tuned {tuned} (ratio {ratio:.2})"
            );
            assert!(Tuner::eval_curve(&s1_curve, n) >= 1.0);
        }
    }
}
