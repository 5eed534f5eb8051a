//! # rankmodel — the analysis of Reid-Miller 1994, §4
//!
//! The paper tunes its list-ranking algorithm *analytically*: the sublist
//! lengths produced by random splitting are approximately i.i.d.
//! exponential (Feller's order-statistics result), which yields a closed
//! form for `g(x)`, the expected number of sublists longer than `x`.
//! Minimizing the total expected time over the load-balancing points
//! `S_1 < S_2 < … < S_l` gives the recurrence of Eq. (4); substituting
//! back gives the cost model of Eq. (3) and the simplified Eq. (5). The
//! number of sublists `m` and the first balancing point `S_1` are chosen
//! by minimizing the model, and fitted as cubic polynomials in `log n`.
//!
//! This crate implements each of those pieces:
//!
//! * [`expdist`] — `Prob[L > x]`, `g(x)`, expected j-th shortest sublist
//!   length, and empirical sampling (reproduces Fig. 9);
//! * [`schedule`] — the Eq. (4) recurrence and schedule construction
//!   (reproduces the step function of Fig. 10);
//! * [`coeffs`] — the published C90 loop coefficients;
//! * [`predict`] — Eq. (3) evaluation, the Eq. (5) closed form, and the
//!   multiprocessor variant (Eq. 6);
//! * [`tuner`] — minimization over `(m, S_1)` with recursive Phase-2
//!   strategy selection, pruned by an exact branch and bound (a
//!   candidate is skipped only when a lower bound proves it loses), plus
//!   polylog curve fitting;
//! * [`polyfit`], [`regress`] — small dense least-squares machinery
//!   (own implementation; no linear-algebra dependency).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod coeffs;
pub mod expdist;
pub mod polyfit;
pub mod predict;
pub mod regress;
pub mod schedule;
pub mod tuner;

pub use coeffs::{ModelCoeffs, PhaseCoeffs};
pub use predict::Prediction;
pub use schedule::Schedule;
pub use tuner::{TunedParams, Tuner};
