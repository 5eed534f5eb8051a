//! Offline shim for the `rayon` API surface used by this workspace.
//!
//! Implements the data-parallel subset `listrank` and the examples use —
//! `par_iter` / `par_iter_mut` / `into_par_iter` over slices, vecs and
//! index ranges, with `map` / `enumerate` / `zip` / `filter_map` /
//! `for_each` / `collect` / `unzip` — executing on **scoped OS threads**
//! with contiguous chunking. Inputs below a cutoff run inline, so the
//! per-call thread-spawn cost is only paid where it is amortized.
//!
//! [`ThreadPoolBuilder`] / [`ThreadPool::install`] set the thread budget
//! for parallel operations dispatched inside `install`; there is no
//! persistent worker pool (threads are scoped per operation), which keeps
//! the shim dependency-free while preserving rayon's semantics for the
//! call patterns in this workspace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::OnceLock;

pub mod iter;

/// Re-exports matching `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelSliceMut,
    };
}

thread_local! {
    static CURRENT_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// The machine's available parallelism, read once per process (it can
/// cost cgroup file reads per call) — how real rayon sizes its global
/// pool.
fn default_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Number of threads parallel operations may use on this thread:
/// the installed pool's size, or the machine's available parallelism.
pub fn current_num_threads() -> usize {
    let t = CURRENT_THREADS.with(|c| c.get());
    if t > 0 {
        t
    } else {
        default_num_threads()
    }
}

/// Error building a thread pool (the shim cannot actually fail, but the
/// signature matches rayon's).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fix the pool's thread count (`0` = available parallelism).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { num_threads: self.num_threads })
    }
}

/// A thread budget for parallel operations. The shim has no resident
/// workers; [`ThreadPool::install`] scopes the budget and operations
/// spawn scoped threads on demand.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Number of threads this pool grants.
    pub fn current_num_threads(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            default_num_threads()
        }
    }

    /// Run `f` with this pool's thread budget in effect.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        CURRENT_THREADS.with(|c| {
            let old = c.get();
            c.set(self.num_threads);
            let out = f();
            c.set(old);
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn pool_install_scopes_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
        assert_ne!(current_num_threads(), 0);
    }

    #[test]
    fn pool_install_reaches_spawned_workers() {
        // Every spawning operation's workers see the installed budget,
        // not the machine default, as on rayon's own pool threads.
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let want = vec![3; 8];
        pool.install(|| {
            let by_range: Vec<usize> = (0..8usize)
                .into_par_iter()
                .with_min_len(1)
                .map(|_| current_num_threads())
                .collect();
            assert_eq!(by_range, want, "range map");
            let by_vec: Vec<usize> = vec![0u8; 8]
                .into_par_iter()
                .with_min_len(1)
                .map(|_| current_num_threads())
                .collect();
            assert_eq!(by_vec, want, "vec map");
            let mut slots = vec![0usize; 8];
            slots.par_iter_mut().with_min_len(1).for_each(|s| *s = current_num_threads());
            assert_eq!(slots, want, "slice for_each");
            let mut slots = vec![0usize; 8];
            slots
                .par_iter_mut()
                .with_min_len(1)
                .zip(want.par_iter())
                .for_each(|(s, _)| *s = current_num_threads());
            assert_eq!(slots, want, "zip for_each");
            let seen = std::sync::Mutex::new(Vec::new());
            (0..8usize).into_par_iter().with_min_len(1).for_each(|_| {
                seen.lock().unwrap().push(current_num_threads());
            });
            assert_eq!(seen.into_inner().unwrap(), want, "range for_each");
        });
    }

    #[test]
    fn map_collect_matches_serial() {
        let xs: Vec<u64> = (0..100_000).collect();
        let got: Vec<u64> = xs.par_iter().map(|&x| x * 3 + 1).collect();
        let want: Vec<u64> = xs.iter().map(|&x| x * 3 + 1).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn range_unzip_ordered() {
        let (a, b): (Vec<usize>, Vec<usize>) =
            (0..50_000usize).into_par_iter().map(|i| (i, i * 2)).unzip();
        assert_eq!(a, (0..50_000).collect::<Vec<_>>());
        assert_eq!(b[123], 246);
    }

    #[test]
    fn filter_map_preserves_order() {
        let got: Vec<u32> =
            (0..10_000u32).into_par_iter().filter_map(|i| (i % 3 == 0).then_some(i)).collect();
        let want: Vec<u32> = (0..10_000).filter(|i| i % 3 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn zip_mut_writes_every_slot() {
        let src: Vec<usize> = (0..30_000).collect();
        let mut dst = vec![0usize; 30_000];
        dst.par_iter_mut().zip(src.par_iter()).for_each(|(d, &s)| *d = s + 7);
        assert!(dst.iter().enumerate().all(|(i, &v)| v == i + 7));
    }

    #[test]
    fn into_par_iter_vec_by_value() {
        let xs: Vec<String> = (0..5000).map(|i| format!("{i}")).collect();
        let got: Vec<usize> = xs.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(got.len(), 5000);
        assert_eq!(got[0], 1);
        assert_eq!(got[4999], 4);
    }

    #[test]
    fn with_min_len_fans_out_short_inputs() {
        // 8 coarse items would run inline under the default 1024-item
        // chunk threshold; with_min_len(1) must give them real threads.
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let ids: Vec<std::thread::ThreadId> = pool.install(|| {
            (0..8usize)
                .into_par_iter()
                .with_min_len(1)
                .map(|_| std::thread::current().id())
                .collect()
        });
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 4, "expected 4 worker threads, saw {ids:?}");
    }

    #[test]
    fn par_sort_unstable_sorts() {
        let mut xs: Vec<i64> = (0..10_000).map(|i| (i * 2654435761u64 as i64) % 997).collect();
        let mut want = xs.clone();
        want.sort_unstable();
        xs.par_sort_unstable();
        assert_eq!(xs, want);
    }
}
