//! The parallel-iterator subset.
//!
//! Adaptors are lazy structs over slices, owned vecs, or index ranges;
//! terminal operations (`for_each`, `collect`, `unzip`) split the index
//! space into contiguous chunks and execute on scoped threads, falling
//! back to an inline loop for small inputs where spawn cost would
//! dominate.

use std::ops::Range;

/// Below roughly this many items per would-be chunk, run inline.
const MIN_CHUNK: usize = 1024;

/// How many chunks/threads to use for `n` items, at least `min_len`
/// items per chunk. `min_len` defaults to [`MIN_CHUNK`] and is lowered
/// by `with_min_len` for coarse-grained items (e.g. one shard of a
/// sharded list per element), mirroring rayon's
/// `IndexedParallelIterator::with_min_len`.
fn threads_for(n: usize, min_len: usize) -> usize {
    let min_len = min_len.max(1);
    if n < 2 * min_len {
        return 1;
    }
    crate::current_num_threads().max(1).min(n.div_ceil(min_len))
}

/// `k` contiguous, order-preserving `(lo, hi)` ranges covering `0..n`.
fn bounds(n: usize, k: usize) -> Vec<(usize, usize)> {
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut lo = 0;
    for i in 0..k {
        let hi = lo + base + usize::from(i < extra);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

/// Spawn `f` on scope `s` with this thread's installed budget in effect
/// on the worker, so [`crate::current_num_threads`] there reports the
/// pool's size, as it does on rayon's own workers.
fn spawn<'scope, T: Send + 'scope>(
    s: &'scope std::thread::Scope<'scope, '_>,
    f: impl FnOnce() -> T + Send + 'scope,
) -> std::thread::ScopedJoinHandle<'scope, T> {
    let budget = crate::CURRENT_THREADS.with(|c| c.get());
    s.spawn(move || {
        crate::CURRENT_THREADS.with(|c| c.set(budget));
        f()
    })
}

/// Run `f(lo, hi)` over chunk ranges, in parallel when worthwhile.
fn run_chunks<F: Fn(usize, usize) + Sync>(n: usize, min_len: usize, f: F) {
    let k = threads_for(n, min_len);
    if k <= 1 {
        f(0, n);
        return;
    }
    std::thread::scope(|s| {
        for (lo, hi) in bounds(n, k) {
            let f = &f;
            spawn(s, move || f(lo, hi));
        }
    });
}

/// Ordered parallel collect: concatenate per-chunk vectors.
fn collect_chunks<U: Send, F: Fn(usize, usize) -> Vec<U> + Sync>(
    n: usize,
    min_len: usize,
    f: F,
) -> Vec<U> {
    let k = threads_for(n, min_len);
    if k <= 1 {
        return f(0, n);
    }
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(k);
        for (lo, hi) in bounds(n, k) {
            let f = &f;
            handles.push(spawn(s, move || f(lo, hi)));
        }
        let mut out = Vec::with_capacity(n);
        for h in handles {
            out.append(&mut h.join().expect("compat-rayon worker panicked"));
        }
        out
    })
}

// ---------------------------------------------------------------- traits

/// `.par_iter()` on slices (and anything that derefs to one).
pub trait IntoParallelRefIterator<'a> {
    /// The borrowed parallel iterator.
    type Iter;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = ParSlice<'a, T>;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { slice: self, min_len: MIN_CHUNK }
    }
}

/// `.par_iter_mut()` on slices.
pub trait IntoParallelRefMutIterator<'a> {
    /// The mutably-borrowed parallel iterator.
    type Iter;
    /// Mutably borrowing parallel iterator.
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Iter = ParSliceMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> ParSliceMut<'a, T> {
        ParSliceMut { slice: self, min_len: MIN_CHUNK }
    }
}

/// `.into_par_iter()` on owning collections and index ranges.
pub trait IntoParallelIterator {
    /// The owning parallel iterator.
    type Iter;
    /// Consume `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = ParVec<T>;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec { vec: self, min_len: MIN_CHUNK }
    }
}

/// Integer types usable as parallel range indices.
pub trait ParIndex: Copy + Send + Sync {
    /// Widen to `usize`.
    fn to_usize(self) -> usize;
    /// Narrow from `usize` (caller guarantees fit).
    fn from_usize(i: usize) -> Self;
}

macro_rules! impl_par_index {
    ($($t:ty),*) => {$(
        impl ParIndex for $t {
            #[inline]
            fn to_usize(self) -> usize { self as usize }
            #[inline]
            fn from_usize(i: usize) -> Self { i as $t }
        }
    )*};
}

impl_par_index!(usize, u32, u64, i32, i64);

impl<I: ParIndex> IntoParallelIterator for Range<I> {
    type Iter = ParRange<I>;
    fn into_par_iter(self) -> ParRange<I> {
        ParRange::from(self)
    }
}

/// Parallel in-place slice operations.
pub trait ParallelSliceMut<T> {
    /// Sort (unstable). The shim sorts chunks on scoped threads and
    /// merges; small slices sort inline.
    fn par_sort_unstable(&mut self)
    where
        T: Ord + Send;
}

impl<T> ParallelSliceMut<T> for [T] {
    fn par_sort_unstable(&mut self)
    where
        T: Ord + Send,
    {
        let n = self.len();
        let k = threads_for(n, MIN_CHUNK);
        if k <= 1 {
            self.sort_unstable();
            return;
        }
        // Sort contiguous chunks in parallel...
        {
            let mut rest = &mut self[..];
            std::thread::scope(|s| {
                for (lo, hi) in bounds(n, k) {
                    let (chunk, tail) = rest.split_at_mut(hi - lo);
                    rest = tail;
                    spawn(s, move || chunk.sort_unstable());
                }
            });
        }
        // ...then one adaptive stable pass merges the k sorted runs:
        // std's stable sort detects pre-sorted runs, so this is a
        // near-linear merge rather than a fresh O(n log n) sort.
        self.sort();
    }
}

// ------------------------------------------------------------ borrowing

/// Parallel iterator over `&[T]`.
pub struct ParSlice<'a, T> {
    slice: &'a [T],
    min_len: usize,
}

impl<'a, T: Sync> ParSlice<'a, T> {
    /// Lower the minimum items-per-chunk threshold (rayon's
    /// `with_min_len`): coarse items — a whole shard per element, say —
    /// deserve a thread each even when the vector is short.
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Parallel map.
    pub fn map<U, F: Fn(&'a T) -> U>(self, f: F) -> ParSliceMap<'a, T, F> {
        ParSliceMap { slice: self.slice, f, min_len: self.min_len }
    }

    /// Pair each item with its index.
    pub fn enumerate(self) -> ParSliceEnum<'a, T> {
        ParSliceEnum { slice: self.slice, min_len: self.min_len }
    }

    /// Parallel for-each.
    pub fn for_each<F: Fn(&'a T) + Sync>(self, f: F) {
        let slice = self.slice;
        run_chunks(slice.len(), self.min_len, |lo, hi| {
            for item in &slice[lo..hi] {
                f(item);
            }
        });
    }
}

/// `par_iter().map(f)`.
pub struct ParSliceMap<'a, T, F> {
    slice: &'a [T],
    f: F,
    min_len: usize,
}

impl<'a, T: Sync, F> ParSliceMap<'a, T, F> {
    /// Ordered parallel collect.
    pub fn collect<U, C>(self) -> C
    where
        F: Fn(&'a T) -> U + Sync,
        U: Send,
        C: From<Vec<U>>,
    {
        let (slice, f) = (self.slice, &self.f);
        collect_chunks(slice.len(), self.min_len, |lo, hi| slice[lo..hi].iter().map(f).collect())
            .into()
    }
}

/// `par_iter().enumerate()`.
pub struct ParSliceEnum<'a, T> {
    slice: &'a [T],
    min_len: usize,
}

impl<'a, T: Sync> ParSliceEnum<'a, T> {
    /// Lower the minimum items-per-chunk threshold (see
    /// [`ParSlice::with_min_len`]).
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Parallel for-each over `(index, &item)`.
    pub fn for_each<F: Fn((usize, &'a T)) + Sync>(self, f: F) {
        let slice = self.slice;
        run_chunks(slice.len(), self.min_len, |lo, hi| {
            for (i, item) in slice[lo..hi].iter().enumerate() {
                f((lo + i, item));
            }
        });
    }

    /// Parallel map over `(index, &item)`.
    pub fn map<U, F: Fn((usize, &'a T)) -> U>(self, f: F) -> ParSliceEnumMap<'a, T, F> {
        ParSliceEnumMap { slice: self.slice, f, min_len: self.min_len }
    }
}

/// `par_iter().enumerate().map(f)`.
pub struct ParSliceEnumMap<'a, T, F> {
    slice: &'a [T],
    f: F,
    min_len: usize,
}

impl<'a, T: Sync, F> ParSliceEnumMap<'a, T, F> {
    /// Ordered parallel collect.
    pub fn collect<U, C>(self) -> C
    where
        F: Fn((usize, &'a T)) -> U + Sync,
        U: Send,
        C: From<Vec<U>>,
    {
        let (slice, f) = (self.slice, &self.f);
        collect_chunks(slice.len(), self.min_len, |lo, hi| {
            slice[lo..hi].iter().enumerate().map(|(i, item)| f((lo + i, item))).collect()
        })
        .into()
    }
}

/// Parallel iterator over `&mut [T]`.
pub struct ParSliceMut<'a, T> {
    slice: &'a mut [T],
    min_len: usize,
}

impl<'a, T: Send> ParSliceMut<'a, T> {
    /// Lower the minimum items-per-chunk threshold (see
    /// [`ParSlice::with_min_len`]).
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Zip with a borrowed parallel iterator.
    pub fn zip<'b, U: Sync>(self, other: ParSlice<'b, U>) -> ParZipMutRef<'a, 'b, T, U> {
        ParZipMutRef { left: self.slice, right: other.slice, min_len: self.min_len }
    }

    /// Parallel for-each over `&mut` items.
    pub fn for_each<F: Fn(&mut T) + Sync>(self, f: F) {
        let n = self.slice.len();
        let k = threads_for(n, self.min_len);
        if k <= 1 {
            self.slice.iter_mut().for_each(f);
            return;
        }
        let mut rest = self.slice;
        std::thread::scope(|s| {
            for (lo, hi) in bounds(n, k) {
                let (chunk, tail) = rest.split_at_mut(hi - lo);
                rest = tail;
                let f = &f;
                spawn(s, move || chunk.iter_mut().for_each(f));
            }
        });
    }
}

/// `par_iter_mut().zip(par_iter())`.
pub struct ParZipMutRef<'a, 'b, T, U> {
    left: &'a mut [T],
    right: &'b [U],
    min_len: usize,
}

impl<T: Send, U: Sync> ParZipMutRef<'_, '_, T, U> {
    /// Parallel for-each over `(&mut left, &right)` pairs.
    pub fn for_each<F: Fn((&mut T, &U)) + Sync>(self, f: F) {
        let n = self.left.len().min(self.right.len());
        let right = &self.right[..n];
        let k = threads_for(n, self.min_len);
        if k <= 1 {
            for (a, b) in self.left[..n].iter_mut().zip(right) {
                f((a, b));
            }
            return;
        }
        let mut rest = &mut self.left[..n];
        std::thread::scope(|s| {
            for (lo, hi) in bounds(n, k) {
                let (chunk, tail) = rest.split_at_mut(hi - lo);
                rest = tail;
                let r = &right[lo..hi];
                let f = &f;
                spawn(s, move || {
                    for (a, b) in chunk.iter_mut().zip(r) {
                        f((a, b));
                    }
                });
            }
        });
    }
}

// --------------------------------------------------------------- ranges

/// Parallel iterator over an integer range.
pub struct ParRange<I> {
    start: usize,
    end: usize,
    min_len: usize,
    _marker: std::marker::PhantomData<I>,
}

impl<I: ParIndex> ParRange<I> {
    fn new(start: usize, end: usize) -> Self {
        ParRange { start, end, min_len: MIN_CHUNK, _marker: std::marker::PhantomData }
    }

    fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Lower the minimum items-per-chunk threshold (see
    /// [`ParSlice::with_min_len`]).
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Parallel for-each over indices.
    pub fn for_each<F: Fn(I) + Sync>(self, f: F) {
        let start = self.start;
        run_chunks(self.len(), self.min_len, |lo, hi| {
            for i in lo..hi {
                f(I::from_usize(start + i));
            }
        });
    }

    /// Parallel map over indices.
    pub fn map<U, F: Fn(I) -> U>(self, f: F) -> ParRangeMap<I, F> {
        ParRangeMap { range: self, f }
    }

    /// Parallel filter-map over indices (order-preserving).
    pub fn filter_map<U, F: Fn(I) -> Option<U>>(self, f: F) -> ParRangeFilterMap<I, F> {
        ParRangeFilterMap { range: self, f }
    }
}

/// `into_par_iter().map(f)` over a range.
pub struct ParRangeMap<I, F> {
    range: ParRange<I>,
    f: F,
}

impl<I: ParIndex, F> ParRangeMap<I, F> {
    /// Ordered parallel collect.
    pub fn collect<U, C>(self) -> C
    where
        F: Fn(I) -> U + Sync,
        U: Send,
        C: From<Vec<U>>,
    {
        let (start, f) = (self.range.start, &self.f);
        collect_chunks(self.range.len(), self.range.min_len, |lo, hi| {
            (lo..hi).map(|i| f(I::from_usize(start + i))).collect()
        })
        .into()
    }

    /// Ordered parallel unzip of pair-valued maps.
    pub fn unzip<A, B>(self) -> (Vec<A>, Vec<B>)
    where
        F: Fn(I) -> (A, B) + Sync,
        A: Send,
        B: Send,
    {
        let (start, f) = (self.range.start, &self.f);
        let pairs: Vec<(A, B)> = collect_chunks(self.range.len(), self.range.min_len, |lo, hi| {
            (lo..hi).map(|i| f(I::from_usize(start + i))).collect()
        });
        let mut left = Vec::with_capacity(pairs.len());
        let mut right = Vec::with_capacity(pairs.len());
        for (a, b) in pairs {
            left.push(a);
            right.push(b);
        }
        (left, right)
    }
}

/// `into_par_iter().filter_map(f)` over a range.
pub struct ParRangeFilterMap<I, F> {
    range: ParRange<I>,
    f: F,
}

impl<I: ParIndex, F> ParRangeFilterMap<I, F> {
    /// Ordered parallel collect of the retained items.
    pub fn collect<U, C>(self) -> C
    where
        F: Fn(I) -> Option<U> + Sync,
        U: Send,
        C: From<Vec<U>>,
    {
        let (start, f) = (self.range.start, &self.f);
        collect_chunks(self.range.len(), self.range.min_len, |lo, hi| {
            (lo..hi).filter_map(|i| f(I::from_usize(start + i))).collect()
        })
        .into()
    }
}

impl<I: ParIndex> IntoParallelIterator for std::ops::RangeInclusive<I> {
    type Iter = ParRange<I>;
    fn into_par_iter(self) -> ParRange<I> {
        ParRange::new(self.start().to_usize(), self.end().to_usize() + 1)
    }
}

// Hook the Range impl up through the constructor (kept private above).
impl<I: ParIndex> From<Range<I>> for ParRange<I> {
    fn from(r: Range<I>) -> Self {
        ParRange::new(r.start.to_usize(), r.end.to_usize())
    }
}

// ---------------------------------------------------------------- owned

/// Parallel iterator over an owned `Vec<T>`.
pub struct ParVec<T> {
    vec: Vec<T>,
    min_len: usize,
}

impl<T: Send> ParVec<T> {
    /// Lower the minimum items-per-chunk threshold (see
    /// [`ParSlice::with_min_len`]).
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Parallel map, consuming the vector.
    pub fn map<U, F: Fn(T) -> U>(self, f: F) -> ParVecMap<T, F> {
        ParVecMap { vec: self.vec, f, min_len: self.min_len }
    }

    /// Parallel for-each, consuming the vector.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        let _: Vec<()> = self.map(f).collect();
    }
}

/// Split a vector into `k` contiguous owned parts.
fn split_vec<T>(mut v: Vec<T>, k: usize) -> Vec<Vec<T>> {
    let cuts = bounds(v.len(), k);
    let mut parts: Vec<Vec<T>> = Vec::with_capacity(k);
    for &(lo, _) in cuts.iter().skip(1).rev() {
        parts.push(v.split_off(lo));
    }
    parts.push(v);
    parts.reverse();
    parts
}

/// `into_par_iter().map(f)` over an owned vec.
pub struct ParVecMap<T, F> {
    vec: Vec<T>,
    f: F,
    min_len: usize,
}

impl<T: Send, F> ParVecMap<T, F> {
    /// Ordered parallel collect.
    pub fn collect<U, C>(self) -> C
    where
        F: Fn(T) -> U + Sync,
        U: Send,
        C: From<Vec<U>>,
    {
        let n = self.vec.len();
        let k = threads_for(n, self.min_len);
        let f = &self.f;
        if k <= 1 {
            return self.vec.into_iter().map(f).collect::<Vec<U>>().into();
        }
        let parts = split_vec(self.vec, k);
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(k);
            for part in parts {
                handles.push(spawn(s, move || part.into_iter().map(f).collect::<Vec<U>>()));
            }
            let mut out = Vec::with_capacity(n);
            for h in handles {
                out.append(&mut h.join().expect("compat-rayon worker panicked"));
            }
            out
        })
        .into()
    }
}
