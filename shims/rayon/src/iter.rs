//! The parallel-iterator traits and adapters.
//!
//! A pipeline is a splittable base plus zero or more adapters. Drivers
//! ([`ParallelIterator::for_each`], [`ParallelIterator::collect`], …) cut
//! the pipeline into contiguous chunks and run each chunk's sequential
//! tail on the executor (`crate::pool`): the calling thread and the
//! pool's helpers claim chunk indices from one cursor until none are left.
//!
//! # Determinism rules
//!
//! Every chunk boundary is a function of `(len, T)` — the base length and
//! `current_num_threads()` — and never of timing. What timing decides is
//! only *which thread* runs a chunk.
//!
//! * `for_each`, `for_each_init` and `collect` (over `map` / `filter` /
//!   `flat_map_iter`) use `CHUNKS_PER_THREAD · T` = 8·T chunks, at most
//!   `len`. `collect` merges the per-chunk results in chunk order, so its
//!   output is the sequential one whoever ran what.
//!   `for_each_init` calls `init` once per *participating thread* per call
//!   — at most T times, lazily, never once per chunk — and drops that state
//!   on the same thread before the call returns.
//! * `fold` (and `reduce`, `sum`, `min`, `max`, `count`) use at most T
//!   parts, one accumulator each, combined in input order: their per-part
//!   state is a caller-supplied accumulator that may be large, and a float
//!   reduction stays bit-reproducible at a fixed T.
//! * With T = 1, or when `len` allows only one chunk, the whole pipeline
//!   runs inline on the caller: no pool is touched.

use crate::pool::{self, lock};
use std::sync::{Mutex, PoisonError};

/// Chunks per thread for the dynamically claimed drivers. On R-MAT scale
/// 15 (hubs at the low ids, so equal-count chunks are badly skewed) the
/// degree-proportional probe `rayon.skew_efficiency` reads 0.59 with one
/// chunk per thread and 0.88 with eight at T = 2; a claim costs ≈ 60 ns
/// (one `fetch_add`, two uncontended locks), so sixteen chunks add ≈ 1 µs
/// to a region.
const CHUNKS_PER_THREAD: usize = 8;

/// Execution core shared by all drivers: cuts `p` into up to
/// `chunks_per_thread · current_num_threads()` near-equal contiguous chunks
/// and runs `run` on each, on the current pool. `init` makes the scratch
/// state a participating thread carries from chunk to chunk. Partial
/// results come back in chunk (i.e. input) order.
fn execute<P, S, R>(
    p: P,
    chunks_per_thread: usize,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, P) -> R + Sync,
) -> Vec<R>
where
    P: ParallelIterator,
    R: Send,
{
    let len = p.base_len();
    let threads = crate::current_num_threads();
    let chunks = if threads > 1 {
        (threads * chunks_per_thread).min(len)
    } else {
        1
    };
    if chunks <= 1 {
        return vec![run(&mut init(), p)];
    }

    // Near-equal sizes, the larger chunks first. Cut from the back, so an
    // owned `Vec` base moves each element once.
    let (base, extra) = (len / chunks, len % chunks);
    let mut parts: Vec<Mutex<Option<P>>> = Vec::with_capacity(chunks);
    let mut rest = p;
    for i in (1..chunks).rev() {
        let (head, tail) = rest.split_at(i * base + i.min(extra));
        parts.push(Mutex::new(Some(tail)));
        rest = head;
    }
    parts.push(Mutex::new(Some(rest)));
    parts.reverse();
    let results: Vec<Mutex<Option<R>>> = (0..chunks).map(|_| Mutex::new(None)).collect();

    // Each cell is locked once, by the thread that claimed its index, and
    // never while user code runs.
    pool::current().run(chunks, &|claims| {
        let mut state: Option<S> = None;
        while let Some(i) = claims.next() {
            let part = lock(&parts[i])
                .take()
                .expect("a chunk index is claimed once");
            let result = run(state.get_or_insert_with(&init), part);
            *lock(&results[i]) = Some(result);
        }
    });
    // a panic in any chunk has resumed above; here every chunk has run
    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("the region ran every chunk")
        })
        .collect()
}

/// [`execute`] for the drivers whose per-part state is an accumulator: at
/// most one part per thread (determinism rules, module docs).
fn execute_parts<P, R>(p: P, run: impl Fn(P) -> R + Sync) -> Vec<R>
where
    P: ParallelIterator,
    R: Send,
{
    execute(p, 1, || (), |(), part| run(part))
}

/// A splittable, thread-distributable iterator over `Item`s.
pub trait ParallelIterator: Sized + Send {
    /// The element type produced by the pipeline.
    type Item: Send;

    /// Number of elements in the underlying splittable base. Adapters that
    /// change the element count (`filter`, `flat_map_iter`) still report the
    /// base length; it is only used to pick split points.
    fn base_len(&self) -> usize;

    /// Splits the pipeline at `index` (in base elements).
    fn split_at(self, index: usize) -> (Self, Self);

    /// The sequential tail: a plain iterator over this part's items.
    fn seq(self) -> impl Iterator<Item = Self::Item>;

    /// Maps each item through `f`.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Clone + Send + Sync,
    {
        Map { base: self, f }
    }

    /// Keeps the items for which `pred` returns true.
    fn filter<F>(self, pred: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Item) -> bool + Clone + Send + Sync,
    {
        Filter { base: self, pred }
    }

    /// Maps each item to a sequential iterator and flattens the results.
    fn flat_map_iter<I, F>(self, f: F) -> FlatMapIter<Self, F>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(Self::Item) -> I + Clone + Send + Sync,
    {
        FlatMapIter { base: self, f }
    }

    /// Runs `f` on every item.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        execute(
            self,
            CHUNKS_PER_THREAD,
            || (),
            |(), part| part.seq().for_each(&f),
        );
    }

    /// Runs `f` on every item with a per-thread scratch value from `init`,
    /// made at most once per participating thread per call.
    fn for_each_init<T, INIT, F>(self, init: INIT, f: F)
    where
        INIT: Fn() -> T + Send + Sync,
        F: Fn(&mut T, Self::Item) + Send + Sync,
    {
        execute(self, CHUNKS_PER_THREAD, init, |scratch, part| {
            part.seq().for_each(|item| f(scratch, item));
        });
    }

    /// Counts the items.
    fn count(self) -> usize {
        execute_parts(self, |part| part.seq().count())
            .into_iter()
            .sum()
    }

    /// Sums the items.
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        execute_parts(self, |part| part.seq().sum::<S>())
            .into_iter()
            .sum()
    }

    /// The largest item, or `None` when empty.
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        execute_parts(self, |part| part.seq().max())
            .into_iter()
            .flatten()
            .max()
    }

    /// The smallest item, or `None` when empty.
    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        execute_parts(self, |part| part.seq().min())
            .into_iter()
            .flatten()
            .min()
    }

    /// Reduces the items with `op`, seeding each part with `identity()`.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Send + Sync,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Send + Sync,
    {
        execute_parts(self, |part| part.seq().fold(identity(), &op))
            .into_iter()
            .fold(identity(), &op)
    }

    /// Folds each part's items into an accumulator from `identity` (at most
    /// one part per thread); combine the accumulators with [`Fold::reduce`].
    fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> Fold<Self, ID, F>
    where
        A: Send,
        ID: Fn() -> A + Send + Sync,
        F: Fn(A, Self::Item) -> A + Send + Sync,
    {
        Fold {
            base: self,
            identity,
            fold_op,
        }
    }

    /// Collects the items, preserving input order.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }
}

/// Marker for pipelines whose length is known exactly (all of them, in this
/// shim). Exists for rayon name compatibility.
pub trait IndexedParallelIterator: ParallelIterator {}

/// Types collectible from a parallel iterator.
pub trait FromParallelIterator<T: Send> {
    /// Builds the collection, preserving item order.
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self {
        let parts: Vec<Vec<T>> =
            execute(p, CHUNKS_PER_THREAD, || (), |(), part| part.seq().collect());
        let mut parts = parts.into_iter();
        // the inline path's single chunk is the result
        let mut out = parts.next().unwrap_or_default();
        out.reserve(parts.as_slice().iter().map(Vec::len).sum());
        for part in parts {
            out.extend(part);
        }
        out
    }
}

/// Types convertible into a parallel iterator by value.
pub trait IntoParallelIterator {
    /// The resulting pipeline type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The element type.
    type Item: Send;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// Types whose references iterate in parallel (`par_iter`).
pub trait IntoParallelRefIterator<'data> {
    /// The resulting pipeline type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The element type (a shared reference).
    type Item: Send + 'data;
    /// Borrowing parallel iterator.
    fn par_iter(&'data self) -> Self::Iter;
}

/// Types whose mutable references iterate in parallel (`par_iter_mut`).
pub trait IntoParallelRefMutIterator<'data> {
    /// The resulting pipeline type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The element type (an exclusive reference).
    type Item: Send + 'data;
    /// Mutably borrowing parallel iterator.
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

/// Parallel sorting methods on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Sorts (unstable) in natural order.
    fn par_sort_unstable(&mut self)
    where
        T: Ord;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        self.sort_unstable();
    }
}

/// Pipeline stage produced by [`ParallelIterator::map`].
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, R, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P::Item) -> R + Clone + Send + Sync,
{
    type Item = R;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            Map {
                base: l,
                f: self.f.clone(),
            },
            Map { base: r, f: self.f },
        )
    }

    fn seq(self) -> impl Iterator<Item = R> {
        self.base.seq().map(self.f)
    }
}

impl<P, R, F> IndexedParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P::Item) -> R + Clone + Send + Sync,
{
}

/// Pipeline stage produced by [`ParallelIterator::filter`].
pub struct Filter<P, F> {
    base: P,
    pred: F,
}

impl<P, F> ParallelIterator for Filter<P, F>
where
    P: ParallelIterator,
    F: Fn(&P::Item) -> bool + Clone + Send + Sync,
{
    type Item = P::Item;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            Filter {
                base: l,
                pred: self.pred.clone(),
            },
            Filter {
                base: r,
                pred: self.pred,
            },
        )
    }

    fn seq(self) -> impl Iterator<Item = P::Item> {
        self.base.seq().filter(move |item| (self.pred)(item))
    }
}

/// Pipeline stage produced by [`ParallelIterator::flat_map_iter`].
pub struct FlatMapIter<P, F> {
    base: P,
    f: F,
}

impl<P, I, F> ParallelIterator for FlatMapIter<P, F>
where
    P: ParallelIterator,
    I: IntoIterator,
    I::Item: Send,
    F: Fn(P::Item) -> I + Clone + Send + Sync,
{
    type Item = I::Item;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            FlatMapIter {
                base: l,
                f: self.f.clone(),
            },
            FlatMapIter { base: r, f: self.f },
        )
    }

    fn seq(self) -> impl Iterator<Item = I::Item> {
        self.base.seq().flat_map(self.f)
    }
}

/// Deferred fold produced by [`ParallelIterator::fold`]; finish it with
/// [`Fold::reduce`].
pub struct Fold<P, ID, F> {
    base: P,
    identity: ID,
    fold_op: F,
}

impl<P, A, ID, F> Fold<P, ID, F>
where
    P: ParallelIterator,
    A: Send,
    ID: Fn() -> A + Send + Sync,
    F: Fn(A, P::Item) -> A + Send + Sync,
{
    /// Combines the per-part fold accumulators, in input order, with
    /// `reduce_op`.
    pub fn reduce<RID, R>(self, reduce_identity: RID, reduce_op: R) -> A
    where
        RID: Fn() -> A + Send + Sync,
        R: Fn(A, A) -> A + Send + Sync,
    {
        let Fold {
            base,
            identity,
            fold_op,
        } = self;
        execute_parts(base, |part| part.seq().fold(identity(), &fold_op))
            .into_iter()
            .fold(reduce_identity(), reduce_op)
    }
}
