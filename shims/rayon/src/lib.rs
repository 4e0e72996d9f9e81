// The workspace-wide no-unsafe rule, with one audited exception: the
// executor (`pool`) erases the lifetime of a region's job reference to
// lend it to persistent worker threads — one `unsafe` expression, argued
// in place. Every other module stays unsafe-free under `deny`, and
// `parcom-audit` flags any unsafe outside the allowlisted file.
#![deny(unsafe_code)]
#![warn(missing_docs)]

//! Offline drop-in subset of the `rayon` data-parallelism API.
//!
//! The build environment for this workspace has no access to crates.io, so
//! this shim provides the exact slice of rayon's API surface the workspace
//! uses. Parallel iterators are represented as splittable pipelines: a
//! splittable base (range, slice, vector) plus composable adapters (`map`,
//! `filter`, `flat_map_iter`, …). Drivers ([`iter`]) cut the pipeline into
//! contiguous chunks whose boundaries depend only on the input length and
//! the thread count, and run them on a pool of persistent worker threads
//! (`pool`): the calling thread and the pool's helpers claim chunks from
//! one cursor, and partial results are merged in chunk order, so
//! `collect()` preserves item order exactly like rayon.
//!
//! Semantics intentionally preserved from rayon:
//!
//! * work executes on multiple OS threads (data races are real here, which
//!   the concurrency stress tests rely on);
//! * `collect`/`map` keep input order;
//! * a panic in a worker propagates to the caller;
//! * `ThreadPool::install` bounds the parallelism of nested calls, and a
//!   [`ThreadPool`] owns its threads and joins them on drop;
//! * code outside any `install` runs on one lazily started global pool of
//!   `available_parallelism()` threads.
//!
//! Where it differs: `install` runs its closure on the *calling* thread
//! (which then works alongside the pool's `num_threads − 1` helpers), and a
//! pool serves one parallel region at a time — a nested region, or one
//! entered from a second thread meanwhile, runs on its caller alone.

pub mod iter;
#[allow(unsafe_code)]
mod pool;
pub mod range;
pub mod slice;
pub mod vec;

pub use pool::{current_num_threads, ThreadPool};

/// The rayon prelude: the traits that put `par_iter()` and friends in scope.
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IndexedParallelIterator, IntoParallelIterator,
        IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelIterator, ParallelSliceMut,
    };
}

/// Error returned by [`ThreadPoolBuilder::build`] when a worker thread
/// cannot be spawned.
#[derive(Debug)]
pub struct ThreadPoolBuildError(std::io::Error);

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error: {}", self.0)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`] with an explicit thread count.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Starts a builder with the default (ambient) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of threads; `0` means the ambient default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool, spawning its `num_threads − 1` helper threads.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            0 => current_num_threads(),
            n => n,
        };
        ThreadPool::start(threads).map_err(ThreadPoolBuildError)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..10_000u64).into_par_iter().map(|x| x * 2).collect();
        let expect: Vec<u64> = (0..10_000u64).map(|x| x * 2).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn sum_filter_count_fold_reduce() {
        let s: u64 = (0..1000u64).into_par_iter().sum();
        assert_eq!(s, 499_500);
        let data: Vec<u32> = (0..100).collect();
        let evens = data.par_iter().filter(|x| **x % 2 == 0).count();
        assert_eq!(evens, 50);
        let total = (0..100u64)
            .into_par_iter()
            .fold(|| 0u64, |a, x| a + x)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 4950);
    }

    #[test]
    fn par_iter_mut_writes_every_slot() {
        let mut data = vec![0u32; 4096];
        data.par_iter_mut().for_each(|x| *x = 7);
        assert!(data.iter().all(|&x| x == 7));
    }

    #[test]
    fn flat_map_iter_keeps_order() {
        let v: Vec<u32> = (0..100u32)
            .into_par_iter()
            .flat_map_iter(|x| (0..3).map(move |i| x * 3 + i))
            .collect();
        let expect: Vec<u32> = (0..300).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            (0..1000u64).into_par_iter().for_each(|i| {
                assert!(i < 500, "boom");
            });
        });
        assert!(r.is_err());
    }
}
