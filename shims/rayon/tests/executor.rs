//! The executor's contract, driven through the public API: ordered results
//! under dynamic chunk claiming, per-thread `init`, panic propagation from
//! either side, nested and concurrent regions, and the worker threads'
//! lifecycle.
//!
//! Tests here observe process-wide state (the live helper threads), so they
//! take one lock and run one at a time.

use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn pool(threads: usize) -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
}

/// `n`, or a hundredth of it under Miri (CI runs this file interpreted,
/// on sixteen schedules).
fn scaled(n: usize) -> usize {
    if cfg!(miri) {
        n / 100
    } else {
        n
    }
}

fn on_helper() -> bool {
    std::thread::current()
        .name()
        .is_some_and(|n| n.starts_with("parcom-worker-"))
}

/// Shared test state behind a lock (the audit keeps atomics out of all but
/// a few reviewed files, and nothing here is hot).
fn bump(counter: &Mutex<usize>) {
    *counter.lock().unwrap() += 1;
}

fn raise(flag: &Mutex<bool>) {
    *flag.lock().unwrap() = true;
}

/// Waits for `flag`, which the other side of a forced interleaving raises.
fn await_flag(flag: &Mutex<bool>) {
    let start = Instant::now();
    while !*flag.lock().unwrap() {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "the other participant never showed up"
        );
        std::thread::yield_now();
    }
}

/// Live pool helpers in this process: the tasks under `/proc/self/task`
/// named `parcom-worker-*`. (The total task count is no use: libtest starts
/// and retires its own threads meanwhile.)
#[cfg(target_os = "linux")]
fn helper_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("parcom-worker-"))
        .count()
}

#[test]
fn collect_and_flat_map_keep_input_order() {
    let _serial = serial();
    for t in 1..=8usize {
        let pool = pool(t);
        for len in [0, 1, t - 1, t, 8 * t + 1, scaled(100_000)] {
            let (mapped, flat, kept): (Vec<usize>, Vec<usize>, Vec<usize>) = pool.install(|| {
                (
                    (0..len).into_par_iter().map(|x| x * 3).collect(),
                    (0..len)
                        .into_par_iter()
                        .flat_map_iter(|x| (0..x % 3).map(move |i| x * 3 + i))
                        .collect(),
                    (0..len).into_par_iter().filter(|x| x % 7 != 0).collect(),
                )
            });
            assert_eq!(mapped, (0..len).map(|x| x * 3).collect::<Vec<_>>());
            assert_eq!(
                flat,
                (0..len)
                    .flat_map(|x| (0..x % 3).map(move |i| x * 3 + i))
                    .collect::<Vec<_>>(),
                "t={t} len={len}"
            );
            assert_eq!(kept, (0..len).filter(|x| x % 7 != 0).collect::<Vec<_>>());
        }
    }
}

#[test]
fn for_each_init_makes_at_most_one_state_per_thread() {
    let _serial = serial();
    for t in [1usize, 2, 4] {
        let pool = pool(t);
        for _ in 0..scaled(50).max(1) {
            let inits = Mutex::new(0);
            let items = Mutex::new(0);
            pool.install(|| {
                (0..scaled(20_000))
                    .into_par_iter()
                    .for_each_init(|| bump(&inits), |(), _| bump(&items));
            });
            let inits = inits.into_inner().unwrap();
            assert!((1..=t).contains(&inits), "{inits} inits at t={t}");
            assert_eq!(items.into_inner().unwrap(), scaled(20_000));
        }
    }
}

#[test]
fn par_iter_mut_writes_every_slot_exactly_once() {
    let _serial = serial();
    let pool = pool(4);
    let mut data = vec![0u32; 100_003];
    pool.install(|| data.par_iter_mut().for_each(|x| *x += 1));
    assert!(data.iter().all(|&x| x == 1));
}

#[test]
fn a_panic_on_either_side_propagates_and_the_pool_recovers() {
    let _serial = serial();
    let pool = pool(4);
    let healthy = |pool: &ThreadPool| {
        let v: Vec<u32> = pool.install(|| (0..10_000u32).into_par_iter().map(|x| x + 1).collect());
        assert_eq!(v, (1..=10_000).collect::<Vec<_>>());
    };

    // a helper's chunk panics; the caller's chunks hold the region open
    // until a helper has claimed one
    let helper_in = Mutex::new(false);
    let r = catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| {
            (0..64u32).into_par_iter().for_each(|_| {
                if on_helper() {
                    raise(&helper_in);
                    panic!("boom on a helper");
                }
                await_flag(&helper_in);
            })
        })
    }));
    let payload = r.expect_err("the helper's panic must reach the caller");
    assert_eq!(
        payload.downcast_ref::<&str>().copied(),
        Some("boom on a helper")
    );
    healthy(&pool);

    // the caller's chunk panics; helpers hold their chunks until it has
    let caller_in = Mutex::new(false);
    let r = catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| {
            (0..64u32).into_par_iter().for_each(|_| {
                if !on_helper() {
                    raise(&caller_in);
                    panic!("boom on the caller");
                }
                await_flag(&caller_in);
            })
        })
    }));
    let payload = r.expect_err("the caller's own panic must propagate");
    assert_eq!(
        payload.downcast_ref::<&str>().copied(),
        Some("boom on the caller")
    );
    healthy(&pool);
}

#[test]
fn a_nested_region_completes() {
    let _serial = serial();
    let pool = pool(4);
    let sums: Vec<u64> = pool.install(|| {
        (0..64u64)
            .into_par_iter()
            .map(|i| (0..1_000u64).into_par_iter().map(|x| x * i).sum::<u64>())
            .collect()
    });
    let expect: Vec<u64> = (0..64u64).map(|i| 499_500 * i).collect();
    assert_eq!(sums, expect);
}

#[test]
fn two_threads_driving_one_pool_both_complete() {
    let _serial = serial();
    let pool = pool(3);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                start.wait();
                pool.install(|| {
                    for round in 0..scaled(500) as u64 {
                        let sum: u64 = (0..4_096u64).into_par_iter().map(|x| x ^ round).sum();
                        assert_eq!(sum, (0..4_096u64).map(|x| x ^ round).sum::<u64>());
                    }
                });
            });
        }
    });
}

#[test]
#[cfg_attr(miri, ignore = "10 000 regions: too slow under the interpreter")]
fn ten_thousand_back_to_back_regions() {
    let _serial = serial();
    let pool = pool(2);
    let hits = Mutex::new(0);
    pool.install(|| {
        for _ in 0..10_000 {
            (0..2usize).into_par_iter().for_each(|_| bump(&hits));
        }
    });
    assert_eq!(hits.into_inner().unwrap(), 20_000);
}

/// Whether the helper count reaches `want` — a new thread names itself a
/// moment after `spawn` returns, and the kernel unlists an exited one a
/// moment after `join` does.
#[cfg(target_os = "linux")]
fn helpers_settle_at(want: usize) -> bool {
    let start = Instant::now();
    while helper_threads() != want {
        if start.elapsed() > Duration::from_secs(5) {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

#[test]
#[cfg(target_os = "linux")]
#[cfg_attr(miri, ignore = "reads /proc")]
fn a_pool_owns_its_threads() {
    let _serial = serial();
    let baseline = helper_threads();

    // one thread: the caller is the pool
    let one = pool(1);
    let sum: u64 = one.install(|| (0..100_000u64).into_par_iter().sum());
    assert_eq!(sum, 4_999_950_000);
    drop(one);
    assert_eq!(helper_threads(), baseline, "a one-thread pool has a helper");

    // four threads: three helpers while it lives, none after
    let four = pool(4);
    assert!(helpers_settle_at(baseline + 3));
    let sum: u64 = four.install(|| (0..100_000u64).into_par_iter().sum());
    assert_eq!(sum, 4_999_950_000);
    assert_eq!(helper_threads(), baseline + 3, "a region spawned a thread");
    drop(four);
    assert!(
        helpers_settle_at(baseline),
        "dropping the pool left a helper"
    );
}
