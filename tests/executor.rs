//! What the rest of the workspace relies on from the executor under the
//! `rayon` shim: float reductions that repeat bit for bit at a fixed thread
//! count, regions that really run on more than one OS thread (the stress
//! suites are worthless otherwise), and workers that cost nothing while
//! idle.
//!
//! The idle test reads the process's CPU time, so the tests take one lock
//! and run one at a time.

use parcom::graph::parallel::with_threads;
use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Values whose sum depends on the order of addition.
fn awkward_floats(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64) * 0.1).sin() * 10f64.powi((i % 7) as i32 - 3))
        .collect()
}

#[test]
fn float_reductions_repeat_bit_for_bit_at_a_fixed_thread_count() {
    let _serial = serial();
    let xs = awkward_floats(50_000);
    const BINS: usize = 64;
    for threads in [2usize, 3, 4] {
        with_threads(threads, || {
            let sum = || xs.par_iter().map(|&x| x).sum::<f64>().to_bits();
            let dense = || -> Vec<u64> {
                (0..xs.len())
                    .into_par_iter()
                    .fold(
                        || vec![0.0f64; BINS],
                        |mut acc, i| {
                            acc[i % BINS] += xs[i];
                            acc
                        },
                    )
                    .reduce(
                        || vec![0.0f64; BINS],
                        |mut a, b| {
                            for (x, y) in a.iter_mut().zip(b) {
                                *x += y;
                            }
                            a
                        },
                    )
                    .into_iter()
                    .map(f64::to_bits)
                    .collect()
            };
            let (first_sum, first_dense) = (sum(), dense());
            for rep in 0..200 {
                assert_eq!(
                    sum(),
                    first_sum,
                    "sum drifted at rep {rep}, {threads} threads"
                );
                assert_eq!(
                    dense(),
                    first_dense,
                    "fold/reduce drifted at rep {rep}, {threads} threads"
                );
            }
        });
    }
}

/// A silent fall-back to running every region inline would keep every
/// result right and every determinism test green — and leave the race and
/// interleaving suites testing nothing.
#[test]
fn regions_run_on_more_than_one_os_thread() {
    let _serial = serial();
    let seen = Mutex::new(HashSet::new());
    with_threads(2, || {
        for round in 0..100u64 {
            (0..64u64).into_par_iter().for_each(|i| {
                // ≈ 10 µs of work per item, ≈ 0.6 ms per region
                let mut x = i ^ round;
                for _ in 0..10_000 {
                    x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                }
                std::hint::black_box(x);
                seen.lock().unwrap().insert(std::thread::current().id());
            });
        }
    });
    let seen = seen.into_inner().unwrap();
    assert!(
        seen.len() >= 2,
        "100 two-thread regions ran on {} thread(s)",
        seen.len()
    );
}

/// User + system CPU time of this process, from `/proc/self/stat`.
#[cfg(target_os = "linux")]
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, in clock ticks (100 per second on Linux)
    let after_comm = &stat[stat.rfind(')').unwrap() + 2..];
    let ticks: u64 = after_comm
        .split(' ')
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().unwrap())
        .sum();
    Duration::from_millis(ticks * 10)
}

#[test]
#[cfg(target_os = "linux")]
fn idle_workers_burn_no_cpu() {
    let _serial = serial();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let sum: u64 = pool.install(|| (0..1_000_000u64).into_par_iter().sum());
    assert_eq!(sum, 499_999_500_000);
    // the region is over; the three helpers poll briefly, then must sleep
    let before = process_cpu();
    let start = Instant::now();
    std::thread::sleep(Duration::from_millis(200));
    let burnt = process_cpu() - before;
    assert!(
        burnt < Duration::from_millis(20),
        "{burnt:?} of CPU over {:?} of sleep with an idle pool",
        start.elapsed()
    );
}
