//! What a second thread buys on this machine (EXPERIMENTS.md, "two-thread
//! ceiling"): each thread runs the *same* work, so a ratio of 1.0 is perfect
//! scaling and 2.0 is none. `cargo run --release --example box_ceiling`

use std::hint::black_box;
use std::time::Instant;

/// Seconds until `threads` threads have each run `work` once.
fn timed(threads: usize, work: impl Fn() + Sync) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| (0..threads).for_each(|_| drop(s.spawn(&work))));
    start.elapsed().as_secs_f64()
}

fn main() {
    // ALU-bound: a dependent multiply-add chain, nothing to overlap.
    let chain = || {
        let x = (0..400_000_000u64).fold(1.0f64, |x, _| black_box(x) * 1.000_000_001 + 1e-9);
        black_box(x);
    };
    // Latency-bound: one 64 MB cycle (full-period LCG, so no stride to prefetch).
    let n = 1usize << 24;
    let next: Vec<u32> = (0..n)
        .map(|i| ((i * 1_664_525 + 1_013_904_223) % n) as u32)
        .collect();
    let chase = || {
        let end = (0..20_000_000).fold(0u32, |i, _| next[i as usize]);
        black_box(end);
    };
    for (name, work) in [
        ("multiply-add chain", &chain as &(dyn Fn() + Sync)),
        ("64 MB pointer chase", &chase),
    ] {
        let (one, two) = (timed(1, work), timed(2, work));
        let ratio = two / one;
        println!("{name}: 1 thread {one:.3} s, 2 threads {two:.3} s, ratio {ratio:.2}");
    }
    println!("cores: {:?}", std::thread::available_parallelism());
}
