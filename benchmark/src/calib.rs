//! The machine-speed probe behind the speed-normalised timings.
//!
//! The CI box has a slow mode no counter reports: for minutes at a time the
//! same deterministic single-thread operation takes 20–35 % longer, CPU
//! time and wall time alike, with steal at 0. A pure dependent
//! multiply-add chain — no memory, no branches, a fixed number of cycles
//! per step — slows down by the same factor within a few percent
//! (operation ÷ spin repeats within 2 % where the operation alone swings
//! by 36 %), so it measures the core's effective clock. Every timed
//! interval of the end-to-end half is scaled by the speed measured just
//! before it: the numbers read as "milliseconds on a core that runs this
//! chain at 1 ns per step", which is the CI box in its quiet state.
//!
//! The probe depends only on the machine, never on the program under test,
//! so a slower program still reads slower.

use std::hint::black_box;
use std::time::Instant;

const STEPS: u64 = 1_000_000;

/// The pace the timings are normalised to.
const NOMINAL_NS_PER_STEP: f64 = 1.0;

fn spin_ns() -> f64 {
    let start = Instant::now();
    let mut x = 1u64;
    for _ in 0..STEPS {
        x = black_box(
            x.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407),
        );
    }
    black_box(x);
    start.elapsed().as_nanos() as f64
}

/// Effective speed of the core right now as a share of nominal: 1.0 on the
/// quiet CI box, ≈ 0.8 in its slow mode. The fastest of three spins, so an
/// interrupt in one of them does not read as a slow machine. About 3 ms.
pub fn machine_speed() -> f64 {
    let best = (0..3).map(|_| spin_ns()).fold(f64::INFINITY, f64::min);
    NOMINAL_NS_PER_STEP * STEPS as f64 / best
}

#[cfg(test)]
mod tests {
    #[test]
    fn speed_is_a_positive_finite_ratio() {
        let speed = super::machine_speed();
        assert!(speed.is_finite() && speed > 0.0, "{speed}");
    }
}
