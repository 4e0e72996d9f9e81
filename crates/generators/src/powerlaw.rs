//! Truncated discrete power-law sampling.
//!
//! LFR draws both node degrees (exponent τ1) and community sizes (exponent
//! τ2) from truncated power laws. Sampling uses the inverse CDF of the
//! continuous distribution on `[min, max + 1)`, floored to an integer — fast,
//! allocation-free and accurate enough for benchmark generation.

use rand::Rng;

/// A truncated power-law distribution `P(x) ∝ x^(-exponent)` on the integer
/// range `[min, max]`.
#[derive(Clone, Copy, Debug)]
pub struct PowerLaw {
    min: u64,
    max: u64,
    // precomputed CDF endpoints of the continuous relaxation
    lo_pow: f64,
    hi_pow: f64,
    one_minus_exp: f64,
}

impl PowerLaw {
    /// Creates the distribution. Panics unless `1 <= min <= max` and
    /// `exponent > 1`.
    pub fn new(min: u64, max: u64, exponent: f64) -> Self {
        assert!(min >= 1, "power law support must start at 1 or above");
        assert!(min <= max, "min must not exceed max");
        assert!(exponent > 1.0, "exponent must exceed 1");
        let one_minus_exp = 1.0 - exponent;
        Self {
            min,
            max,
            lo_pow: (min as f64).powf(one_minus_exp),
            hi_pow: ((max + 1) as f64).powf(one_minus_exp),
            one_minus_exp,
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        let x = (self.lo_pow + u * (self.hi_pow - self.lo_pow)).powf(1.0 / self.one_minus_exp);
        (x as u64).clamp(self.min, self.max)
    }

    /// Draws `n` samples.
    pub fn sample_n(&self, rng: &mut impl Rng, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    /// Analytic mean of the continuous relaxation (close to the discrete
    /// mean).
    fn approx_mean(pl: &PowerLaw) -> f64 {
        let a = 1.0 - pl.one_minus_exp;
        let (lo, hi) = (pl.min as f64, (pl.max + 1) as f64);
        if (a - 2.0).abs() < 1e-9 {
            // ∫ x·x^-2 = ln x
            (hi.ln() - lo.ln()) / ((hi.powf(-1.0) - lo.powf(-1.0)) / -1.0)
        } else {
            let num = (hi.powf(2.0 - a) - lo.powf(2.0 - a)) / (2.0 - a);
            let den = (hi.powf(1.0 - a) - lo.powf(1.0 - a)) / (1.0 - a);
            num / den
        }
    }

    #[test]
    fn samples_stay_in_range() {
        let pl = PowerLaw::new(2, 50, 2.5);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = pl.sample(&mut rng);
            assert!((2..=50).contains(&x));
        }
    }

    #[test]
    fn degenerate_range_returns_constant() {
        let pl = PowerLaw::new(7, 7, 2.0);
        let mut rng = SmallRng::seed_from_u64(2);
        assert!(pl.sample_n(&mut rng, 100).iter().all(|&x| x == 7));
    }

    #[test]
    fn small_values_dominate() {
        let pl = PowerLaw::new(1, 1000, 2.5);
        let mut rng = SmallRng::seed_from_u64(3);
        let samples = pl.sample_n(&mut rng, 20_000);
        let small = samples.iter().filter(|&&x| x <= 3).count();
        assert!(
            small as f64 > 0.7 * samples.len() as f64,
            "power law should be head-heavy, got {small}/20000 <= 3"
        );
    }

    #[test]
    fn empirical_mean_tracks_analytic_mean() {
        let pl = PowerLaw::new(5, 200, 2.2);
        let mut rng = SmallRng::seed_from_u64(4);
        let samples = pl.sample_n(&mut rng, 50_000);
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        let expect = approx_mean(&pl);
        assert!(
            (mean - expect).abs() / expect < 0.1,
            "empirical {mean} vs analytic {expect}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let pl = PowerLaw::new(1, 100, 3.0);
        let a = pl.sample_n(&mut SmallRng::seed_from_u64(9), 50);
        let b = pl.sample_n(&mut SmallRng::seed_from_u64(9), 50);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn rejects_exponent_at_most_one() {
        PowerLaw::new(1, 10, 1.0);
    }

    #[test]
    #[should_panic(expected = "min")]
    fn rejects_inverted_range() {
        PowerLaw::new(10, 5, 2.0);
    }
}
