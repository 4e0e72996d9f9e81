#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Offline drop-in subset of the `proptest` property-testing API.
//!
//! The build environment has no access to crates.io, so this shim provides
//! the slice of proptest the workspace's tests use: the [`Strategy`] trait
//! with `prop_map` / `prop_flat_map`, range / tuple / vector / string
//! strategies, the [`proptest!`] macro, `prop_assert!` / `prop_assert_eq!`,
//! and [`ProptestConfig::with_cases`].
//!
//! Unlike real proptest there is no shrinking: a failing case panics with
//! its case index and message. Case generation is deterministic per test
//! name, so failures reproduce exactly under `cargo test`.

pub mod collection;

/// Everything a proptest-based test file needs in scope.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Failure raised by `prop_assert!` and friends inside a [`proptest!`] body.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Builds a failure carrying `msg`.
    pub fn fail(msg: String) -> Self {
        TestCaseError(msg)
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-test configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    // audit:allow(unreachable-pub): the proptest suites set their case counts through it (mirrors proptest's API)
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic generator driving case generation (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds deterministically from a test name.
    pub fn deterministic(name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng { state: h }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform `usize` below `bound` (`0` when `bound == 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            0
        } else {
            ((self.next_u64() as u128 * bound as u128) >> 64) as usize
        }
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A recipe for generating random values of `Self::Value`.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn gen(&self, rng: &mut TestRng) -> Self::Value;

    /// Post-processes generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { base: self, f }
    }

    /// Generates a value, then generates from the strategy `f` derives
    /// from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { base: self, f }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn gen(&self, rng: &mut TestRng) -> O {
        (self.f)(self.base.gen(rng))
    }
}

/// Strategy produced by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn gen(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.base.gen(rng)).gen(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn gen(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                let off = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (self.start as u64).wrapping_add(off) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn gen(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// String strategy from a regex-like pattern. Only the form `.{m,n}` (any
/// characters, length `m..=n`) is interpreted; any other pattern generates
/// itself literally. That covers the fuzz patterns the workspace uses while
/// keeping the shim dependency-free.
impl Strategy for &str {
    type Value = String;

    fn gen(&self, rng: &mut TestRng) -> String {
        if let Some(rest) = self.strip_prefix(".{") {
            if let Some(bounds) = rest.strip_suffix('}') {
                if let Some((lo, hi)) = bounds.split_once(',') {
                    if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
                        let len = lo + rng.below(hi.saturating_sub(lo) + 1);
                        return (0..len).map(|_| random_char(rng)).collect();
                    }
                }
            }
        }
        (*self).to_string()
    }
}

/// Adversarial character mix for fuzzing text parsers: digits and
/// separators dominate so numeric readers see near-miss inputs, with
/// control and multi-byte characters sprinkled in.
fn random_char(rng: &mut TestRng) -> char {
    match rng.below(10) {
        0..=3 => char::from(b'0' + rng.below(10) as u8),
        4 => ' ',
        5 => '\n',
        6 => ['\t', '\r', '#', '%', '-', '+', '.', 'e'][rng.below(8)],
        7..=8 => char::from(b' ' + rng.below(95) as u8),
        _ => char::from_u32(0x80 + rng.below(0xFFF) as u32).unwrap_or('\u{fffd}'),
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn gen(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.gen(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A 0);
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
    (A 0, B 1, C 2, D 3, E 4);
}

/// The proptest entry macro: wraps property functions into `#[test]`s that
/// run `config.cases` random cases each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(stringify!($name));
            for case in 0..config.cases {
                $(let $pat = $crate::Strategy::gen(&$strat, &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!("property {} failed at case {}: {}", stringify!($name), case, e);
                }
            }
        }
    )*};
}

/// Asserts a condition inside a [`proptest!`] body, failing the case (not
/// the process) on violation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: {} == {} ({:?} vs {:?})",
            stringify!($a),
            stringify!($b),
            a,
            b
        );
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: {} != {} (both {:?})",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.25..0.75).contains(&y));
        }

        #[test]
        fn vec_sizes_respected(v in crate::collection::vec(0u32..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn flat_map_chains((n, v) in (1usize..8).prop_flat_map(|n|
            crate::collection::vec(0usize..n, n).prop_map(move |v| (n, v)))
        ) {
            prop_assert_eq!(v.len(), n);
            prop_assert!(v.iter().all(|&x| x < n));
        }

        #[test]
        fn string_pattern_lengths(s in ".{0,40}") {
            prop_assert!(s.chars().count() <= 40);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            #[allow(unreachable_code)]
            fn inner(x in 0u32..10) {
                prop_assert!(x >= 10, "x was {}", x);
            }
        }
        inner();
    }
}
