//! Deterministic fault injection behind the `fault-inject` feature.
//!
//! Crates plant named sites with [`faultpoint!`] at allocation-heavy and
//! I/O boundaries (builder CSR assembly, chunked parse, coarsening merge,
//! EPP member runs — the registry lives in DESIGN.md §11). In normal builds
//! a site compiles to an empty inline function. Under `fault-inject`, a
//! global [`FaultPlan`] counts crossings per site and can be armed to fire
//! at the K-th crossing of a site, either cancelling a [`CancelToken`] (the
//! cooperative abort path) or panicking (the worst-case unwind path). K can
//! be derived from a seed so a whole test matrix stays deterministic.
//!
//! The plan is process-global; tests that arm it must serialize on
//! [`serial_guard`].

#[cfg(feature = "fault-inject")]
pub use enabled::{serial_guard, FaultAction, FaultPlan};

/// Marks a named fault-injection site. Zero-cost unless the `fault-inject`
/// feature of `parcom-guard` is enabled (the feature gate lives *inside*
/// the guard crate, so callers need no `cfg` of their own).
#[macro_export]
macro_rules! faultpoint {
    ($site:expr) => {
        $crate::fault::crossing($site)
    };
}

/// The no-op crossing used in normal builds.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn crossing(_site: &str) {}

/// The counting/firing crossing used under `fault-inject`.
#[cfg(feature = "fault-inject")]
pub fn crossing(site: &str) {
    enabled::crossing(site);
}

#[cfg(feature = "fault-inject")]
mod enabled {
    use crate::CancelToken;
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// What an armed site does when it fires.
    #[derive(Clone, Debug)]
    pub enum FaultAction {
        /// Fire this token: the run should degrade gracefully and report
        /// [`crate::Termination::Cancelled`].
        Cancel(CancelToken),
        /// Panic at the site: tests wrap the run in `catch_unwind` and
        /// assert nothing is left poisoned or leaked.
        Panic,
    }

    #[derive(Debug, Default)]
    struct SiteState {
        crossings: u64,
        /// Fire when `crossings` reaches this value (1-based).
        fire_at: Option<u64>,
        action: Option<FaultAction>,
    }

    fn plan() -> &'static Mutex<HashMap<String, SiteState>> {
        static PLAN: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();
        PLAN.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn lock() -> MutexGuard<'static, HashMap<String, SiteState>> {
        // Poison-tolerant: a panic injected *while* holding this lock is
        // impossible (actions run after release), but a panicking test
        // elsewhere must not wedge the whole harness.
        plan().lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(super) fn crossing(site: &str) {
        let action = {
            let mut map = lock();
            let st = map.entry(site.to_string()).or_default();
            st.crossings += 1;
            if st.fire_at == Some(st.crossings) {
                st.action.clone()
            } else {
                None
            }
        };
        // Act only after the plan lock is released, so a Panic action can
        // never poison the registry.
        match action {
            Some(FaultAction::Cancel(token)) => token.cancel(),
            Some(FaultAction::Panic) => panic!("fault injected at {site}"),
            None => {}
        }
    }

    /// The process-global fault plan: arm sites, inspect crossing counts,
    /// reset between tests.
    pub struct FaultPlan;

    impl FaultPlan {
        /// Arms `site` to fire `action` at its `k`-th crossing (1-based),
        /// counted from the last [`FaultPlan::clear`]. Re-arming replaces
        /// any previous arming and resets the site's crossing count.
        pub fn arm(site: &str, k: u64, action: FaultAction) {
            assert!(k >= 1, "fault K is 1-based");
            let mut map = lock();
            map.insert(
                site.to_string(),
                SiteState {
                    crossings: 0,
                    fire_at: Some(k),
                    action: Some(action),
                },
            );
        }

        /// Disarms everything and zeroes all crossing counts.
        pub fn clear() {
            lock().clear();
        }

        /// Crossings of `site` since the last clear/arm.
        pub fn crossings(site: &str) -> u64 {
            lock().get(site).map_or(0, |s| s.crossings)
        }

        /// Derives a deterministic 1-based K in `1..=max` from a seed and
        /// the site name (splitmix64 over the seed xor a site hash), so a
        /// seeded test matrix exercises varying crossings without
        /// hand-picking each K.
        // audit:allow(unreachable-pub): fault-plan helper of the fault_inject and crash_recovery matrices
        pub fn derive_k(seed: u64, site: &str, max: u64) -> u64 {
            assert!(max >= 1);
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in site.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            let mut z = seed ^ h;
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            1 + z % max
        }
    }

    /// Serializes tests that arm the global plan. Poison-tolerant, because
    /// panic-injection tests panic while holding it by design.
    // audit:allow(unreachable-pub): fault-plan helper: serializes the fault_inject tests that arm the global plan
    pub fn serial_guard() -> MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fires_cancel_at_kth_crossing() {
            let _g = serial_guard();
            FaultPlan::clear();
            let token = CancelToken::new();
            FaultPlan::arm("t/cancel", 3, FaultAction::Cancel(token.clone()));
            crate::faultpoint!("t/cancel");
            crate::faultpoint!("t/cancel");
            assert!(!token.is_cancelled());
            crate::faultpoint!("t/cancel");
            assert!(token.is_cancelled());
            assert_eq!(FaultPlan::crossings("t/cancel"), 3);
            FaultPlan::clear();
        }

        #[test]
        fn panic_action_does_not_poison_the_plan() {
            let _g = serial_guard();
            FaultPlan::clear();
            FaultPlan::arm("t/panic", 1, FaultAction::Panic);
            let r = std::panic::catch_unwind(|| crate::faultpoint!("t/panic"));
            assert!(r.is_err());
            // The registry is still usable afterwards.
            assert_eq!(FaultPlan::crossings("t/panic"), 1);
            FaultPlan::clear();
            crate::faultpoint!("t/panic");
            assert_eq!(FaultPlan::crossings("t/panic"), 1);
            FaultPlan::clear();
        }

        #[test]
        fn unarmed_sites_only_count() {
            let _g = serial_guard();
            FaultPlan::clear();
            for _ in 0..5 {
                crate::faultpoint!("t/counting");
            }
            assert_eq!(FaultPlan::crossings("t/counting"), 5);
            FaultPlan::clear();
        }

        #[test]
        fn derive_k_is_deterministic_and_in_range() {
            for seed in 0..50u64 {
                let k1 = FaultPlan::derive_k(seed, "io/chunk-parse", 7);
                let k2 = FaultPlan::derive_k(seed, "io/chunk-parse", 7);
                assert_eq!(k1, k2);
                assert!((1..=7).contains(&k1));
            }
            // different sites decorrelate
            let a = FaultPlan::derive_k(1, "a", 1_000_000);
            let b = FaultPlan::derive_k(1, "b", 1_000_000);
            assert_ne!(a, b);
        }
    }
}
