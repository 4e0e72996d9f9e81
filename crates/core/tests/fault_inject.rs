//! Abort-path tests for the fault-injection sites as seen from the
//! detectors: a cancel planted at `core/epp-member` or
//! `graph/coarsen-merge` must degrade the guarded run to a valid partition
//! with the right termination cause, and a panic planted at any site must
//! unwind without poisoning pooled scratch or global state — the next run
//! on the same graph converges normally.
//!
//! Compiled only under `--features fault-inject`.
#![cfg(feature = "fault-inject")]

use parcom_core::{Budget, CancelToken, Cggc, CommunityDetector, Epp, Plm, Termination};
use parcom_generators::{lfr, LfrParams};
use parcom_guard::fault::{serial_guard, FaultAction, FaultPlan};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn member_cancel_degrades_to_member_consensus() {
    let _g = serial_guard();
    let (g, _) = lfr(LfrParams::benchmark(600, 0.3), 3);
    // the one driver plants the site for every ensemble, RG members too
    let ensembles: [Box<dyn CommunityDetector>; 2] =
        [Box::new(Epp::plp_plm(3)), Box::new(Cggc::new(3))];
    for mut ensemble in ensembles {
        FaultPlan::clear();
        let token = CancelToken::new();
        FaultPlan::arm("core/epp-member", 2, FaultAction::Cancel(token.clone()));
        let budget = Budget::unlimited().with_token(token);
        let r = ensemble.detect_guarded(&g, &budget);
        assert_eq!(r.termination, Termination::Cancelled);
        assert_eq!(r.partition.len(), g.node_count());
        assert!(r.partition.validate().is_ok());
        assert_eq!(r.report.cut_phase.as_deref(), Some("level-0/ensemble"));
        assert!(FaultPlan::crossings("core/epp-member") >= 2);
    }
    FaultPlan::clear();
}

#[test]
fn epp_member_panic_unwinds_and_harness_recovers() {
    let _g = serial_guard();
    FaultPlan::clear();
    let (g, _) = lfr(LfrParams::benchmark(400, 0.35), 4);
    FaultPlan::arm("core/epp-member", 1, FaultAction::Panic);
    let mut epp = Epp::plp_plm(3);
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        epp.detect_guarded(&g, &Budget::unlimited())
    }));
    assert!(unwound.is_err());
    FaultPlan::clear();
    // no poisoned mutex, no stuck plan: a fresh ensemble converges
    let r = Epp::plp_plm(3).detect_guarded(&g, &Budget::unlimited());
    assert_eq!(r.termination, Termination::Converged);
    assert!(r.partition.validate().is_ok());
}

#[test]
fn coarsen_cancel_mid_plm_bubbles_the_current_level_up() {
    let _g = serial_guard();
    FaultPlan::clear();
    let (g, _) = lfr(LfrParams::benchmark(2000, 0.3), 5);
    let token = CancelToken::new();
    FaultPlan::arm("graph/coarsen-merge", 1, FaultAction::Cancel(token.clone()));
    let budget = Budget::unlimited().with_token(token);
    let r = Plm::new().detect_guarded(&g, &budget);
    // the cancel fires inside level 0's contraction; the next budget check
    // sees it and the level-0 assignment is prolonged up
    assert_eq!(r.termination, Termination::Cancelled);
    assert_eq!(r.partition.len(), g.node_count());
    assert!(r.partition.validate_dense().is_ok());
    assert!(r.report.cut_phase.is_some());
    assert_eq!(r.report.termination.as_deref(), Some("cancelled"));
    FaultPlan::clear();
}

#[test]
fn coarsen_merge_panic_mid_plm_releases_pooled_scratch() {
    let _g = serial_guard();
    FaultPlan::clear();
    // the first crossing is level 0's contraction, after a full move
    // phase has drawn scratch maps from PLM's pool (the contraction
    // assembles its CSR itself, so `graph/csr-assembly` is not on this path)
    let (g, _) = lfr(LfrParams::benchmark(1000, 0.3), 6);
    FaultPlan::arm("graph/coarsen-merge", 1, FaultAction::Panic);
    let mut plm = Plm::new();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        plm.detect_guarded(&g, &Budget::unlimited())
    }));
    assert!(unwound.is_err());
    FaultPlan::clear();
    // pooled scratch died with the run (no global pool to poison) and the
    // next run on the same graph converges
    let r = Plm::new().detect_guarded(&g, &Budget::unlimited());
    assert_eq!(r.termination, Termination::Converged);
    assert!(r.partition.validate_dense().is_ok());
}

#[test]
fn seeded_fault_matrix_always_yields_wellformed_results() {
    let _g = serial_guard();
    let (g, _) = lfr(LfrParams::benchmark(500, 0.35), 7);
    // a deterministic matrix over seeds: the cancel fires at a derived
    // K-th member crossing; wherever it lands, the guarded result must be
    // well-formed and the partition valid
    for seed in 0..6u64 {
        FaultPlan::clear();
        let token = CancelToken::new();
        let k = FaultPlan::derive_k(seed, "core/epp-member", 4);
        FaultPlan::arm("core/epp-member", k, FaultAction::Cancel(token.clone()));
        let budget = Budget::unlimited().with_token(token);
        let r = Epp::plp_plm(4).detect_guarded(&g, &budget);
        assert_eq!(r.partition.len(), g.node_count(), "seed {seed}");
        assert!(r.partition.validate().is_ok(), "seed {seed}");
        assert_eq!(
            r.report.termination.as_deref().unwrap(),
            r.termination.as_str(),
            "seed {seed}"
        );
    }
    FaultPlan::clear();
}
