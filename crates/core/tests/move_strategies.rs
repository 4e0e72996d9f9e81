//! Differential quality tests for the PLM move strategies (DESIGN.md §14).
//!
//! `Coloring` trades the racy move phase's wild interleavings for a
//! conflict-free schedule. That changes *which* local optimum each run
//! lands in, but must not change the quality regime: on seeded LFR and
//! R-MAT instances the deterministic strategy has to stay within a small
//! modularity tolerance of the `Racy` baseline, be exactly reproducible
//! run-to-run, and degrade gracefully when a budget cuts it at a class
//! boundary.

use parcom_core::quality::modularity;
use parcom_core::{Budget, CommunityDetector, MoveStrategy, Plm, Termination};
use parcom_generators::{lfr, rmat, LfrParams, RmatParams};
use parcom_graph::Graph;

/// Modularity of a fresh seeded run under `strategy`.
fn run(g: &Graph, strategy: MoveStrategy, refine: bool) -> (f64, Vec<u32>) {
    let mut plm = Plm {
        refine,
        move_strategy: strategy,
        ..Plm::default()
    };
    plm.set_seed(1);
    let zeta = plm.detect(g);
    (modularity(g, &zeta), zeta.as_slice().to_vec())
}

/// The paper's quality claim, transposed to strategies: conflict-free
/// schedules may shift the local optimum but not the quality regime.
const TOLERANCE: f64 = 0.05;

#[test]
fn deterministic_strategies_match_racy_quality_on_lfr() {
    for (n, mu, seed) in [(2_000, 0.3, 5), (1_500, 0.45, 9)] {
        let (g, _) = lfr(LfrParams::benchmark(n, mu), seed);
        let (q_racy, _) = run(&g, MoveStrategy::Racy, false);
        let strategy = MoveStrategy::Coloring;
        let (q, zeta) = run(&g, strategy, false);
        assert!(
            q >= q_racy - TOLERANCE,
            "{strategy} on LFR({n},{mu}) seed {seed}: q={q} vs racy {q_racy}"
        );
        // exactly reproducible run-to-run, not merely close
        let (q2, zeta2) = run(&g, strategy, false);
        assert_eq!(zeta, zeta2, "{strategy} not reproducible run-to-run");
        assert_eq!(q.to_bits(), q2.to_bits(), "{strategy} modularity drifts");
    }
}

#[test]
fn deterministic_strategies_match_racy_quality_on_rmat() {
    // R-MAT has no planted structure, so absolute modularity is low; the
    // differential bound is what matters.
    let g = rmat(RmatParams::paper_with_edge_factor(12, 8), 3);
    let (q_racy, _) = run(&g, MoveStrategy::Racy, false);
    let strategy = MoveStrategy::Coloring;
    let (q, zeta) = run(&g, strategy, false);
    assert!(
        q >= q_racy - TOLERANCE,
        "{strategy} on R-MAT s12: q={q} vs racy {q_racy}"
    );
    let (_, zeta2) = run(&g, strategy, false);
    assert_eq!(zeta, zeta2, "{strategy} not reproducible on R-MAT");
}

#[test]
fn refinement_keeps_the_differential_bound() {
    let (g, _) = lfr(LfrParams::benchmark(1_200, 0.35), 7);
    let (q_racy, _) = run(&g, MoveStrategy::Racy, true);
    let strategy = MoveStrategy::Coloring;
    let (q, _) = run(&g, strategy, true);
    assert!(
        q >= q_racy - TOLERANCE,
        "PLMR[{strategy}]: q={q} vs racy {q_racy}"
    );
}

#[test]
fn budget_cuts_at_class_and_commit_boundaries_stay_valid() {
    // A sweep budget small enough to expire inside the move phase: the
    // coloring strategy must cut at a color-class boundary, returning a
    // valid dense partition with a budget-expired termination record.
    let (g, _) = lfr(LfrParams::benchmark(2_000, 0.4), 11);
    let strategy = MoveStrategy::Coloring;
    // the sweep counter lives inside the budget, so each run gets a
    // fresh one
    let r =
        Plm::with_strategy(strategy).detect_guarded(&g, &Budget::unlimited().with_max_sweeps(1));
    assert_eq!(r.partition.len(), g.node_count(), "{strategy}");
    r.partition
        .validate_dense()
        .unwrap_or_else(|e| panic!("{strategy}: invalid degraded partition: {e:?}"));
    assert_eq!(
        r.termination,
        Termination::IterationCap,
        "{strategy}: sweep budget of 1 should expire mid-run"
    );
    // degraded-but-deterministic: the cut lands at the same boundary
    // every time
    let r2 =
        Plm::with_strategy(strategy).detect_guarded(&g, &Budget::unlimited().with_max_sweeps(1));
    assert_eq!(
        r.partition.as_slice(),
        r2.partition.as_slice(),
        "{strategy}: budget cut is not deterministic"
    );
}
