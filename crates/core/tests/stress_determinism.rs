//! Determinism hammering for the conflict-free move strategy (run with
//! `--features stress`): the DESIGN.md §14 contract says `Coloring`
//! produces *bit-identical* partitions at any thread count.
//! The quick regression in `tests/determinism.rs` checks 1/2/4 threads
//! once; this stress variant hammers the same property across many
//! repetitions and heavily oversubscribed pools (up to 4× the cores this
//! container has), where the shim's real OS threads interleave hardest.
//! One divergent label anywhere in the hierarchy — coloring, proposal
//! order, commit order, coarsening's segmented f64 sums — fails the run.
#![cfg(feature = "stress")]

use parcom_core::{CommunityDetector, MoveStrategy, Plm};
use parcom_generators::{barabasi_albert, lfr, LfrParams};
use parcom_graph::parallel::with_threads;

#[test]
fn oversubscribed_pools_never_change_the_partition() {
    // BA has hubs (high-degree color classes of very different sizes) and
    // LFR has planted blocks; both must hold the contract.
    let instances = [
        lfr(LfrParams::benchmark(1_500, 0.4), 21).0,
        barabasi_albert(1_500, 5, 22),
    ];
    let pools = [1usize, 2, 3, 4, 7, 8, 16];
    for (i, g) in instances.iter().enumerate() {
        let strategy = MoveStrategy::Coloring;
        let reference = with_threads(1, || Plm::with_strategy(strategy).detect(g));
        for rep in 0..5u32 {
            for &threads in &pools {
                let zeta = with_threads(threads, || Plm::with_strategy(strategy).detect(g));
                assert_eq!(
                    zeta.as_slice(),
                    reference.as_slice(),
                    "instance {i}, {strategy}, {threads} threads, rep {rep}"
                );
            }
        }
    }
}

#[test]
fn refinement_holds_the_contract_under_oversubscription() {
    let (g, _) = lfr(LfrParams::benchmark(1_200, 0.35), 23);
    let strategy = MoveStrategy::Coloring;
    let plmr = |threads| {
        with_threads(threads, || {
            Plm {
                refine: true,
                move_strategy: strategy,
                ..Plm::default()
            }
            .detect(&g)
        })
    };
    let reference = plmr(1);
    for rep in 0..3u32 {
        for threads in [2usize, 8, 16] {
            assert_eq!(
                plmr(threads).as_slice(),
                reference.as_slice(),
                "PLMR[{strategy}], {threads} threads, rep {rep}"
            );
        }
    }
}
