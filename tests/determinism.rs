//! Determinism guarantees: seed-driven components must reproduce exactly;
//! thread-count changes must not affect *validity* of results.

use parcom::community::{
    quality::modularity, Cggc, CommunityDetector, Epp, Louvain, MoveStrategy, Plm, Plp, Rg,
};
use parcom::generators::{
    barabasi_albert, erdos_renyi, lfr, planted_partition, rmat, watts_strogatz, LfrParams,
    PlantedPartitionParams, RmatParams,
};
use parcom::graph::parallel::with_threads;

#[test]
fn all_generators_are_seed_deterministic() {
    macro_rules! check {
        ($name:literal, $make:expr) => {{
            let a = $make;
            let b = $make;
            assert_eq!(a.node_count(), b.node_count(), "{} node count", $name);
            for u in a.nodes() {
                assert_eq!(a.neighbors(u), b.neighbors(u), "{} adjacency", $name);
            }
        }};
    }
    check!("er", erdos_renyi(200, 0.05, 3));
    check!("ba", barabasi_albert(200, 2, 3));
    check!("ws", watts_strogatz(200, 2, 0.2, 3));
    check!("rmat", rmat(RmatParams::paper_with_edge_factor(8, 4), 3));
    check!("lfr", lfr(LfrParams::benchmark(300, 0.3), 3).0);
    check!(
        "planted",
        planted_partition(
            PlantedPartitionParams {
                n: 200,
                k: 4,
                p_in: 0.2,
                p_out: 0.01
            },
            3
        )
        .0
    );
}

#[test]
fn sequential_algorithms_reproduce_exactly() {
    let (g, _) = lfr(LfrParams::benchmark(500, 0.4), 7);
    let seeded = |mut algo: Box<dyn CommunityDetector>| {
        algo.set_seed(11);
        algo.detect(&g)
    };
    let a = seeded(Box::new(Louvain::new()));
    let b = seeded(Box::new(Louvain::new()));
    assert_eq!(a.as_slice(), b.as_slice());
    let a = seeded(Box::new(Rg::new()));
    let b = seeded(Box::new(Rg::new()));
    assert_eq!(a.as_slice(), b.as_slice());
}

#[test]
fn parallel_algorithms_are_deterministic_single_threaded() {
    let (g, _) = lfr(LfrParams::benchmark(500, 0.4), 8);
    with_threads(1, || {
        let seeded_plp = || {
            let mut plp = Plp::new();
            plp.set_seed(5);
            plp
        };
        let a = seeded_plp().detect(&g);
        let b = seeded_plp().detect(&g);
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "PLP not deterministic on 1 thread"
        );
        let a = Plm::new().detect(&g);
        let b = Plm::new().detect(&g);
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "PLM not deterministic on 1 thread"
        );
    });
}

#[test]
fn coloring_partitions_are_bit_identical_across_thread_counts() {
    // The DESIGN.md §14 determinism contract: the full PLM hierarchy —
    // coloring, move phases, coarsening, prolongation — must produce the
    // exact same labels at 1, 2 and 4 threads and across repeated runs.
    let (g, _) = lfr(LfrParams::benchmark(1200, 0.35), 13);
    let strategy = MoveStrategy::Coloring;
    let reference = with_threads(1, || Plm::with_strategy(strategy).detect(&g));
    for threads in [1usize, 2, 4] {
        for rep in 0..2 {
            let zeta = with_threads(threads, || Plm::with_strategy(strategy).detect(&g));
            assert_eq!(
                zeta.as_slice(),
                reference.as_slice(),
                "{strategy} differs at {threads} threads (rep {rep})"
            );
        }
    }
    // PLMR runs a second (refinement) move phase per level — the
    // contract must survive that too.
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
    let r1 = plmr(1);
    let r4 = plmr(4);
    assert_eq!(
        r1.as_slice(),
        r4.as_slice(),
        "PLMR[{strategy}] differs across thread counts"
    );
}

#[test]
fn cggc_partitions_are_bit_identical_across_thread_counts() {
    // RG members are sequential and seeded, the hash combine densifies in
    // node order and `coarsen` is bit-identical at every thread count, so
    // running the members concurrently must not show in the labels.
    let (g, _) = lfr(LfrParams::benchmark(600, 0.35), 17);
    for make in [Cggc::new, Cggc::iterated] {
        let detect = |threads| {
            with_threads(threads, || {
                let mut cggc = make(4);
                cggc.set_seed(7);
                cggc.detect(&g)
            })
        };
        let reference = detect(1);
        for threads in [2usize, 4] {
            assert_eq!(
                detect(threads).as_slice(),
                reference.as_slice(),
                "{} differs at {threads} threads",
                make(4).name()
            );
        }
    }
}

#[test]
fn thread_count_does_not_break_quality() {
    let (g, _) = lfr(LfrParams::benchmark(800, 0.3), 9);
    let q1 = with_threads(1, || modularity(&g, &Plm::new().detect(&g)));
    let q4 = with_threads(4, || modularity(&g, &Plm::new().detect(&g)));
    // the paper: "only small deviations in quality between single-threaded
    // and multi-threaded runs"
    assert!(
        (q1 - q4).abs() < 0.05,
        "PLM quality diverges across thread counts: {q1} vs {q4}"
    );
    let q1 = with_threads(1, || modularity(&g, &Epp::plp_plm(2).detect(&g)));
    let q4 = with_threads(4, || modularity(&g, &Epp::plp_plm(2).detect(&g)));
    assert!(
        (q1 - q4).abs() < 0.08,
        "EPP quality diverges across thread counts: {q1} vs {q4}"
    );
}
