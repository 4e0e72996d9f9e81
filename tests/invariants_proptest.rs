//! Property-based tests on the core data structures and algorithm
//! invariants, driven by randomly generated graphs and partitions.

use parcom::community::combine::{core_communities, core_communities_exact};
use parcom::community::compare::{jaccard_index, nmi, rand_index};
use parcom::community::quality::{coverage, modularity};
use parcom::community::{move_phase, CommunityDetector, Plm};
use parcom::graph::{coarsen, AtomicPartition, GraphBuilder, Partition};
use proptest::prelude::*;

/// Strategy: a random weighted graph with up to `max_n` nodes.
fn arb_graph(max_n: usize) -> impl Strategy<Value = parcom::graph::Graph> {
    (2..max_n).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 1u32..100u32);
        proptest::collection::vec(edge, 0..(4 * n)).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                b.add_edge(u, v, w as f64 / 10.0);
            }
            b.build()
        })
    })
}

/// Strategy: a graph plus a random partition of its nodes.
fn arb_graph_and_partition(
    max_n: usize,
) -> impl Strategy<Value = (parcom::graph::Graph, Partition)> {
    arb_graph(max_n).prop_flat_map(|g| {
        let n = g.node_count();
        proptest::collection::vec(0..(n as u32 / 2 + 1), n)
            .prop_map(move |data| (g.clone(), Partition::from_vec(data)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_output_is_always_consistent(g in arb_graph(60)) {
        prop_assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn volume_identity_holds(g in arb_graph(60)) {
        let vol: f64 = g.nodes().map(|u| g.volume(u)).sum();
        let expect = 2.0 * g.total_edge_weight();
        prop_assert!((vol - expect).abs() <= 1e-9 * expect.abs().max(1.0));
    }

    #[test]
    fn coarsening_preserves_total_weight_and_node_coverage(
        (g, p) in arb_graph_and_partition(50)
    ) {
        let c = coarsen(&g, &p);
        prop_assert!((c.coarse.total_edge_weight() - g.total_edge_weight()).abs() < 1e-9);
        prop_assert_eq!(c.fine_to_coarse.len(), g.node_count());
        let mut p2 = p.clone();
        prop_assert_eq!(c.coarse.node_count(), p2.compact());
    }

    #[test]
    fn coarse_modularity_equals_fine_modularity(
        (g, p) in arb_graph_and_partition(50)
    ) {
        // contracting by ζ and scoring singletons on G' must equal mod(ζ, G)
        let c = coarsen(&g, &p);
        let coarse_singletons = Partition::singleton(c.coarse.node_count());
        let q_coarse = modularity(&c.coarse, &coarse_singletons);
        let q_fine = modularity(&g, &p);
        prop_assert!((q_coarse - q_fine).abs() < 1e-9,
            "coarse {} vs fine {}", q_coarse, q_fine);
    }

    #[test]
    fn prolong_preserves_grouping((g, p) in arb_graph_and_partition(40)) {
        let c = coarsen(&g, &p);
        let prolonged = c.prolong(&Partition::singleton(c.coarse.node_count()));
        for u in 0..g.node_count() as u32 { // audit:allow(lossy-cast): bounded by the u32 node id space
            for v in 0..g.node_count() as u32 { // audit:allow(lossy-cast): bounded by the u32 node id space
                prop_assert_eq!(p.in_same_subset(u, v), prolonged.in_same_subset(u, v));
            }
        }
    }

    #[test]
    fn modularity_bounded((g, p) in arb_graph_and_partition(50)) {
        if g.total_edge_weight() > 0.0 {
            let q = modularity(&g, &p);
            prop_assert!((-0.5..=1.0).contains(&q), "modularity {} out of range", q);
            let cov = coverage(&g, &p);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&cov));
        }
    }

    #[test]
    fn move_phase_never_harms_quality_materially((g, p) in arb_graph_and_partition(40)) {
        // parallel moves on stale data may transiently lose, but from any
        // start the final state of a full move phase must not be worse
        if g.total_edge_weight() > 0.0 {
            let before = modularity(&g, &p);
            let mut zeta = p.clone();
            move_phase(&g, &mut zeta, 1.0, 32);
            let after = modularity(&g, &zeta);
            // single-threaded the phase is monotone; under real parallelism
            // stale reads permit small transient losses (§III-B)
            prop_assert!(after >= before - 0.05,
                "move phase degraded modularity {} -> {}", before, after);
        }
    }

    #[test]
    fn plm_beats_trivial_partitions(g in arb_graph(50)) {
        if g.total_edge_weight() > 0.0 {
            let zeta = Plm::new().detect(&g);
            let q = modularity(&g, &zeta);
            prop_assert!(q >= modularity(&g, &Partition::singleton(g.node_count())) - 1e-9);
            prop_assert!(q >= modularity(&g, &Partition::all_in_one(g.node_count())) - 1e-9);
        }
    }

    #[test]
    fn hash_combine_always_matches_exact(
        parts in proptest::collection::vec(
            proptest::collection::vec(0u32..8, 30), 1..5)
    ) {
        let solutions: Vec<Partition> =
            parts.into_iter().map(Partition::from_vec).collect();
        let mut fast = core_communities(&solutions);
        let mut exact = core_communities_exact(&solutions);
        fast.compact();
        exact.compact();
        prop_assert_eq!(fast.as_slice(), exact.as_slice());
    }

    #[test]
    fn similarity_measures_are_reflexive_and_bounded(
        data in proptest::collection::vec(0u32..6, 2..40),
        data2 in proptest::collection::vec(0u32..6, 2..40),
    ) {
        let n = data.len().min(data2.len());
        let a = Partition::from_vec(data[..n].to_vec());
        let b = Partition::from_vec(data2[..n].to_vec());
        prop_assert_eq!(jaccard_index(&a, &a), 1.0);
        for f in [jaccard_index(&a, &b), rand_index(&a, &b), nmi(&a, &b)] {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
        }
        // symmetry
        prop_assert!((jaccard_index(&a, &b) - jaccard_index(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn atomic_partition_stays_valid_under_concurrent_relaxed_writes(
        n in 1usize..48,
        plans in proptest::collection::vec(
            proptest::collection::vec((0u32..48, 0u32..48), 0..64), 2..5),
    ) {
        // the PLP/PLM shared-assignment protocol: any number of threads
        // race relaxed writes of in-range labels against each other; the
        // result must still be a valid partition with every label one
        // some thread actually wrote (never torn, never out of range)
        let upper = n as u32;
        let labels = AtomicPartition::singleton(n);
        std::thread::scope(|s| {
            for plan in &plans {
                let labels = &labels;
                s.spawn(move || {
                    for &(v, c) in plan {
                        labels.set(v % upper, c % upper);
                    }
                });
            }
        });
        prop_assert!(labels.validate(upper).is_ok());
        let snapshot = labels.to_partition();
        prop_assert_eq!(snapshot.len(), n);
        prop_assert!(snapshot.as_slice().iter().all(|&c| c < upper));
    }

    #[test]
    fn partition_compact_is_idempotent(data in proptest::collection::vec(0u32..50, 1..80)) {
        let mut p = Partition::from_vec(data);
        let k1 = p.compact();
        let snapshot = p.as_slice().to_vec();
        let k2 = p.compact();
        prop_assert_eq!(k1, k2);
        prop_assert_eq!(p.as_slice(), snapshot.as_slice());
    }
}
