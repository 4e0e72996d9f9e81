//! Property-based tests across the generator family: whatever the
//! parameters, generators must emit structurally consistent simple graphs
//! with the promised node counts, and planted models must return partitions
//! that exactly cover the node set.

use parcom::generators::{
    barabasi_albert, erdos_renyi, grid2d, lfr, planted_partition, ring_of_cliques, rmat,
    watts_strogatz, LfrParams, PlantedPartitionParams, RmatParams,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn erdos_renyi_always_consistent(n in 0usize..300, p in 0.0f64..0.2, seed in 0u64..50) {
        let g = erdos_renyi(n, p, seed);
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.validate(), Ok(()));
        prop_assert!(g.edge_count() <= n.saturating_mul(n.saturating_sub(1)) / 2);
    }

    #[test]
    fn barabasi_albert_always_consistent(
        n in 10usize..300, attach in 1usize..5, seed in 0u64..50
    ) {
        let g = barabasi_albert(n, attach, seed);
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.validate(), Ok(()));
        // minimum degree is the attachment count
        prop_assert!(g.nodes().all(|u| g.degree(u) >= attach));
    }

    #[test]
    fn watts_strogatz_preserves_edge_count(
        k in 1usize..4, beta in 0.0f64..1.0, seed in 0u64..50
    ) {
        let n = 50;
        let g = watts_strogatz(n, k, beta, seed);
        prop_assert_eq!(g.edge_count(), n * k);
        prop_assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn rmat_has_power_of_two_nodes(scale in 4u32..10, ef in 1usize..8, seed in 0u64..50) {
        let g = rmat(RmatParams::paper_with_edge_factor(scale, ef), seed);
        prop_assert_eq!(g.node_count(), 1usize << scale);
        prop_assert_eq!(g.validate(), Ok(()));
        prop_assert!(g.edge_count() <= (1usize << scale) * ef);
    }

    #[test]
    fn lfr_partition_covers_nodes(n in 300usize..1200, mu in 0.05f64..0.8, seed in 0u64..30) {
        let (g, truth) = lfr(LfrParams::benchmark(n.max(120), mu), seed);
        prop_assert_eq!(g.node_count(), truth.len());
        prop_assert_eq!(truth.subset_sizes().iter().sum::<usize>(), g.node_count());
        prop_assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn planted_partition_blocks_balanced(
        k in 1usize..8, seed in 0u64..30
    ) {
        let n = 160;
        let (g, truth) = planted_partition(
            PlantedPartitionParams { n, k, p_in: 0.1, p_out: 0.01 },
            seed,
        );
        prop_assert_eq!(g.validate(), Ok(()));
        prop_assert_eq!(truth.number_of_subsets(), k);
        let sizes = truth.subset_sizes();
        let (min, max) = (
            sizes.iter().filter(|&&s| s > 0).min().copied().unwrap(),
            sizes.iter().max().copied().unwrap(),
        );
        prop_assert!(max - min <= 1, "blocks must be near-equal: {:?}", sizes);
    }

    #[test]
    fn grids_and_cliques_consistent(w in 1usize..12, h in 1usize..12, s in 1usize..6) {
        let g = grid2d(w, h);
        prop_assert_eq!(g.validate(), Ok(()));
        let (rc, truth) = ring_of_cliques(w.max(1), s);
        prop_assert_eq!(rc.validate(), Ok(()));
        prop_assert_eq!(truth.len(), rc.node_count());
    }
}
