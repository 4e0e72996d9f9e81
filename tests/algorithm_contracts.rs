//! Contract tests every community detection algorithm must satisfy,
//! exercised across the full registry.

use parcom::community::{quality::modularity, spec::REGISTRY, CommunityDetector, DetectorSpec};
use parcom::generators::{lfr, ring_of_cliques, LfrParams};
use parcom::graph::{Graph, GraphBuilder, Partition};

/// Every registered algorithm at its default knobs.
fn registry() -> Vec<Box<dyn CommunityDetector + Send>> {
    REGISTRY
        .iter()
        .map(|info| {
            let spec = DetectorSpec::new(info.name).expect("registered name");
            spec.build().expect("default knobs are valid")
        })
        .collect()
}

fn check_valid_partition(zeta: &Partition, g: &Graph, name: &str) {
    assert_eq!(zeta.len(), g.node_count(), "{name}: wrong partition length");
    // ids within bounds
    // audit:allow(lossy-cast): bounded by the u32 node id space
    for v in 0..zeta.len() as u32 {
        assert!(
            zeta.subset_of(v) < zeta.upper_bound(),
            "{name}: id out of bounds"
        );
    }
}

#[test]
fn every_algorithm_returns_a_valid_partition() {
    let (g, _) = lfr(LfrParams::benchmark(400, 0.3), 11);
    for mut algo in registry() {
        let name = algo.name();
        let zeta = algo.detect(&g);
        check_valid_partition(&zeta, &g, &name);
    }
}

#[test]
fn every_algorithm_handles_the_empty_graph() {
    let g = GraphBuilder::new(0).build();
    for mut algo in registry() {
        let zeta = algo.detect(&g);
        assert_eq!(zeta.len(), 0, "{}: nonempty result", algo.name());
    }
}

#[test]
fn every_algorithm_handles_an_edgeless_graph() {
    let g = GraphBuilder::new(7).build();
    for mut algo in registry() {
        let name = algo.name();
        let zeta = algo.detect(&g);
        check_valid_partition(&zeta, &g, &name);
        assert_eq!(zeta.number_of_subsets(), 7, "{name}: merged isolated nodes");
    }
}

#[test]
fn every_algorithm_handles_a_single_edge() {
    let g = GraphBuilder::from_edges(2, &[(0, 1)]);
    for mut algo in registry() {
        let name = algo.name();
        let zeta = algo.detect(&g);
        check_valid_partition(&zeta, &g, &name);
        // merging the only edge is the unique positive-modularity move... for
        // a single edge, coverage 1 vs expected 1 gives mod 0 either way, so
        // both answers are admissible; only validity is required here.
    }
}

#[test]
fn every_algorithm_handles_self_loops() {
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 0, 2.0);
    b.add_edge(0, 1, 1.0);
    b.add_edge(2, 3, 1.0);
    b.add_edge(1, 1, 0.5);
    let g = b.build();
    for mut algo in registry() {
        let name = algo.name();
        let zeta = algo.detect(&g);
        check_valid_partition(&zeta, &g, &name);
    }
}

#[test]
fn every_algorithm_finds_obvious_structure() {
    let (g, truth) = ring_of_cliques(6, 8);
    let q_truth = modularity(&g, &truth);
    for mut algo in registry() {
        let name = algo.name();
        let zeta = algo.detect(&g);
        let q = modularity(&g, &zeta);
        assert!(
            q > 0.5 * q_truth,
            "{name}: modularity {q} too far below planted {q_truth}"
        );
    }
}

#[test]
fn every_algorithm_is_stable_under_weight_scaling() {
    // multiplying all weights by a constant must not change modularity of
    // the returned solutions materially (modularity is scale-invariant)
    let (g, _) = ring_of_cliques(5, 6);
    let mut scaled = GraphBuilder::new(g.node_count());
    g.for_edges(|u, v, w| scaled.add_edge(u, v, w * 10.0));
    let scaled = scaled.build();
    for mut algo in registry() {
        let name = algo.name();
        let q1 = modularity(&g, &algo.detect(&g));
        let q2 = modularity(&scaled, &algo.detect(&scaled));
        assert!(
            (q1 - q2).abs() < 0.15,
            "{name}: weight scaling changed quality {q1} -> {q2}"
        );
    }
}

#[test]
fn disconnected_graphs_never_merge_components_with_positive_gamma() {
    // merging nodes from different components can never raise modularity
    let mut b = GraphBuilder::new(8);
    for (u, v) in [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4)] {
        b.add_unweighted_edge(u, v);
    }
    let g = b.build();
    for mut algo in registry() {
        let name = algo.name();
        let zeta = algo.detect(&g);
        assert!(
            !zeta.in_same_subset(0, 4),
            "{name}: merged disconnected triangles"
        );
    }
}
