//! Differential tests for degree-ordered relabeling (DESIGN.md §15).
//!
//! Relabeling is a *view* change, not a graph change: the reordered graph
//! must be isomorphic to the original under the stored permutation, and
//! every per-node artifact (partitions, community sizes, quality scores)
//! must survive the round-trip back to original ids. PLP and PLM traverse
//! nodes in id order, so detection on the relabeled view is *not* expected
//! to be bit-identical to detection on the original order — what must hold
//! is that the relabeled pipeline is internally deterministic (in memory
//! vs through a `.pcg` file, and across thread counts for the
//! deterministic move strategies) and that mapped-back results are valid,
//! same-quality partitions of the original graph.

use parcom::community::{quality::modularity, CommunityDetector, MoveStrategy, Plm, Plp};
use parcom::generators::{barabasi_albert, lfr, LfrParams};
use parcom::graph::parallel::with_threads;
use parcom::graph::relabel::Relabeling;
use parcom::graph::{Graph, GraphBuilder, Partition};
use parcom::io::{load_graph_auto, write_pcg};
use parcom_guard::Budget;
use parcom_obs::Recorder;
use proptest::prelude::*;
use std::collections::HashMap;

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("parcom_relabel_diff_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Asserts that `h` is exactly `g` with ids mapped through `r`: same
/// neighbor sets with identical weights, same cached degree/self-loop
/// values, same totals.
fn assert_isomorphic_under(g: &Graph, h: &Graph, r: &Relabeling) {
    assert_eq!(g.node_count(), h.node_count());
    assert_eq!(g.edge_count(), h.edge_count());
    assert!((g.total_edge_weight() - h.total_edge_weight()).abs() < 1e-12);
    for old in g.nodes() {
        let new = r.to_new_id(old);
        assert_eq!(g.degree(old), h.degree(new), "degree of old node {old}");
        assert!(
            (g.weighted_degree(old) - h.weighted_degree(new)).abs() < 1e-12,
            "weighted degree of old node {old}"
        );
        assert!(
            (g.self_loop_weight(old) - h.self_loop_weight(new)).abs() < 1e-12,
            "self-loop weight of old node {old}"
        );
        let mut ours: Vec<(u32, u64)> = g
            .edges_of(old)
            .map(|(v, w)| (r.to_new_id(v), w.to_bits()))
            .collect();
        let mut theirs: Vec<(u32, u64)> = h.edges_of(new).map(|(v, w)| (v, w.to_bits())).collect();
        ours.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(ours, theirs, "adjacency of old node {old} (new id {new})");
    }
}

/// Multiset of community sizes, ignoring community ids.
fn size_multiset(p: &Partition) -> Vec<usize> {
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for &c in p.as_slice() {
        *counts.entry(c).or_insert(0) += 1;
    }
    let mut sizes: Vec<usize> = counts.into_values().collect();
    sizes.sort_unstable();
    sizes
}

/// Strategy: a random connected-ish weighted graph with up to `max_n` nodes.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 1u32..100u32);
        proptest::collection::vec(edge, n..(4 * n)).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            // a backbone path so degree_ordered sees varied degrees even
            // when the random edges collapse into duplicates
            for u in 1..n as u32 {
                b.add_unweighted_edge(u - 1, u);
            }
            for (u, v, w) in edges {
                b.add_edge(u, v, w as f64 / 10.0);
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Relabeling any graph yields an isomorphic graph, and applying the
    /// inverse permutation to the relabeled view restores the original
    /// bit-for-bit.
    #[test]
    fn relabel_roundtrip_is_bit_identical(g in arb_graph(50)) {
        let r = Relabeling::degree_ordered(&g);
        let h = r.apply(&g);
        assert_isomorphic_under(&g, &h, &r);

        // the inverse relabeling, seen from h's id space: new_of_old is
        // r.old_of_new
        let inv = Relabeling::from_new_of_old(r.old_of_new().to_vec()).unwrap();
        let back = inv.apply(&h);
        for u in g.nodes() {
            prop_assert_eq!(g.neighbors(u), back.neighbors(u));
            let (_, gw) = g.neighbors_and_weights(u);
            let (_, bw) = back.neighbors_and_weights(u);
            let gw: Vec<u64> = gw.iter().map(|w| w.to_bits()).collect();
            let bw: Vec<u64> = bw.iter().map(|w| w.to_bits()).collect();
            prop_assert_eq!(gw, bw);
        }
    }

    /// Partition mapping round-trips exactly, and quality is invariant
    /// under the id-space change (same clustering, both id spaces).
    #[test]
    fn partition_mapping_roundtrips_and_preserves_quality(g in arb_graph(50)) {
        let r = Relabeling::degree_ordered(&g);
        let h = r.apply(&g);
        let zeta_new = Plm::new().detect(&h);
        let zeta_old = r.to_original(&zeta_new);
        let remapped = r.to_new(&zeta_old);
        prop_assert_eq!(zeta_new.as_slice(), remapped.as_slice());
        prop_assert_eq!(size_multiset(&zeta_new), size_multiset(&zeta_old));
        let q_new = modularity(&h, &zeta_new);
        let q_old = modularity(&g, &zeta_old);
        prop_assert!(
            (q_new - q_old).abs() < 1e-9,
            "modularity not invariant under relabeling: {} vs {}", q_new, q_old
        );
    }
}

/// The full pipeline is deterministic: detect on the in-memory relabeled
/// view vs detect on the same view written to and reread from a `.pcg`
/// file must be bit-identical, for both PLP and PLM, and the reread
/// permutation must map both back to the same original-id partition.
#[test]
fn pcg_pipeline_matches_in_memory_relabeling_bit_for_bit() {
    let (g, _) = lfr(LfrParams::benchmark(600, 0.35), 21);
    let r = Relabeling::degree_ordered(&g);
    let h = r.apply(&g);
    let path = temp_path("pipeline.pcg");
    write_pcg(&h, Some(&r), &path).unwrap();
    let loaded = load_graph_auto(&path, &Recorder::disabled(), &Budget::unlimited()).unwrap();
    let lr = loaded
        .relabeling
        .expect("permutation must survive the file");
    assert_eq!(lr.new_of_old(), r.new_of_old());

    with_threads(1, || {
        let mem_plm = Plm::new().detect(&h);
        let file_plm = Plm::new().detect(&loaded.graph);
        assert_eq!(
            mem_plm.as_slice(),
            file_plm.as_slice(),
            "PLM diverges between the in-memory and reread relabeled views"
        );
        assert_eq!(
            r.to_original(&mem_plm).as_slice(),
            lr.to_original(&file_plm).as_slice()
        );

        let seeded_plp = |g: &Graph| {
            let mut plp = Plp::new();
            plp.set_seed(5);
            plp.detect(g)
        };
        let mem_plp = seeded_plp(&h);
        let file_plp = seeded_plp(&loaded.graph);
        assert_eq!(
            mem_plp.as_slice(),
            file_plp.as_slice(),
            "PLP diverges between the in-memory and reread relabeled views"
        );
    });
}

/// The deterministic move strategies stay deterministic on the relabeled
/// view: 1 thread and 4 threads produce bit-identical partitions, which
/// map back to bit-identical original-id partitions.
#[test]
fn deterministic_strategies_survive_relabeling_across_thread_counts() {
    let g = barabasi_albert(800, 4, 17);
    let r = Relabeling::degree_ordered(&g);
    let h = r.apply(&g);
    let strategy = MoveStrategy::Coloring;
    let z1 = with_threads(1, || Plm::with_strategy(strategy).detect(&h));
    let z4 = with_threads(4, || Plm::with_strategy(strategy).detect(&h));
    assert_eq!(
        z1.as_slice(),
        z4.as_slice(),
        "{strategy} differs across thread counts on the relabeled view"
    );
    assert_eq!(r.to_original(&z1).as_slice(), r.to_original(&z4).as_slice());
}

/// Detection on the relabeled view, mapped back, is a valid same-scale
/// partition of the original graph: every node labeled, quality within
/// the band the paper reports for order perturbations.
#[test]
fn relabeled_detection_quality_matches_original_order() {
    let (g, _) = lfr(LfrParams::benchmark(1000, 0.3), 33);
    let r = Relabeling::degree_ordered(&g);
    let h = r.apply(&g);
    let q_orig = modularity(&g, &Plm::new().detect(&g));
    let q_rel = modularity(&g, &r.to_original(&Plm::new().detect(&h)));
    assert!(
        (q_orig - q_rel).abs() < 0.05,
        "relabeling moved PLM quality too far: {q_orig} vs {q_rel}"
    );
}
