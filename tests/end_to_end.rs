//! End-to-end pipelines spanning all crates: generate → persist → reload →
//! detect → score → export.

use parcom::community::compare::jaccard_index;
use parcom::community::{quality::modularity, CommunityDetector, CommunityGraph, Epp, Plm, Plp};
use parcom::generators::{lfr, planted_partition, LfrParams, PlantedPartitionParams};
use parcom::graph::Graph;
use parcom::io::{self, load_graph_bytes, GraphFormat};
use parcom_guard::Budget;
use parcom_obs::Recorder;

/// Text of `format` through the one decoder.
fn decode(bytes: &[u8], format: GraphFormat) -> Graph {
    load_graph_bytes(bytes, format, &Recorder::disabled(), &Budget::unlimited())
        .unwrap()
        .graph
}

#[test]
fn generate_persist_detect_pipeline() {
    let (g, truth) = planted_partition(
        PlantedPartitionParams {
            n: 1000,
            k: 10,
            p_in: 0.08,
            p_out: 0.002,
        },
        1,
    );

    // METIS round trip
    let mut buf = Vec::new();
    io::metis::write_metis_to(&g, &mut buf).unwrap();
    let reloaded = decode(&buf, GraphFormat::Metis);
    assert_eq!(reloaded.edge_count(), g.edge_count());

    // detection on the reloaded graph recovers the planted structure
    let zeta = Plm::new().detect(&reloaded);
    assert!(
        jaccard_index(&zeta, &truth) > 0.8,
        "PLM failed to recover a strong planted partition: {}",
        jaccard_index(&zeta, &truth)
    );
    assert!(modularity(&reloaded, &zeta) > 0.5);
}

#[test]
fn partition_roundtrip_preserves_solution() {
    let (g, _) = lfr(LfrParams::benchmark(800, 0.3), 2);
    let zeta = Plp::new().detect(&g);
    let mut buf = Vec::new();
    io::partition_io::write_partition_to(&zeta, &mut buf).unwrap();
    let reloaded = io::partition_io::read_partition_from(buf.as_slice()).unwrap();
    assert_eq!(zeta.as_slice(), reloaded.as_slice());
    assert_eq!(modularity(&g, &zeta), modularity(&g, &reloaded));
}

#[test]
fn edge_list_roundtrip_preserves_quality() {
    let (g, _) = lfr(LfrParams::benchmark(600, 0.2), 3);
    let mut text = String::from("# lfr\n");
    g.for_edges(|u, v, w| text.push_str(&format!("{u} {v} {w}\n")));
    let reloaded = decode(text.as_bytes(), GraphFormat::EdgeList);
    // labels were already compact, so grouping carries over directly
    let zeta = Plm::new().detect(&g);
    let zeta2 = Plm::new().detect(&reloaded);
    assert!((modularity(&g, &zeta) - modularity(&reloaded, &zeta2)).abs() < 0.05);
}

#[test]
fn community_graph_export_pipeline() {
    let (g, _) = lfr(LfrParams::benchmark(500, 0.2), 4);
    let zeta = Epp::plp_plm(2).detect(&g);
    let cg = CommunityGraph::build(&g, &zeta);
    assert_eq!(cg.community_count(), zeta.number_of_subsets());
    assert_eq!(cg.sizes.iter().sum::<usize>(), g.node_count());

    let mut buf = Vec::new();
    io::dot::write_community_graph_dot_to(&cg, "test", &mut buf).unwrap();
    let dot = String::from_utf8(buf).unwrap();
    assert!(dot.contains("graph \"test\""));
    assert!(dot.matches('n').count() >= cg.community_count());
}

#[test]
fn all_our_algorithms_beat_plp_or_match_on_quality_ladder() {
    // the paper's quality ordering on a structured instance:
    // PLP <= EPP ~ PLM <= PLMR (allowing small noise)
    let (g, _) = lfr(LfrParams::benchmark(2000, 0.4), 5);
    let q_plp = modularity(&g, &Plp::new().detect(&g));
    let q_plm = modularity(&g, &Plm::new().detect(&g));
    let q_plmr = modularity(&g, &Plm::with_refinement().detect(&g));
    assert!(q_plm >= q_plp - 0.02, "PLM {q_plm} vs PLP {q_plp}");
    assert!(q_plmr >= q_plm - 0.01, "PLMR {q_plmr} vs PLM {q_plm}");
}

#[test]
fn detection_works_across_generator_families() {
    use parcom::generators::{barabasi_albert, grid2d, ring_of_cliques, watts_strogatz};
    let graphs = vec![
        ("ba", barabasi_albert(500, 2, 6)),
        ("ws", watts_strogatz(500, 3, 0.1, 6)),
        ("grid", grid2d(20, 25)),
        ("cliques", ring_of_cliques(10, 5).0),
    ];
    for (name, g) in graphs {
        let zeta = Plm::new().detect(&g);
        let q = modularity(&g, &zeta);
        assert!(q > 0.0, "PLM found no structure on {name} (modularity {q})");
        assert_eq!(zeta.len(), g.node_count());
    }
}
