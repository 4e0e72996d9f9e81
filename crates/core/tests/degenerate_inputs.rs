//! Degenerate-input matrix: every detector configuration the CLI can name,
//! run through `detect_guarded` on pathological graphs — empty, a single
//! node, pure self-loops, a star, and a disconnected forest. The contract
//! is uniform: no panic, `Converged`, and a valid partition covering every
//! node.

use parcom_core::{spec::REGISTRY, Budget, CommunityDetector, DetectorSpec, Termination};
use parcom_graph::{Graph, GraphBuilder};

fn configs() -> Vec<(&'static str, Box<dyn CommunityDetector + Send>)> {
    REGISTRY
        .iter()
        .map(|info| {
            let spec = DetectorSpec::new(info.name).expect("registered name");
            (info.name, spec.build().expect("default knobs are valid"))
        })
        .collect()
}

fn degenerate_graphs() -> Vec<(&'static str, Graph)> {
    let star_edges: Vec<(u32, u32)> = (1..9u32).map(|leaf| (0, leaf)).collect();
    vec![
        ("empty", GraphBuilder::from_edges(0, &[])),
        ("single-node", GraphBuilder::from_edges(1, &[])),
        (
            "all-self-loops",
            GraphBuilder::from_edges(4, &[(0, 0), (1, 1), (2, 2), (3, 3)]),
        ),
        ("star", GraphBuilder::from_edges(9, &star_edges)),
        (
            "disconnected",
            GraphBuilder::from_edges(
                8,
                // two triangles plus two isolated nodes, no bridge anywhere
                &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
            ),
        ),
    ]
}

#[test]
fn every_detector_converges_on_every_degenerate_graph() {
    let budget = Budget::unlimited();
    for (graph_name, g) in degenerate_graphs() {
        for (algo_name, mut algo) in configs() {
            algo.set_seed(7);
            let r = algo.detect_guarded(&g, &budget);
            assert_eq!(
                r.termination,
                Termination::Converged,
                "{algo_name} on {graph_name}: {:?}",
                r.termination
            );
            assert_eq!(
                r.partition.len(),
                g.node_count(),
                "{algo_name} on {graph_name}: partition size"
            );
            assert!(
                r.partition.validate().is_ok(),
                "{algo_name} on {graph_name}: {:?}",
                r.partition.validate()
            );
            assert_eq!(
                r.report.termination.as_deref(),
                Some("converged"),
                "{algo_name} on {graph_name}: report termination"
            );
        }
    }
}
