//! Web-graph analysis pipeline: generate an R-MAT web graph with the
//! paper's parameters, persist it in METIS format, reload, detect
//! communities at interactive speed with PLP and PLM, and export the
//! community graph for visualization — the full workflow the paper's
//! "interactive data analysis on a multicore workstation" scenario targets.
//!
//! Run with: `cargo run --release --example web_graph_pipeline`

use parcom::community::Budget;
use parcom::community::{quality::modularity, CommunityDetector, CommunityGraph, Plm, Plp};
use parcom::generators::{rmat, RmatParams};
use parcom::io;
use parcom_obs::Recorder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::env::temp_dir().join("parcom_web_pipeline");
    std::fs::create_dir_all(&out_dir)?;

    // 1. generate (paper's R-MAT parameters, scaled to a workstation demo)
    let graph = rmat(RmatParams::paper_with_edge_factor(14, 16), 7);
    println!(
        "generated web graph: n={}, m={}, max degree {}",
        graph.node_count(),
        graph.edge_count(),
        graph.max_degree()
    );

    // 2. persist and reload (METIS, the DIMACS corpus format)
    let path = out_dir.join("web.metis");
    io::write_metis(&graph, &path)?;
    let reloaded = io::load_graph_auto(&path, &Recorder::disabled(), &Budget::unlimited())?.graph;
    assert_eq!(reloaded.edge_count(), graph.edge_count());
    println!("round-tripped through {}", path.display());

    // 3. detect: PLP for speed, PLM for quality
    for (name, zeta) in [
        ("PLP", Plp::new().detect(&reloaded)),
        ("PLM", Plm::new().detect(&reloaded)),
    ] {
        println!(
            "{name}: {} communities, modularity {:.4}",
            zeta.number_of_subsets(),
            modularity(&reloaded, &zeta)
        );
        // 4. export the community graph for rendering
        let cg = CommunityGraph::build(&reloaded, &zeta);
        let dot = out_dir.join(format!("communities_{name}.dot"));
        io::write_community_graph_dot(&cg, name, &dot)?;
        println!("  community graph written to {}", dot.display());
    }
    Ok(())
}
