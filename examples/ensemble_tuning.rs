//! Ensemble tuning: the §V-D analysis. Measures (1) the diversity of PLP
//! base solutions via Jaccard dissimilarity and (2) how EPP quality moves
//! with the ensemble size b — the ablations behind the paper's choice of
//! b = 4 with implicitly randomized bases.
//!
//! Run with: `cargo run --release --example ensemble_tuning`

use parcom::community::compare::jaccard_dissimilarity;
use parcom::community::{quality::modularity, CommunityDetector, Epp, Plp};
use parcom::generators::{lfr, LfrParams};

fn main() {
    let (graph, _) = lfr(LfrParams::benchmark(8_000, 0.4), 5);
    println!(
        "instance: LFR n={} m={} mu=0.4\n",
        graph.node_count(),
        graph.edge_count()
    );

    // (1) base-solution diversity
    let bases: Vec<_> = (0..4)
        .map(|i| {
            let mut plp = Plp::new();
            plp.set_seed(i as u64 + 1);
            plp.detect(&graph)
        })
        .collect();
    println!("PLP base-solution diversity (Jaccard dissimilarity):");
    for i in 0..bases.len() {
        for j in (i + 1)..bases.len() {
            println!(
                "  base {i} vs base {j}: {:.3}",
                jaccard_dissimilarity(&bases[i], &bases[j])
            );
        }
    }

    // (2) ensemble size sweep
    println!("\nEPP(b, PLP, PLM) ensemble size sweep:");
    for b in [1usize, 2, 4, 8] {
        let start = std::time::Instant::now();
        let zeta = Epp::plp_plm(b).detect(&graph);
        println!(
            "  b={b}: modularity {:.4}, {} communities, {:.0} ms",
            modularity(&graph, &zeta),
            zeta.number_of_subsets(),
            start.elapsed().as_secs_f64() * 1e3
        );
    }
}
