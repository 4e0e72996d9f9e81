//! Ablation studies for the design choices the paper calls out:
//!
//! * PLP update threshold θ (§III-A: θ = n·10⁻⁵ cuts the long iteration
//!   tail without hurting quality),
//! * PLM resolution parameter γ (§III-B: community size control),
//! * one-level EPP vs the iterated EML scheme (§III-D: iteration does not
//!   pay off).

use parcom_bench::harness::{fmt_secs, print_table, run_measured, time};
use parcom_bench::standard_suite;
use parcom_core::quality::{modularity, modularity_gamma};
use parcom_core::{CommunityDetector, Epp, EppIterated, Plm, Plp};

fn main() {
    let suite = standard_suite();
    let inst = suite.iter().find(|i| i.name == "uk2002-lfr").unwrap();
    let g = inst.graph();
    println!(
        "ablation instance: {} (n={}, m={})",
        inst.name,
        g.node_count(),
        g.edge_count()
    );

    // 1. PLP update threshold θ
    let mut rows = Vec::new();
    for theta in [0.0, 1e-6, 1e-5, 1e-4, 1e-3] {
        let mut plp = Plp {
            theta_fraction: theta,
            ..Plp::default()
        };
        let ((zeta, report), t) = time(|| plp.detect_with_report(&g));
        let iterations = report
            .phase("label-propagation")
            .and_then(|p| p.counter("iterations"))
            .unwrap_or(0);
        rows.push(vec![
            format!("{theta:.0e}"),
            iterations.to_string(),
            fmt_secs(t),
            format!("{:.4}", modularity(&g, &zeta)),
        ]);
    }
    print_table(
        "Ablation: PLP update threshold θ (§III-A)",
        &["theta", "iterations", "time_s", "modularity"],
        &rows,
    );

    // 2. PLM resolution parameter γ
    let mut rows = Vec::new();
    for gamma in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let mut plm = Plm::with_gamma(gamma);
        let (zeta, t) = time(|| plm.detect(&g));
        rows.push(vec![
            format!("{gamma}"),
            zeta.number_of_subsets().to_string(),
            format!("{:.4}", modularity(&g, &zeta)),
            format!("{:.4}", modularity_gamma(&g, &zeta, gamma)),
            fmt_secs(t),
        ]);
    }
    print_table(
        "Ablation: PLM resolution parameter γ (§III-B)",
        &["gamma", "communities", "mod(γ=1)", "mod(γ)", "time_s"],
        &rows,
    );

    // 3. one-level EPP vs iterated EML
    let mut rows = Vec::new();
    for name in ["coauthors-lfr", "livejournal-lfr", "uk2002-lfr"] {
        let inst = suite.iter().find(|i| i.name == name).unwrap();
        let g = inst.graph();
        let (_, epp) = run_measured(&mut Epp::plp_plm(4), &g, name);
        let (_, eml) = run_measured(&mut EppIterated::new(4), &g, name);
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", epp.modularity),
            fmt_secs(epp.time),
            format!("{:.4}", eml.modularity),
            fmt_secs(eml.time),
        ]);
    }
    print_table(
        "Ablation: one-level EPP vs iterated EML (§III-D)",
        &["network", "EPP_mod", "EPP_time_s", "EML_mod", "EML_time_s"],
        &rows,
    );
}
