//! The entry-point table: for every registry spec, `detect`,
//! `detect_with_report` and `detect_guarded` are three views of one run —
//! same partition, same report shape, same preflight.

use parcom_core::quality::modularity_gamma;
use parcom_core::spec::REGISTRY;
use parcom_core::{Budget, CommunityDetector, DetectorSpec, RunReport, Termination};
use parcom_generators::{karate_club, lfr, LfrParams};
use parcom_graph::parallel::with_threads;
use parcom_graph::{Graph, GraphBuilder, Partition};

/// A fresh detector for `name`, seed fixed.
fn build(name: &str) -> Box<dyn CommunityDetector + Send> {
    let spec = DetectorSpec::new(name).expect("registered name");
    spec.with_seed(7).build().expect("default knobs are valid")
}

fn graphs() -> Vec<(&'static str, Graph)> {
    let star: Vec<(u32, u32)> = (1..9).map(|leaf| (0, leaf)).collect();
    vec![
        ("lfr", lfr(LfrParams::benchmark(300, 0.3), 11).0),
        ("karate", karate_club().0),
        ("empty", GraphBuilder::from_edges(0, &[])),
        ("single-node", GraphBuilder::from_edges(1, &[])),
        (
            "all-self-loops",
            GraphBuilder::from_edges(4, &[(0, 0), (1, 1), (2, 2), (3, 3)]),
        ),
        ("star", GraphBuilder::from_edges(9, &star)),
        (
            "disconnected",
            GraphBuilder::from_edges(8, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        ),
    ]
}

fn check_report(report: &RunReport, g: &Graph, zeta: &Partition, gamma: f64, what: &str) {
    assert_eq!(report.termination.as_deref(), Some("converged"), "{what}");
    assert_eq!(report.cut_phase, None, "{what}");
    assert_eq!(
        report.counter("nodes"),
        Some(g.node_count() as u64),
        "{what}"
    );
    assert_eq!(
        report.counter("edges"),
        Some(g.edge_count() as u64),
        "{what}"
    );
    assert_eq!(
        report.counter("communities"),
        Some(zeta.number_of_subsets() as u64),
        "{what}"
    );
    let reported = report
        .metric("modularity")
        .unwrap_or_else(|| panic!("{what}: no metrics.modularity"));
    let recomputed = modularity_gamma(g, zeta, gamma);
    assert!(
        (reported - recomputed).abs() <= 1e-12,
        "{what}: reported {reported}, recomputed {recomputed}"
    );
}

#[test]
fn the_three_entry_points_agree_for_every_spec() {
    for (graph_name, g) in graphs() {
        for info in REGISTRY {
            // one thread: the racy detectors are schedule-dependent otherwise
            with_threads(1, || {
                let what = format!("{} on {graph_name}", info.name);
                let gamma = build(info.name).gamma();
                let plain = build(info.name).detect(&g);
                let (zeta, report) = build(info.name).detect_with_report(&g);
                assert_eq!(plain.as_slice(), zeta.as_slice(), "{what}: with_report");
                check_report(&report, &g, &zeta, gamma, &what);

                let r = build(info.name).detect_guarded(&g, &Budget::unlimited());
                assert_eq!(r.termination, Termination::Converged, "{what}");
                assert_eq!(plain.as_slice(), r.partition.as_slice(), "{what}: guarded");
                check_report(&r.report, &g, &r.partition, gamma, &what);
            });
        }
    }
}

#[test]
fn reported_modularity_uses_the_detectors_own_gamma() {
    let (g, _) = karate_club();
    for name in ["plm", "plmr", "rg"] {
        let spec = DetectorSpec::new(name).unwrap().with_gamma(0.5);
        let r = with_threads(1, || {
            spec.with_seed(7)
                .build()
                .unwrap()
                .detect_guarded(&g, &Budget::unlimited())
        });
        let reported = r.report.metric("modularity").unwrap();
        let at_gamma = modularity_gamma(&g, &r.partition, 0.5);
        assert!((reported - at_gamma).abs() <= 1e-12, "{name}: {reported}");
        assert!((reported - modularity_gamma(&g, &r.partition, 1.0)).abs() > 1e-6);
    }
}

#[test]
fn oversized_input_is_rejected_with_a_singleton_for_every_spec() {
    let (g, _) = karate_club();
    let budget = Budget::unlimited().with_input_limits(10, usize::MAX);
    for info in REGISTRY {
        let r = build(info.name).detect_guarded(&g, &budget);
        assert_eq!(r.termination, Termination::InputRejected, "{}", info.name);
        assert_eq!(r.partition.len(), g.node_count(), "{}", info.name);
        assert_eq!(
            r.partition.number_of_subsets(),
            g.node_count(),
            "{}",
            info.name
        );
        assert_eq!(
            r.report.termination.as_deref(),
            Some("input-rejected"),
            "{}",
            info.name
        );
    }
}
