//! The entry-point table: for every registry spec, `detect`,
//! `detect_with_report` and `detect_guarded` are three views of one run —
//! same partition, same report shape, same preflight — whether the run
//! starts from singletons or from a [`StartState`].

mod util;

use parcom_core::quality::{community_aggregates, modularity_gamma};
use parcom_core::spec::{AlgoInfo, DEFAULT_ENSEMBLE, REGISTRY};
use parcom_core::{Budget, CommunityDetector, DetectorSpec, RunReport, StartState, Termination};
use parcom_generators::{karate_club, lfr, LfrParams};
use parcom_graph::parallel::with_threads;
use parcom_graph::{Graph, GraphBuilder, Partition};
use rand::{rngs::SmallRng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use util::{endpoints, random_edits, Edit};

/// The specs whose detector can start from a base; every other one must
/// refuse it and run cold.
const WARM_CAPABLE: &[&str] = &["plp"];

/// A fresh detector for `name`, seed fixed.
fn build(name: &str) -> Box<dyn CommunityDetector + Send> {
    let mut spec = DetectorSpec::new(name).expect("registered name");
    spec.seed = Some(7);
    spec.build().expect("default knobs are valid")
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

/// `carried`: whether the run must have carried its aggregates instead of
/// scanning for them — held to the same 1e-12 either way.
fn check_report(
    report: &RunReport,
    g: &Graph,
    zeta: &Partition,
    gamma: f64,
    carried: bool,
    what: &str,
) {
    assert_eq!(report.termination.as_deref(), Some("converged"), "{what}");
    assert_eq!(report.counter("carried"), Some(carried as u64), "{what}");
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
                check_report(&report, &g, &zeta, gamma, false, &what);

                let r = build(info.name).detect_guarded(&g, &Budget::unlimited());
                assert_eq!(r.termination, Termination::Converged, "{what}");
                assert_eq!(plain.as_slice(), r.partition.as_slice(), "{what}: guarded");
                check_report(&r.report, &g, &r.partition, gamma, false, &what);
                // the scan's aggregates go out with the result
                let scanned = community_aggregates(&g, &r.partition);
                assert_eq!(r.aggregates, Some(scanned), "{what}");
            });
        }
    }
}

/// What a resident graph sees between two detections, on any input: a few
/// random inserts and removes, every edge of one node removed (its last
/// one included), and an insert that grows the node range by one.
fn edit_batch(g: &Graph, seed: u64) -> (usize, Vec<Edit>) {
    let n = g.nodes().end;
    let mut taken = HashSet::new();
    let mut edits: Vec<Edit> = Vec::new();
    if let Some(loser) = g
        .nodes()
        .filter(|&v| g.degree(v) > 0)
        .min_by_key(|&v| g.degree(v))
    {
        for &u in g.neighbors(loser) {
            taken.insert((loser.min(u), loser.max(u)));
            edits.push((loser.min(u), loser.max(u), None));
        }
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    edits.extend(random_edits(g, &mut rng, 4, 2, &mut taken));
    // the new node n hangs off node 0; on the empty graph both are new
    let grown = n.max(1);
    edits.push((0, grown, Some(1.0)));
    (grown as usize + 1, edits)
}

#[test]
fn a_run_from_a_base_meets_the_cold_postconditions_for_every_spec() {
    for (graph_name, g) in graphs() {
        let (n_new, edits) = edit_batch(&g, 3);
        let edited = Graph::overlaid(&Arc::new(g.clone()), n_new, &edits);
        for info in REGISTRY {
            with_threads(1, || {
                let what = format!("{} from a base on {graph_name}", info.name);
                let base = build(info.name).detect(&g);
                // the base's aggregates, patched for the edit as a
                // resident graph's fold patches them
                let mut aggregates = community_aggregates(&g, &base);
                aggregates.apply_edits(&base, &g, n_new, &edits);
                let start = StartState {
                    base: base.into(),
                    frontier: endpoints(&edits),
                    aggregates: Some(aggregates),
                };
                let started = |detector: &mut Box<dyn CommunityDetector + Send>| {
                    let accepted = detector.start_from(start.clone());
                    assert_eq!(accepted, WARM_CAPABLE.contains(&info.name), "{what}");
                    accepted
                };

                let mut detector = build(info.name);
                let gamma = detector.gamma();
                let warm = started(&mut detector);
                let r = detector.detect_guarded(&edited, &Budget::unlimited());
                assert_eq!(r.termination, Termination::Converged, "{what}");
                // a dense partition of the *new* node range
                assert_eq!(r.partition.len(), n_new, "{what}");
                assert_eq!(
                    r.partition.number_of_subsets(),
                    r.partition.upper_bound() as usize,
                    "{what}"
                );
                check_report(&r.report, &edited, &r.partition, gamma, warm, &what);
                let scanned = community_aggregates(&edited, &r.partition);
                let carried = r.aggregates.as_ref().expect("carried or scanned");
                for (got, want) in [
                    (&carried.intra_weight, &scanned.intra_weight),
                    (&carried.volume, &scanned.volume),
                ] {
                    // unit weights: every sum is exact, carried or not
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got), bits(want), "{what}: aggregates");
                }
                assert_eq!(r.report.counter("warm"), Some(warm as u64), "{what}");
                let frontier = if warm { start.frontier.len() } else { n_new };
                assert_eq!(
                    r.report.counter("frontier"),
                    Some(frontier as u64),
                    "{what}"
                );

                // the other two entry points start from the same state and,
                // on one thread, land on the same partition
                let mut detector = build(info.name);
                started(&mut detector);
                assert_eq!(detector.detect(&edited), *r.partition, "{what}: detect");
                let mut detector = build(info.name);
                started(&mut detector);
                let (zeta, report) = detector.detect_with_report(&edited);
                assert_eq!(zeta, *r.partition, "{what}: with_report");
                assert_eq!(report.counter("warm"), Some(warm as u64), "{what}");

                // a refused base leaves an ordinary cold run
                if !warm {
                    assert_eq!(build(info.name).detect(&edited), *r.partition, "{what}");
                }
            });
        }
    }
}

#[test]
fn reported_modularity_uses_the_detectors_own_gamma() {
    let (g, _) = karate_club();
    for name in ["plm", "plmr", "rg"] {
        let spec = DetectorSpec::parse(&format!("{name}:gamma=0.5,seed=7")).unwrap();
        let r = with_threads(1, || {
            spec.build()
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

/// `epp`, `eppr`, `eml`, `cggc`, `cggci`: the specs that run on the one
/// ensemble driver, each on LFR-300 and karate.
fn ensemble_cases() -> Vec<(String, &'static AlgoInfo, Graph)> {
    let mut cases = Vec::new();
    for (graph_name, g) in graphs().into_iter().take(2) {
        for info in REGISTRY.iter().filter(|a| a.family == "ensemble") {
            let what = format!("{} on {graph_name}", info.name);
            cases.push((what, info, g.clone()));
        }
    }
    assert_eq!(cases.len(), 10);
    cases
}

#[test]
fn budget_cuts_are_attributed_the_same_way_by_every_ensemble_spec() {
    for (what, info, g) in ensemble_cases() {
        for cap in [0, 2] {
            let budget = Budget::unlimited().with_max_sweeps(cap);
            let r = with_threads(1, || build(info.name).detect_guarded(&g, &budget));
            let what = format!("{what}, {cap} sweeps");
            assert_eq!(r.partition.len(), g.node_count(), "{what}");
            assert!(r.partition.validate().is_ok(), "{what}");
            let cut = r.report.cut_phase.as_deref();
            if cap == 0 {
                // the first round is denied: no member ran, nothing merged
                assert_eq!(r.termination, Termination::IterationCap, "{what}");
                assert_eq!(cut, Some("level-0/ensemble"), "{what}");
                assert_eq!(r.partition.number_of_subsets(), g.node_count(), "{what}");
            } else if r.termination == Termination::IterationCap {
                // a cap spent in round l's members names round l, one
                // spent in the final algorithm names the phase inside it
                let cut = cut.unwrap_or_else(|| panic!("{what}: no cut phase"));
                let round = cut
                    .strip_prefix("level-")
                    .and_then(|rest| rest.strip_suffix("/ensemble"));
                assert!(
                    round.is_some_and(|l| l.parse::<usize>().is_ok()) || cut.starts_with("final/"),
                    "{what}: cut phase `{cut}`"
                );
            }
        }
    }
}

#[test]
fn every_ensemble_spec_reports_the_one_shape() {
    let b = DEFAULT_ENSEMBLE;
    for (what, info, g) in ensemble_cases() {
        let (_, report) = with_threads(1, || build(info.name).detect_with_report(&g));
        assert_eq!(report.counter("ensemble-size"), Some(b as u64), "{what}");
        // the rounds, in order, then `final` and `prolong`
        let rounds = report.phases.len() - 2;
        assert!(rounds >= 1, "{what}");
        for (l, level) in report.phases[..rounds].iter().enumerate() {
            assert_eq!(level.name, format!("level-{l}"), "{what}");
            assert!(level.counter("nodes").is_some(), "{what}: level-{l}");
            assert!(level.counter("edges").is_some(), "{what}: level-{l}");
            let child = |name| {
                level
                    .child(name)
                    .unwrap_or_else(|| panic!("{what}: no level-{l}/{name}"))
            };
            assert_eq!(child("ensemble").counter("members"), Some(b as u64));
            assert!(child("consensus").counter("core-communities") > Some(0));
        }
        // both graphs have uncontested parts: round 0 contracts them
        assert!(report.phases[0].child("coarsen").is_some(), "{what}");
        assert_eq!(report.phases[rounds].name, "final", "{what}");
        assert_eq!(report.phases[rounds + 1].name, "prolong", "{what}");
        // b members per round run, then the final algorithm
        let subs: Vec<&str> = report
            .sub_reports
            .iter()
            .map(|r| r.algorithm.as_str())
            .collect();
        assert_eq!(subs.len(), rounds * b + 1, "{what}");
        let (member, final_algorithm) = match info.name {
            "epp" | "eml" => ("PLP", "PLM"),
            "eppr" => ("PLP", "PLMR"),
            _ => ("RG", "RG"),
        };
        assert!(subs[..rounds * b].iter().all(|m| *m == member), "{what}");
        assert_eq!(subs[rounds * b], final_algorithm, "{what}");
    }
}
