//! Drift of a warm chain: a partition carried through hundreds of edit
//! batches by [`StartState`] runs, held against a cold run on the same
//! graph at every tenth generation. What the daemon's "no periodic cold
//! run" policy rests on (EXPERIMENTS.md, "Warm starts"); run with
//! `--nocapture` for the distribution.

mod util;

use parcom_core::compare::nmi;
use parcom_core::quality::modularity;
use parcom_core::{CommunityDetector, DetectorSpec, StartState};
use parcom_generators::{lfr, LfrParams};
use parcom_graph::parallel::with_threads;
use parcom_graph::Graph;
use rand::{rngs::SmallRng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;
use util::{disconnected_communities, endpoints, random_edits};

/// Nearest-rank quantile of unsorted samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn p10_p50_p90(samples: &[f64]) -> [f64; 3] {
    [0.1, 0.5, 0.9].map(|q| quantile(samples, q))
}

struct Drift {
    /// warm − cold modularity at each comparison point
    modularity_gap: Vec<f64>,
    /// NMI(warm, cold) at each comparison point
    agreement: Vec<f64>,
    /// disconnected communities as a share of all, warm and cold
    split_share: [Vec<f64>; 2],
    /// label updates per warm run
    updates: Vec<f64>,
}

/// `batches` successive edit batches (3 inserts to 1 remove, as the serve
/// benchmark's) on LFR(n, μ = 0.3), PLP warm-started through all of them.
fn warm_chain(n: usize, batches: usize, batch: usize, threads: usize, seed: u64) -> Drift {
    let spec = DetectorSpec::parse(&format!("plp:seed={seed}")).unwrap();
    let plp = || spec.build().unwrap();
    let (mut g, _) = lfr(LfrParams::benchmark(n, 0.3), seed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut drift = Drift {
        modularity_gap: Vec::new(),
        agreement: Vec::new(),
        split_share: [Vec::new(), Vec::new()],
        updates: Vec::new(),
    };
    with_threads(threads, || {
        let mut zeta = plp().detect(&g);
        for generation in 1..=batches {
            let edits = random_edits(&g, &mut rng, 3 * batch / 4, batch / 4, &mut HashSet::new());
            let n = g.node_count();
            g = Graph::overlaid(&Arc::new(g), n, &edits).compacted();
            let mut warm = plp();
            warm.start_from(StartState {
                base: zeta.into(),
                frontier: endpoints(&edits),
                aggregates: None,
            });
            let (next, report) = warm.detect_with_report(&g);
            assert_eq!(report.counter("warm"), Some(1));
            assert_eq!(report.termination.as_deref(), Some("converged"));
            let updates = report.phase("label-propagation").unwrap();
            drift
                .updates
                .push(updates.counter("label-updates").unwrap() as f64);
            zeta = next;

            if generation % 10 == 0 {
                let cold = plp().detect(&g);
                (drift.modularity_gap).push(modularity(&g, &zeta) - modularity(&g, &cold));
                drift.agreement.push(nmi(&zeta, &cold));
                for (shares, p) in drift.split_share.iter_mut().zip([&zeta, &cold]) {
                    let split = disconnected_communities(&g, p) as f64;
                    shares.push(split / p.number_of_subsets() as f64);
                }
            }
        }
    });
    drift
}

fn report_and_check(what: &str, drift: &Drift) {
    let gap = p10_p50_p90(&drift.modularity_gap);
    let agreement = p10_p50_p90(&drift.agreement);
    let [warm_split, cold_split] = [0, 1].map(|i| p10_p50_p90(&drift.split_share[i]));
    let updates = p10_p50_p90(&drift.updates);
    eprintln!(
        "{what}: {} comparisons; p10/p50/p90 of warm-cold modularity {gap:.4?}, \
         NMI(warm, cold) {agreement:.3?}, disconnected share warm {warm_split:.4?} \
         cold {cold_split:.4?}, label updates per warm run {updates:.0?}",
        drift.modularity_gap.len()
    );
    // The serve benchmark bounds modularity at 3 % of ~0.69; a warm chain
    // must stay well inside that of a cold run, at every comparison point.
    assert!(quantile(&drift.modularity_gap, 0.0) > -0.015, "{gap:?}");
    assert!(gap[1] > -0.005, "{gap:?}");
    // ... describe the same communities as the cold run does ...
    assert!(agreement[0] > 0.9, "{agreement:?}");
    // ... and fall apart no more than cold PLP's own communities do.
    assert!(
        warm_split[2] <= cold_split[2] + 0.01,
        "{warm_split:?} vs {cold_split:?}"
    );
}

#[test]
fn disconnected_communities_are_counted_once_each() {
    use parcom_graph::{GraphBuilder, Partition};
    let edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)];
    let g = GraphBuilder::from_edges(6, &edges);
    let whole = Partition::from_vec(vec![0, 0, 0, 1, 1, 1]);
    assert_eq!(disconnected_communities(&g, &whole), 0);
    assert_eq!(disconnected_communities(&g, &Partition::singleton(6)), 0);
    // {0, 1, 4, 5}: two pieces; {2, 3} hangs together by the bridge
    let split = Partition::from_vec(vec![0, 0, 1, 1, 0, 0]);
    assert_eq!(disconnected_communities(&g, &split), 1);
    // an isolated node in someone else's community splits it
    let lonely = GraphBuilder::from_edges(3, &[(0, 1)]);
    assert_eq!(
        disconnected_communities(&lonely, &Partition::all_in_one(3)),
        1
    );
}

#[test]
fn a_warm_chain_tracks_cold_runs_over_two_hundred_batches() {
    // 128 edits per batch on ~52 k edges: 25 600 edits in all, half the
    // graph's edge count — sixteen times the churn of the serve benchmark's
    // 120 batches of 256 on 1.05 M edges.
    let drift = warm_chain(6_000, 200, 128, 1, 5);
    assert_eq!(drift.modularity_gap.len(), 20);
    report_and_check("lfr-6000 x 200 batches of 128, 1 thread", &drift);
}

#[cfg(feature = "stress")]
#[test]
fn a_racy_warm_chain_tracks_cold_runs_over_six_hundred_batches() {
    let drift = warm_chain(30_000, 600, 256, 2, 6);
    report_and_check("lfr-30000 x 600 batches of 256, 2 threads", &drift);
}
