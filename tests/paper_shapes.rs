//! Shape assertions distilled from the paper's evaluation claims — the
//! qualitative relationships every healthy build must reproduce (small
//! instances; the full-size versions live in the bench targets).

use parcom::community::compare::jaccard_index;
use parcom::community::{quality::modularity, CommunityDetector, Epp, MoveStrategy, Plm, Plp};
use parcom::generators::{lfr, LfrParams};
use parcom::graph::parallel::with_threads;

// The paper's PLP-vs-PLM speed ratio (§V-B) is a timing claim: it is
// measured by `benchmark/run.sh` and recorded in EXPERIMENTS.md, not
// asserted on a wall clock here.

#[test]
fn plm_recovers_ground_truth_under_strong_noise() {
    // Fig. 8: PLM detects the ground truth even at high mixing. The shape
    // is asserted on the coloring schedule, which is bit-identical at any
    // thread count; the racy schedule gets the distributional test below.
    let (g, truth) = lfr(LfrParams::benchmark(3_000, 0.6), 42);
    let zeta = Plm::with_strategy(MoveStrategy::Coloring).detect(&g);
    let j = jaccard_index(&zeta, &truth);
    assert!(
        j > 0.5,
        "PLM lost the planted structure at mu=0.6: jaccard {j}"
    );
}

#[test]
fn racy_plm_recovers_ground_truth_in_the_median() {
    // One racy run lands anywhere in 0.46-0.60 at mu=0.6 (the price of the
    // paper's benign races), so the claim is on the median over seeds, with
    // a floor well below it; the printed spread is the measurement.
    let mut js: Vec<f64> = (1..=11u64)
        .map(|seed| {
            let (g, truth) = lfr(LfrParams::benchmark(3_000, 0.6), 100 + seed);
            jaccard_index(&Plm::new().detect(&g), &truth)
        })
        .collect();
    js.sort_by(f64::total_cmp);
    let (min, median, max) = (js[0], js[js.len() / 2], js[js.len() - 1]);
    println!(
        "racy PLM jaccard at mu=0.6 over 11 seeds: min {min:.3} median {median:.3} max {max:.3}"
    );
    assert!(
        median > 0.45,
        "racy PLM lost the planted structure at mu=0.6: median jaccard {median} ({js:?})"
    );
}

#[test]
fn plp_degrades_before_plm_as_noise_grows() {
    // Fig. 8 shape: PLP is less robust than PLM at high mu
    let (g, truth) = lfr(LfrParams::benchmark(3_000, 0.7), 43);
    let j_plm = jaccard_index(&Plm::new().detect(&g), &truth);
    let j_plp = jaccard_index(&Plp::new().detect(&g), &truth);
    assert!(
        j_plm >= j_plp - 0.05,
        "expected PLM ({j_plm}) at least as robust as PLP ({j_plp}) at mu=0.7"
    );
}

#[test]
fn refinement_improves_or_preserves_modularity() {
    // §V-C: "adding a refinement phase generally leads to an improvement".
    // Coloring schedule: PLM and PLMR share every move up to the first
    // refinement, so the comparison is exact, not two draws of a race.
    for seed in [1u64, 2, 3] {
        let (g, _) = lfr(LfrParams::benchmark(2_000, 0.5), 44 + seed);
        let mut plm = Plm::with_strategy(MoveStrategy::Coloring);
        let mut plmr = Plm {
            refine: true,
            ..plm.clone()
        };
        let q_plm = modularity(&g, &plm.detect(&g));
        let q_plmr = modularity(&g, &plmr.detect(&g));
        assert!(
            q_plmr >= q_plm,
            "seed {seed}: PLMR ({q_plmr}) below PLM ({q_plm})"
        );
    }
}

#[test]
fn epp_improves_on_single_plp_with_noise() {
    // Fig. 4: "EPP pays off in the form of improved modularity on most
    // instances" (vs a single PLP)
    let mut improvements = 0;
    for seed in [1u64, 2, 3] {
        let (g, _) = lfr(LfrParams::benchmark(2_000, 0.55), 50 + seed);
        let mut plp = Plp::new();
        plp.set_seed(seed);
        let q_plp = modularity(&g, &plp.detect(&g));
        let q_epp = modularity(&g, &Epp::plp_plm(4).detect(&g));
        if q_epp > q_plp {
            improvements += 1;
        }
    }
    assert!(
        improvements >= 2,
        "EPP should beat a single PLP on most noisy instances ({improvements}/3)"
    );
}

#[test]
fn quality_ordering_plp_epp_plm() {
    // Fig. 6 shape: modularity(PLP) <= modularity(EPP) ~ modularity(PLM)
    let (g, _) = lfr(LfrParams::benchmark(4_000, 0.5), 60);
    let q_plp = modularity(&g, &Plp::new().detect(&g));
    let q_epp = modularity(&g, &Epp::plp_plm(4).detect(&g));
    let q_plm = modularity(&g, &Plm::new().detect(&g));
    assert!(q_plp <= q_epp + 0.02, "PLP {q_plp} vs EPP {q_epp}");
    assert!(q_epp <= q_plm + 0.03, "EPP {q_epp} vs PLM {q_plm}");
}

#[test]
fn plp_threshold_cuts_iterations_without_quality_loss() {
    // §III-A: θ = n·1e-5 versus exact convergence. On one thread the two
    // runs are the same label sequence until the threshold stops one of
    // them, so the iteration counts compare exactly rather than as two
    // draws of a race.
    let (g, _) = lfr(LfrParams::benchmark(5_000, 0.4), 61);
    let iterations_of = |report: &parcom::community::RunReport| {
        report
            .phase("label-propagation")
            .and_then(|p| p.counter("iterations"))
            .expect("PLP report carries the iteration count")
    };
    let mut exact = Plp {
        theta_fraction: 0.0,
        ..Plp::default()
    };
    let (zeta_exact, report_exact) = with_threads(1, || exact.detect_with_report(&g));
    let q_exact = modularity(&g, &zeta_exact);
    let iters_exact = iterations_of(&report_exact);
    let (zeta_thresh, report_thresh) = with_threads(1, || Plp::new().detect_with_report(&g));
    let q_thresh = modularity(&g, &zeta_thresh);
    let iters_thresh = iterations_of(&report_thresh);
    assert!(iters_thresh <= iters_exact);
    assert!(
        q_thresh > q_exact - 0.03,
        "threshold cost too much quality: {q_thresh} vs {q_exact}"
    );
}
