//! CGGC / CGGCi — Core Groups Graph Clustering ensembles over RG
//! (Ovelgönne & Geyer-Schulz, DIMACS Pareto winner; §V-E c).
//!
//! Both are the ensemble scheme of [`crate::epp`] with RG members — their
//! consensus are the "core groups" — and a final RG: CGGC runs one round,
//! CGGCi iterates until the consensus stops improving modularity. Both are
//! qualitatively at the top of the field and, like the originals, expensive.

use crate::algorithm::CommunityDetector;
use crate::epp::{Ensemble, Member};
use crate::rg::Rg;
use parcom_graph::{Graph, Partition};
use parcom_guard::{Budget, Termination};
use parcom_obs::Recorder;

/// The core groups ensemble over RG.
#[derive(Clone, Debug)]
pub struct Cggc {
    /// Ensemble size per level.
    pub ensemble_size: usize,
    /// Iterate the ensemble step until consensus quality stalls (CGGCi).
    pub iterated: bool,
    /// Sample size of the RG base runs.
    pub rg_sample_size: usize,
    /// Resolution parameter.
    pub gamma: f64,
    /// Base RNG seed; run `i` at level `l` derives its own stream.
    pub seed: u64,
    /// Cap on ensemble iterations (CGGCi).
    pub max_levels: usize,
}

impl Cggc {
    /// One-level CGGC with the paper-style configuration.
    pub fn new(ensemble_size: usize) -> Self {
        Self {
            ensemble_size,
            iterated: false,
            rg_sample_size: 1,
            gamma: 1.0,
            seed: 1,
            max_levels: 16,
        }
    }

    /// The iterated variant CGGCi.
    pub fn iterated(ensemble_size: usize) -> Self {
        Self {
            iterated: true,
            ..Self::new(ensemble_size)
        }
    }
}

impl CommunityDetector for Cggc {
    fn name(&self) -> String {
        if self.iterated { "CGGCi" } else { "CGGC" }.into()
    }

    fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The [`Ensemble`] scheme with RG members and a more thorough RG
    /// (sample size 2, its own stream) as the final algorithm.
    fn run(
        &mut self,
        g: &Graph,
        rec: &Recorder,
        budget: &Budget,
    ) -> (Partition, Termination, Option<String>) {
        let rg = |sample_size, seed| Rg {
            sample_size,
            gamma: self.gamma,
            seed,
        };
        let mut members: Vec<Member> = (0..self.ensemble_size)
            .map(|_| Box::new(rg(self.rg_sample_size, self.seed)) as _)
            .collect();
        Ensemble {
            members: &mut members,
            finish: &mut rg(2, self.seed.wrapping_mul(0x9e3779b9).wrapping_add(7)),
            max_rounds: if self.iterated { self.max_levels } else { 1 },
            seed: self.seed,
        }
        .run(g, rec, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::modularity;
    use parcom_generators::{lfr, ring_of_cliques, LfrParams};

    #[test]
    fn names() {
        assert_eq!(Cggc::new(4).name(), "CGGC");
        assert_eq!(Cggc::iterated(4).name(), "CGGCi");
    }

    #[test]
    fn near_optimal_on_ring_of_cliques() {
        // the RG bases can strand the odd singleton; near-optimal modularity
        // and no cross-clique merge are the robust properties
        let (g, truth) = ring_of_cliques(6, 6);
        let zeta = Cggc::new(4).detect(&g);
        let q = modularity(&g, &zeta);
        let q_truth = modularity(&g, &truth);
        assert!(q > q_truth - 0.08, "CGGC {q} vs truth {q_truth}");
        for u in g.nodes() {
            for v in g.nodes() {
                if zeta.in_same_subset(u, v) {
                    assert!(truth.in_same_subset(u, v), "cliques merged at {u},{v}");
                }
            }
        }
    }

    #[test]
    fn cggc_at_least_rg_quality() {
        let (g, _) = lfr(LfrParams::benchmark(600, 0.35), 31);
        let q_rg = modularity(&g, &Rg::new().detect(&g));
        let q_cggc = modularity(&g, &Cggc::new(4).detect(&g));
        assert!(
            q_cggc >= q_rg - 0.03,
            "CGGC ({q_cggc}) collapsed below RG ({q_rg})"
        );
    }

    #[test]
    fn iterated_at_least_one_level_quality() {
        let (g, _) = lfr(LfrParams::benchmark(600, 0.35), 32);
        let q1 = modularity(&g, &Cggc::new(3).detect(&g));
        let qi = modularity(&g, &Cggc::iterated(3).detect(&g));
        assert!(
            qi >= q1 - 0.03,
            "CGGCi ({qi}) clearly worse than CGGC ({q1})"
        );
    }

    #[test]
    fn report_has_ensemble_phases() {
        let (g, _) = ring_of_cliques(6, 6);
        let (_, report) = Cggc::new(3).detect_with_report(&g);
        let level0 = report.phase("level-0").expect("level-0 phase");
        let ensemble = level0.child("ensemble").expect("ensemble child");
        assert_eq!(ensemble.counter("members"), Some(3));
        let consensus = level0.child("consensus").expect("consensus child");
        assert!(consensus.counter("core-communities").unwrap() > 0);
        assert!(report.phase("final").is_some());
        assert!(report.metric("modularity").unwrap() > 0.5);
    }

    #[test]
    fn guarded_iteration_cap_cuts_at_ensemble_boundary() {
        let (g, _) = lfr(LfrParams::benchmark(500, 0.35), 33);
        // zero sweeps: the first ensemble round is denied and no member
        // ran, so the degraded result is the singleton partition
        let budget = Budget::unlimited().with_max_sweeps(0);
        let r = Cggc::iterated(3).detect_guarded(&g, &budget);
        assert_eq!(r.termination, Termination::IterationCap);
        assert_eq!(r.partition.len(), g.node_count());
        assert!(r.partition.validate().is_ok());
        assert_eq!(r.partition.number_of_subsets(), g.node_count());
        assert_eq!(r.report.cut_phase.as_deref(), Some("level-0/ensemble"));
    }

    #[test]
    fn handles_edgeless_graph() {
        let g = parcom_graph::GraphBuilder::new(4).build();
        let zeta = Cggc::new(2).detect(&g);
        assert_eq!(zeta.number_of_subsets(), 4);
    }
}
