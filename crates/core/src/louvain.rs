//! The original *sequential* Louvain method (Blondel et al.) — the paper's
//! reference competitor (§V-E a).
//!
//! Louvain is the level scheme of [`crate::plm`] with a different move
//! schedule: node moves are applied one at a time, so every Δmod score is
//! computed from fresh data and modularity increases monotonically
//! ([`crate::moves`] has the phase). The node visit order is explicitly
//! randomized per pass, matching the original implementation (the paper
//! credits its marginally better modularity to exactly this difference).
//! What is left here is the configuration.

use crate::algorithm::CommunityDetector;
use crate::plm::{Levels, Schedule};
use parcom_graph::{Graph, Partition};
use parcom_guard::{Budget, Termination};
use parcom_obs::Recorder;
use rand::{rngs::SmallRng, SeedableRng};

/// Louvain's cap on full sweeps per level.
const MAX_SWEEPS: usize = 64;

/// The sequential Louvain baseline, at standard modularity (γ = 1).
#[derive(Clone, Debug)]
pub struct Louvain {
    /// RNG seed for the per-pass node shuffles.
    pub seed: u64,
}

impl Default for Louvain {
    fn default() -> Self {
        Self { seed: 1 }
    }
}

impl Louvain {
    /// Louvain with default parameters.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CommunityDetector for Louvain {
    fn name(&self) -> String {
        "Louvain".into()
    }

    fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    fn run(
        &mut self,
        g: &Graph,
        rec: &Recorder,
        budget: &Budget,
    ) -> (Partition, Termination, Option<String>) {
        Levels {
            gamma: 1.0,
            refine: false,
            max_move_iterations: MAX_SWEEPS,
            schedule: Schedule::Shuffled(SmallRng::seed_from_u64(self.seed)),
        }
        .run_levels(g, rec, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::modularity;
    use parcom_generators::{lfr, ring_of_cliques, LfrParams};
    use parcom_graph::GraphBuilder;

    #[test]
    fn recovers_ring_of_cliques() {
        let (g, truth) = ring_of_cliques(8, 6);
        let zeta = Louvain::new().detect(&g);
        assert_eq!(zeta.number_of_subsets(), 8);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(truth.in_same_subset(u, v), zeta.in_same_subset(u, v));
            }
        }
    }

    #[test]
    fn reproduces_the_partitions_of_the_standalone_implementation() {
        // Recorded from the self-contained detector (its own level
        // recursion, tally and arg-max) that the shared driver replaced:
        // community count and djb2 checksum of the label vector.
        use parcom_generators::karate_club;
        use parcom_graph::hashing::djb2;
        let (lfr, _) = lfr(LfrParams::benchmark(600, 0.4), 5);
        let (karate, _) = karate_club();
        for (g, seed, k, checksum) in [
            (&lfr, 1, 15, 0xe550_35c5_f044_7414),
            (&lfr, 7, 15, 0xe550_35c5_f044_7414),
            (&karate, 1, 4, 0x622e_7d57_5723_05d4),
            (&karate, 7, 4, 0x7167_fb85_beda_5512),
        ] {
            let mut louvain = Louvain::new();
            louvain.set_seed(seed);
            let zeta = louvain.detect(g);
            assert_eq!(zeta.number_of_subsets(), k, "seed {seed}");
            assert_eq!(djb2(zeta.as_slice()), checksum, "seed {seed}");
        }
    }

    #[test]
    fn report_has_level_phases() {
        let (g, _) = ring_of_cliques(6, 6);
        let (_, report) = Louvain::new().detect_with_report(&g);
        let level0 = report.phase("level-0").expect("level-0 phase");
        assert!(level0.child("move-phase").is_some());
        assert!(level0.child("coarsen").is_some());
        assert!(report.metric("modularity").unwrap() > 0.5);
    }

    #[test]
    fn guarded_sweep_cap_degrades_gracefully() {
        let (g, _) = lfr(LfrParams::benchmark(1500, 0.3), 6);
        let budget = Budget::unlimited().with_max_sweeps(1);
        let r = Louvain::new().detect_guarded(&g, &budget);
        assert_eq!(r.termination, Termination::IterationCap);
        assert_eq!(r.partition.len(), g.node_count());
        assert!(r.partition.validate_dense().is_ok());
        assert!(r.report.cut_phase.as_deref().unwrap().starts_with("level-"));
    }

    #[test]
    fn quality_comparable_to_plm() {
        let (g, _) = lfr(LfrParams::benchmark(1500, 0.3), 4);
        let q_louvain = modularity(&g, &Louvain::new().detect(&g));
        let q_plm = modularity(&g, &crate::plm::Plm::new().detect(&g));
        assert!(
            (q_louvain - q_plm).abs() < 0.05,
            "Louvain {q_louvain} vs PLM {q_plm} diverge"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let (g, _) = lfr(LfrParams::benchmark(600, 0.4), 5);
        let mut first = Louvain::new();
        first.set_seed(7);
        let mut second = Louvain::new();
        second.set_seed(7);
        let a = first.detect(&g);
        let b = second.detect(&g);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn handles_trivial_graphs() {
        let mut algo = Louvain::new();
        assert_eq!(algo.detect(&GraphBuilder::new(0).build()).len(), 0);
        let g = GraphBuilder::from_edges(2, &[(0, 1)]);
        let zeta = algo.detect(&g);
        assert_eq!(zeta.number_of_subsets(), 1);
    }
}
