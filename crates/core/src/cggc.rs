//! CGGC / CGGCi — Core Groups Graph Clustering ensembles over RG
//! (Ovelgönne & Geyer-Schulz, DIMACS Pareto winner; §V-E c).
//!
//! CGGC is the one-level scheme: an ensemble of RG runs produces core
//! groups (the same consensus combine as EPP), the graph is contracted and
//! the final RG solves the rest. CGGCi iterates the ensemble step — the
//! contracted graph is fed to a fresh ensemble until the consensus stops
//! improving modularity — and then applies the final algorithm. Both are
//! qualitatively at the top of the field and, like the originals, expensive.

use crate::algorithm::CommunityDetector;
use crate::combine::core_communities;
use crate::quality::modularity_gamma;
use crate::rg::Rg;
use parcom_graph::{coarsen, Coarsening, Graph, Partition};
use parcom_guard::{Budget, Termination};
use parcom_obs::Recorder;
use rayon::prelude::*;

/// The core-groups ensemble over RG.
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

    /// One ensemble round: every RG member shares the caller's budget, so
    /// an expiring deadline or a cancel stops all of them within a merge
    /// interval — each returns its best dendrogram cut so far, and the
    /// consensus of degraded members is still a valid (if coarse) core
    /// grouping.
    fn ensemble_core(&self, g: &Graph, level: usize, budget: &Budget) -> Partition {
        let solutions: Vec<Partition> = (0..self.ensemble_size)
            .into_par_iter()
            .map(|i| {
                let mut rg = Rg {
                    sample_size: self.rg_sample_size,
                    gamma: self.gamma,
                    seed: self
                        .seed
                        .wrapping_add((level as u64) << 32)
                        .wrapping_add(i as u64 + 1),
                };
                rg.run(g, &Recorder::disabled(), budget).0
            })
            .collect();
        core_communities(&solutions)
    }

    fn prolong_chain(chain: &[Coarsening], coarse_solution: Partition) -> Partition {
        let mut zeta = coarse_solution;
        for contraction in chain.iter().rev() {
            zeta = contraction.prolong(&zeta);
        }
        zeta
    }
}

impl CommunityDetector for Cggc {
    fn name(&self) -> String {
        if self.iterated {
            "CGGCi".into()
        } else {
            "CGGC".into()
        }
    }

    fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The ensemble hierarchy. The budget is tested at ensemble-level
    /// boundaries (each ensemble round consumes one sweep) and passed down
    /// into the RG members; on expiry the committed chain so far is
    /// finished off by the final RG under the same budget and prolonged —
    /// every committed contraction improved modularity on `g`, so the
    /// degraded result is a valid consensus prefix.
    fn run(
        &mut self,
        g: &Graph,
        rec: &Recorder,
        budget: &Budget,
    ) -> (Partition, Termination, Option<String>) {
        let n = g.node_count();
        if n == 0 {
            return (Partition::singleton(0), Termination::Converged, None);
        }

        let mut chain: Vec<Coarsening> = Vec::new();
        let mut current = g.clone();
        let mut best_core_q = f64::NEG_INFINITY;
        let mut termination = Termination::Converged;
        let mut cut_phase = None;

        for level in 0..self.max_levels {
            if let Err(t) = budget.check_sweep() {
                termination = t;
                cut_phase = Some(format!("level-{level}/ensemble"));
                break;
            }
            let level_span = rec.span_fmt(format_args!("level-{level}"));
            level_span.counter("nodes", current.node_count() as u64);
            level_span.counter("edges", current.edge_count() as u64);
            let core = {
                let span = rec.span("ensemble");
                let core = self.ensemble_core(&current, level, budget);
                span.counter("members", self.ensemble_size as u64);
                span.counter("core-groups", core.number_of_subsets() as u64);
                core
            };
            // an expiry mid-ensemble degrades the members to near-singleton
            // cuts; record the cause here rather than mistaking the
            // uncontractable consensus for convergence
            if let Err(t) = budget.check() {
                termination = t;
                cut_phase = Some(format!("level-{level}/ensemble"));
                break;
            }
            if core.number_of_subsets() >= current.node_count() {
                break; // consensus is all-singletons: no contraction possible
            }
            let contraction = coarsen(&current, &core);
            let coarse = contraction.coarse.clone();

            if !self.iterated {
                chain.push(contraction);
                current = coarse;
                break;
            }
            // iterated: commit a level only while the consensus clustering
            // improves on G — a degrading contraction is irreversible
            // (coarse nodes can never be split again)
            let prolonged = {
                let start = contraction.prolong(&Partition::singleton(coarse.node_count()));
                Self::prolong_chain(&chain, start)
            };
            let q = modularity_gamma(g, &prolonged, self.gamma);
            if q <= best_core_q + 1e-9 {
                break;
            }
            best_core_q = q;
            chain.push(contraction);
            current = coarse;
        }

        let mut final_rg = Rg {
            sample_size: 2,
            gamma: self.gamma,
            seed: self.seed.wrapping_mul(0x9e3779b9).wrapping_add(7),
        };
        let (coarse_solution, final_term, _) = {
            let span = rec.span("final-rg");
            let out = final_rg.run(&current, rec, budget);
            span.counter("coarse-nodes", current.node_count() as u64);
            out
        };
        if !termination.interrupted() && final_term.interrupted() {
            termination = final_term;
            cut_phase = Some("final-rg".into());
        }
        let mut zeta = Self::prolong_chain(&chain, coarse_solution);
        zeta.compact();
        (zeta, termination, cut_phase)
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
        assert!(ensemble.counter("core-groups").unwrap() > 0);
        assert!(report.phase("final-rg").is_some());
        assert!(report.metric("modularity").unwrap() > 0.5);
    }

    #[test]
    fn guarded_iteration_cap_cuts_at_ensemble_boundary() {
        let (g, _) = lfr(LfrParams::benchmark(500, 0.35), 33);
        // zero sweeps: the first ensemble round is denied, the guarded
        // final RG still produces a valid (unprolonged) partition
        let budget = Budget::unlimited().with_max_sweeps(0);
        let r = Cggc::iterated(3).detect_guarded(&g, &budget);
        assert_eq!(r.termination, Termination::IterationCap);
        assert_eq!(r.partition.len(), g.node_count());
        assert!(r.partition.validate().is_ok());
        assert!(r.report.cut_phase.as_deref().unwrap().starts_with("level-"));
    }

    #[test]
    fn handles_edgeless_graph() {
        let g = parcom_graph::GraphBuilder::new(4).build();
        let zeta = Cggc::new(2).detect(&g);
        assert_eq!(zeta.number_of_subsets(), 4);
    }
}
