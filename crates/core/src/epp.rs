//! EPP — Ensemble Preprocessing (Algorithm 5).
//!
//! An ensemble of `b` cheap base algorithms (PLP instances with distinct
//! seeds) runs on the input graph; their consensus — the core communities —
//! identifies the uncontested parts of the graph, which are contracted away.
//! The stronger final algorithm (PLM or PLMR) then solves the much smaller
//! coarse graph, and the result is prolonged back. This trades a little
//! quality for a large speedup on big graphs (§III-D, Fig. 4).

use crate::algorithm::{run_constituent, CommunityDetector};
use crate::combine::core_communities;
use crate::moves::MoveStrategy;
use crate::plm::Plm;
use crate::plp::Plp;
use parcom_graph::{coarsen, coarsen_with, Graph, Partition};
use parcom_guard::{faultpoint, Budget, Termination};
use parcom_obs::Recorder;
use rayon::prelude::*;

/// A PLP base classifier with the given ensemble-member seed.
fn seeded_plp(seed: u64) -> Plp {
    let mut plp = Plp::new();
    plp.set_seed(seed);
    plp
}

/// The ensemble preprocessing scheme, generic in base and final algorithms.
///
/// # Examples
///
/// ```
/// use parcom_core::{CommunityDetector, Epp};
/// use parcom_generators::ring_of_cliques;
///
/// let (graph, _) = ring_of_cliques(6, 8);
/// let mut epp = Epp::plp_plm(4); // the paper's default EPP(4, PLP, PLM)
/// assert_eq!(epp.name(), "EPP(4,PLP,PLM)");
/// let communities = epp.detect(&graph);
/// assert_eq!(communities.number_of_subsets(), 6);
/// ```
pub struct Epp {
    /// The base classifiers; run concurrently on the input graph.
    pub bases: Vec<Box<dyn CommunityDetector + Send>>,
    /// The final algorithm, applied to the contracted graph.
    pub final_algorithm: Box<dyn CommunityDetector + Send>,
}

impl Epp {
    /// The paper's default instantiation `EPP(b, PLP, PLM)`.
    pub fn plp_plm(ensemble_size: usize) -> Self {
        Self::plp_plm_with(ensemble_size, MoveStrategy::Racy)
    }

    /// `EPP(b, PLP, PLM)` with an explicit move strategy on the PLM final
    /// (the `move=` knob forwards here; the PLP bases are unaffected).
    pub fn plp_plm_with(ensemble_size: usize, strategy: MoveStrategy) -> Self {
        Self::new(
            (0..ensemble_size)
                .map(|i| Box::new(seeded_plp(1 + i as u64)) as Box<dyn CommunityDetector + Send>)
                .collect(),
            Box::new(Plm::with_strategy(strategy)),
        )
    }

    /// `EPP(b, PLP, PLMR)` — refinement as the final algorithm (§V-D).
    pub fn plp_plmr(ensemble_size: usize) -> Self {
        Self::plp_plmr_with(ensemble_size, MoveStrategy::Racy)
    }

    /// `EPP(b, PLP, PLMR)` with an explicit move strategy on the final.
    pub fn plp_plmr_with(ensemble_size: usize, strategy: MoveStrategy) -> Self {
        Self::new(
            (0..ensemble_size)
                .map(|i| Box::new(seeded_plp(1 + i as u64)) as Box<dyn CommunityDetector + Send>)
                .collect(),
            Box::new(Plm {
                refine: true,
                move_strategy: strategy,
                ..Plm::default()
            }),
        )
    }

    /// An EPP over explicit base and final algorithms.
    pub fn new(
        bases: Vec<Box<dyn CommunityDetector + Send>>,
        final_algorithm: Box<dyn CommunityDetector + Send>,
    ) -> Self {
        assert!(!bases.is_empty(), "ensemble needs at least one base");
        Self {
            bases,
            final_algorithm,
        }
    }

    /// Ensemble size `b`.
    pub fn ensemble_size(&self) -> usize {
        self.bases.len()
    }
}

impl CommunityDetector for Epp {
    fn name(&self) -> String {
        format!(
            "EPP({},{},{})",
            self.bases.len(),
            self.bases.first().map_or_else(|| "?".into(), |b| b.name()),
            self.final_algorithm.name()
        )
    }

    /// Distributes distinct seeds derived from `seed` to the ensemble
    /// members (solution diversity needs distinct streams) and reseeds
    /// the final algorithm.
    fn set_seed(&mut self, seed: u64) {
        for (i, base) in self.bases.iter_mut().enumerate() {
            base.set_seed(seed.wrapping_add(1 + i as u64));
        }
        self.final_algorithm.set_seed(seed);
    }

    /// The ensemble pipeline. The budget is shared with every ensemble
    /// member and with the final algorithm; an expiry during the ensemble
    /// degrades to the consensus of the (partial) member solutions — a
    /// valid, if conservative, partition of the input graph — and an expiry
    /// during the final phase prolongs whatever the final algorithm could
    /// finish.
    fn run(
        &mut self,
        g: &Graph,
        rec: &Recorder,
        budget: &Budget,
    ) -> (Partition, Termination, Option<String>) {
        rec.counter("ensemble-size", self.bases.len() as u64);
        // 1. base solutions, in parallel; when `rec` is recording each
        //    member contributes its own sub-report (a no-op otherwise)
        let (base_solutions, member_term) = {
            let _span = rec.span("ensemble");
            let results: Vec<_> = self
                .bases
                .par_iter_mut()
                .map(|base| {
                    faultpoint!("core/epp-member");
                    run_constituent(base, g, rec, budget)
                })
                .collect();
            let mut member_term = Termination::Converged;
            let mut solutions = Vec::with_capacity(results.len());
            for r in results {
                rec.sub_report(r.report);
                if r.termination.interrupted() && !member_term.interrupted() {
                    member_term = r.termination;
                }
                solutions.push(r.partition);
            }
            (solutions, member_term)
        };

        // 2. consensus core communities
        let core = {
            let span = rec.span("consensus");
            let core = core_communities(&base_solutions);
            span.counter("core-communities", core.number_of_subsets() as u64);
            core
        };

        // Expiry during the ensemble: the consensus of the partial member
        // solutions is itself a valid partition of `g` — return it instead
        // of spending more time on contraction and the final algorithm.
        if member_term.interrupted() {
            let mut zeta = core;
            zeta.compact();
            return (zeta, member_term, Some("ensemble".into()));
        }
        if let Err(t) = budget.check() {
            let mut zeta = core;
            zeta.compact();
            return (zeta, t, Some("consensus".into()));
        }

        // 3. contract (a `coarsen` span) and solve with the final algorithm
        let contraction = coarsen_with(g, &core, rec);
        let (coarse_solution, final_term, final_cut) = {
            let _span = rec.span("final");
            let r = run_constituent(&mut self.final_algorithm, &contraction.coarse, rec, budget);
            let cut = r.report.cut_phase.clone();
            rec.sub_report(r.report);
            (r.partition, r.termination, cut)
        };

        // 4. prolong back to the input graph
        let mut zeta = {
            let _span = rec.span("prolong");
            contraction.prolong(&coarse_solution)
        };
        zeta.compact();
        // Postcondition: the prolonged consensus must cover the input graph
        // with a dense assignment, and every base stayed within the core —
        // i.e. the final solution cannot split a core community.
        #[cfg(any(debug_assertions, feature = "validate"))]
        {
            if zeta.len() != g.node_count() {
                panic!(
                    "EPP postcondition violated: partition covers {} of {} nodes",
                    zeta.len(),
                    g.node_count()
                );
            }
            if let Err(e) = zeta.validate_dense() {
                panic!("EPP postcondition violated: {e}");
            }
            if !core.is_refinement_of(&zeta) {
                panic!("EPP postcondition violated: final solution splits a core community");
            }
        }
        if final_term.interrupted() {
            let cut = match final_cut {
                Some(inner) => format!("final/{inner}"),
                None => "final".into(),
            };
            return (zeta, final_term, Some(cut));
        }
        (zeta, Termination::Converged, None)
    }
}

/// EML — the iterated (multilevel) ensemble scheme of §III-D: after the core
/// communities are computed, the coarsened graph is fed to a *fresh*
/// ensemble, recursively, until the consensus stops improving modularity;
/// only then does the final algorithm run. The paper evaluates this scheme
/// and discards it ("the iterated scheme does not pay off in terms of
/// quality in most cases") — it is provided so that the ablation can be
/// reproduced (see the `ablations` bench).
pub struct EppIterated {
    /// Ensemble size per level.
    pub ensemble_size: usize,
    /// Cap on ensemble recursion depth.
    pub max_levels: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl EppIterated {
    /// EML with PLP bases and a PLM final, mirroring `EPP(b, PLP, PLM)`.
    pub fn new(ensemble_size: usize) -> Self {
        assert!(ensemble_size >= 1, "ensemble needs at least one base");
        Self {
            ensemble_size,
            max_levels: 16,
            seed: 1,
        }
    }
}

impl CommunityDetector for EppIterated {
    fn name(&self) -> String {
        format!("EML({},PLP,PLM)", self.ensemble_size)
    }

    fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// The iterated ensemble. Each ensemble round consumes one sweep; the
    /// budget is shared with the PLP members and the final PLM, so expiry
    /// degrades to the consensus prefix committed so far, finished off by
    /// whatever PLM could do. The members run unrecorded; the final PLM
    /// records its levels under the `final` span.
    fn run(
        &mut self,
        g: &Graph,
        rec: &Recorder,
        budget: &Budget,
    ) -> (Partition, Termination, Option<String>) {
        use crate::quality::modularity;
        rec.counter("ensemble-size", self.ensemble_size as u64);
        let mut chain: Vec<parcom_graph::Coarsening> = Vec::new();
        let mut current = g.clone();
        let mut best_q = f64::NEG_INFINITY;
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
            let bases: Vec<Partition> = (0..self.ensemble_size)
                .into_par_iter()
                .map(|i| {
                    faultpoint!("core/epp-member");
                    let mut plp = seeded_plp(self.seed + ((level as u64) << 32) + i as u64 + 1);
                    plp.run(&current, &Recorder::disabled(), budget).0
                })
                .collect();
            let core = core_communities(&bases);
            if let Err(t) = budget.check() {
                termination = t;
                cut_phase = Some(format!("level-{level}/ensemble"));
                break;
            }
            if core.number_of_subsets() >= current.node_count() {
                break;
            }
            let contraction = coarsen(&current, &core);
            let coarse = contraction.coarse.clone();

            // commit the level only if the consensus clustering improves on
            // G; a degrading contraction would be irreversible (coarse
            // nodes cannot be split again)
            let mut prolonged = Partition::singleton(coarse.node_count());
            prolonged = contraction.prolong(&prolonged);
            for c in chain.iter().rev() {
                prolonged = c.prolong(&prolonged);
            }
            let q = modularity(g, &prolonged);
            if q <= best_q + 1e-9 {
                break;
            }
            best_q = q;
            chain.push(contraction);
            current = coarse;
        }

        let (mut zeta, final_term, _) = {
            let _span = rec.span("final");
            Plm::new().run(&current, rec, budget)
        };
        if !termination.interrupted() && final_term.interrupted() {
            termination = final_term;
            cut_phase = Some("final".into());
        }
        for c in chain.iter().rev() {
            zeta = c.prolong(&zeta);
        }
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
    fn name_reflects_configuration() {
        assert_eq!(Epp::plp_plm(4).name(), "EPP(4,PLP,PLM)");
        assert_eq!(Epp::plp_plmr(2).name(), "EPP(2,PLP,PLMR)");
    }

    #[test]
    fn recovers_ring_of_cliques() {
        let (g, truth) = ring_of_cliques(8, 8);
        let zeta = Epp::plp_plm(4).detect(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                if truth.in_same_subset(u, v) {
                    assert!(zeta.in_same_subset(u, v), "clique split at {u},{v}");
                }
            }
        }
        assert!(modularity(&g, &zeta) > 0.7);
    }

    #[test]
    fn quality_between_plp_and_plm() {
        let (g, _) = lfr(LfrParams::benchmark(2000, 0.4), 21);
        let q_epp = modularity(&g, &Epp::plp_plm(4).detect(&g));
        let q_plm = modularity(&g, &Plm::new().detect(&g));
        // EPP should land close to PLM (paper: slightly worse in most cases)
        assert!(
            q_epp > q_plm - 0.1,
            "EPP quality collapsed: {q_epp} vs PLM {q_plm}"
        );
    }

    #[test]
    fn improves_on_single_plp_for_noisy_graphs() {
        let (g, _) = lfr(LfrParams::benchmark(2000, 0.5), 22);
        let q_epp = modularity(&g, &Epp::plp_plm(4).detect(&g));
        let q_plp = modularity(&g, &seeded_plp(1).detect(&g));
        assert!(
            q_epp >= q_plp - 0.02,
            "EPP ({q_epp}) should improve on PLP ({q_plp})"
        );
    }

    #[test]
    fn ensemble_size_one_works() {
        let (g, _) = ring_of_cliques(5, 5);
        let zeta = Epp::plp_plm(1).detect(&g);
        assert!(modularity(&g, &zeta) > 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one base")]
    fn zero_ensemble_rejected() {
        Epp::plp_plm(0);
    }

    #[test]
    fn report_carries_member_sub_reports() {
        let (g, _) = ring_of_cliques(6, 8);
        let mut epp = Epp::plp_plm(3);
        let (_, report) = epp.detect_with_report(&g);
        // 3 ensemble members + the final algorithm
        assert_eq!(report.sub_reports.len(), 4);
        assert_eq!(
            report
                .sub_reports
                .iter()
                .filter(|r| r.algorithm == "PLP")
                .count(),
            3
        );
        assert_eq!(report.sub_reports.last().unwrap().algorithm, "PLM");
        for name in ["ensemble", "consensus", "coarsen", "final", "prolong"] {
            assert!(report.phase(name).is_some(), "missing phase {name}");
        }
        assert_eq!(report.counter("ensemble-size"), Some(3));
    }

    #[test]
    fn members_are_recorded_only_when_the_ensemble_is() {
        use std::sync::mpsc;

        /// Reports, per run, whether it was handed a live recorder.
        struct Probe(mpsc::Sender<bool>);
        impl CommunityDetector for Probe {
            fn name(&self) -> String {
                "Probe".into()
            }
            fn run(
                &mut self,
                g: &Graph,
                rec: &Recorder,
                _budget: &Budget,
            ) -> (Partition, Termination, Option<String>) {
                self.0.send(rec.is_enabled()).unwrap();
                let zeta = Partition::singleton(g.node_count());
                (zeta, Termination::Converged, None)
            }
        }

        let (tx, rx) = mpsc::channel();
        let probe = || Box::new(Probe(tx.clone())) as Box<dyn CommunityDetector + Send>;
        let mut epp = Epp::new(vec![probe(), probe()], probe());
        let (g, _) = ring_of_cliques(3, 4);
        // plain detect(): no member or final builds a report to throw away
        epp.detect(&g);
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), [false; 3]);
        // a reported run records both members and the final
        let (_, report) = epp.detect_with_report(&g);
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), [true; 3]);
        assert_eq!(report.sub_reports.len(), 3);
        assert_eq!(report.counter("ensemble-size"), Some(2));
    }

    #[test]
    fn set_seed_diversifies_members() {
        let (g, _) = ring_of_cliques(5, 6);
        let mut epp = Epp::plp_plm(2);
        epp.set_seed(99);
        // members must not share a seed (diversity requires distinct streams)
        let zeta = epp.detect(&g);
        assert!(modularity(&g, &zeta) > 0.5);
    }

    #[test]
    fn guarded_ensemble_expiry_returns_consensus() {
        let (g, _) = lfr(LfrParams::benchmark(1000, 0.35), 24);
        // one sweep covers PLP member iteration 0; the members hit the cap
        // mid-run and EPP degrades to the consensus of their partial labels
        let budget = Budget::unlimited().with_max_sweeps(1);
        let r = Epp::plp_plm(3).detect_guarded(&g, &budget);
        assert!(r.termination.interrupted());
        assert_eq!(r.partition.len(), g.node_count());
        assert!(r.partition.validate().is_ok());
        assert!(r.report.cut_phase.is_some());
    }

    #[test]
    fn eml_name_and_quality() {
        let mut eml = EppIterated::new(3);
        assert_eq!(eml.name(), "EML(3,PLP,PLM)");
        let (g, truth) = ring_of_cliques(6, 8);
        let zeta = eml.detect(&g);
        assert!(modularity(&g, &zeta) > 0.9 * modularity(&g, &truth));
    }

    #[test]
    fn eml_comparable_to_epp() {
        // the paper found iteration does not pay off; it must at least not
        // collapse relative to one-level EPP
        let (g, _) = lfr(LfrParams::benchmark(1500, 0.4), 23);
        let q_epp = modularity(&g, &Epp::plp_plm(3).detect(&g));
        let q_eml = modularity(&g, &EppIterated::new(3).detect(&g));
        assert!(q_eml > q_epp - 0.1, "EML {q_eml} vs EPP {q_epp}");
    }
}
