//! EPP — Ensemble Preprocessing (Algorithm 5), its iterated form EML, and
//! the driver every ensemble detector runs on.
//!
//! An ensemble of `b` cheap base algorithms (PLP instances with distinct
//! seeds) runs on the input graph; their consensus — the core communities —
//! identifies the uncontested parts of the graph, which are contracted away.
//! The stronger final algorithm (PLM or PLMR) then solves the much smaller
//! coarse graph, and the result is prolonged back. This trades a little
//! quality for a large speedup on big graphs (§III-D, Fig. 4).
//!
//! That scheme — rounds of members → consensus → contract, then the final
//! algorithm and prolongation — is `Ensemble`, written once; [`Epp`],
//! [`EppIterated`] and [`crate::Cggc`] are configurations of it that differ
//! in their members, their final algorithm and how many rounds they allow.

use crate::algorithm::{run_constituent, CommunityDetector};
use crate::combine::core_communities;
use crate::moves::MoveStrategy;
use crate::plm::Plm;
use crate::plp::Plp;
use crate::quality::modularity_gamma;
use parcom_graph::{coarsen_with, Coarsening, Graph, Partition};
use parcom_guard::{faultpoint, Budget, Termination};
use parcom_obs::Recorder;
use rayon::prelude::*;

pub(crate) type Member = Box<dyn CommunityDetector + Send>;

/// `coarse`, a solution of the coarsest graph of `chain`, on the graph the
/// chain started from.
fn prolong_through(chain: &[Coarsening], coarse: Partition) -> Partition {
    chain.iter().rev().fold(coarse, |zeta, c| c.prolong(&zeta))
}

/// One run of the ensemble scheme (Algorithm 5 and its iteration).
///
/// The budget is shared with every member and with the final algorithm.
/// An interruption in round `l` — at its start, in a member, or after the
/// consensus — ends the run with that round's consensus (of partial member
/// solutions; singletons when no member ran) prolonged through the rounds
/// committed before it, cut phase `level-{l}/ensemble`; the final algorithm
/// is not started on an expired budget. An interruption inside the final
/// algorithm prolongs whatever it could finish, cut phase `final/{inner}`.
pub(crate) struct Ensemble<'a> {
    /// Run concurrently on each round's graph; reseeded every round.
    pub members: &'a mut [Member],
    /// Solves the graph the committed rounds left.
    pub finish: &'a mut dyn CommunityDetector,
    /// 1 is Algorithm 5; more iterates it, committing a round only while
    /// its consensus improves modularity (at the final algorithm's γ) on the
    /// input graph — a contraction is irreversible.
    pub max_rounds: usize,
    /// Member `i` of round `l` runs on stream `seed + (l << 32) + i + 1`.
    pub seed: u64,
}

impl Ensemble<'_> {
    /// One round on `g`: the members in parallel — each contributing a
    /// sub-report when `rec` is recording — and their consensus, with the
    /// interruption that cut the round short, if any.
    fn round(
        &mut self,
        g: &Graph,
        round: usize,
        rec: &Recorder,
        budget: &Budget,
    ) -> (Partition, Option<Termination>) {
        if let Err(t) = budget.check_sweep() {
            return (Partition::singleton(g.node_count()), Some(t));
        }
        let results: Vec<_> = {
            let span = rec.span("ensemble");
            span.counter("members", self.members.len() as u64);
            let stream = self.seed.wrapping_add((round as u64) << 32);
            for (i, member) in self.members.iter_mut().enumerate() {
                member.set_seed(stream.wrapping_add(i as u64 + 1));
            }
            self.members
                .par_iter_mut()
                .map(|member| {
                    faultpoint!("core/epp-member");
                    run_constituent(member, g, rec, budget)
                })
                .collect()
        };
        let cut = results
            .iter()
            .map(|r| r.termination)
            .find(|t| t.interrupted());
        let mut solutions = Vec::with_capacity(results.len());
        for r in results {
            rec.sub_report(r.report);
            solutions.push(r.partition);
        }
        let span = rec.span("consensus");
        let core = core_communities(&solutions);
        span.counter("core-communities", core.number_of_subsets() as u64);
        (core, cut.or_else(|| budget.check().err()))
    }

    pub fn run(
        mut self,
        g: &Graph,
        rec: &Recorder,
        budget: &Budget,
    ) -> (Partition, Termination, Option<String>) {
        rec.counter("ensemble-size", self.members.len() as u64);
        let mut chain: Vec<Coarsening> = Vec::new();
        let mut best_q = f64::NEG_INFINITY;
        for round in 0..self.max_rounds {
            let current = chain.last().map_or(g, |c| &c.coarse);
            let level = rec.span_fmt(format_args!("level-{round}"));
            level.counter("nodes", current.node_count() as u64);
            level.counter("edges", current.edge_count() as u64);
            let (core, cut) = self.round(current, round, rec, budget);
            if let Some(termination) = cut {
                let mut zeta = prolong_through(&chain, core);
                zeta.compact();
                return (zeta, termination, Some(format!("level-{round}/ensemble")));
            }
            if core.number_of_subsets() >= current.node_count() {
                break; // consensus is all-singletons: nothing to contract
            }
            let contraction = coarsen_with(current, &core, rec);
            if self.max_rounds > 1 {
                let coarse_nodes = contraction.coarse.node_count();
                let consensus = contraction.prolong(&Partition::singleton(coarse_nodes));
                let on_input = prolong_through(&chain, consensus);
                let q = modularity_gamma(g, &on_input, self.finish.gamma());
                if q <= best_q + 1e-9 {
                    break;
                }
                best_q = q;
            }
            chain.push(contraction);
        }

        let current = chain.last().map_or(g, |c| &c.coarse);
        let r = {
            let _span = rec.span("final");
            run_constituent(self.finish, current, rec, budget)
        };
        // read only when the final algorithm was cut
        let cut = match &r.report.cut_phase {
            Some(inner) => format!("final/{inner}"),
            None => "final".into(),
        };
        rec.sub_report(r.report);
        let mut zeta = {
            let _span = rec.span("prolong");
            prolong_through(&chain, r.partition)
        };
        zeta.compact();
        // Postcondition: a dense assignment covering the input graph that
        // splits no community the committed rounds contracted.
        #[cfg(any(debug_assertions, feature = "validate"))]
        {
            let committed = prolong_through(&chain, Partition::singleton(current.node_count()));
            assert_eq!(zeta.len(), g.node_count(), "ensemble result covers g");
            assert_eq!(zeta.validate_dense(), Ok(()), "ensemble result is dense");
            assert!(committed.is_refinement_of(&zeta), "core community split");
        }
        (zeta, r.termination, Some(cut))
    }
}

/// `b` PLP base classifiers; the driver seeds them.
fn plp_members(ensemble_size: usize) -> Vec<Member> {
    (0..ensemble_size)
        .map(|_| Box::new(Plp::new()) as Member)
        .collect()
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
    /// The base classifiers; run concurrently on the input graph, base `i`
    /// reseeded to `seed + i + 1` by every run (0 until
    /// [`set_seed`](CommunityDetector::set_seed)).
    pub bases: Vec<Box<dyn CommunityDetector + Send>>,
    /// The final algorithm, applied to the contracted graph.
    pub final_algorithm: Box<dyn CommunityDetector + Send>,
    seed: u64,
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
            plp_members(ensemble_size),
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
            plp_members(ensemble_size),
            Box::new(Plm {
                refine: true,
                ..Plm::with_strategy(strategy)
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
            seed: 0,
        }
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

    /// The ensemble members draw distinct streams derived from `seed`
    /// (solution diversity needs them); the final algorithm is reseeded
    /// with `seed` itself.
    fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
        self.final_algorithm.set_seed(seed);
    }

    /// One round of the [`Ensemble`] scheme.
    fn run(
        &mut self,
        g: &Graph,
        rec: &Recorder,
        budget: &Budget,
    ) -> (Partition, Termination, Option<String>) {
        Ensemble {
            members: &mut self.bases,
            finish: &mut *self.final_algorithm,
            max_rounds: 1,
            seed: self.seed,
        }
        .run(g, rec, budget)
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

    /// Up to `max_levels` rounds of the [`Ensemble`] scheme.
    fn run(
        &mut self,
        g: &Graph,
        rec: &Recorder,
        budget: &Budget,
    ) -> (Partition, Termination, Option<String>) {
        Ensemble {
            members: &mut plp_members(self.ensemble_size),
            finish: &mut Plm::new(),
            max_rounds: self.max_levels,
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
        let q_plp = modularity(&g, &Plp::new().detect(&g));
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
        let level0 = report.phase("level-0").expect("level-0 phase");
        for name in ["ensemble", "consensus", "coarsen"] {
            assert!(level0.child(name).is_some(), "missing phase level-0/{name}");
        }
        for name in ["final", "prolong"] {
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
