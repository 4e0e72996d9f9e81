//! The one contract every community detection algorithm implements.
//!
//! A detector supplies its name and a single algorithm body,
//! [`run`](CommunityDetector::run), which works under a [`Recorder`] and
//! a [`Budget`]. The three public entry points — `detect`,
//! `detect_with_report` and `detect_guarded` — are provided methods
//! written here once, so they cannot disagree about what a report carries
//! or how a run ends (DESIGN.md §11). A run normally starts from
//! singletons; [`CommunityDetector::start_from`] hands the next run a
//! [`StartState`] instead, whichever entry point makes it.

use crate::quality::{community_aggregates, CommunityAggregates};
use parcom_graph::{Graph, Node, Partition};
use parcom_guard::{Budget, Termination};
use parcom_obs::{Recorder, RunReport};

/// The outcome of a reported run ([`CommunityDetector::detect_guarded`]):
/// the partition — degraded to the best valid one found so far when the
/// budget expired mid-run — plus why the run stopped and its report. The
/// report's `termination` field always carries
/// [`Termination::as_str`]; `cut_phase` names the phase that was executing
/// when the budget expired, for interrupted runs.
#[derive(Clone, Debug)]
pub struct GuardedResult {
    /// The detected (or partially detected) community assignment. Always a
    /// valid partition of the input graph, whatever the termination cause.
    pub partition: Partition,
    /// How the run ended.
    pub termination: Termination,
    /// The instrumented run report, with termination cause recorded.
    pub report: RunReport,
    /// ω(C) and vol(C) of `partition` on the graph it was detected on,
    /// indexed by its community ids (every detector returns dense ids, so
    /// their count is the community count): carried by the run when it
    /// could, else from the report's scan. `None` when neither happened —
    /// the run was refused up front or recorded nothing.
    pub aggregates: Option<CommunityAggregates>,
}

impl GuardedResult {
    /// Stamps the termination cause (and, for interrupted runs, the cut
    /// phase) onto a finished report — the single way a result is built,
    /// so the report and the result can't disagree.
    fn new(
        partition: Partition,
        termination: Termination,
        cut_phase: Option<String>,
        mut report: RunReport,
        aggregates: Option<CommunityAggregates>,
    ) -> Self {
        report.termination = Some(termination.as_str().to_string());
        report.cut_phase = cut_phase.filter(|_| termination.interrupted());
        Self {
            partition,
            termination,
            report,
            aggregates,
        }
    }
}

/// Where a run starts when not from singletons: the partition an earlier
/// run converged to on an earlier version of the graph, and the nodes whose
/// neighbourhoods changed since. Only the frontier is re-evaluated at
/// first; activity spreads from there by the detector's own rule, so the
/// run costs what the change cost, not what the graph costs.
///
/// `base` may be shorter than the graph (the graph grew): nodes past its
/// end start as fresh singletons ([`start_label`](crate::quality::start_label)).
/// It must not be longer.
#[derive(Clone, Debug, PartialEq)]
pub struct StartState {
    /// The community assignment to start from.
    pub base: Partition,
    /// The nodes to evaluate first: every endpoint of an edge inserted,
    /// removed or reweighted since `base` was computed. Order and
    /// duplicates do not matter.
    pub frontier: Vec<Node>,
    /// ω(C) and vol(C) of `base` — grown nodes in their singletons — on
    /// the graph the run is given, when known
    /// ([`CommunityAggregates::apply_edits`] keeps them so across edits).
    /// A detector that can carries them to its result, and the report
    /// reads modularity off them instead of scanning every edge.
    pub aggregates: Option<CommunityAggregates>,
}

/// Runs `detector` under `rec` and builds the report every entry point
/// hands out: the root counters `nodes`/`edges`/`warm`/`carried`/
/// `frontier`/`communities`, the modularity metric at the detector's own
/// γ, and the termination cause with — for interrupted runs — the cut
/// phase. `warm` is 1 when the run starts from a [`StartState`], and
/// `frontier` is how many nodes it starts with — all of them when cold.
/// `carried` is 1 when the detector carried its result's aggregates
/// ([`CommunityDetector::carried_aggregates`]): Q and `communities` then
/// cost O(k), and only a run that carried none pays the O(n + m) scan.
/// Under a disabled recorder this is the bare `run` plus an empty report,
/// and the result has aggregates only if they were carried.
fn reported_run<D: CommunityDetector + ?Sized>(
    detector: &mut D,
    g: &Graph,
    rec: Recorder,
    budget: &Budget,
) -> GuardedResult {
    rec.counter("nodes", g.node_count() as u64);
    rec.counter("edges", g.edge_count() as u64);
    let start = detector.start_slot().and_then(|slot| slot.as_ref());
    let frontier = start.map_or(g.node_count(), |s| s.frontier.len());
    rec.counter("warm", start.is_some() as u64);
    // settled after the run; recorded now to sit beside `warm`
    rec.counter("carried", 0);
    rec.counter("frontier", frontier as u64);
    let (partition, termination, cut_phase) = detector.run(g, &rec, budget);
    let aggregates = match detector.carried_aggregates() {
        Some(carried) => {
            rec.counter("carried", 1);
            rec.counter("communities", carried.len() as u64);
            Some(carried)
        }
        // two scans of the result that only a report needs
        None if rec.is_enabled() => {
            rec.counter("communities", partition.number_of_subsets() as u64);
            Some(community_aggregates(g, &partition))
        }
        None => None,
    };
    if let Some(agg) = aggregates.as_ref().filter(|_| rec.is_enabled()) {
        let q = agg.modularity(g.total_edge_weight(), detector.gamma());
        rec.metric("modularity", q);
    }
    GuardedResult::new(
        partition,
        termination,
        cut_phase,
        rec.finish(detector.name()),
        aggregates,
    )
}

/// Runs a constituent of an ensemble (a member, the final algorithm) for
/// the run recorded by `outer`: under a recorder of its own — its report
/// becomes a sub-report — only when `outer` is recording, so a plain
/// `detect()` of the ensemble pays for no recorder and no modularity scan
/// in its members.
pub(crate) fn run_constituent<D: CommunityDetector + ?Sized>(
    detector: &mut D,
    g: &Graph,
    outer: &Recorder,
    budget: &Budget,
) -> GuardedResult {
    let rec = if outer.is_enabled() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    reported_run(detector, g, rec, budget)
}

/// A (possibly stateful) community detection algorithm.
///
/// Implementing a detector means implementing [`name`](Self::name) and
/// [`run`](Self::run) (plus [`set_seed`](Self::set_seed) and
/// [`gamma`](Self::gamma) where they apply); every entry point below is
/// derived from those and is not meant to be overridden. Graphs are
/// immutable; `run` takes `&mut self` so algorithms can advance internal
/// RNG state between ensemble runs.
pub trait CommunityDetector {
    /// Human-readable algorithm label as used in the paper's figures
    /// (e.g. `"PLM"`, `"EPP(4,PLP,PLM)"`).
    fn name(&self) -> String;

    /// The algorithm body: detects communities in `g`, recording phases
    /// into `rec` and honouring `budget`.
    ///
    /// The contract (see DESIGN.md §11): the budget is checked at
    /// sweep/level/ensemble-member boundaries — never per edge — and when
    /// it expires the run *degrades gracefully*: it returns the best valid
    /// partition found so far (the current hierarchy level projected back
    /// to the fine graph) instead of panicking or running on. The second
    /// component says how the run ended, the third names the phase a cut
    /// run was in (ignored for converged runs).
    fn run(
        &mut self,
        g: &Graph,
        rec: &Recorder,
        budget: &Budget,
    ) -> (Partition, Termination, Option<String>);

    /// Where the detector keeps the [`StartState`] of its next run, which
    /// takes it out — a start state applies to one run. The default,
    /// `None`, says the detector cannot start from a base: every run of
    /// it is cold.
    fn start_slot(&mut self) -> Option<&mut Option<StartState>> {
        None
    }

    /// Hands the next run — through whichever entry point — a start state.
    /// Returns `false`, keeping nothing, when the detector cannot use one;
    /// the next run is then an ordinary cold run.
    fn start_from(&mut self, start: StartState) -> bool {
        match self.start_slot() {
            Some(slot) => {
                *slot = Some(start);
                true
            }
            None => false,
        }
    }

    /// Takes the ω(C)/vol(C) aggregates of the partition the last run
    /// returned, on the graph it ran on, if the run carried them there
    /// from its [`StartState`]'s — so a report needs no scan. The default,
    /// `None`, says the detector never carries them.
    fn carried_aggregates(&mut self) -> Option<CommunityAggregates> {
        None
    }

    /// Reseeds the algorithm's randomness. The default is a no-op:
    /// deterministic algorithms (CNM, PAM) have nothing to reseed.
    fn set_seed(&mut self, seed: u64) {
        let _ = seed;
    }

    /// The resolution γ the algorithm optimizes modularity at — the γ its
    /// reports' `modularity` metric is evaluated with. Standard modularity
    /// (1) unless the detector has a resolution parameter.
    fn gamma(&self) -> f64 {
        1.0
    }

    /// Detects communities in `g`: [`run`](Self::run) with no recorder and
    /// no budget — the zero-overhead path.
    fn detect(&mut self, g: &Graph) -> Partition {
        self.run(g, &Recorder::disabled(), &Budget::unlimited()).0
    }

    /// Detects communities and returns the structured run report: the
    /// algorithm's phases, the input size and community count, the
    /// modularity reached and `termination == "converged"`.
    fn detect_with_report(&mut self, g: &Graph) -> (Partition, RunReport) {
        let r = reported_run(self, g, Recorder::enabled(), &Budget::unlimited());
        (r.partition, r.report)
    }

    /// Detects communities under a run [`Budget`] and reports like
    /// [`detect_with_report`](Self::detect_with_report).
    /// [`GuardedResult::termination`] says how the run ended and the
    /// report's `cut_phase` which phase was interrupted. Input the budget
    /// does not admit and an already-expired budget short-circuit to the
    /// singleton partition (every node its own community — trivially
    /// valid) before any work or allocation happens.
    fn detect_guarded(&mut self, g: &Graph, budget: &Budget) -> GuardedResult {
        let early = match budget.admits(g.node_count(), g.edge_count()) {
            Err(t) => Some(t),
            Ok(()) => budget.check().err(),
        };
        if let Some(termination) = early {
            let zeta = Partition::singleton(g.node_count());
            let report = RunReport::empty(self.name());
            return GuardedResult::new(zeta, termination, None, report, None);
        }
        reported_run(self, g, Recorder::enabled(), budget)
    }
}

// Only the methods a detector implements are forwarded; the entry points
// are the same provided code on either side of the box.
impl<T: CommunityDetector + ?Sized> CommunityDetector for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn run(
        &mut self,
        g: &Graph,
        rec: &Recorder,
        budget: &Budget,
    ) -> (Partition, Termination, Option<String>) {
        (**self).run(g, rec, budget)
    }

    fn start_slot(&mut self) -> Option<&mut Option<StartState>> {
        (**self).start_slot()
    }

    fn carried_aggregates(&mut self) -> Option<CommunityAggregates> {
        (**self).carried_aggregates()
    }

    fn set_seed(&mut self, seed: u64) {
        (**self).set_seed(seed);
    }

    fn gamma(&self) -> f64 {
        (**self).gamma()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Puts everything in one community; its seed decides which id.
    struct Trivial {
        seed: u64,
    }
    impl CommunityDetector for Trivial {
        fn name(&self) -> String {
            "Trivial".into()
        }
        fn run(
            &mut self,
            g: &Graph,
            rec: &Recorder,
            _budget: &Budget,
        ) -> (Partition, Termination, Option<String>) {
            let _span = rec.span("assign");
            let zeta = Partition::from_vec(vec![self.seed as u32; g.node_count()]);
            (zeta, Termination::Converged, Some("assign".into()))
        }
        fn set_seed(&mut self, seed: u64) {
            self.seed = seed;
        }
        fn gamma(&self) -> f64 {
            0.5
        }
    }

    fn path() -> Graph {
        parcom_graph::GraphBuilder::from_edges(3, &[(0, 1), (1, 2)])
    }

    #[test]
    fn boxing_reaches_the_inner_detector() {
        let mut boxed: Box<dyn CommunityDetector + Send> = Box::new(Trivial { seed: 0 });
        assert_eq!(boxed.name(), "Trivial");
        assert_eq!(boxed.gamma(), 0.5);
        boxed.set_seed(4);
        let g = path();
        // every entry point runs the inner body, reseeded
        assert_eq!(boxed.detect(&g).as_slice(), [4, 4, 4]);
        let (zeta, report) = boxed.detect_with_report(&g);
        assert_eq!(zeta.as_slice(), [4, 4, 4]);
        assert!(report.phase("assign").is_some());
        let r = boxed.detect_guarded(&g, &Budget::unlimited());
        assert_eq!(r.partition.as_slice(), [4, 4, 4]);
    }

    #[test]
    fn reports_carry_counters_modularity_and_termination() {
        let g = path();
        let (zeta, report) = Trivial { seed: 0 }.detect_with_report(&g);
        assert_eq!(zeta.number_of_subsets(), 1);
        assert_eq!(report.algorithm, "Trivial");
        assert_eq!(report.counter("nodes"), Some(3));
        assert_eq!(report.counter("edges"), Some(2));
        assert_eq!(report.counter("communities"), Some(1));
        // a detector without a start slot refuses a base and runs cold,
        // and one that carries no aggregates is scanned
        assert_eq!(report.counter("warm"), Some(0));
        assert_eq!(report.counter("carried"), Some(0));
        assert_eq!(report.counter("frontier"), Some(3));
        // evaluated at the detector's own resolution, not at 1
        assert_eq!(report.metric("modularity"), Some(0.5));
        assert_eq!(report.termination.as_deref(), Some("converged"));
        // a converged run names no cut phase, whatever the body returned
        assert_eq!(report.cut_phase, None);
    }

    #[test]
    fn a_detector_without_a_start_slot_refuses_a_base() {
        let start = StartState {
            base: Partition::singleton(3),
            frontier: vec![0],
            aggregates: None,
        };
        let mut boxed: Box<dyn CommunityDetector> = Box::new(Trivial { seed: 0 });
        assert!(!boxed.start_from(start));
    }

    #[test]
    fn guarded_run_converges_under_an_unlimited_budget() {
        let r = Trivial { seed: 0 }.detect_guarded(&path(), &Budget::unlimited());
        assert_eq!(r.termination, Termination::Converged);
        assert_eq!(r.partition.number_of_subsets(), 1);
        assert_eq!(r.report.termination.as_deref(), Some("converged"));
        assert_eq!(r.report.cut_phase, None);
    }

    #[test]
    fn preflight_rejects_oversized_input_before_any_work() {
        let budget = Budget::unlimited().with_input_limits(2, 100);
        let r = Trivial { seed: 0 }.detect_guarded(&path(), &budget);
        assert_eq!(r.termination, Termination::InputRejected);
        // degraded result: the trivially valid singleton partition
        assert_eq!(r.partition.len(), 3);
        assert_eq!(r.partition.number_of_subsets(), 3);
        assert_eq!(r.report.termination.as_deref(), Some("input-rejected"));
        assert!(r.report.phases.is_empty());
    }

    #[test]
    fn preflight_catches_already_expired_budget() {
        let g = parcom_graph::GraphBuilder::from_edges(2, &[(0, 1)]);
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        let r = Trivial { seed: 0 }.detect_guarded(&g, &budget);
        assert_eq!(r.termination, Termination::Deadline);
        assert_eq!(r.partition.len(), 2);
    }
}
