//! PLP — Parallel Label Propagation (Algorithm 1 of the paper).
//!
//! Every node starts with a unique label; in each iteration every *active*
//! node adopts the dominant label in its neighborhood (the label maximizing
//! the incident edge weight). Nodes whose neighborhood did not change become
//! inactive and are only reactivated when a neighbor updates. Iteration stops
//! once the number of updated labels per iteration falls below the threshold
//! θ (default `n · 10⁻⁵`, the paper's choice for cutting the long tail of
//! iterations that touch only a few high-degree nodes — see Fig. 1).
//!
//! The label array is shared between threads with relaxed atomics; a thread
//! may read a neighbor's label from the previous or the current iteration.
//! These races are deliberate (asynchronous updating, §III-A): they avoid
//! label oscillation on bipartite structures and add solution diversity in
//! the ensemble setting.
//!
//! The active set is what makes PLP incremental, and a [`StartState`]
//! carries it across runs: labels start from an earlier run's result and
//! only the nodes an edit touched start active. The ordinary cold run is
//! the same loop started from singletons with every node active. A start
//! state with the base's aggregates gets them back patched for the result
//! ([`CommunityDetector::carried_aggregates`]), so a warm run's report
//! costs what its movers cost, not a scan of the graph.

use crate::algorithm::{CommunityDetector, StartState};
use crate::quality::{compact_carrying, CommunityAggregates};
use parcom_graph::{AtomicPartition, Graph, Node, Partition, ScratchPool};
use parcom_guard::{Budget, Termination};
use parcom_obs::{CounterCell, LocalCount, Recorder, Span};
use rand::{rngs::SmallRng, seq::SliceRandom, SeedableRng};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Configuration of PLP.
///
/// # Examples
///
/// ```
/// use parcom_core::{CommunityDetector, Plp};
/// use parcom_generators::ring_of_cliques;
///
/// let (graph, _) = ring_of_cliques(5, 10);
/// let mut plp = Plp::new();
/// let (communities, report) = plp.detect_with_report(&graph);
/// assert_eq!(communities.number_of_subsets(), 5);
/// let prop = report.phase("label-propagation").unwrap();
/// assert!(!prop.series("updated").unwrap().is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct Plp {
    /// Update threshold θ as a fraction of `n`; iteration stops when fewer
    /// than `θ·n` nodes update. The paper uses `1e-5`.
    pub theta_fraction: f64,
    /// Hard iteration cap (the paper observes convergence within ~100).
    pub max_iterations: usize,
    /// Seed for the fallback shuffle and tie-breaking.
    pub seed: u64,
    /// Where the next run starts, set through
    /// [`CommunityDetector::start_from`] and taken by that run; `None`
    /// starts from singletons.
    pub start: Option<StartState>,
    /// The last run's result aggregates, when its start state had the
    /// base's; taken by [`CommunityDetector::carried_aggregates`].
    pub carried: Option<CommunityAggregates>,
}

impl Default for Plp {
    fn default() -> Self {
        Self {
            theta_fraction: 1e-5,
            max_iterations: 100,
            seed: 1,
            start: None,
            carried: None,
        }
    }
}

/// SplitMix64 mixing, used for the pseudo-random tie-break.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Plp {
    /// PLP with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Label propagation from `start` (`None`: from singletons, everyone
    /// active) under a recorder and a run budget, in three top-level
    /// phases: `setup` builds the label and flag arrays, `label-propagation`
    /// runs the sweeps and carries the per-iteration `active`/`updated`
    /// series (Fig. 1) and the total `label-updates` count, all present
    /// even when no sweep was needed, and `finish` snapshots, patches and
    /// renumbers the result. The budget is checked once per iteration
    /// (sweep granularity — §III-A iterations touch every active node, so
    /// per-edge checks would dominate). On expiry the loop stops after the
    /// last completed iteration; the label array at any iteration boundary
    /// is a valid assignment, so the degraded result is simply the labels
    /// so far, compacted.
    ///
    /// A run costs what its frontier and its movers cost. An empty
    /// frontier on a base that covers the graph builds nothing of size n
    /// and returns the base itself, as does any run that relabels nothing
    /// on such a base; either way the base is renumbered only if it is not
    /// compacted already. With the base's aggregates in `start`, the
    /// result's come back too: patched for the nodes the run relabeled
    /// whose final label differs from their start label, and renumbered by
    /// both compactions.
    fn propagate(
        &mut self,
        g: &Graph,
        start: Option<StartState>,
        rec: &Recorder,
        budget: &Budget,
    ) -> (Arc<Partition>, Termination, Option<CommunityAggregates>) {
        let n = g.node_count();
        // One loop for both: a cold run is the warm run whose base is
        // empty — every node lies past its end and gets a fresh singleton
        // label, its own id — and whose frontier is every node.
        let (mut base, frontier, mut aggregates) = match start {
            Some(s) => (s.base, Some(s.frontier), s.aggregates),
            None => (Arc::new(Partition::singleton(0)), None, None),
        };
        assert!(
            base.len() <= n,
            "start state covers {} nodes, the graph has {n}",
            base.len()
        );
        if let Some(agg) = &aggregates {
            let covered = base.upper_bound() as usize + (n - base.len());
            assert_eq!(
                agg.len(),
                covered,
                "start aggregates cover {} communities, the base and the grown nodes {covered}",
                agg.len()
            );
        }
        let setup = rec.span("setup");
        // Labels index the tally maps, so keep them near the node count.
        if base.upper_bound() as usize > base.len() {
            compact_carrying(Arc::make_mut(&mut base), aggregates.as_mut());
        }
        let idle = base.len() == n && frontier.as_ref().is_some_and(Vec::is_empty);
        let record = aggregates.is_some();
        let mut run = (!idle).then(|| Labels::start(g, &base, frontier.as_deref(), record));
        setup.close();

        let span = rec.span("label-propagation");
        span.declare_series("active");
        span.declare_series("updated");
        let (termination, iterations, label_updates) = match &mut run {
            Some(run) => self.sweep(g, run, &span, budget),
            // Nobody to evaluate: an empty frontier converges in zero sweeps.
            None => (Termination::Converged, 0, 0),
        };
        span.counter("iterations", iterations);
        span.counter("label-updates", label_updates);
        span.close();

        let _finish = rec.span("finish");
        let result = match run {
            Some(run) if run.relabeled || base.len() < n => {
                // Postcondition on the racy label array itself: every
                // concurrently-written value must be a label some node
                // started with.
                #[cfg(any(debug_assertions, feature = "validate"))]
                if let Err(e) = run.labels.validate(run.bound.max(1) as u32) {
                    panic!("PLP postcondition violated: {e}");
                }
                let mut result = run.labels.to_partition();
                if let (Some(agg), Some(movers)) = (&mut aggregates, run.movers) {
                    let mut movers = movers.into_inner().unwrap_or_else(PoisonError::into_inner);
                    movers.sort_unstable();
                    movers.dedup();
                    agg.apply_moves(g, &base, &result, &movers);
                }
                compact_carrying(&mut result, aggregates.as_mut());
                Arc::new(result)
            }
            // Every node kept its base label: the base is the result.
            _ => {
                if !base.is_compacted() {
                    compact_carrying(Arc::make_mut(&mut base), aggregates.as_mut());
                }
                base
            }
        };
        #[cfg(any(debug_assertions, feature = "validate"))]
        if let Err(e) = result.validate_dense() {
            panic!("PLP postcondition violated: {e}");
        }
        (result, termination, aggregates)
    }

    /// The sweeps of one run over `run`'s labels, until fewer than θ·n
    /// nodes update, the iteration cap, or the budget stops them. Returns
    /// how the run ended, the iterations and the label updates.
    fn sweep(
        &self,
        g: &Graph,
        run: &mut Labels,
        span: &Span,
        budget: &Budget,
    ) -> (Termination, u64, u64) {
        let n = g.node_count();
        let theta = (self.theta_fraction * n as f64).ceil() as u64;
        let mut rng = SmallRng::seed_from_u64(self.seed);

        // The paper's default relies on *implicit* randomization through
        // asynchronous parallel updates (§III-A). That source vanishes when
        // only one worker thread exists or the graph is so small that each
        // thread processes a single contiguous chunk in node order — label
        // flooding across community bridges then becomes deterministic. In
        // that regime, shuffle the node order every iteration instead.
        let threads = rayon::current_num_threads();
        let shuffle = threads <= 1 || n < 64 * threads;

        // The per-thread scratch maps tallying weight-per-label are indexed
        // by label; the pool recycles them across iterations.
        let label_bound = run.bound;
        let scratch = ScratchPool::new();
        let (labels, active) = (&run.labels, &run.active);

        let mut termination = Termination::Converged;
        let mut iterations = 0u64;
        let mut label_updates = 0u64;
        for _iter in 0..self.max_iterations {
            let active_count = active
                .par_iter()
                .filter(|a| a.load(Ordering::Relaxed))
                .count();
            // Nobody to evaluate: an empty frontier converges in zero sweeps.
            if active_count == 0 {
                break;
            }
            if let Err(t) = budget.check_sweep() {
                termination = t;
                break;
            }
            if shuffle {
                run.order.shuffle(&mut rng);
            }
            // One sharded counter per iteration: workers bump a plain
            // thread-local integer, merged when the worker state drops at
            // the end of the parallel region; the movers, when recorded,
            // are merged the same way.
            let updated = CounterCell::new();

            let iter_salt = self.seed ^ ((iterations + 1) << 32);
            run.order.par_iter().for_each_init(
                || {
                    (
                        scratch.take(label_bound.max(1)),
                        LocalCount::new(&updated),
                        run.movers.as_ref().map(LocalMovers::new),
                    )
                },
                |(weight_to, local_updates, movers), &v| {
                    // the flag first: a warm sweep skips almost every node,
                    // and the flag costs less to read than the row
                    if !active[v as usize].load(Ordering::Relaxed) || g.degree(v) == 0 {
                        return;
                    }
                    weight_to.clear();
                    for (u, w) in g.edges_of(v) {
                        if u != v {
                            weight_to.add(labels.get(u), w);
                        }
                    }
                    let current = labels.get(v);
                    // Dominant label. The current label wins ties (keeps
                    // converged nodes stable); among strictly heavier
                    // candidates, ties break pseudo-randomly per node and
                    // iteration — the paper's "arbitrary" tie-breaking. A
                    // deterministic id-based rule would flood one label
                    // across community bridges.
                    let salt = iter_salt ^ splitmix64(v as u64);
                    let mut best = current;
                    let mut best_weight = weight_to.get(current);
                    let mut best_hash = u64::MAX; // current label: unbeatable on ties
                    for (l, w) in weight_to.iter() {
                        if w > best_weight {
                            best = l;
                            best_weight = w;
                            best_hash = splitmix64(l as u64 ^ salt);
                        } else if w == best_weight && best != current {
                            let h = splitmix64(l as u64 ^ salt);
                            if h > best_hash {
                                best = l;
                                best_hash = h;
                            }
                        }
                    }
                    if best != current {
                        labels.set(v, best);
                        local_updates.bump();
                        if let Some(movers) = movers {
                            movers.nodes.push(v);
                        }
                        active[v as usize].store(true, Ordering::Relaxed);
                        for u in g.neighbors(v) {
                            active[*u as usize].store(true, Ordering::Relaxed);
                        }
                    } else {
                        active[v as usize].store(false, Ordering::Relaxed);
                    }
                },
            );

            let updated = updated.get();
            iterations += 1;
            label_updates += updated;
            span.push_series("active", active_count as f64);
            span.push_series("updated", updated as f64);
            if updated <= theta {
                break;
            }
        }
        run.relabeled |= label_updates > 0;
        (termination, iterations, label_updates)
    }
}

/// The state of a run that has nodes to evaluate.
struct Labels {
    /// The shared label array the sweeps read and write.
    labels: AtomicPartition,
    /// Whether each node is evaluated in the next sweep.
    active: Vec<AtomicBool>,
    /// The order a sweep visits the nodes in.
    order: Vec<Node>,
    /// Every label lies below this: the size of the tally maps.
    bound: usize,
    /// Every node relabeled so far — stranded ones included — with
    /// repeats and in no order; kept only by a run that carries aggregates.
    movers: Option<Mutex<Vec<Node>>>,
    /// Whether any node has been relabeled.
    relabeled: bool,
}

impl Labels {
    /// The labels a run from `base` starts with: the base's, then a fresh
    /// singleton per node past its end. Those nodes and the `frontier`
    /// start active, every node when there is no frontier (a cold run).
    fn start(g: &Graph, base: &Partition, frontier: Option<&[Node]>, record: bool) -> Self {
        let n = g.node_count();
        let grown = base.upper_bound()..base.upper_bound() + (n - base.len()) as u32;
        let mut bound = grown.end;
        let labels: AtomicPartition = base.as_slice().iter().copied().chain(grown).collect();
        let active: Vec<AtomicBool> = (0..n)
            .map(|v| AtomicBool::new(frontier.is_none() || v >= base.len()))
            .collect();
        let mut stranded = Vec::new();
        for &v in frontier.into_iter().flatten() {
            active[v as usize].store(true, Ordering::Relaxed);
            // A node left with no neighbour but itself leaves its
            // community, as it would never have joined one in a cold run.
            if g.neighbors(v).iter().all(|&u| u == v) {
                labels.set(v, bound);
                bound += 1;
                stranded.push(v);
            }
        }
        Self {
            labels,
            active,
            order: (0..n as Node).collect(),
            bound: bound as usize,
            relabeled: !stranded.is_empty(),
            movers: record.then(|| Mutex::new(stranded)),
        }
    }
}

/// A worker's share of the nodes a sweep relabels, appended to the run's
/// list when the worker state drops at the end of the parallel region.
struct LocalMovers<'a> {
    nodes: Vec<Node>,
    all: &'a Mutex<Vec<Node>>,
}

impl<'a> LocalMovers<'a> {
    fn new(all: &'a Mutex<Vec<Node>>) -> Self {
        Self {
            nodes: Vec::new(),
            all,
        }
    }
}

impl Drop for LocalMovers<'_> {
    fn drop(&mut self) {
        if !self.nodes.is_empty() {
            let mut all = self.all.lock().unwrap_or_else(PoisonError::into_inner);
            all.append(&mut self.nodes);
        }
    }
}

impl CommunityDetector for Plp {
    fn name(&self) -> String {
        "PLP".into()
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
        let (zeta, termination, cut_phase) = self.run_shared(g, rec, budget);
        (Arc::unwrap_or_clone(zeta), termination, cut_phase)
    }

    fn run_shared(
        &mut self,
        g: &Graph,
        rec: &Recorder,
        budget: &Budget,
    ) -> (Arc<Partition>, Termination, Option<String>) {
        let start = self.start.take();
        let (zeta, termination, aggregates) = self.propagate(g, start, rec, budget);
        self.carried = aggregates;
        (zeta, termination, Some("label-propagation".into()))
    }

    fn start_slot(&mut self) -> Option<&mut Option<StartState>> {
        Some(&mut self.start)
    }

    fn carried_aggregates(&mut self) -> Option<CommunityAggregates> {
        self.carried.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{coverage, modularity};
    use parcom_generators::{lfr, ring_of_cliques, LfrParams};
    use parcom_graph::GraphBuilder;
    use parcom_guard::Budget;

    #[test]
    fn finds_cliques_in_ring() {
        let (g, truth) = ring_of_cliques(8, 10);
        let mut plp = Plp::new();
        let zeta = plp.detect(&g);
        // every clique should be one community
        for u in g.nodes() {
            for v in g.nodes() {
                if truth.in_same_subset(u, v) {
                    assert!(zeta.in_same_subset(u, v), "clique nodes {u},{v} separated");
                }
            }
        }
        assert!(modularity(&g, &zeta) > 0.7);
    }

    #[test]
    fn labels_stabilize_quickly() {
        let (g, _) = ring_of_cliques(10, 8);
        let mut plp = Plp::new();
        let (_, report) = plp.detect_with_report(&g);
        let iterations = report
            .phase("label-propagation")
            .and_then(|p| p.counter("iterations"))
            .unwrap();
        assert!(iterations <= 20, "took {iterations} iterations");
    }

    #[test]
    fn updates_decline_over_iterations() {
        let (g, _) = lfr(LfrParams::benchmark(2000, 0.2), 3);
        let mut plp = Plp::new();
        let (_, report) = plp.detect_with_report(&g);
        let prop = report.phase("label-propagation").unwrap();
        let u = prop.series("updated").unwrap();
        assert!(u.len() >= 2);
        assert!(u[u.len() - 1] < u[0], "updates should decline: {u:?}");
        // both Fig. 1 series cover every iteration
        assert_eq!(prop.series("active").unwrap().len(), u.len());
        assert_eq!(prop.counter("iterations"), Some(u.len() as u64));
    }

    #[test]
    fn reasonable_quality_on_lfr() {
        let (g, _) = lfr(LfrParams::benchmark(2000, 0.2), 4);
        let mut plp = Plp::new();
        let zeta = plp.detect(&g);
        let q = modularity(&g, &zeta);
        assert!(q > 0.4, "PLP modularity too low on easy LFR: {q}");
        assert!(coverage(&g, &zeta) > 0.5);
    }

    #[test]
    fn isolated_nodes_keep_their_labels() {
        let g = GraphBuilder::from_edges(5, &[(0, 1)]);
        let mut plp = Plp::new();
        let zeta = plp.detect(&g);
        // nodes 2, 3, 4 remain singleton communities
        assert!(!zeta.in_same_subset(2, 3));
        assert!(!zeta.in_same_subset(3, 4));
        assert!(zeta.in_same_subset(0, 1));
    }

    fn counters(report: &parcom_obs::RunReport) -> (u64, u64, u64) {
        let prop = report.phase("label-propagation").unwrap();
        (
            report.counter("warm").unwrap(),
            prop.counter("iterations").unwrap(),
            prop.counter("label-updates").unwrap(),
        )
    }

    #[test]
    fn an_empty_frontier_returns_the_base_in_zero_sweeps() {
        let (g, _) = lfr(LfrParams::benchmark(600, 0.3), 9);
        let (base, cold) = Plp::new().detect_with_report(&g);
        assert_eq!(cold.counter("warm"), Some(0));
        assert_eq!(cold.counter("frontier"), Some(600));

        let mut plp = Plp::new();
        assert!(plp.start_from(StartState {
            base: Arc::new(base.clone()),
            frontier: Vec::new(),
            aggregates: None,
        }));
        let (again, report) = plp.detect_with_report(&g);
        assert_eq!(again, base);
        assert_eq!(counters(&report), (1, 0, 0));
        assert_eq!(report.counter("frontier"), Some(0));
        // the phase and both series are still there, empty, between the
        // setup and the finish
        let prop = report.phase("label-propagation").unwrap();
        assert_eq!(prop.series("active"), Some(&[][..]));
        assert_eq!(prop.series("updated"), Some(&[][..]));
        let phases: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(phases, ["setup", "label-propagation", "finish"]);
        // the start state applied to that one run only
        let (_, third) = plp.detect_with_report(&g);
        assert_eq!(third.counter("warm"), Some(0));

        // the result is the base itself, not a copy of it
        let shared = Arc::new(base);
        plp.start_from(StartState {
            base: Arc::clone(&shared),
            frontier: Vec::new(),
            aggregates: None,
        });
        let r = plp.detect_guarded(&g, &crate::Budget::unlimited());
        assert!(Arc::ptr_eq(&r.partition, &shared));
    }

    #[test]
    fn an_empty_frontier_renumbers_a_base_that_is_not_compacted() {
        use crate::quality::community_aggregates;
        // dense, but not numbered in order of first appearance
        let g = GraphBuilder::from_edges(3, &[(0, 2), (1, 1)]);
        let base = Partition::from_vec(vec![1, 0, 1]);
        let aggregates = community_aggregates(&g, &base);
        let mut plp = Plp::new();
        plp.start_from(StartState {
            base: Arc::new(base),
            frontier: Vec::new(),
            aggregates: Some(aggregates.clone()),
        });
        let r = plp.detect_guarded(&g, &crate::Budget::unlimited());
        assert_eq!(r.partition.as_slice(), [0, 1, 0]);
        assert!(r.partition.is_compacted());
        // the aggregates are permuted to match: id 1 became 0
        let carried = r.aggregates.unwrap();
        assert_eq!(carried.volume, [aggregates.volume[1], aggregates.volume[0]]);
        assert_eq!(
            carried.intra_weight,
            [aggregates.intra_weight[1], aggregates.intra_weight[0]]
        );
        assert_eq!(carried, community_aggregates(&g, &r.partition));
    }

    #[test]
    fn an_empty_frontier_on_a_grown_graph_labels_the_new_nodes_singletons() {
        let (g, truth) = ring_of_cliques(3, 4);
        // two isolated nodes past the base's end
        let grown = Graph::overlaid(&Arc::new(g), 14, &[]);
        let mut plp = Plp::new();
        plp.start_from(StartState {
            base: Arc::new(truth.clone()),
            frontier: Vec::new(),
            aggregates: None,
        });
        let (zeta, report) = plp.detect_with_report(&grown);
        assert_eq!(&zeta.as_slice()[..12], truth.as_slice());
        assert_eq!(&zeta.as_slice()[12..], [3, 4]);
        assert_eq!(report.counter("frontier"), Some(0));
    }

    #[test]
    fn a_warm_run_re_evaluates_only_what_the_edit_touched() {
        let (g, _) = lfr(LfrParams::benchmark(2000, 0.2), 4);
        let base = Plp::new().detect(&g);
        // Tie node 0 into the community of some node outside its own, with
        // more weight than everything else it has.
        let far = g
            .nodes()
            .find(|&v| !base.in_same_subset(0, v))
            .expect("more than one community");
        let edited = Graph::overlaid(
            &Arc::new(g.clone()),
            g.node_count(),
            &[(0, far, Some(1000.0))],
        );
        let mut plp = Plp::new();
        plp.start_from(StartState {
            base: Arc::new(base.clone()),
            frontier: vec![0, far],
            aggregates: None,
        });
        let (zeta, report) = plp.detect_with_report(&edited);
        assert!(zeta.in_same_subset(0, far), "the heavy edge must win");
        let (warm, iterations, updates) = counters(&report);
        assert_eq!(warm, 1);
        assert!(iterations <= 3 && updates < 50, "{iterations} / {updates}");
        // everyone the change did not reach keeps their grouping
        let moved = g
            .nodes()
            .filter(|&v| base.in_same_subset(v, 1) != zeta.in_same_subset(v, 1))
            .count();
        assert!(moved < 50, "{moved} nodes regrouped");
    }

    #[test]
    fn a_base_shorter_than_the_graph_grows_by_singletons() {
        let (g, truth) = ring_of_cliques(3, 4);
        // node 12 hangs off clique 0, node 13 stays isolated; node 4 loses
        // every edge it had
        let mut edits = vec![(0, 12, Some(1.0)), (1, 12, Some(1.0))];
        edits.extend(g.neighbors(4).iter().map(|&u| (4.min(u), 4.max(u), None)));
        let edited = Graph::overlaid(&Arc::new(g), 14, &edits);
        let frontier = edits.iter().flat_map(|&(u, v, _)| [u, v]).collect();
        let mut plp = Plp::new();
        plp.start_from(StartState {
            base: Arc::new(truth),
            frontier,
            aggregates: None,
        });
        let zeta = plp.detect(&edited);
        assert_eq!(zeta.len(), 14);
        assert!(zeta.in_same_subset(12, 0) && zeta.in_same_subset(12, 3));
        // 4, 13: four communities' worth of everyone else, plus themselves
        assert_eq!(zeta.number_of_subsets(), 5);
        for v in (0..12).filter(|&v| v != 4) {
            assert!(!zeta.in_same_subset(4, v) && !zeta.in_same_subset(13, v));
        }
    }

    #[test]
    fn a_warm_run_carries_the_aggregates_a_scan_would_find() {
        use crate::quality::{community_aggregates, modularity_gamma, start_label};
        let (g, _) = lfr(LfrParams::benchmark(600, 0.3), 9);
        let truth = Plp::new().detect(&g);
        // a base with id gaps (so it is compacted first) that is one node
        // short; the edit grows the graph, strands node 7 and rewires 8
        let base = Partition::from_vec(truth.as_slice()[..599].iter().map(|&c| 3 * c).collect());
        let mut edits: Vec<_> = g
            .neighbors(7)
            .iter()
            .map(|&u| (7.min(u), 7.max(u), None))
            .collect();
        edits.extend([(7, 7, Some(2.0)), (8, 601, Some(1.0)), (0, 8, Some(5.0))]);
        let edited = Graph::overlaid(&Arc::new(g.clone()), 602, &edits);
        let from = Partition::from_vec((0..600).map(|v| start_label(&base, v)).collect());
        let mut aggregates = community_aggregates(&g, &from);
        aggregates.apply_edits(&base, &g, 602, &edits);
        let mut plp = Plp::new();
        plp.start_from(StartState {
            base: Arc::new(base),
            frontier: edits.iter().flat_map(|&(u, v, _)| [u, v]).collect(),
            aggregates: Some(aggregates),
        });
        let r = plp.detect_guarded(&edited, &crate::Budget::unlimited());
        assert_eq!(r.report.counter("carried"), Some(1));
        let carried = r
            .aggregates
            .expect("a warm run with aggregates carries them");
        assert_eq!(carried, community_aggregates(&edited, &r.partition));
        let q = r.report.metric("modularity").unwrap();
        assert_eq!(
            q.to_bits(),
            modularity_gamma(&edited, &r.partition, 1.0).to_bits()
        );
        assert_eq!(
            r.report.counter("communities"),
            Some(r.partition.number_of_subsets() as u64)
        );
        // the stranded node sits alone, and nothing is left for a later run
        assert!((0..602).all(|v| v == 7 || !r.partition.in_same_subset(7, v)));
        assert_eq!(plp.carried_aggregates(), None);
    }

    /// What the warm runs of a mover-patch check exercised, summed.
    #[derive(Default, Debug)]
    struct Exercised {
        movers: usize,
        moved_back: usize,
        stranded: usize,
        grown: usize,
        self_loops: usize,
    }

    /// One warm run at T = 1 of PLP with `seed` on `g` under `edits`,
    /// from `base` and its `aggregates` on `g`, taken apart before its
    /// compaction: the aggregates its recorded movers patch must equal, bit
    /// for bit, those of the O(n) compare the patch replaced, and the whole
    /// run must come to the same partition and aggregates as the pieces.
    /// Returns the edited graph, the result and its aggregates.
    fn warm_step(
        seed: u64,
        g: &Graph,
        n_new: usize,
        edits: &[(Node, Node, Option<f64>)],
        base: Arc<Partition>,
        mut aggregates: CommunityAggregates,
        seen: &mut Exercised,
    ) -> (Graph, Arc<Partition>, CommunityAggregates) {
        let plp = || Plp { seed, ..Plp::new() };
        let bits = |a: &CommunityAggregates| {
            let all = a.intra_weight.iter().chain(&a.volume);
            all.map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let edited = Graph::overlaid(&Arc::new(g.clone()), n_new, edits);
        aggregates.apply_edits(&base, g, n_new, edits);
        let frontier: Vec<Node> = edits.iter().flat_map(|&(u, v, _)| [u, v]).collect();
        parcom_graph::parallel::with_threads(1, || {
            // the run's pieces: its labels before the compaction
            let mut run = Labels::start(&edited, &base, Some(&frontier), true);
            let off = Recorder::disabled();
            plp().sweep(&edited, &mut run, &off.span("sweep"), &Budget::unlimited());
            let mut to = run.labels.to_partition();
            let mut movers = run.movers.unwrap().into_inner().unwrap();
            movers.sort_unstable();
            movers.dedup();
            let from = |v: Node| crate::quality::start_label(&base, v);
            seen.movers += movers.len();
            seen.moved_back += movers
                .iter()
                .filter(|&&v| from(v) == to.subset_of(v))
                .count();
            seen.grown += n_new - g.node_count();
            let loops = edits.iter().filter(|&&(u, v, _)| u == v);
            seen.self_loops += loops.count();
            let alone = |v: Node| edited.neighbors(v).iter().all(|&u| u == v);
            let had_edges = |v: Node| (v as usize) < g.node_count() && g.degree(v) > 0;
            seen.stranded += (frontier.iter())
                .filter(|&&v| had_edges(v) && alone(v))
                .count();
            let mut patched = aggregates.clone();
            patched.apply_moves(&edited, &base, &to, &movers);
            let mut reference = aggregates.clone();
            reference.apply_moves_reference(&edited, &base, &to);
            assert_eq!(bits(&patched), bits(&reference), "the O(n) compare");
            compact_carrying(&mut to, Some(&mut patched));

            // the whole run lands where its pieces did
            let mut whole = plp();
            whole.start_from(StartState {
                base: Arc::clone(&base),
                frontier: frontier.clone(),
                aggregates: Some(aggregates),
            });
            let r = whole.detect_guarded(&edited, &Budget::unlimited());
            assert_eq!(*r.partition, to, "the whole run");
            let carried = r.aggregates.unwrap();
            assert_eq!(bits(&carried), bits(&patched), "the whole run's aggregates");
            (edited, r.partition, carried)
        })
    }

    /// [`warm_step`] over a chain of `steps` random edit batches on `g`:
    /// inserts, removes, a self-loop each, and on some steps a node
    /// stripped of its edges or the graph grown.
    fn mover_patch_chain(
        mut g: Graph,
        steps: usize,
        seed: u64,
        weight: &dyn Fn(&mut SmallRng) -> f64,
    ) -> Exercised {
        use crate::quality::community_aggregates;
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut seen = Exercised::default();
        let cold =
            parcom_graph::parallel::with_threads(1, || Plp { seed, ..Plp::new() }.detect(&g));
        let mut aggregates = community_aggregates(&g, &cold);
        let mut base = Arc::new(cold);
        for step in 0..steps {
            let n = g.node_count();
            let mut edits = std::collections::BTreeMap::new();
            let mut edit = |u: Node, v: Node, w: Option<f64>| {
                edits.insert((u.min(v), u.max(v)), w);
            };
            for _ in 0..8 {
                let (u, v) = (rng.gen_range(0..n) as Node, rng.gen_range(0..n) as Node);
                edit(u, v, Some(weight(&mut rng)));
            }
            for _ in 0..4 {
                let u = rng.gen_range(0..n) as Node;
                if let Some(&v) = g.neighbors(u).first() {
                    edit(u, v, None);
                }
            }
            let u = rng.gen_range(0..n) as Node;
            edit(u, u, Some(weight(&mut rng)));
            if step % 3 == 0 {
                let loner = rng.gen_range(0..n) as Node;
                for &v in g.neighbors(loner).iter().filter(|&&v| v != loner) {
                    edit(loner, v, None);
                }
            }
            let mut n_new = n;
            if step % 4 == 0 {
                n_new = n + 1 + rng.gen_range(0..2);
                let far = (n_new - 1) as Node;
                edit(rng.gen_range(0..n) as Node, far, Some(weight(&mut rng)));
            }
            let edits: Vec<_> = edits.into_iter().map(|((u, v), w)| (u, v, w)).collect();
            (g, base, aggregates) = warm_step(seed, &g, n_new, &edits, base, aggregates, &mut seen);
        }
        seen
    }

    #[test]
    fn the_recorded_mover_patch_is_the_o_n_compare_bit_for_bit() {
        let (g, _) = lfr(LfrParams::benchmark(800, 0.3), 21);
        let unit = mover_patch_chain(g, 40, 21, &|_| 1.0);
        // tenths are not dyadic: any change of summation order would show
        let (g, _) = lfr(LfrParams::benchmark(600, 0.4), 22);
        let mut b = GraphBuilder::new(g.node_count());
        for u in g.nodes() {
            for (v, _) in g.edges_of(u).filter(|&(v, _)| v >= u) {
                b.add_edge(u, v, 0.1 * ((u ^ v) % 17 + 1) as f64);
            }
        }
        let tenths = mover_patch_chain(b.build(), 40, 22, &|rng| {
            0.1 * rand::Rng::gen_range(rng, 1..30) as f64
        });
        for seen in [unit, tenths] {
            assert!(seen.movers > 0 && seen.stranded > 0, "{seen:?}");
            assert!(seen.grown > 0 && seen.self_loops > 0, "{seen:?}");
        }
    }

    #[test]
    fn a_node_that_moves_and_moves_back_is_not_replayed() {
        use crate::quality::community_aggregates;
        // A = {0, 1, 2, 3}, B = {4, 5}. The edit ties 0 to 4 by 3 and 4 to
        // 3 by 5: if 0 is evaluated before 4 it joins B, 4 then joins A,
        // and the next sweep takes 0 back to A, where it started.
        let mut b = GraphBuilder::new(6);
        for (u, v, w) in [
            (0, 1, 1.0),
            (0, 2, 1.0),
            (1, 2, 9.0),
            (1, 3, 9.0),
            (2, 3, 9.0),
        ] {
            b.add_edge(u, v, w);
        }
        b.add_edge(4, 5, 1.0);
        let g = b.build();
        let base = Arc::new(Partition::from_vec(vec![0, 0, 0, 0, 1, 1]));
        let edits = [(0, 4, Some(3.0)), (3, 4, Some(5.0))];
        let mut seen = Exercised::default();
        for seed in 1..=8 {
            let aggregates = community_aggregates(&g, &base);
            warm_step(seed, &g, 6, &edits, base.clone(), aggregates, &mut seen);
        }
        assert!(seen.moved_back > 0, "{seen:?}");
    }

    #[test]
    #[should_panic(expected = "start aggregates cover")]
    fn rejects_aggregates_that_do_not_cover_the_start() {
        let (g, truth) = ring_of_cliques(2, 3);
        let aggregates = crate::quality::community_aggregates(&g, &truth);
        let mut plp = Plp::new();
        plp.start_from(StartState {
            base: Arc::new(Partition::from_vec(truth.as_slice()[..5].to_vec())),
            frontier: Vec::new(),
            aggregates: Some(aggregates),
        });
        plp.detect(&g);
    }

    #[test]
    #[should_panic(expected = "start state covers")]
    fn rejects_a_base_longer_than_the_graph() {
        let (g, _) = ring_of_cliques(2, 3);
        let mut plp = Plp::new();
        plp.start_from(StartState {
            base: Arc::new(Partition::singleton(7)),
            frontier: Vec::new(),
            aggregates: None,
        });
        plp.detect(&g);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let mut plp = Plp::new();
        let g0 = GraphBuilder::new(0).build();
        assert_eq!(plp.detect(&g0).len(), 0);
        let g1 = GraphBuilder::new(1).build();
        assert_eq!(plp.detect(&g1).number_of_subsets(), 1);
    }

    #[test]
    fn respects_edge_weights() {
        // node 1 ties to community {0} with weight 10, to {2,3} with 1+1;
        // the heavy edge must win
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 10.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(1, 3, 1.0);
        b.add_edge(2, 3, 5.0);
        let g = b.build();
        let mut plp = Plp::new();
        let zeta = plp.detect(&g);
        assert!(zeta.in_same_subset(0, 1), "heavy edge ignored: {zeta:?}");
        assert!(zeta.in_same_subset(2, 3));
    }

    #[test]
    fn series_are_reset_between_runs() {
        let (g, _) = ring_of_cliques(4, 5);
        let mut plp = Plp::new();
        let iterations = |report: &parcom_obs::RunReport| {
            report
                .phase("label-propagation")
                .and_then(|p| p.counter("iterations"))
                .unwrap()
        };
        let (_, first) = plp.detect_with_report(&g);
        assert!(iterations(&first) > 0);
        // a second run starts a fresh report, not an accumulated one
        let (_, second) = plp.detect_with_report(&g);
        assert_eq!(iterations(&second), iterations(&first));
    }

    #[test]
    fn guarded_unlimited_budget_converges() {
        let (g, _) = ring_of_cliques(6, 8);
        let r = Plp::new().detect_guarded(&g, &crate::Budget::unlimited());
        assert_eq!(r.termination, crate::Termination::Converged);
        assert!(r.partition.validate_dense().is_ok());
        assert_eq!(r.report.termination.as_deref(), Some("converged"));
        assert_eq!(r.report.cut_phase, None);
    }

    #[test]
    fn guarded_sweep_cap_degrades_to_partial_labels() {
        let (g, _) = lfr(LfrParams::benchmark(2000, 0.2), 5);
        let budget = crate::Budget::unlimited().with_max_sweeps(1);
        let r = Plp::new().detect_guarded(&g, &budget);
        assert_eq!(r.termination, crate::Termination::IterationCap);
        // the labels after the single completed sweep are a valid partition
        assert_eq!(r.partition.len(), g.node_count());
        assert!(r.partition.validate_dense().is_ok());
        assert_eq!(r.report.termination.as_deref(), Some("iteration-cap"));
        assert_eq!(r.report.cut_phase.as_deref(), Some("label-propagation"));
    }

    #[test]
    fn set_seed_replaces_the_seed_field() {
        let (g, _) = lfr(LfrParams::benchmark(600, 0.4), 11);
        let mut plp = Plp::new();
        plp.set_seed(7);
        assert_eq!(plp.seed, 7);
        let _ = plp.detect(&g); // and the reseeded run still converges
    }
}
