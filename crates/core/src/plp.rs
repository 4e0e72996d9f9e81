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
use parcom_graph::scratch::PooledScratch;
use parcom_graph::{AtomicPartition, Graph, Node, Partition, ScratchPool};
use parcom_guard::{Budget, Termination};
use parcom_obs::{CounterCell, LocalCount, Recorder, Span};
use rand::{rngs::SmallRng, seq::SliceRandom, SeedableRng};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// phases: `setup` builds the label array and the active set,
    /// `label-propagation` runs the sweeps and carries the per-iteration
    /// `active`/`updated` series (Fig. 1) and the total `label-updates` and
    /// `evaluations` (rows tallied) counts, all present even when no sweep
    /// was needed, and `finish` snapshots, patches and renumbers the
    /// result. The budget is checked once per iteration (sweep granularity
    /// — §III-A iterations touch every active node, so per-edge checks
    /// would dominate). On expiry the loop stops after the last completed
    /// iteration; the label array at any iteration boundary is a valid
    /// assignment, so the degraded result is simply the labels so far,
    /// compacted.
    ///
    /// A run costs what its frontier and its movers cost, plus a copy of
    /// the labels and a bitmap of n bits. An empty frontier on a base that
    /// covers the graph builds nothing of size n and returns the base
    /// itself, as does any run that relabels nothing on such a base; either
    /// way the base is renumbered only if it is not compacted already. With
    /// the base's aggregates in `start`, the result's come back too:
    /// patched for the nodes the run relabeled whose final label differs
    /// from their start label, and renumbered by both compactions.
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
        let totals = match &mut run {
            Some(run) => self.sweep(g, run, &span, budget),
            // Nobody to evaluate: an empty frontier converges in zero sweeps.
            None => Sweeps::default(),
        };
        span.counter("iterations", totals.iterations);
        span.counter("label-updates", totals.label_updates);
        span.counter("evaluations", totals.evaluations);
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
        let termination = totals.cut.unwrap_or(Termination::Converged);
        (result, termination, aggregates)
    }

    /// The sweeps of one run over `run`'s labels, until fewer than θ·n
    /// nodes update, the iteration cap, or the budget stops them.
    ///
    /// A sweep walks the active set in node order, word by word: a worker
    /// re-reads its word after each evaluation, so a node activated ahead
    /// of it is evaluated in the same sweep and one behind it in the next,
    /// and the sweep costs n/64 word reads plus the rows it tallies. Where
    /// [`Labels::start`] built a visiting order, the sweep walks that
    /// order, reshuffled every sweep, and tests each node's bit instead.
    fn sweep(&self, g: &Graph, run: &mut Labels, span: &Span, budget: &Budget) -> Sweeps {
        let n = g.node_count();
        let theta = (self.theta_fraction * n as f64).ceil() as u64;
        let mut rng = SmallRng::seed_from_u64(self.seed);

        // The tally maps are indexed by label; the process-wide pool keeps
        // them across sweeps and runs.
        let label_bound = run.bound;
        let (labels, active) = (&run.labels, &run.active);

        let mut totals = Sweeps::default();
        for _iter in 0..self.max_iterations {
            let active_count = active.count();
            // Nobody to evaluate: an empty frontier converges in zero sweeps.
            if active_count == 0 {
                break;
            }
            if let Err(t) = budget.check_sweep() {
                totals.cut = Some(t);
                break;
            }
            if let Some(order) = &mut run.order {
                order.shuffle(&mut rng);
            }
            // One sharded counter per iteration: workers bump a plain
            // thread-local integer, merged when the worker state drops at
            // the end of the parallel region; the movers, when recorded,
            // are merged the same way.
            let updated = CounterCell::new();
            let evaluated = CounterCell::new();
            let worker = || Worker {
                weight_to: TALLIES.take(label_bound.max(1)),
                updates: LocalCount::new(&updated),
                evaluations: LocalCount::new(&evaluated),
                movers: run.movers.as_ref().map(LocalMovers::new),
            };

            let iter_salt = self.seed ^ ((totals.iterations + 1) << 32);
            let evaluate = |w: &mut Worker, v: Node| {
                if g.degree(v) == 0 {
                    // a stranded warm node: nothing to tally, never again
                    active.remove(v);
                    return;
                }
                w.evaluations.bump();
                let weight_to = &mut w.weight_to;
                weight_to.clear();
                for (u, wt) in g.edges_of(v) {
                    if u != v {
                        weight_to.add(labels.get(u), wt);
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
                for (l, wt) in weight_to.iter() {
                    if wt > best_weight {
                        best = l;
                        best_weight = wt;
                        best_hash = splitmix64(l as u64 ^ salt);
                    } else if wt == best_weight && best != current {
                        let h = splitmix64(l as u64 ^ salt);
                        if h > best_hash {
                            best = l;
                            best_hash = h;
                        }
                    }
                }
                if best != current {
                    labels.set(v, best);
                    w.updates.bump();
                    if let Some(movers) = &mut w.movers {
                        movers.nodes.push(v);
                    }
                    active.insert(v);
                    for &u in g.neighbors(v) {
                        active.insert(u);
                    }
                } else {
                    active.remove(v);
                }
            };
            match &run.order {
                Some(order) => order.par_iter().for_each_init(worker, |w, &v| {
                    if active.contains(v) {
                        evaluate(w, v);
                    }
                }),
                None => (0..active.words.len())
                    .into_par_iter()
                    .for_each_init(worker, |w, i| {
                        let word = &active.words[i];
                        let mut from = 0;
                        while from < 64 {
                            let pending = word.load(Ordering::Relaxed) >> from << from;
                            if pending == 0 {
                                break;
                            }
                            let bit = pending.trailing_zeros();
                            evaluate(w, (i * 64) as Node + bit);
                            from = bit + 1;
                        }
                    }),
            }

            let updated = updated.get();
            totals.iterations += 1;
            totals.label_updates += updated;
            totals.evaluations += evaluated.get();
            span.push_series("active", active_count as f64);
            span.push_series("updated", updated as f64);
            if updated <= theta {
                break;
            }
        }
        // What one run's workers took is what the pool keeps.
        TALLIES.truncate(rayon::current_num_threads());
        run.relabeled |= totals.label_updates > 0;
        totals
    }
}

/// The tally maps of every PLP run in the process: a warm run finds them
/// allocated at the largest label bound seen so far, instead of filling
/// 12 bytes per label afresh for an evaluation of a few hundred rows.
/// Each run leaves at most one map per thread of its region, so the pool
/// holds what one run on the largest graph took.
static TALLIES: ScratchPool = ScratchPool::new();

/// What the sweeps of one run did, summed.
#[derive(Default, Debug, PartialEq)]
struct Sweeps {
    /// Why the budget stopped them, when it did.
    cut: Option<Termination>,
    iterations: u64,
    label_updates: u64,
    /// Rows tallied: the evaluations of active nodes with edges.
    evaluations: u64,
}

/// A worker's state for one sweep: its tally map and its shares of the
/// counters and of the movers.
struct Worker<'a> {
    weight_to: PooledScratch<'static>,
    updates: LocalCount<'a>,
    evaluations: LocalCount<'a>,
    movers: Option<LocalMovers<'a>>,
}

/// One bit per node, set while the node waits to be evaluated. Bits are
/// set and cleared by relaxed read-modify-writes, each after a load that
/// skips it when the bit already reads as wanted.
struct ActiveSet {
    words: Vec<AtomicU64>,
}

impl ActiveSet {
    /// `n` bits, all set when `all`.
    fn new(n: usize, all: bool) -> Self {
        let words = (0..n.div_ceil(64))
            .map(|i| {
                let bits = (n - 64 * i).min(64);
                AtomicU64::new(if all { u64::MAX >> (64 - bits) } else { 0 })
            })
            .collect();
        Self { words }
    }

    #[inline]
    fn contains(&self, v: Node) -> bool {
        self.words[v as usize / 64].load(Ordering::Relaxed) & (1 << (v % 64)) != 0
    }

    #[inline]
    fn insert(&self, v: Node) {
        let (word, bit) = (&self.words[v as usize / 64], 1 << (v % 64));
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
    }

    #[inline]
    fn remove(&self, v: Node) {
        let (word, bit) = (&self.words[v as usize / 64], 1 << (v % 64));
        if word.load(Ordering::Relaxed) & bit != 0 {
            word.fetch_and(!bit, Ordering::Relaxed);
        }
    }

    /// The nodes in the set.
    fn count(&self) -> usize {
        let words = self.words.iter();
        words
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }
}

/// The state of a run that has nodes to evaluate.
struct Labels {
    /// The shared label array the sweeps read and write.
    labels: AtomicPartition,
    /// The nodes the next sweep evaluates.
    active: ActiveSet,
    /// The order a sweep visits the nodes in, reshuffled every sweep;
    /// `None` walks the active set in node order.
    order: Option<Vec<Node>>,
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
        let active = ActiveSet::new(n, frontier.is_none());
        for v in base.len()..n {
            active.insert(v as Node);
        }
        if frontier.is_none() {
            // An isolated node has no neighbour's label to take: a cold run
            // starts it inactive, as PLM's first frontier leaves it out.
            for v in g.nodes().filter(|&v| g.degree(v) == 0) {
                active.remove(v);
            }
        }
        let mut stranded = Vec::new();
        for &v in frontier.into_iter().flatten() {
            active.insert(v);
            // A node left with no neighbour but itself leaves its
            // community, as it would never have joined one in a cold run.
            if g.neighbors(v).iter().all(|&u| u == v) {
                labels.set(v, bound);
                bound += 1;
                stranded.push(v);
            }
        }
        // The paper's default relies on *implicit* randomization through
        // asynchronous parallel updates (§III-A). That source vanishes when
        // only one worker thread exists or the graph is so small that each
        // thread processes a single contiguous chunk in node order — label
        // flooding across community bridges then becomes deterministic. In
        // that regime, shuffle the node order every sweep instead.
        let threads = rayon::current_num_threads();
        let shuffled = threads <= 1 || n < 64 * threads;
        Self {
            labels,
            active,
            order: shuffled.then(|| (0..n as Node).collect()),
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
    fn isolated_nodes_are_never_active() {
        // two edges and two isolated nodes (4 and 5)
        let g = GraphBuilder::from_edges(6, &[(0, 1), (2, 3)]);
        for threads in [1, 2] {
            let (zeta, report) =
                parcom_graph::parallel::with_threads(threads, || Plp::new().detect_with_report(&g));
            let active = report
                .phase("label-propagation")
                .and_then(|p| p.series("active"))
                .unwrap();
            assert_eq!(active[0], 4.0, "threads={threads}: {active:?}");
            assert!(active.iter().all(|&a| a <= 4.0), "{active:?}");
            // the isolated nodes keep their own labels
            assert_eq!(zeta.number_of_subsets(), 4);
            assert!(zeta.in_same_subset(0, 1) && zeta.in_same_subset(2, 3));
        }
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
        // more weight than everything else it has, and hang a new node
        // 2000 off that node.
        let far = g
            .nodes()
            .find(|&v| !base.in_same_subset(0, v))
            .expect("more than one community");
        let grown: Node = 2000;
        let edits = [(0, far, Some(1000.0)), (far, grown, Some(1.0))];
        let edited = Graph::overlaid(&Arc::new(g.clone()), g.node_count() + 1, &edits);
        // every endpoint, the repeated one twice
        let frontier: Vec<Node> = edits.iter().flat_map(|&(u, v, _)| [u, v]).collect();
        let mut plp = Plp::new();
        plp.start_from(StartState {
            base: Arc::new(base.clone()),
            frontier: frontier.clone(),
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

        // The first sweep evaluates the deduplicated frontier, which holds
        // the grown node: 0, far and 2000.
        let prop = report.phase("label-propagation").unwrap();
        assert_eq!(prop.series("active").unwrap()[0], 3.0);
        assert!(prop.counter("evaluations").unwrap() >= 3);
        // Later sweeps evaluate only what a move activated: the mover and
        // its neighbours. Taken apart so the movers are known.
        let rec = Recorder::enabled();
        let mut run = Labels::start(&edited, &base, Some(&frontier), true);
        let totals = plp.sweep(&edited, &mut run, &rec.span("sweep"), &Budget::unlimited());
        let movers = run.movers.unwrap().into_inner().unwrap();
        let reach: u64 = movers.iter().map(|&v| edited.degree(v) as u64 + 1).sum();
        assert!(!movers.is_empty());
        assert!(
            totals.evaluations <= 3 + reach,
            "{} evaluations for {} moves reaching {reach}",
            totals.evaluations,
            movers.len()
        );
        let report = rec.finish("PLP");
        assert_eq!(
            report.phase("sweep").unwrap().series("active").unwrap()[0],
            3.0
        );
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

    /// The flag walk the bitmap sweeps replaced, kept as their reference:
    /// one flag per node, counted by a scan of all n every sweep, and a
    /// walk of every node — in the run's shuffled order when it has one,
    /// else in node order — that skips the inactive ones.
    fn sweep_reference(plp: &Plp, g: &Graph, run: &mut Labels, span: &Span) -> Sweeps {
        use std::sync::atomic::AtomicBool;
        let n = g.node_count();
        let theta = (plp.theta_fraction * n as f64).ceil() as u64;
        let mut rng = SmallRng::seed_from_u64(plp.seed);
        let shuffle = run.order.is_some();
        let scratch = ScratchPool::new();
        let (labels, label_bound) = (&run.labels, run.bound);
        let active: Vec<AtomicBool> = (0..n as Node)
            .map(|v| AtomicBool::new(run.active.contains(v)))
            .collect();
        let mut order: Vec<Node> = (0..n as Node).collect();
        let mut totals = Sweeps::default();
        for _ in 0..plp.max_iterations {
            let active_count = active
                .par_iter()
                .filter(|a| a.load(Ordering::Relaxed))
                .count();
            if active_count == 0 {
                break;
            }
            if shuffle {
                order.shuffle(&mut rng);
            }
            let (updated, evaluated) = (CounterCell::new(), CounterCell::new());
            let iter_salt = plp.seed ^ ((totals.iterations + 1) << 32);
            order.par_iter().for_each_init(
                || {
                    (
                        scratch.take(label_bound.max(1)),
                        LocalCount::new(&updated),
                        LocalCount::new(&evaluated),
                        run.movers.as_ref().map(LocalMovers::new),
                    )
                },
                |(weight_to, updates, evaluations, movers), &v| {
                    if !active[v as usize].load(Ordering::Relaxed) {
                        return;
                    }
                    if g.degree(v) == 0 {
                        active[v as usize].store(false, Ordering::Relaxed);
                        return;
                    }
                    evaluations.bump();
                    weight_to.clear();
                    for (u, w) in g.edges_of(v) {
                        if u != v {
                            weight_to.add(labels.get(u), w);
                        }
                    }
                    let current = labels.get(v);
                    let salt = iter_salt ^ splitmix64(v as u64);
                    let (mut best, mut best_weight) = (current, weight_to.get(current));
                    let mut best_hash = u64::MAX;
                    for (l, w) in weight_to.iter() {
                        if w > best_weight {
                            (best, best_weight) = (l, w);
                            best_hash = splitmix64(l as u64 ^ salt);
                        } else if w == best_weight && best != current {
                            let h = splitmix64(l as u64 ^ salt);
                            if h > best_hash {
                                (best, best_hash) = (l, h);
                            }
                        }
                    }
                    if best != current {
                        labels.set(v, best);
                        updates.bump();
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
            totals.iterations += 1;
            totals.label_updates += updated;
            totals.evaluations += evaluated.get();
            span.push_series("active", active_count as f64);
            span.push_series("updated", updated as f64);
            if updated <= theta {
                break;
            }
        }
        run.relabeled |= totals.label_updates > 0;
        totals
    }

    /// One run's sweeps from `start`, by the bitmap walk or (`reference`)
    /// by the flag walk, with `order` forced off when `node_order`: the
    /// labels, the movers, the totals and both series.
    fn sweeps_from(
        plp: &Plp,
        g: &Graph,
        start: (&Partition, Option<&[Node]>),
        node_order: bool,
        reference: bool,
    ) -> (Partition, Vec<Node>, Sweeps, Vec<f64>, Vec<f64>) {
        let mut run = Labels::start(g, start.0, start.1, true);
        if node_order {
            run.order = None;
        }
        let rec = Recorder::enabled();
        let span = rec.span("sweep");
        let totals = if reference {
            sweep_reference(plp, g, &mut run, &span)
        } else {
            plp.sweep(g, &mut run, &span, &Budget::unlimited())
        };
        span.close();
        let report = rec.finish("PLP");
        let phase = report.phase("sweep").unwrap();
        let series = |name| phase.series(name).unwrap().to_vec();
        let movers = run.movers.unwrap().into_inner().unwrap();
        (
            run.labels.to_partition(),
            movers,
            totals,
            series("active"),
            series("updated"),
        )
    }

    /// A seeded warm batch on `g`: eight inserts, four removes and a node
    /// grown past the end. Returns the edited graph and the frontier.
    fn warm_batch(g: &Graph, seed: u64) -> (Graph, Vec<Node>) {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = g.node_count();
        let mut edits = std::collections::BTreeMap::new();
        for _ in 0..8 {
            let (u, v) = (rng.gen_range(0..n) as Node, rng.gen_range(0..n) as Node);
            edits.insert((u.min(v), u.max(v)), Some(1.0));
        }
        for _ in 0..4 {
            let u = rng.gen_range(0..n) as Node;
            if let Some(&v) = g.neighbors(u).first() {
                edits.insert((u.min(v), u.max(v)), None);
            }
        }
        edits.insert((rng.gen_range(0..n) as Node, n as Node), Some(1.0));
        let edits: Vec<_> = edits.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        let frontier = edits.iter().flat_map(|&(u, v, _)| [u, v]).collect();
        (
            Graph::overlaid(&Arc::new(g.clone()), n + 1, &edits),
            frontier,
        )
    }

    #[test]
    fn the_bitmap_sweeps_match_the_flag_walk_bit_for_bit_at_one_thread() {
        let (g, _) = lfr(LfrParams::benchmark(1500, 0.4), 31);
        parcom_graph::parallel::with_threads(1, || {
            let plp = Plp {
                seed: 31,
                ..Plp::new()
            };
            let cold = Partition::singleton(0);
            let base = plp.clone().detect(&g);
            let (edited, frontier) = warm_batch(&g, 32);
            let mut warm_moves = 0;
            // the shuffled order every T = 1 run takes, and node order,
            // where the word walk meets the flag walk
            for node_order in [false, true] {
                for (graph, start) in [(&g, (&cold, None)), (&edited, (&base, Some(&frontier[..])))]
                {
                    let ours = sweeps_from(&plp, graph, start, node_order, false);
                    let reference = sweeps_from(&plp, graph, start, node_order, true);
                    assert_eq!(ours, reference, "node order: {node_order}");
                    assert!(ours.2.evaluations > 0);
                    if start.1.is_some() {
                        warm_moves += ours.1.len();
                    }
                }
            }
            assert!(warm_moves > 0, "the warm batch moved nobody");
        });
    }

    #[test]
    fn the_bitmap_sweeps_keep_the_flag_walks_quality_and_locality_at_two_threads() {
        use crate::quality::modularity;
        let (g, _) = lfr(LfrParams::benchmark(1500, 0.4), 33);
        parcom_graph::parallel::with_threads(2, || {
            let plp = Plp {
                seed: 33,
                ..Plp::new()
            };
            let base = plp.clone().detect(&g);
            let mut q = [Vec::new(), Vec::new()];
            for seed in 0..20 {
                let (edited, frontier) = warm_batch(&g, 100 + seed);
                for (side, reference) in [false, true].into_iter().enumerate() {
                    let start = (&base, Some(&frontier[..]));
                    let (zeta, movers, ..) = sweeps_from(&plp, &edited, start, false, reference);
                    q[side].push(modularity(&edited, &zeta));
                    // only the frontier and what a move reached may change
                    let mut reached = vec![false; edited.node_count()];
                    for &v in frontier.iter().chain(&movers) {
                        reached[v as usize] = true;
                    }
                    for &v in &movers {
                        for &u in edited.neighbors(v) {
                            reached[u as usize] = true;
                        }
                    }
                    for v in (0..g.node_count()).filter(|&v| !reached[v]) {
                        assert_eq!(zeta.as_slice()[v], base.as_slice()[v], "node {v}");
                    }
                }
            }
            let median = |xs: &mut Vec<f64>| {
                xs.sort_by(f64::total_cmp);
                xs[xs.len() / 2]
            };
            let (ours, reference) = (median(&mut q[0]), median(&mut q[1]));
            assert!((ours - reference).abs() <= 0.002, "{ours} vs {reference}");
        });
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
