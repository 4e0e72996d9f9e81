//! PLM — Parallel Louvain Method (Algorithms 2 and 3), PLMR, its
//! refinement extension (Algorithm 4), and the level driver the whole
//! Louvain family runs on.
//!
//! The Louvain method repeatedly moves nodes to the neighboring community
//! with the locally maximal modularity gain until stable, then coarsens the
//! graph by the communities and recurses; the coarsest solution is prolonged
//! back to the input graph. That recursion — move phase → coarsen → recurse
//! → prolong (→ refine) — is `Levels`, written once; [`Plm`] and
//! [`crate::Louvain`] are configurations of it that differ in the
//! `Schedule` of their move phase.
//!
//! PLM parallelizes the move phase: node moves are evaluated and performed
//! concurrently, accepting *stale* Δmod scores — a move may transiently
//! decrease modularity, but later iterations correct such decisions
//! (§III-B). Only the community volumes are maintained incrementally
//! (atomic adds); the weight from a node to its neighboring communities is
//! recomputed per evaluation (`best_move`), which the paper found faster
//! than locked per-node maps.
//!
//! Where Algorithm 2 sweeps every node in every iteration, the move phase
//! here is frontier-driven, like the paper's own PLP (Algorithm 1): a node
//! is evaluated in the first sweep and afterwards only when a neighbor has
//! moved since its last evaluation — nothing else changes its
//! weight-to-community tally. Late sweeps, which move a handful of nodes,
//! then cost a handful of tallies instead of a pass over all edges
//! (DESIGN.md §6 has the quality evidence for this deviation).
//!
//! PLMR (`refine = true`) runs one more move phase after every prolongation,
//! starting from the full frontier again, re-evaluating node assignments
//! against the coarser level's outcome for extra modularity at a small time
//! cost (§III-C).

use crate::algorithm::CommunityDetector;
use crate::moves::{
    all_active, best_move, move_phase_colored, move_phase_sequential, record_sweep, MoveStrategy,
    MoveView,
};
use parcom_graph::{
    coarsen_with, AtomicF64, AtomicPartition, Coloring, Graph, Node, Partition, ScratchPool,
};
use parcom_guard::{Budget, Termination};
use parcom_obs::{CounterCell, LocalCount, Recorder};
use rand::rngs::SmallRng;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Configuration of the parallel Louvain method.
///
/// # Examples
///
/// ```
/// use parcom_core::{CommunityDetector, Plm};
/// use parcom_generators::ring_of_cliques;
///
/// let (graph, truth) = ring_of_cliques(6, 8);
/// let communities = Plm::new().detect(&graph);
/// assert_eq!(communities.number_of_subsets(), 6);
/// # for u in graph.nodes() { for v in graph.nodes() {
/// #     assert_eq!(truth.in_same_subset(u, v), communities.in_same_subset(u, v));
/// # } }
/// ```
#[derive(Clone, Debug)]
pub struct Plm {
    /// Resolution parameter γ ∈ [0, 2ω(E)]: 1 is standard modularity, lower
    /// values coarser communities, higher values finer ones (§III-B).
    pub gamma: f64,
    /// Adds the refinement move phase after each prolongation (PLMR).
    pub refine: bool,
    /// Cap on move-phase sweeps per level (guards the theoretical
    /// non-termination of parallel moves on stale data).
    pub max_move_iterations: usize,
    /// Cap on the coarsening hierarchy depth.
    pub max_levels: usize,
    /// How the move phase schedules concurrent node moves (DESIGN.md §14):
    /// the paper's racy default, or coloring-isolated classes, which are
    /// bit-deterministic at any thread count.
    pub move_strategy: MoveStrategy,
}

impl Default for Plm {
    fn default() -> Self {
        Self {
            gamma: 1.0,
            refine: false,
            max_move_iterations: 32,
            max_levels: 64,
            move_strategy: MoveStrategy::Racy,
        }
    }
}

impl Plm {
    /// Standard PLM.
    pub fn new() -> Self {
        Self::default()
    }

    /// PLMR: PLM with a refinement phase on every level.
    pub fn with_refinement() -> Self {
        Self {
            refine: true,
            ..Self::default()
        }
    }

    /// PLM with a non-standard resolution γ.
    pub fn with_gamma(gamma: f64) -> Self {
        assert!(gamma >= 0.0, "gamma must be non-negative");
        Self {
            gamma,
            ..Self::default()
        }
    }

    /// PLM with an explicit move-phase strategy.
    pub fn with_strategy(strategy: MoveStrategy) -> Self {
        Self {
            move_strategy: strategy,
            ..Self::default()
        }
    }
}

/// How a level's move phase visits the nodes.
pub(crate) enum Schedule {
    /// One of PLM's two parallel strategies.
    Strategy(MoveStrategy),
    /// Sequential Louvain: one node at a time, in an order shuffled anew
    /// for every sweep by this generator.
    Shuffled(SmallRng),
}

/// The level recursion of the Louvain family (Algorithms 2–4): move phase,
/// coarsen, recurse, prolong, optionally refine. One run of one detector;
/// [`Plm`] and [`crate::Louvain`] build it from their configuration.
pub(crate) struct Levels {
    pub gamma: f64,
    pub refine: bool,
    pub max_move_iterations: usize,
    pub max_levels: usize,
    pub schedule: Schedule,
}

impl Levels {
    /// One move phase on `zeta` by [`Self::schedule`]; `coloring` is the
    /// level's precomputed coloring (present iff the strategy needs one,
    /// computed once per level so refinement reuses it).
    fn move_nodes(
        &mut self,
        g: &Graph,
        zeta: &mut Partition,
        coloring: Option<&Coloring>,
        rec: &Recorder,
        scratch: &ScratchPool,
        budget: &Budget,
    ) -> (u64, Termination) {
        let (gamma, sweeps) = (self.gamma, self.max_move_iterations);
        match &mut self.schedule {
            Schedule::Strategy(MoveStrategy::Racy) => {
                move_phase_pooled(g, zeta, gamma, sweeps, rec, scratch, budget)
            }
            Schedule::Strategy(MoveStrategy::Coloring) => move_phase_colored(
                g,
                zeta,
                gamma,
                sweeps,
                coloring.expect("coloring computed at level entry"),
                rec,
                scratch,
                budget,
            ),
            Schedule::Shuffled(rng) => {
                move_phase_sequential(g, zeta, gamma, sweeps, rng, rec, scratch, budget)
            }
        }
    }

    /// One hierarchy level under a budget. On expiry the recursion stops
    /// and the *current level's* assignment — valid at every sweep
    /// boundary — bubbles up, getting prolonged through every caller on
    /// the way out: exactly the "current hierarchy level projected to the
    /// fine graph" degradation contract (DESIGN.md §11).
    fn descend(
        &mut self,
        g: &Graph,
        depth: usize,
        levels: &mut u64,
        rec: &Recorder,
        scratch: &ScratchPool,
        budget: &Budget,
    ) -> (Partition, Termination, Option<String>) {
        // The whole level — including the recursion into coarser levels —
        // runs inside one `level-{depth}` span, so the report mirrors the
        // hierarchy: level-0 → [move-phase, coarsen, level-1 → […], refine].
        let level = rec.span_fmt(format_args!("level-{depth}"));
        level.counter("nodes", g.node_count() as u64);
        level.counter("edges", g.edge_count() as u64);
        *levels += 1;
        let mut zeta = Partition::singleton(g.node_count());
        // Coloring strategy: color the level once; both the move phase and
        // the PLMR refinement below reuse the same classes. On budget
        // expiry the level degrades to its singleton assignment — exactly
        // what an interrupted move phase would leave.
        let coloring = if matches!(self.schedule, Schedule::Strategy(MoveStrategy::Coloring)) {
            let span = rec.span("coloring");
            match Coloring::compute_budgeted(g, scratch, budget) {
                Ok(c) => {
                    span.counter("colors", c.num_colors() as u64);
                    span.counter("followers", c.followers().len() as u64);
                    Some(c)
                }
                Err(t) => {
                    return (zeta, t, Some(format!("level-{depth}/coloring")));
                }
            }
        } else {
            None
        };
        let (moves, move_term) = {
            let span = rec.span("move-phase");
            let (moves, term) =
                self.move_nodes(g, &mut zeta, coloring.as_ref(), rec, scratch, budget);
            span.counter("moves", moves);
            (moves, term)
        };
        if move_term.interrupted() {
            return (zeta, move_term, Some(format!("level-{depth}/move-phase")));
        }

        if moves > 0 && depth < self.max_levels {
            // Level boundary: don't start a contraction the budget no
            // longer covers.
            if let Err(t) = budget.check() {
                return (zeta, t, Some(format!("level-{depth}/coarsen")));
            }
            let contraction = coarsen_with(g, &zeta, rec);
            // progress guard: recursion must strictly shrink the graph
            if contraction.coarse.node_count() < g.node_count() {
                let (coarse_zeta, term, cut) =
                    self.descend(&contraction.coarse, depth + 1, levels, rec, scratch, budget);
                zeta = contraction.prolong(&coarse_zeta);
                if term.interrupted() {
                    return (zeta, term, cut);
                }
                if self.refine {
                    let span = rec.span("refine");
                    let (refine_moves, refine_term) =
                        self.move_nodes(g, &mut zeta, coloring.as_ref(), rec, scratch, budget);
                    span.counter("moves", refine_moves);
                    if refine_term.interrupted() {
                        return (zeta, refine_term, Some(format!("level-{depth}/refine")));
                    }
                }
            }
        }
        (zeta, Termination::Converged, None)
    }

    /// The full hierarchy under a budget. Returns the (possibly degraded)
    /// fine-graph partition, the termination cause and the cut phase name.
    pub(crate) fn run_levels(
        &mut self,
        g: &Graph,
        rec: &Recorder,
        budget: &Budget,
    ) -> (Partition, Termination, Option<String>) {
        // One pool for the whole hierarchy: each worker's scratch map is
        // allocated at the level-0 community count and recycled by every
        // sweep of every level below (coarser levels only need less).
        let scratch = ScratchPool::new();
        let mut levels = 0;
        let (mut zeta, termination, cut_phase) =
            self.descend(g, 0, &mut levels, rec, &scratch, budget);
        rec.counter("levels", levels);
        zeta.compact();
        // Postcondition for the whole family: a dense assignment
        // covering exactly the input nodes (coarsening inside
        // `descend` is cross-checked by coarsen() itself).
        #[cfg(any(debug_assertions, feature = "validate"))]
        {
            if zeta.len() != g.node_count() {
                panic!(
                    "PLM postcondition violated: partition covers {} of {} nodes",
                    zeta.len(),
                    g.node_count()
                );
            }
            if let Err(e) = zeta.validate_dense() {
                panic!("PLM postcondition violated: {e}");
            }
        }
        (zeta, termination, cut_phase)
    }
}

impl CommunityDetector for Plm {
    fn name(&self) -> String {
        let base = if self.refine { "PLMR" } else { "PLM" };
        let mut name = if (self.gamma - 1.0).abs() > 1e-12 {
            format!("{base}(γ={})", self.gamma)
        } else {
            base.to_string()
        };
        if self.move_strategy != MoveStrategy::Racy {
            name.push_str(&format!("[{}]", self.move_strategy));
        }
        name
    }

    fn gamma(&self) -> f64 {
        self.gamma
    }

    fn run(
        &mut self,
        g: &Graph,
        rec: &Recorder,
        budget: &Budget,
    ) -> (Partition, Termination, Option<String>) {
        Levels {
            gamma: self.gamma,
            refine: self.refine,
            max_move_iterations: self.max_move_iterations,
            max_levels: self.max_levels,
            schedule: Schedule::Strategy(self.move_strategy),
        }
        .run_levels(g, rec, budget)
    }
}

/// The parallel local move phase (Algorithm 2), frontier-driven.
///
/// Moves nodes of `g` between the communities of `zeta` (modified in place)
/// until a sweep moves no node or `max_iterations` is reached. Returns the
/// number of moves performed. Shared state during the sweep is the atomic
/// label array, one atomic volume accumulator per community and one active
/// flag per node — label and volume reads may be stale by design.
pub fn move_phase(g: &Graph, zeta: &mut Partition, gamma: f64, max_iterations: usize) -> u64 {
    move_phase_pooled(
        g,
        zeta,
        gamma,
        max_iterations,
        &Recorder::disabled(),
        &ScratchPool::new(),
        &Budget::unlimited(),
    )
    .0
}

/// What the racy phase evaluates moves against: live labels and volumes
/// that other threads are changing, read with relaxed loads.
struct Racing<'a>(&'a AtomicPartition, &'a [AtomicF64]);

impl MoveView for Racing<'_> {
    #[inline]
    fn label(&self, v: Node) -> u32 {
        self.0.get(v)
    }

    #[inline]
    fn volume(&self, c: u32) -> f64 {
        self.1[c as usize].load()
    }
}

/// Orders a frontier-flag access against a label access of the same
/// thread. The evaluator of `u` clears `active[u]`, fences, then reads its
/// neighbors' labels; a mover `v` writes its label, fences, then sets its
/// neighbors' flags. Of the two fences one comes first in the SeqCst
/// order: either `u`'s tally sees `v`'s new label, or `v`'s flag store
/// lands after `u`'s clear and `u` is evaluated again next sweep. Every
/// other access to the flags, labels and volumes stays `Relaxed`.
#[inline]
fn frontier_fence() {
    // audit:allow(ordering-escalation): store-buffering (Dekker) pattern between flag and label; needs a SeqCst fence on both sides
    std::sync::atomic::fence(Ordering::SeqCst);
}

/// [`move_phase`] under a recorder and a budget, drawing per-thread scratch
/// maps from `scratch` instead of allocating them, so one pool serves every
/// sweep of every hierarchy level. Appends the per-sweep frontier size and
/// move count as `active` and `moves` series, and the phase total as an
/// `evaluations` counter, on the innermost open span (the caller names the
/// phase — `move-phase` or `refine`).
///
/// Every node starts active. A sweep evaluates only active nodes: it clears
/// the node's flag, tallies, and on a move to community `d` re-activates
/// the neighbors not already in `d` — the nodes whose best move the change
/// can have altered. A sweep without moves leaves the frontier empty and
/// ends the phase. The budget is tested once per sweep; an interrupted
/// phase leaves `zeta` at the last completed sweep — a valid assignment by
/// construction.
fn move_phase_pooled(
    g: &Graph,
    zeta: &mut Partition,
    gamma: f64,
    max_iterations: usize,
    rec: &Recorder,
    scratch: &ScratchPool,
    budget: &Budget,
) -> (u64, Termination) {
    let total = g.total_edge_weight();
    if total == 0.0 {
        return (0, Termination::Converged);
    }
    zeta.compact();
    let k = zeta.upper_bound() as usize;

    let labels = AtomicPartition::from_partition(zeta);
    // Per-thread dense accumulators merged once, instead of one shared
    // atomic array written n times from a sequential loop.
    let volumes: Vec<AtomicF64> = g
        .par_nodes()
        .fold(
            || vec![0.0f64; k.max(1)],
            |mut acc, u| {
                acc[zeta.subset_of(u) as usize] += g.volume(u);
                acc
            },
        )
        .reduce(
            || vec![0.0f64; k.max(1)],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        )
        .into_iter()
        .map(AtomicF64::new)
        .collect();
    let active: Vec<AtomicBool> = all_active(g).into_iter().map(AtomicBool::new).collect();
    let view = Racing(&labels, &volumes);

    let mut total_moves = 0u64;
    let mut total_evaluations = 0u64;
    let mut termination = Termination::Converged;
    for _ in 0..max_iterations {
        if let Err(t) = budget.check_sweep() {
            termination = t;
            break;
        }
        #[cfg(test)]
        if crate::moves::full_sweeps() {
            for (flag, on) in active.iter().zip(all_active(g)) {
                flag.store(on, Ordering::Relaxed);
            }
        }
        // Sharded counters: workers bump thread-local integers that merge
        // into the cells when their state drops at the sweep's end.
        let moves = CounterCell::new();
        let evaluations = CounterCell::new();
        g.par_nodes().for_each_init(
            || {
                (
                    scratch.take(k.max(1)),
                    LocalCount::new(&moves),
                    LocalCount::new(&evaluations),
                )
            },
            |(weight_to, local_moves, local_evaluations), u| {
                if !active[u as usize].load(Ordering::Relaxed) {
                    return;
                }
                active[u as usize].store(false, Ordering::Relaxed);
                frontier_fence();
                local_evaluations.bump();
                if let Some((best_community, _)) = best_move(g, u, &view, total, gamma, weight_to) {
                    let vol_u = g.volume(u);
                    volumes[labels.get(u) as usize].fetch_sub(vol_u);
                    volumes[best_community as usize].fetch_add(vol_u);
                    labels.set(u, best_community);
                    local_moves.bump();
                    frontier_fence();
                    for &v in g.neighbors(u) {
                        if labels.get(v) != best_community {
                            active[v as usize].store(true, Ordering::Relaxed);
                        }
                    }
                }
            },
        );
        let moves = moves.get();
        total_moves += moves;
        let evaluations = evaluations.get();
        total_evaluations += evaluations;
        record_sweep(rec, evaluations, moves);
        if moves == 0 {
            break;
        }
    }
    rec.counter("evaluations", total_evaluations);

    *zeta = labels.to_partition();
    (total_moves, termination)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{modularity, modularity_gamma};
    use parcom_generators::{
        lfr, planted_partition, ring_of_cliques, LfrParams, PlantedPartitionParams,
    };
    use parcom_graph::GraphBuilder;

    #[test]
    fn recovers_ring_of_cliques_exactly() {
        let (g, truth) = ring_of_cliques(10, 8);
        let mut plm = Plm::new();
        let zeta = plm.detect(&g);
        assert_eq!(zeta.number_of_subsets(), 10);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(truth.in_same_subset(u, v), zeta.in_same_subset(u, v));
            }
        }
    }

    #[test]
    fn move_phase_increases_modularity_from_singletons() {
        let (g, _) = ring_of_cliques(6, 6);
        let mut zeta = Partition::singleton(g.node_count());
        let before = modularity(&g, &zeta);
        let moves = move_phase(&g, &mut zeta, 1.0, 32);
        assert!(moves > 0);
        assert!(modularity(&g, &zeta) > before);
    }

    #[test]
    fn high_quality_on_lfr() {
        let (g, _) = lfr(LfrParams::benchmark(2000, 0.3), 5);
        let mut plm = Plm::new();
        let zeta = plm.detect(&g);
        let q = modularity(&g, &zeta);
        assert!(q > 0.45, "PLM modularity too low: {q}");
    }

    #[test]
    fn plm_beats_plp_on_noisy_instances() {
        let (g, _) = lfr(LfrParams::benchmark(2000, 0.5), 6);
        let q_plm = modularity(&g, &Plm::new().detect(&g));
        let q_plp = modularity(&g, &crate::plp::Plp::new().detect(&g));
        assert!(
            q_plm >= q_plp - 0.01,
            "PLM ({q_plm}) should not lose clearly to PLP ({q_plp})"
        );
    }

    #[test]
    fn refinement_does_not_hurt() {
        let (g, _) = lfr(LfrParams::benchmark(1500, 0.4), 7);
        let q_plm = modularity(&g, &Plm::new().detect(&g));
        let q_plmr = modularity(&g, &Plm::with_refinement().detect(&g));
        assert!(
            q_plmr >= q_plm - 0.01,
            "PLMR ({q_plmr}) clearly worse than PLM ({q_plm})"
        );
    }

    #[test]
    fn builds_a_hierarchy() {
        let (g, _) = lfr(LfrParams::benchmark(1000, 0.3), 8);
        let mut plm = Plm::new();
        let (_, report) = plm.detect_with_report(&g);
        // walk the nested level-* phases, collecting their node counts
        let mut sizes = Vec::new();
        let mut level = report.phase("level-0");
        while let Some(p) = level {
            sizes.push(p.counter("nodes").unwrap());
            assert!(p.child("move-phase").is_some());
            level = p.children.iter().find(|c| c.name.starts_with("level-"));
        }
        assert!(sizes.len() >= 2, "no coarsening happened");
        // strictly decreasing level sizes
        for w in sizes.windows(2) {
            assert!(w[1] < w[0]);
        }
        assert_eq!(report.counter("levels"), Some(sizes.len() as u64));
    }

    #[test]
    fn report_has_per_level_phase_timings() {
        let (g, _) = lfr(LfrParams::benchmark(1500, 0.3), 12);
        let (_, report) = Plm::with_refinement().detect_with_report(&g);
        let level0 = report.phase("level-0").expect("level-0 phase");
        assert!(level0.wall_seconds > 0.0);
        let mv = level0.child("move-phase").expect("move-phase under level");
        assert!(mv.wall_seconds > 0.0);
        assert!(mv.counter("moves").unwrap() > 0);
        // the frontier ledger: one `active` entry per sweep next to
        // `moves`, all nodes in the first sweep, far fewer in the last
        let (active, moves) = (mv.series("active").unwrap(), mv.series("moves").unwrap());
        assert_eq!(active.len(), moves.len());
        assert_eq!(active[0], g.node_count() as f64);
        assert!(active[active.len() - 1] < active[0] / 4.0, "{active:?}");
        let evaluations = mv.counter("evaluations").unwrap();
        assert_eq!(evaluations as f64, active.iter().sum::<f64>());
        let coarsen = level0.child("coarsen").expect("coarsen under level");
        assert!(coarsen.counter("merges").unwrap() > 0);
        let refine = level0.child("refine").expect("PLMR refines every level");
        assert!(refine.series("active").is_some());
        // nesting discipline: children ran inside the level span
        assert!(level0.children_wall_seconds() <= level0.wall_seconds + 1e-9);
        assert!(report.metric("modularity").unwrap() > 0.3);
    }

    #[test]
    fn gamma_controls_resolution() {
        let (g, _) = planted_partition(
            PlantedPartitionParams {
                n: 200,
                k: 8,
                p_in: 0.4,
                p_out: 0.02,
            },
            9,
        );
        let coarse = Plm::with_gamma(0.2).detect(&g).number_of_subsets();
        let standard = Plm::new().detect(&g).number_of_subsets();
        let fine = Plm::with_gamma(6.0).detect(&g).number_of_subsets();
        assert!(
            coarse <= standard,
            "low gamma should coarsen: {coarse} vs {standard}"
        );
        assert!(
            fine >= standard,
            "high gamma should refine: {fine} vs {standard}"
        );
    }

    #[test]
    fn gamma_zero_merges_connected_component() {
        let (g, _) = ring_of_cliques(4, 4);
        let zeta = Plm::with_gamma(0.0).detect(&g);
        assert_eq!(zeta.number_of_subsets(), 1);
    }

    #[test]
    fn extreme_gamma_keeps_singletons() {
        let (g, _) = ring_of_cliques(3, 4);
        let gamma = 2.0 * g.total_edge_weight();
        let zeta = Plm::with_gamma(gamma).detect(&g);
        // with γ = 2ω(E) no merge is profitable
        assert_eq!(zeta.number_of_subsets(), g.node_count());
    }

    #[test]
    fn gamma_zero_mod_matches_direct_formula() {
        let (g, _) = ring_of_cliques(3, 5);
        let zeta = Plm::with_gamma(0.0).detect(&g);
        assert!((modularity_gamma(&g, &zeta, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let mut plm = Plm::new();
        assert_eq!(plm.detect(&GraphBuilder::new(0).build()).len(), 0);
        let g = GraphBuilder::new(5).build();
        let zeta = plm.detect(&g);
        assert_eq!(zeta.number_of_subsets(), 5);
    }

    #[test]
    fn weighted_graphs_respected() {
        // two heavy pairs bridged by light edges: pairs must be communities
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 10.0);
        b.add_edge(2, 3, 10.0);
        b.add_edge(1, 2, 0.5);
        b.add_edge(3, 0, 0.5);
        let g = b.build();
        let zeta = Plm::new().detect(&g);
        assert!(zeta.in_same_subset(0, 1));
        assert!(zeta.in_same_subset(2, 3));
        assert!(!zeta.in_same_subset(1, 2));
    }

    #[test]
    fn guarded_unlimited_matches_plain_contract() {
        let (g, _) = ring_of_cliques(10, 8);
        let r = Plm::new().detect_guarded(&g, &crate::Budget::unlimited());
        assert_eq!(r.termination, crate::Termination::Converged);
        assert_eq!(r.partition.number_of_subsets(), 10);
        assert!(r.partition.validate_dense().is_ok());
        assert_eq!(r.report.cut_phase, None);
    }

    #[test]
    fn guarded_sweep_cap_cuts_hierarchy_and_names_the_phase() {
        let (g, _) = lfr(LfrParams::benchmark(3000, 0.3), 5);
        // Two sweeps: enough to leave level 0 mid-hierarchy on this input.
        let budget = crate::Budget::unlimited().with_max_sweeps(2);
        let r = Plm::new().detect_guarded(&g, &budget);
        assert_eq!(r.termination, crate::Termination::IterationCap);
        assert_eq!(r.partition.len(), g.node_count());
        assert!(r.partition.validate_dense().is_ok());
        let cut = r.report.cut_phase.as_deref().expect("cut phase recorded");
        assert!(cut.starts_with("level-"), "unexpected cut phase {cut}");
        assert_eq!(r.report.termination.as_deref(), Some("iteration-cap"));
    }

    #[test]
    fn guarded_expired_mid_run_still_prolongs_to_fine_graph() {
        let (g, _) = lfr(LfrParams::benchmark(2000, 0.4), 9);
        // Cancel after the first sweep via the token, mimicking an external
        // abort between sweeps.
        let budget = crate::Budget::unlimited().with_max_sweeps(3);
        let r = Plm::with_refinement().detect_guarded(&g, &budget);
        // whatever level was reached, the result covers the fine graph
        assert_eq!(r.partition.len(), g.node_count());
        assert!(r.partition.validate_dense().is_ok());
    }

    #[test]
    fn names() {
        assert_eq!(Plm::new().name(), "PLM");
        assert_eq!(Plm::with_refinement().name(), "PLMR");
        assert_eq!(Plm::with_gamma(0.5).name(), "PLM(γ=0.5)");
    }
}
