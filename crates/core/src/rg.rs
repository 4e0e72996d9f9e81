//! RG — Randomized Greedy agglomeration (Ovelgönne & Geyer-Schulz).
//!
//! CNM's globally greedy merge order produces highly unbalanced communities
//! whose volumes dominate later Δmod scores. RG avoids this: each step
//! samples `k` live communities, finds the best merge available to each of
//! them, and executes the best of those. Agglomeration continues all the way
//! to a single community while the modularity of every intermediate state is
//! tracked; the returned solution is the dendrogram level with the maximal
//! modularity. RG is the base algorithm of the CGGC/CGGCi ensembles that won
//! the DIMACS Pareto challenge (§V-E c).

use crate::agglomeration::MergeState;
use crate::algorithm::CommunityDetector;
use parcom_graph::{Graph, Partition};
use parcom_guard::{Budget, Pacer, Termination};
use parcom_obs::Recorder;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Budget-check amortization for agglomerative merge loops: one check per
/// this many merges. A merge costs O(degree), so the check amortizes to
/// well under a nanosecond per merge while still bounding overshoot to a
/// few milliseconds on real graphs (DESIGN.md §11).
pub(crate) const MERGE_CHECK_INTERVAL: u32 = 1024;

/// The randomized greedy agglomerator.
#[derive(Clone, Debug)]
pub struct Rg {
    /// Sample size `k` per step (the original uses small k; 2 by default).
    pub sample_size: usize,
    /// Resolution parameter.
    pub gamma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Rg {
    fn default() -> Self {
        Self {
            sample_size: 2,
            gamma: 1.0,
            seed: 1,
        }
    }
}

impl Rg {
    /// RG with default parameters.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CommunityDetector for Rg {
    fn name(&self) -> String {
        "RG".into()
    }

    fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The full agglomeration. The budget is checked once per
    /// `MERGE_CHECK_INTERVAL` merges; on expiry the merge loop stops and
    /// the replay still runs — the degraded result is the best dendrogram
    /// level *seen so far*, exactly what an uninterrupted run returns when
    /// the tracked maximum happens to lie at that step.
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
        if g.total_edge_weight() == 0.0 {
            return (Partition::singleton(n), Termination::Converged, None);
        }
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let merge_span = rec.span("agglomerate");
        let mut state = MergeState::new(g, self.gamma);

        // live community list for O(1) sampling
        let mut live: Vec<u32> = (0..n as u32).collect();

        let mut merge_log: Vec<(u32, u32)> = Vec::with_capacity(n);
        let mut q = state.modularity();
        let mut best_q = q;
        let mut best_step = 0usize;
        let mut termination = Termination::Converged;
        let mut pacer = Pacer::new(MERGE_CHECK_INTERVAL);

        while state.active_count > 1 {
            if pacer.tick() {
                if let Err(t) = budget.check() {
                    termination = t;
                    break;
                }
            }
            // prune dead entries lazily while sampling
            let mut best: Option<(f64, u32, u32)> = None;
            for _ in 0..self.sample_size {
                // sample a live, mergeable community; prune dead and
                // isolated entries (isolated communities can never merge)
                let a = loop {
                    if live.is_empty() {
                        break u32::MAX;
                    }
                    let idx = rng.gen_range(0..live.len());
                    let c = live[idx];
                    if !state.active[c as usize] || state.between[c as usize].is_empty() {
                        live.swap_remove(idx);
                        continue;
                    }
                    break c;
                };
                if a == u32::MAX {
                    break;
                }
                // best merge available to `a`
                for (&b, _) in state.between[a as usize].iter() {
                    let d = state.delta(a, b);
                    if best.is_none_or(|(bd, _, _)| d > bd) {
                        best = Some((d, a, b));
                    }
                }
            }
            let Some((mut delta, mut a, mut b)) = best else {
                // sampled communities had no neighbors (isolated); if any
                // community still has neighbors, keep going, else stop
                let has_candidates = live
                    .iter()
                    .any(|&c| state.active[c as usize] && !state.between[c as usize].is_empty());
                if !has_candidates {
                    break;
                }
                continue;
            };
            // When every merge available to the sampled communities lowers
            // modularity (they are already "complete"), executing one while
            // improving merges still exist elsewhere buries the optimum in
            // the middle of the dendrogram: the later improvements can lift
            // the tracked maximum past the pre-merge level, so the returned
            // best cut contains the bad merge. Fall back to a full greedy
            // scan in that case. The scan only triggers in the endgame
            // (or on unlucky samples), when few communities remain.
            if delta <= 0.0 {
                for &c in live.iter() {
                    if !state.active[c as usize] {
                        continue;
                    }
                    for (&other, _) in state.between[c as usize].iter() {
                        let d = state.delta(c, other);
                        if d > delta {
                            (delta, a, b) = (d, c, other);
                        }
                    }
                }
            }
            let survivor = state.merge(a, b);
            merge_log.push((a, b));
            q += delta;
            debug_assert!((q - state.modularity()).abs() < 1e-6);
            if q > best_q {
                best_q = q;
                best_step = merge_log.len();
            }
            let _ = survivor;
        }
        merge_span.counter("merges", merge_log.len() as u64);
        merge_span.counter("best-step", best_step as u64);
        merge_span.close();

        // replay merges up to the best dendrogram level
        let replay_span = rec.span("replay");
        let mut replay = MergeState::new(g, self.gamma);
        for &(a, b) in merge_log.iter().take(best_step) {
            // ids in the log are live at replay time by construction
            let (ra, rb) = (replay.find(a), replay.find(b));
            if ra != rb {
                replay.merge(ra, rb);
            }
        }
        replay_span.close();
        (
            replay.to_partition(),
            termination,
            Some("agglomerate".into()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::modularity;
    use parcom_generators::{lfr, ring_of_cliques, LfrParams};
    use parcom_graph::GraphBuilder;

    #[test]
    fn near_optimal_on_ring_of_cliques() {
        // RG's randomized dendrogram can strand the odd singleton, so exact
        // recovery is not guaranteed — near-optimal modularity is.
        let (g, truth) = ring_of_cliques(6, 6);
        let zeta = Rg::new().detect(&g);
        let q = modularity(&g, &zeta);
        let q_truth = modularity(&g, &truth);
        assert!(q > q_truth - 0.08, "RG {q} vs truth {q_truth}");
        // no two cliques may be merged
        for u in g.nodes() {
            for v in g.nodes() {
                if zeta.in_same_subset(u, v) {
                    assert!(truth.in_same_subset(u, v), "cliques merged at {u},{v}");
                }
            }
        }
    }

    #[test]
    fn strong_quality_on_lfr() {
        let (g, _) = lfr(LfrParams::benchmark(800, 0.3), 7);
        let q = modularity(&g, &Rg::new().detect(&g));
        assert!(q > 0.4, "RG quality too low: {q}");
    }

    #[test]
    fn rg_competitive_with_cnm() {
        let (g, _) = lfr(LfrParams::benchmark(600, 0.35), 8);
        let q_rg = modularity(&g, &Rg::new().detect(&g));
        let q_cnm = modularity(&g, &crate::cnm::Cnm::new().detect(&g));
        assert!(
            q_rg >= q_cnm - 0.05,
            "RG ({q_rg}) should be at least CNM-level ({q_cnm})"
        );
    }

    fn seeded(seed: u64) -> Rg {
        let mut rg = Rg::new();
        rg.set_seed(seed);
        rg
    }

    #[test]
    fn deterministic_in_seed() {
        let (g, _) = lfr(LfrParams::benchmark(400, 0.4), 9);
        let a = seeded(5).detect(&g);
        let b = seeded(5).detect(&g);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn different_seeds_can_differ() {
        let (g, _) = lfr(LfrParams::benchmark(400, 0.5), 10);
        let a = seeded(1).detect(&g);
        let b = seeded(2).detect(&g);
        // solutions usually differ in label vectors (grouping may coincide)
        let _ = (a, b); // smoke: both complete without panic
    }

    #[test]
    fn report_has_agglomeration_phases() {
        let (g, _) = ring_of_cliques(5, 5);
        let (_, report) = Rg::new().detect_with_report(&g);
        let agg = report.phase("agglomerate").expect("agglomerate phase");
        assert!(agg.counter("merges").unwrap() > 0);
        assert!(agg.counter("best-step").unwrap() > 0);
        assert!(report.phase("replay").is_some());
        assert!(report.metric("modularity").unwrap() > 0.5);
    }

    #[test]
    fn guarded_cancellation_returns_best_seen() {
        let (g, _) = lfr(LfrParams::benchmark(600, 0.3), 3);
        let token = crate::CancelToken::new();
        token.cancel();
        // cancelled before the first paced check fires mid-merge: RG may
        // complete up to an interval of merges, but must return cleanly
        let budget = Budget::unlimited().with_token(token);
        let r = Rg::new().detect_guarded(&g, &budget);
        assert_eq!(r.termination, Termination::Cancelled);
        assert_eq!(r.partition.len(), g.node_count());
        assert!(r.partition.validate().is_ok());
    }

    #[test]
    fn handles_disconnected_and_edgeless() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(Rg::new().detect(&g).number_of_subsets(), 5);
        let g2 = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        let zeta = Rg::new().detect(&g2);
        assert!(zeta.in_same_subset(0, 1));
        assert!(zeta.in_same_subset(2, 3));
        assert!(!zeta.in_same_subset(1, 2));
    }
}
