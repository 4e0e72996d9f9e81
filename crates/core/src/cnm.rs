//! CNM — the globally greedy agglomerative baseline (Clauset–Newman–Moore).
//!
//! Starts from singletons and always executes the merge with the globally
//! maximal Δmod until no merge improves modularity. Implemented with a lazy
//! max-heap: candidate merges carry the version counters of both endpoints
//! and are discarded on pop if either community has changed since.

use crate::agglomeration::{MergeState, OrderedDelta};
use crate::algorithm::CommunityDetector;
use crate::rg::MERGE_CHECK_INTERVAL;
use parcom_graph::{Graph, Partition};
use parcom_guard::{Budget, Pacer, Termination};
use parcom_obs::Recorder;
use std::collections::BinaryHeap;

/// The CNM greedy modularity agglomerator.
#[derive(Clone, Debug, Default)]
pub struct Cnm {
    /// Resolution parameter (1 = standard modularity).
    pub gamma: f64,
}

impl Cnm {
    /// CNM with standard modularity.
    pub fn new() -> Self {
        Self { gamma: 1.0 }
    }
}

#[derive(PartialEq, Eq)]
struct Candidate {
    delta: OrderedDelta,
    a: u32,
    b: u32,
    va: u64,
    vb: u64,
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.delta.cmp(&other.delta)
    }
}

impl CommunityDetector for Cnm {
    fn name(&self) -> String {
        "CNM".into()
    }

    fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The greedy merge loop. The budget is paced at one check per
    /// `MERGE_CHECK_INTERVAL` heap pops; CNM only ever executes
    /// improving merges, so the state at *any* interruption point is the
    /// best partition on its greedy path so far — degradation just stops
    /// merging early.
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
        let seed_span = rec.span("seed-heap");
        let mut state = MergeState::new(g, self.gamma);
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();

        // bounded O(m) seeding pass; the paced budget checks start with the
        // very next loop, so a deadline is noticed within one interval
        // audit:allow(budget-check)
        for a in 0..n as u32 {
            for (&b, _) in state.between[a as usize].iter() {
                if a < b {
                    heap.push(Candidate {
                        delta: OrderedDelta(state.delta(a, b)),
                        a,
                        b,
                        va: state.version[a as usize],
                        vb: state.version[b as usize],
                    });
                }
            }
        }
        seed_span.counter("candidates", heap.len() as u64);
        seed_span.close();

        let merge_span = rec.span("agglomerate");
        let mut merges = 0u64;
        let mut termination = Termination::Converged;
        let mut pacer = Pacer::new(MERGE_CHECK_INTERVAL);
        while let Some(cand) = heap.pop() {
            if pacer.tick() {
                if let Err(t) = budget.check() {
                    termination = t;
                    break;
                }
            }
            let (a, b) = (cand.a, cand.b);
            if !state.active[a as usize]
                || !state.active[b as usize]
                || state.version[a as usize] != cand.va
                || state.version[b as usize] != cand.vb
            {
                continue; // stale candidate
            }
            if cand.delta.0 <= 0.0 {
                break; // global maximum reached
            }
            let survivor = state.merge(a, b);
            merges += 1;
            // re-queue candidates around the merged community
            let neighbors: Vec<u32> = state.between[survivor as usize].keys().copied().collect();
            for c in neighbors {
                heap.push(Candidate {
                    delta: OrderedDelta(state.delta(survivor, c)),
                    a: survivor,
                    b: c,
                    va: state.version[survivor as usize],
                    vb: state.version[c as usize],
                });
            }
        }
        merge_span.counter("merges", merges);
        merge_span.close();

        (
            state.to_partition(),
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
    fn recovers_ring_of_cliques() {
        let (g, truth) = ring_of_cliques(6, 6);
        let zeta = Cnm::new().detect(&g);
        assert_eq!(zeta.number_of_subsets(), 6);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(truth.in_same_subset(u, v), zeta.in_same_subset(u, v));
            }
        }
    }

    #[test]
    fn never_returns_worse_than_singletons() {
        let (g, _) = lfr(LfrParams::benchmark(500, 0.4), 3);
        let zeta = Cnm::new().detect(&g);
        let q = modularity(&g, &zeta);
        let q0 = modularity(&g, &Partition::singleton(g.node_count()));
        assert!(q >= q0);
        assert!(q > 0.3, "CNM quality too low: {q}");
    }

    #[test]
    fn greedy_merges_monotonically_improve() {
        // CNM stops at a local max: final quality must beat every trivial cut
        let (g, _) = ring_of_cliques(4, 5);
        let q = modularity(&g, &Cnm::new().detect(&g));
        assert!(q > modularity(&g, &Partition::all_in_one(g.node_count())));
    }

    #[test]
    fn edgeless_graph_stays_singleton() {
        let g = GraphBuilder::new(4).build();
        let zeta = Cnm::new().detect(&g);
        assert_eq!(zeta.number_of_subsets(), 4);
    }

    #[test]
    fn two_cliques_one_bridge() {
        let (g, _) = ring_of_cliques(2, 5);
        let zeta = Cnm::new().detect(&g);
        assert_eq!(zeta.number_of_subsets(), 2);
    }

    #[test]
    fn report_has_agglomeration_phases() {
        let (g, _) = ring_of_cliques(5, 5);
        let (_, report) = Cnm::new().detect_with_report(&g);
        let seed = report.phase("seed-heap").expect("seed-heap phase");
        assert!(seed.counter("candidates").unwrap() > 0);
        let agg = report.phase("agglomerate").expect("agglomerate phase");
        assert!(agg.counter("merges").unwrap() > 0);
        assert!(report.metric("modularity").unwrap() > 0.5);
    }

    #[test]
    fn guarded_cancellation_stops_merging_early() {
        let (g, _) = lfr(LfrParams::benchmark(600, 0.3), 3);
        let token = crate::CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_token(token);
        let r = Cnm::new().detect_guarded(&g, &budget);
        assert_eq!(r.termination, Termination::Cancelled);
        assert_eq!(r.partition.len(), g.node_count());
        assert!(r.partition.validate().is_ok());
        assert_eq!(r.report.termination.as_deref(), Some("cancelled"));
    }

    #[test]
    fn quality_in_plm_ballpark_on_lfr() {
        let (g, _) = lfr(LfrParams::benchmark(800, 0.3), 5);
        let q_cnm = modularity(&g, &Cnm::new().detect(&g));
        let q_plm = modularity(&g, &crate::plm::Plm::new().detect(&g));
        // CNM is known to be weaker on unbalanced structures but not by far
        assert!(q_cnm > q_plm - 0.15, "CNM {q_cnm} vs PLM {q_plm}");
    }
}
