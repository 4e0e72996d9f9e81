//! PAM / CEL — parallel agglomeration by greedy edge matching.
//!
//! Reimplementations of the two parallel DIMACS competitors the paper
//! compares against (§V-E b):
//!
//! * **PAM** (the CLU_TBB analogue, Fagginger Auer & Bisseling): every edge
//!   is weighted with the Δmod of contracting it; a greedy heavy matching is
//!   computed and contracted, recursively. The *star adaptation* lets
//!   unmatched nodes join an already-matched neighbor's group, so star-like
//!   structures do not strangle parallelism through tiny matchings.
//! * **CEL** (the community-el analogue, Riedy et al.): the same scheme
//!   without the star adaptation.

use crate::algorithm::CommunityDetector;
use parcom_graph::{coarsen, Graph, Partition};
use parcom_guard::{Budget, Termination};
use parcom_obs::Recorder;
use rayon::prelude::*;

/// Cap on contraction levels.
const MAX_LEVELS: usize = 64;

/// Matching-based parallel agglomerator, at standard modularity (γ = 1).
#[derive(Clone, Debug)]
pub struct Pam {
    /// Allow satellites to join matched hubs (CLU_TBB's adaptation).
    pub star_adaptation: bool,
}

impl Pam {
    /// The CLU_TBB-like configuration (with star adaptation).
    pub fn new() -> Self {
        Self {
            star_adaptation: true,
        }
    }

    /// The CEL-like configuration (plain matching).
    pub fn cel() -> Self {
        Self {
            star_adaptation: false,
        }
    }
}

impl Default for Pam {
    fn default() -> Self {
        Self::new()
    }
}

impl CommunityDetector for Pam {
    fn name(&self) -> String {
        if self.star_adaptation {
            "PAM".into()
        } else {
            "CEL".into()
        }
    }

    /// The contraction hierarchy. The budget is tested once per level (a
    /// level is one full parallel matching + contraction, PAM's natural
    /// sweep boundary); on expiry the loop stops and the best level
    /// *completed so far* is returned — exactly what an uninterrupted run
    /// returns when the tracked maximum lies at that level.
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
        let mut overall: Vec<u32> = (0..n as u32).collect();
        let mut current = g.clone();
        // Matching forces many simultaneous merges per level, some marginal;
        // like the original, keep the best level of the hierarchy.
        let mut best_partition = Partition::singleton(n);
        let mut best_q = crate::quality::modularity(g, &best_partition);

        let mut termination = Termination::Converged;
        let mut cut_phase = None;

        for level in 0..MAX_LEVELS {
            if let Err(t) = budget.check_sweep() {
                termination = t;
                cut_phase = Some(format!("level-{level}/match"));
                break;
            }
            let total = current.total_edge_weight();
            if total == 0.0 {
                break;
            }
            let level_span = rec.span_fmt(format_args!("level-{level}"));
            level_span.counter("nodes", current.node_count() as u64);
            level_span.counter("edges", current.edge_count() as u64);
            // Every node's best merge partner by Δmod of contracting the
            // edge. Score ties are broken by a *symmetric* pair hash: both
            // endpoints rank a tied pair identically, so regular structures
            // (grids, cliques) still produce large handshake matchings
            // instead of degenerating to one pair per level.
            let pair_hash = |a: u32, b: u32| -> u64 {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let mut x = ((lo as u64) << 32) | hi as u64;
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x ^ (x >> 31)
            };
            let best_neighbor: Vec<Option<u32>> = current
                .par_nodes()
                .map(|u| {
                    let g_ref = &current;
                    let mut best: Option<(f64, u64, u32)> = None;
                    for (v, w) in g_ref.edges_of(u) {
                        if v == u {
                            continue;
                        }
                        let delta =
                            w / total - g_ref.volume(u) * g_ref.volume(v) / (2.0 * total * total);
                        if delta <= 0.0 {
                            continue;
                        }
                        let h = pair_hash(u, v);
                        let better = match best {
                            None => true,
                            Some((bd, bh, _)) => delta > bd || (delta == bd && h > bh),
                        };
                        if better {
                            best = Some((delta, h, v));
                        }
                    }
                    best.map(|(_, _, v)| v)
                })
                .collect();

            // Locally heaviest (handshake) matching: an edge is contracted
            // only when it is the best edge of *both* endpoints. This is
            // what keeps community bridges out of the matching — a bridge
            // only matches when no intra-community partner is better.
            const UNMATCHED: u32 = u32::MAX;
            let mut group = vec![UNMATCHED; current.node_count()];
            let mut merged_any = false;
            // audit:allow(lossy-cast): bounded by the u32 node id space
            for u in 0..current.node_count() as u32 {
                if group[u as usize] != UNMATCHED {
                    continue;
                }
                if let Some(v) = best_neighbor[u as usize] {
                    if v > u
                        && group[v as usize] == UNMATCHED
                        && best_neighbor[v as usize] == Some(u)
                    {
                        group[u as usize] = u;
                        group[v as usize] = u;
                        merged_any = true;
                    }
                }
            }
            if self.star_adaptation {
                // Star adaptation: an unmatched satellite joins the group of
                // its best partner (its hub) — star-like structures collapse
                // in one level instead of strangling the matching. Only
                // groups formed by the *matching* qualify as hubs: chaining
                // through groups formed within this pass would snowball
                // whole regions into one community.
                let matched: Vec<bool> = group.iter().map(|&g| g != UNMATCHED).collect();
                for u in 0..group.len() {
                    if group[u] != UNMATCHED {
                        continue;
                    }
                    if let Some(v) = best_neighbor[u] {
                        if matched[v as usize] {
                            group[u] = group[v as usize];
                            merged_any = true;
                        }
                    }
                }
            }
            if !merged_any {
                break;
            }
            level_span.counter(
                "matched",
                group.iter().filter(|&&gr| gr != UNMATCHED).count() as u64,
            );
            for (v, gr) in group.iter_mut().enumerate() {
                if *gr == UNMATCHED {
                    *gr = v as u32;
                }
            }
            let level_partition = Partition::from_vec(group);
            let contraction = coarsen(&current, &level_partition);
            if contraction.coarse.node_count() >= current.node_count() {
                break;
            }
            // compose: original -> previous level -> new level
            overall
                .par_iter_mut()
                .for_each(|c| *c = contraction.fine_to_coarse[*c as usize]);
            current = contraction.coarse;

            let level_solution = Partition::from_vec(overall.clone());
            let q = crate::quality::modularity(g, &level_solution);
            if q > best_q {
                best_q = q;
                best_partition = level_solution;
            }
        }

        let mut zeta = best_partition;
        zeta.compact();
        (zeta, termination, cut_phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::modularity;
    use parcom_generators::{barabasi_albert, lfr, ring_of_cliques, LfrParams};
    use parcom_graph::GraphBuilder;

    #[test]
    fn names() {
        assert_eq!(Pam::new().name(), "PAM");
        assert_eq!(Pam::cel().name(), "CEL");
    }

    #[test]
    fn recovers_ring_of_cliques() {
        let (g, truth) = ring_of_cliques(6, 6);
        let zeta = Pam::new().detect(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                if truth.in_same_subset(u, v) {
                    assert!(zeta.in_same_subset(u, v), "clique split at {u},{v}");
                }
            }
        }
        assert!(modularity(&g, &zeta) > 0.6);
    }

    #[test]
    fn positive_quality_on_lfr() {
        let (g, _) = lfr(LfrParams::benchmark(800, 0.3), 41);
        let q = modularity(&g, &Pam::new().detect(&g));
        assert!(q > 0.3, "PAM quality too low: {q}");
    }

    #[test]
    fn cel_no_better_than_pam_on_stars() {
        // hub-dominated graph: star adaptation should help (or at least not hurt)
        let g = barabasi_albert(1000, 2, 42);
        let q_pam = modularity(&g, &Pam::new().detect(&g));
        let q_cel = modularity(&g, &Pam::cel().detect(&g));
        assert!(
            q_pam >= q_cel - 0.05,
            "star adaptation should help on hubs: PAM {q_pam} vs CEL {q_cel}"
        );
    }

    #[test]
    fn contraction_hierarchy_terminates() {
        let (g, _) = lfr(LfrParams::benchmark(500, 0.4), 43);
        // must terminate well below the level cap
        let zeta = Pam::new().detect(&g);
        assert!(zeta.number_of_subsets() > 1);
        assert!(zeta.number_of_subsets() < g.node_count());
    }

    #[test]
    fn edgeless_graph_stays_singleton() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(Pam::new().detect(&g).number_of_subsets(), 3);
    }

    #[test]
    fn report_has_level_phases() {
        let (g, _) = ring_of_cliques(6, 6);
        let (_, report) = Pam::new().detect_with_report(&g);
        let level0 = report.phase("level-0").expect("level-0 phase");
        assert!(level0.counter("matched").unwrap() > 0);
        assert!(report.metric("modularity").unwrap() > 0.5);
    }

    #[test]
    fn guarded_level_cap_returns_best_level_so_far() {
        let (g, _) = lfr(LfrParams::benchmark(800, 0.3), 11);
        // one level only: the first matching completes, then the cap fires
        let budget = Budget::unlimited().with_max_sweeps(1);
        let r = Pam::new().detect_guarded(&g, &budget);
        assert_eq!(r.termination, Termination::IterationCap);
        assert_eq!(r.partition.len(), g.node_count());
        assert!(r.partition.validate().is_ok());
        assert!(r.report.cut_phase.as_deref().unwrap().starts_with("level-"));
    }

    #[test]
    fn weighted_pairs_match_first() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 10.0);
        b.add_edge(2, 3, 10.0);
        b.add_edge(1, 2, 0.1);
        let g = b.build();
        let zeta = Pam::new().detect(&g);
        assert!(zeta.in_same_subset(0, 1));
        assert!(zeta.in_same_subset(2, 3));
    }
}
