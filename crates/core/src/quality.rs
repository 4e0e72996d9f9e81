//! Solution quality measures: modularity (Eq. III.1) and coverage.
//!
//! Modularity compares the coverage of a solution (fraction of edge weight
//! inside communities) to its expectation under a degree-preserving random
//! model:
//!
//! ```text
//! mod(ζ, G) = Σ_C [ ω(C)/ω(E) − γ · vol(C)² / (4 ω(E)²) ]
//! ```
//!
//! γ is the resolution parameter of §III-B: γ = 1 is standard modularity,
//! γ → 0 favors one community, large γ favors singletons.

use parcom_graph::{Graph, Partition};
use rayon::prelude::*;

/// Per-community aggregates needed by modularity: intra-community edge
/// weight ω(C) and community volume vol(C).
#[derive(Clone, Debug)]
pub struct CommunityAggregates {
    /// ω(C): weight of edges inside each community (self-loops once).
    pub intra_weight: Vec<f64>,
    /// vol(C): summed node volumes (self-loops twice).
    pub volume: Vec<f64>,
}

/// Computes ω(C) and vol(C) for every community id below
/// `zeta.upper_bound()`.
///
/// Parallel: at most one part per thread folds a thread-local accumulator
/// pair over a node range holding an equal share of the *edges*
/// ([`Graph::edge_balanced_ranges`]), then the pairs reduce element-wise —
/// modularity is evaluated after every phase of every multilevel
/// algorithm, so this scan is on the hot path.
// audit:allow(budget-propagation): single bounded parallel scan; callers check the budget at phase boundaries
pub fn community_aggregates(g: &Graph, zeta: &Partition) -> CommunityAggregates {
    assert_eq!(zeta.len(), g.node_count(), "partition does not cover graph");
    let ub = zeta.upper_bound() as usize;

    let identity = || (vec![0.0f64; ub], vec![0.0f64; ub]);
    let (intra_weight, volume) = g
        .edge_balanced_ranges()
        .into_par_iter()
        .fold(identity, |(mut intra, mut vol), nodes| {
            for u in nodes {
                let cu = zeta.subset_of(u) as usize;
                vol[cu] += g.volume(u);
                for (v, w) in g.edges_of(u) {
                    if v >= u && zeta.subset_of(v) as usize == cu {
                        intra[cu] += w;
                    }
                }
            }
            (intra, vol)
        })
        .reduce(identity, |(mut ia, mut va), (ib, vb)| {
            for (a, b) in ia.iter_mut().zip(&ib) {
                *a += b;
            }
            for (a, b) in va.iter_mut().zip(&vb) {
                *a += b;
            }
            (ia, va)
        });

    CommunityAggregates {
        intra_weight,
        volume,
    }
}

impl CommunityAggregates {
    /// Σ_C [ ω(C)/ω(E) − γ · vol(C)² / (4 ω(E)²) ] for a graph of total edge
    /// weight `total`.
    fn modularity(&self, total: f64, gamma: f64) -> f64 {
        let mut score = 0.0;
        for c in 0..self.volume.len() {
            let cov = self.intra_weight[c] / total;
            let vol = self.volume[c] / (2.0 * total);
            score += cov - gamma * vol * vol;
        }
        debug_assert!(
            gamma != 1.0 || (-0.5..=1.0 + 1e-9).contains(&score),
            "modularity {score} outside analytic range"
        );
        score
    }

    /// Σ_C ω(C) / ω(E).
    fn coverage(&self, total: f64) -> f64 {
        self.intra_weight.iter().sum::<f64>() / total
    }
}

/// Modularity with resolution parameter `gamma` (γ = 1 is Eq. III.1).
pub fn modularity_gamma(g: &Graph, zeta: &Partition, gamma: f64) -> f64 {
    let total = g.total_edge_weight();
    if total == 0.0 {
        return 0.0;
    }
    community_aggregates(g, zeta).modularity(total, gamma)
}

/// Standard modularity (γ = 1).
///
/// # Examples
///
/// ```
/// use parcom_core::quality::modularity;
/// use parcom_graph::{GraphBuilder, Partition};
///
/// let g = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
/// let natural = Partition::from_vec(vec![0, 0, 1, 1]);
/// assert_eq!(modularity(&g, &natural), 0.5);
/// assert_eq!(modularity(&g, &Partition::all_in_one(4)), 0.0);
/// ```
#[inline]
pub fn modularity(g: &Graph, zeta: &Partition) -> f64 {
    modularity_gamma(g, zeta, 1.0)
}

/// Coverage: fraction of edge weight inside communities. PLP is a locally
/// greedy coverage maximizer (§III-A).
pub fn coverage(g: &Graph, zeta: &Partition) -> f64 {
    let total = g.total_edge_weight();
    if total == 0.0 {
        return 0.0;
    }
    community_aggregates(g, zeta).coverage(total)
}

/// `(modularity, coverage)` from one aggregate scan — the same values
/// [`modularity`] and [`coverage`] return, at half their combined cost.
pub fn modularity_and_coverage(g: &Graph, zeta: &Partition) -> (f64, f64) {
    let total = g.total_edge_weight();
    if total == 0.0 {
        return (0.0, 0.0);
    }
    let agg = community_aggregates(g, zeta);
    (agg.modularity(total, 1.0), agg.coverage(total))
}

/// The modularity difference of moving `u` from community `C` to `D`
/// (the Δmod formula of §III-B, with resolution `gamma`):
///
/// * `weight_to_c` — ω(u, C \ {u})
/// * `weight_to_d` — ω(u, D \ {u})
/// * `vol_c_without_u` — vol(C \ {u})
/// * `vol_d` — vol(D \ {u}) (u is not in D)
/// * `vol_u` — vol(u); `total` — ω(E)
#[inline]
pub fn delta_modularity(
    weight_to_c: f64,
    weight_to_d: f64,
    vol_c_without_u: f64,
    vol_d: f64,
    vol_u: f64,
    total: f64,
    gamma: f64,
) -> f64 {
    (weight_to_d - weight_to_c) / total
        + gamma * (vol_c_without_u - vol_d) * vol_u / (2.0 * total * total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcom_graph::GraphBuilder;

    fn two_triangles() -> Graph {
        GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    #[test]
    fn singletons_have_negative_modularity() {
        let g = two_triangles();
        let q = modularity(&g, &Partition::singleton(6));
        assert!(q < 0.0, "singleton modularity should be negative, got {q}");
    }

    #[test]
    fn all_in_one_has_zero_modularity() {
        let g = two_triangles();
        let q = modularity(&g, &Partition::all_in_one(6));
        assert!(q.abs() < 1e-12, "one community ⇒ mod 0, got {q}");
    }

    #[test]
    fn natural_communities_score_high() {
        let g = two_triangles();
        let natural = Partition::from_vec(vec![0, 0, 0, 1, 1, 1]);
        let q = modularity(&g, &natural);
        // coverage 6/7, expected (7/14)² per community
        let expect = 6.0 / 7.0 - 2.0 * 0.25;
        assert!((q - expect).abs() < 1e-12, "got {q}, expected {expect}");
        // and it beats both trivial solutions
        assert!(q > modularity(&g, &Partition::all_in_one(6)));
        assert!(q > modularity(&g, &Partition::singleton(6)));
    }

    #[test]
    fn modularity_is_invariant_under_relabeling() {
        let g = two_triangles();
        let a = Partition::from_vec(vec![0, 0, 0, 1, 1, 1]);
        let b = Partition::from_vec(vec![9, 9, 9, 4, 4, 4]);
        assert!((modularity(&g, &a) - modularity(&g, &b)).abs() < 1e-12);
    }

    #[test]
    fn coverage_counts_intra_fraction() {
        let g = two_triangles();
        let natural = Partition::from_vec(vec![0, 0, 0, 1, 1, 1]);
        assert!((coverage(&g, &natural) - 6.0 / 7.0).abs() < 1e-12);
        assert!((coverage(&g, &Partition::all_in_one(6)) - 1.0).abs() < 1e-12);
        assert_eq!(coverage(&g, &Partition::singleton(6)), 0.0);
    }

    #[test]
    fn gamma_zero_prefers_one_community() {
        let g = two_triangles();
        let one = modularity_gamma(&g, &Partition::all_in_one(6), 0.0);
        let split = modularity_gamma(&g, &Partition::from_vec(vec![0, 0, 0, 1, 1, 1]), 0.0);
        assert!(one >= split);
    }

    #[test]
    fn large_gamma_prefers_singletons() {
        let g = two_triangles();
        let gamma = 2.0 * g.total_edge_weight();
        let single = modularity_gamma(&g, &Partition::singleton(6), gamma);
        let merged = modularity_gamma(&g, &Partition::all_in_one(6), gamma);
        assert!(single > merged);
    }

    #[test]
    fn self_loops_count_in_coverage_and_volume() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 0, 1.0);
        let g = b.build();
        let p = Partition::singleton(2);
        // self-loop is intra for any partition
        assert!((coverage(&g, &p) - 0.5).abs() < 1e-12);
        let agg = community_aggregates(&g, &p);
        assert_eq!(agg.volume[0], 3.0); // 1 + 2·1
        assert_eq!(agg.intra_weight[0], 1.0);
    }

    #[test]
    fn delta_matches_full_recomputation() {
        // move node 2 from its triangle into the other community
        let g = two_triangles();
        let before = Partition::from_vec(vec![0, 0, 0, 1, 1, 1]);
        let after = Partition::from_vec(vec![0, 0, 1, 1, 1, 1]);
        let total = g.total_edge_weight();
        let agg = community_aggregates(&g, &before);
        // u = 2: ω(2, C\{2}) = 2 (to nodes 0, 1); ω(2, D) = 1 (to node 3)
        let delta = delta_modularity(
            2.0,
            1.0,
            agg.volume[0] - g.volume(2),
            agg.volume[1],
            g.volume(2),
            total,
            1.0,
        );
        let direct = modularity(&g, &after) - modularity(&g, &before);
        assert!(
            (delta - direct).abs() < 1e-12,
            "delta {delta} vs direct {direct}"
        );
    }

    #[test]
    fn empty_graph_scores_zero() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(modularity(&g, &Partition::singleton(0)), 0.0);
        assert_eq!(coverage(&g, &Partition::singleton(0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "partition does not cover")]
    fn mismatched_partition_panics() {
        let g = two_triangles();
        modularity(&g, &Partition::singleton(3));
    }
}
