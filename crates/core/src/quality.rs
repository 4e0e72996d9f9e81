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
//!
//! The scan ([`community_aggregates`]) costs O(n + m). A warm run does not
//! need it: its [`CommunityAggregates`] are carried from the base it
//! started from and patched — by [`CommunityAggregates::apply_edits`] for
//! each edge an edit changed, by the mover patch for each node the run
//! relabeled, and through the compaction that renumbers the result — so Q
//! costs O(k) to read off. On integer weights every sum involved is exact
//! in `f64`, so the carried aggregates equal the scan's bit for bit.

use parcom_graph::{Graph, Node, Partition};
use rayon::prelude::*;

/// Per-community aggregates needed by modularity: intra-community edge
/// weight ω(C) and community volume vol(C), indexed by community id.
#[derive(Clone, Debug, PartialEq)]
pub struct CommunityAggregates {
    /// ω(C): weight of edges inside each community (self-loops once).
    pub intra_weight: Vec<f64>,
    /// vol(C): summed node volumes (self-loops twice).
    pub volume: Vec<f64>,
}

/// The label a run started from `base` gives node `v`: its base label, or
/// — for a node past the base's end, one the graph grew by — a fresh
/// singleton id, counting up from the base's upper bound in node order.
#[inline]
pub fn start_label(base: &Partition, v: Node) -> u32 {
    match base.as_slice().get(v as usize) {
        Some(&c) => c,
        None => base.upper_bound() + (v as usize - base.len()) as u32,
    }
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
    /// All-zero aggregates for `k` community ids.
    fn zeros(k: usize) -> Self {
        Self {
            intra_weight: vec![0.0; k],
            volume: vec![0.0; k],
        }
    }

    /// How many community ids the aggregates cover. For the aggregates of
    /// a dense partition (every detector's result) that is its community
    /// count.
    pub fn len(&self) -> usize {
        self.volume.len()
    }

    /// Whether no community id is covered.
    pub fn is_empty(&self) -> bool {
        self.volume.is_empty()
    }

    /// Covers `k` ids: new ones are empty communities, and only empty
    /// ones may be cut off.
    fn resize(&mut self, k: usize) {
        self.intra_weight.resize(k, 0.0);
        self.volume.resize(k, 0.0);
    }

    /// Σ_C [ ω(C)/ω(E) − γ · vol(C)² / (4 ω(E)²) ] for a graph of total edge
    /// weight `total`; 0 for a graph without edges.
    pub fn modularity(&self, total: f64, gamma: f64) -> f64 {
        if total == 0.0 {
            return 0.0;
        }
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

    /// Σ_C ω(C) / ω(E); 0 for a graph without edges.
    pub fn coverage(&self, total: f64) -> f64 {
        if total == 0.0 {
            return 0.0;
        }
        self.intra_weight.iter().sum::<f64>() / total
    }

    /// The edit patch: turns the aggregates of `zeta` on `old` into those
    /// of the same partition on the graph `old` becomes under `edits`
    /// ([`Graph::overlaid`]'s resolved form: one entry per edge, `Some(w)`
    /// sets its weight, `None` removes it) with `n_new` nodes. Nodes past
    /// `zeta`'s end are in the singleton communities [`start_label`] gives
    /// them, which is how a run started from `zeta` labels them; the ids of
    /// the nodes the edit adds are appended here.
    ///
    /// Each edit changes one edge's weight by `Δ = w_new − w_old`, read off
    /// `old` in O(log d): vol gains Δ at both endpoints' communities (2Δ
    /// for a self-loop), and ω gains Δ when both endpoints share one.
    /// O(|edits| · log d) in all, whatever the size of the graph.
    pub fn apply_edits(
        &mut self,
        zeta: &Partition,
        old: &Graph,
        n_new: usize,
        edits: &[(Node, Node, Option<f64>)],
    ) {
        let n_old = old.node_count();
        let cover = |n: usize| zeta.upper_bound() as usize + (n - zeta.len());
        debug_assert_eq!(
            self.len(),
            cover(n_old),
            "aggregates do not cover the graph"
        );
        self.resize(cover(n_new));
        for &(u, v, w) in edits {
            let w_old = if (u.max(v) as usize) < n_old {
                old.edge_weight(u, v)
            } else {
                None
            };
            let delta = w.unwrap_or(0.0) - w_old.unwrap_or(0.0);
            if delta == 0.0 {
                continue;
            }
            // a self-loop lands in one community twice: 2Δ of volume
            let (cu, cv) = (start_label(zeta, u) as usize, start_label(zeta, v) as usize);
            self.volume[cu] += delta;
            self.volume[cv] += delta;
            if cu == cv {
                self.intra_weight[cu] += delta;
            }
        }
    }

    /// The mover patch: turns the aggregates of the labels a run on `g`
    /// started from — `from`, nodes past its end labelled by
    /// [`start_label`] — into those of `to`, the labels it ended with, and
    /// leaves them covering exactly `to`'s ids. `movers` holds, sorted and
    /// each once, every node whose label may differ: the ones the run
    /// relabeled. Each whose final label does differ from its start label
    /// is replayed at O(deg), in node order, so a neighbour's current label
    /// is its final one if it moved already, its start label otherwise —
    /// the order, and so the sums, of a compare over every node.
    // audit:allow(budget-propagation): O(Σ mover degree), less than the sweeps that relabeled them, which the run's budget already admitted
    pub(crate) fn apply_moves(
        &mut self,
        g: &Graph,
        from: &Partition,
        to: &Partition,
        movers: &[Node],
    ) {
        debug_assert!(movers.windows(2).all(|w| w[0] < w[1]), "movers unsorted");
        let ub = to.upper_bound() as usize;
        self.resize(self.len().max(ub));
        let current = |u: Node, mover: Node| {
            if u < mover {
                to.subset_of(u)
            } else {
                start_label(from, u)
            }
        };
        for &v in movers {
            let (a, b) = (start_label(from, v), to.subset_of(v));
            if a == b {
                continue;
            }
            let (mut to_a, mut to_b) = (0.0, 0.0);
            for (u, w) in g.edges_of(v) {
                if u == v {
                    // a self-loop is inside whichever community v is in
                    to_a += w;
                    to_b += w;
                    continue;
                }
                let c = current(u, v);
                if c == a {
                    to_a += w;
                } else if c == b {
                    to_b += w;
                }
            }
            let (a, b) = (a as usize, b as usize);
            self.volume[a] -= g.volume(v);
            self.volume[b] += g.volume(v);
            self.intra_weight[a] -= to_a;
            self.intra_weight[b] += to_b;
        }
        // every id at or past `to`'s bound has lost all its members
        self.resize(ub);
    }

    /// The mover patch with the movers found by one O(n) compare of every
    /// node's start and final label: the reference the recorded patch is
    /// held to, bit for bit.
    #[cfg(test)]
    pub(crate) fn apply_moves_reference(&mut self, g: &Graph, from: &Partition, to: &Partition) {
        let ub = to.upper_bound() as usize;
        self.resize(self.len().max(ub));
        let current = |u: Node, mover: Node| {
            if u < mover {
                to.subset_of(u)
            } else {
                start_label(from, u)
            }
        };
        for v in g.nodes() {
            let (a, b) = (start_label(from, v), to.subset_of(v));
            if a == b {
                continue;
            }
            let (mut to_a, mut to_b) = (0.0, 0.0);
            for (u, w) in g.edges_of(v) {
                if u == v {
                    // a self-loop is inside whichever community v is in
                    to_a += w;
                    to_b += w;
                    continue;
                }
                let c = current(u, v);
                if c == a {
                    to_a += w;
                } else if c == b {
                    to_b += w;
                }
            }
            let (a, b) = (a as usize, b as usize);
            self.volume[a] -= g.volume(v);
            self.volume[b] += g.volume(v);
            self.intra_weight[a] -= to_a;
            self.intra_weight[b] += to_b;
        }
        // every id at or past `to`'s bound has lost all its members
        self.resize(ub);
    }
}

/// [`Partition::compact`] that carries `agg`, when there is one, along:
/// renumbers `zeta`'s community ids to `0..k` in order of first appearance
/// — the same numbering `compact` gives — and permutes `agg` to match,
/// dropping the ids no node uses. Ids `agg` covers past `zeta`'s upper
/// bound (the singletons of nodes a run will add past `zeta`'s end) keep
/// their order after the `k` renumbered ones.
pub(crate) fn compact_carrying(zeta: &mut Partition, agg: Option<&mut CommunityAggregates>) {
    let Some(agg) = agg else {
        zeta.compact();
        return;
    };
    let ub = zeta.upper_bound() as usize;
    assert!(agg.len() >= ub, "aggregates do not cover the partition");
    let tail = agg.len() - ub;
    let mut out = CommunityAggregates::zeros(agg.len());
    let k = zeta.compact_with(|from, to| {
        out.intra_weight[to as usize] = agg.intra_weight[from as usize];
        out.volume[to as usize] = agg.volume[from as usize];
    });
    out.intra_weight[k..k + tail].copy_from_slice(&agg.intra_weight[ub..]);
    out.volume[k..k + tail].copy_from_slice(&agg.volume[ub..]);
    out.intra_weight.truncate(k + tail);
    out.volume.truncate(k + tail);
    *agg = out;
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
    use std::sync::Arc;

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

    /// `zeta` with the nodes past its end in [`start_label`]'s singletons.
    fn extended(zeta: &Partition, n: usize) -> Partition {
        Partition::from_vec((0..n as Node).map(|v| start_label(zeta, v)).collect())
    }

    fn assert_same_bits(got: &CommunityAggregates, want: &CommunityAggregates, what: &str) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got.intra_weight),
            bits(&want.intra_weight),
            "{what}: ω"
        );
        assert_eq!(bits(&got.volume), bits(&want.volume), "{what}: vol");
    }

    #[test]
    fn the_edit_patch_matches_a_scan_of_the_patched_graph() {
        let g = two_triangles();
        // one node short of the graph: node 5 is a singleton past the end
        let zeta = Partition::from_vec(vec![0, 0, 0, 1, 1]);
        let edits = [
            (0, 1, None),      // an intra edge goes
            (1, 3, Some(2.0)), // an inter edge comes
            (2, 3, Some(4.0)), // an inter edge is reweighted
            (4, 4, Some(3.0)), // a self-loop comes
            (3, 5, None),      // node 5 loses an edge
            (0, 7, Some(1.0)), // the graph grows by 6 and 7
            (6, 6, Some(2.0)), // with a self-loop on the gap node
            (1, 8, None),      // a remove past the end changes nothing
        ];
        let mut agg = community_aggregates(&g, &extended(&zeta, 6));
        agg.apply_edits(&zeta, &g, 8, &edits);
        let patched = Graph::overlaid(&Arc::new(g), 8, &edits[..7]);
        let want = community_aggregates(&patched, &extended(&zeta, 8));
        assert_same_bits(&agg, &want, "patched");
    }

    #[test]
    fn the_mover_patch_and_the_carried_compaction_match_a_scan() {
        let mut b = GraphBuilder::new(7);
        for (u, v, w) in [
            (0, 1, 1.0),
            (1, 2, 2.0),
            (0, 2, 1.0),
            (2, 3, 3.0),
            (3, 4, 1.0),
        ] {
            b.add_edge(u, v, w);
        }
        b.add_edge(4, 4, 5.0);
        b.add_edge(5, 6, 1.0);
        let g = b.build();
        // ids with gaps, two nodes past the end, movers in both directions,
        // one node moving into a fresh id and community 9 emptied
        let from = Partition::from_vec(vec![9, 9, 4, 4, 2]);
        let mut to = Partition::from_vec(vec![4, 4, 4, 2, 2, 11, 2]);
        let mut agg = community_aggregates(&g, &extended(&from, 7));
        let mut reference = agg.clone();
        // node 2 is listed but did not move: it is skipped
        agg.apply_moves(&g, &from, &to, &[0, 1, 2, 3, 5, 6]);
        reference.apply_moves_reference(&g, &from, &to);
        assert_same_bits(&agg, &community_aggregates(&g, &to), "moved");
        assert_same_bits(&agg, &reference, "the O(n) compare");
        let mut plain = to.clone();
        compact_carrying(&mut plain, None);
        compact_carrying(&mut to, Some(&mut agg));
        assert_eq!(to, plain, "the same numbering as compact()");
        assert_same_bits(&agg, &community_aggregates(&g, &to), "compacted");

        // ids past the partition's bound follow the renumbered ones
        let mut base = Partition::from_vec(vec![5, 3, 5]);
        let mut agg = community_aggregates(&g, &extended(&base, 7));
        compact_carrying(&mut base, Some(&mut agg));
        assert_eq!(base.as_slice(), [0, 1, 0]);
        assert_same_bits(&agg, &community_aggregates(&g, &extended(&base, 7)), "tail");
    }

    #[test]
    fn aggregates_read_off_what_the_scan_reports() {
        let g = two_triangles();
        let zeta = Partition::from_vec(vec![0, 0, 0, 1, 1, 1]);
        let agg = community_aggregates(&g, &zeta);
        let total = g.total_edge_weight();
        assert_eq!(agg.len(), 2);
        assert_eq!(agg.modularity(total, 0.5), modularity_gamma(&g, &zeta, 0.5));
        assert_eq!(
            (agg.modularity(total, 1.0), agg.coverage(total)),
            modularity_and_coverage(&g, &zeta)
        );
        assert_eq!((agg.modularity(0.0, 1.0), agg.coverage(0.0)), (0.0, 0.0));
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
