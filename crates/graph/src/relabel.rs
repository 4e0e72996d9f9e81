//! Degree-ordered node relabeling for cache locality.
//!
//! The kernels in `parcom-core` spend most of their time streaming adjacency
//! rows and gathering per-neighbor labels/community weights. When node ids
//! are assigned in input order, a hub's neighbors are scattered across the
//! whole label array and every gather is a cache miss. Relabeling nodes so
//! that high-degree nodes come first (and their neighbors therefore cluster
//! in the hot front of every per-node array) is the classic fix — the
//! BigClam speed-up lineage attributes most of its ~5× to exactly this kind
//! of locality work.
//!
//! A [`Relabeling`] is a permutation kept *with* the relabeled graph:
//! detection runs on the new ids, and partitions/reports are mapped back to
//! original ids at the emission boundary via [`Relabeling::to_original`], so
//! callers never observe the reordering.

use crate::graph::{Graph, Node};
use crate::parallel::{chunk_ranges, default_threads, exclusive_prefix_sum, split_by_ranges};
use crate::partition::Partition;
use rayon::prelude::*;
use std::cmp::Reverse;

/// Below this node count the permutation is applied sequentially; spawning
/// threads costs more than the copy (matches the CSR-assembly threshold).
const SEQ_THRESHOLD: usize = 4096;

/// A bijection between *original* node ids (input order) and *new* node ids
/// (the order the relabeled graph stores), with both directions
/// materialized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relabeling {
    /// `new_of_old[old] = new`.
    new_of_old: Vec<Node>,
    /// `old_of_new[new] = old`.
    old_of_new: Vec<Node>,
}

impl Relabeling {
    /// The hub-first ordering: new id 0 is the highest-degree node, ties
    /// broken by original id, so the ordering is deterministic and
    /// independent of thread count.
    pub fn degree_ordered(g: &Graph) -> Self {
        let n = g.node_count();
        let mut old_of_new: Vec<Node> = (0..n as Node).collect();
        // Keys are unique (id breaks ties), so an unstable sort is
        // deterministic here.
        old_of_new.sort_unstable_by_key(|&v| (Reverse(g.degree(v)), v));
        let mut new_of_old = vec![0 as Node; n];
        for (new, &old) in old_of_new.iter().enumerate() {
            new_of_old[old as usize] = new as Node;
        }
        Self {
            new_of_old,
            old_of_new,
        }
    }

    /// Rebuilds a relabeling from its stored forward map (the binary graph
    /// format persists only `new_of_old`), validating that it is a
    /// permutation.
    pub fn from_new_of_old(new_of_old: Vec<Node>) -> Result<Self, String> {
        let n = new_of_old.len();
        let mut old_of_new = vec![Node::MAX; n];
        for (old, &new) in new_of_old.iter().enumerate() {
            let slot = old_of_new.get_mut(new as usize).ok_or_else(|| {
                format!("relabeling maps node {old} to {new}, out of range (n = {n})")
            })?;
            if *slot != Node::MAX {
                return Err(format!(
                    "relabeling is not a permutation: nodes {} and {old} both map to {new}",
                    *slot
                ));
            }
            *slot = old as Node;
        }
        Ok(Self {
            new_of_old,
            old_of_new,
        })
    }

    /// The identity relabeling on `n` nodes.
    pub fn identity(n: usize) -> Self {
        let ids: Vec<Node> = (0..n as Node).collect();
        Self {
            new_of_old: ids.clone(),
            old_of_new: ids,
        }
    }

    /// Number of nodes the permutation covers.
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// True if the permutation covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// `new_of_old[old] = new` — the map the binary format persists.
    pub fn new_of_old(&self) -> &[Node] {
        &self.new_of_old
    }

    /// `old_of_new[new] = old`.
    pub fn old_of_new(&self) -> &[Node] {
        &self.old_of_new
    }

    /// Applies the permutation to a graph: node `old` of `g` becomes node
    /// `new_of_old[old]` of the result, with identical edges and weights.
    ///
    /// The rebuild is cache-blocked: new-id node ranges are processed in
    /// contiguous chunks, each chunk writing its own disjoint slice of the
    /// new adjacency arrays (no atomics, no post-hoc stitching). Rows are
    /// re-sorted per node since the target mapping permutes their order,
    /// and the caches are summed from the permuted rows like any other
    /// graph's. A unit graph maps to a unit graph: no weights array is
    /// written.
    pub fn apply(&self, g: &Graph) -> Graph {
        let n = g.node_count();
        assert_eq!(
            n,
            self.len(),
            "relabeling covers {} nodes, graph has {n}",
            self.len()
        );

        // New row lengths, then new offsets by prefix sum.
        let parts = if n < SEQ_THRESHOLD {
            1
        } else {
            default_threads()
        };
        let degrees: Vec<u32> = self
            .old_of_new
            .iter()
            .map(|&old| g.degree(old) as u32)
            .collect();
        let offsets = exclusive_prefix_sum(&degrees, parts);
        let adj = *offsets.last().unwrap_or(&0);

        let unit = g.csr_view().weights.is_empty();
        let mut targets = vec![0 as Node; adj];
        let mut weights = vec![0.0f64; if unit { 0 } else { adj }];
        let node_ranges = chunk_ranges(n, parts);
        // The adjacency slice each node-chunk owns.
        let adj_ranges: Vec<std::ops::Range<usize>> = node_ranges
            .iter()
            .map(|r| offsets[r.start]..offsets[r.end])
            .collect();
        {
            let t_parts = split_by_ranges(&mut targets, &adj_ranges);
            let w_parts = match unit {
                true => node_ranges.iter().map(|_| &mut [][..]).collect(),
                false => split_by_ranges(&mut weights, &adj_ranges),
            };
            node_ranges
                .iter()
                .zip(t_parts.into_iter().zip(w_parts))
                .collect::<Vec<_>>()
                .into_par_iter()
                .for_each(|(range, (t_out, w_out))| {
                    let base = offsets[range.start];
                    let mut row: Vec<(Node, f64)> = Vec::new();
                    for new_u in range.clone() {
                        let old_u = self.old_of_new[new_u];
                        row.clear();
                        row.extend(
                            g.edges_of(old_u)
                                .map(|(v, w)| (self.new_of_old[v as usize], w)),
                        );
                        // Unique targets within a row, so the unstable sort
                        // is deterministic.
                        row.sort_unstable_by_key(|&(v, _)| v);
                        let lo = offsets[new_u] - base;
                        for (i, &(v, w)) in row.iter().enumerate() {
                            t_out[lo + i] = v;
                            if !unit {
                                w_out[lo + i] = w;
                            }
                        }
                    }
                });
        }
        Graph::from_csr(offsets, targets, weights)
    }

    /// Maps a partition over the *relabeled* graph back to original ids:
    /// `out[old] = p[new_of_old[old]]`. Community ids are unchanged, so
    /// modularity and community sizes are identical by construction.
    pub fn to_original(&self, p: &Partition) -> Partition {
        assert_eq!(p.len(), self.len());
        Partition::from_vec(
            self.new_of_old
                .iter()
                .map(|&new| p.subset_of(new))
                .collect(),
        )
    }

    /// Maps a partition over the *original* graph to new ids:
    /// `out[new] = p[old_of_new[new]]`. Inverse of [`Self::to_original`].
    pub fn to_new(&self, p: &Partition) -> Partition {
        assert_eq!(p.len(), self.len());
        Partition::from_vec(
            self.old_of_new
                .iter()
                .map(|&old| p.subset_of(old))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn star_plus_path() -> Graph {
        // Node 3 is the hub (degree 4); 0-1-2 a path hanging off it.
        let mut b = GraphBuilder::new(5);
        b.add_unweighted_edge(3, 0);
        b.add_unweighted_edge(3, 1);
        b.add_unweighted_edge(3, 2);
        b.add_unweighted_edge(3, 4);
        b.add_edge(0, 1, 2.0);
        b.build()
    }

    #[test]
    fn degree_ordered_puts_hub_first() {
        let g = star_plus_path();
        let r = Relabeling::degree_ordered(&g);
        // The hub (3) gets new id 0; ties (degree-2 nodes 0 and 1, then
        // degree-1 nodes 2 and 4) break by original id.
        assert_eq!(r.new_of_old(), &[1, 2, 3, 0, 4]);
    }

    #[test]
    fn apply_preserves_structure() {
        let g = star_plus_path();
        let r = Relabeling::degree_ordered(&g);
        let h = r.apply(&g);
        assert_eq!(h.node_count(), g.node_count());
        assert_eq!(h.edge_count(), g.edge_count());
        assert_eq!(h.total_edge_weight(), g.total_edge_weight());
        // audit:allow(lossy-cast): bounded by the u32 node id space
        for old in 0..g.node_count() as Node {
            let new = r.new_of_old()[old as usize];
            assert_eq!(h.degree(new), g.degree(old));
            assert_eq!(h.weighted_degree(new), g.weighted_degree(old));
            let mut want: Vec<Node> = g
                .neighbors(old)
                .iter()
                .map(|&v| r.new_of_old()[v as usize])
                .collect();
            want.sort_unstable();
            assert_eq!(h.neighbors(new), &want[..]);
            for &v_new in h.neighbors(new) {
                let v_old = r.old_of_new()[v_new as usize];
                assert_eq!(h.edge_weight(new, v_new), g.edge_weight(old, v_old));
            }
        }
    }

    #[test]
    fn identity_roundtrip() {
        let g = star_plus_path();
        let r = Relabeling::identity(g.node_count());
        assert_eq!(r.new_of_old(), &[0, 1, 2, 3, 4]);
        let h = r.apply(&g);
        // audit:allow(lossy-cast): bounded by the u32 node id space
        for u in 0..g.node_count() as Node {
            assert_eq!(h.neighbors(u), g.neighbors(u));
        }
    }

    #[test]
    fn partition_mapping_roundtrips() {
        let g = star_plus_path();
        let r = Relabeling::degree_ordered(&g);
        let on_new = Partition::from_vec(vec![0, 0, 1, 1, 2]);
        let on_old = r.to_original(&on_new);
        assert_eq!(r.to_new(&on_old), on_new);
        for old in 0..5 {
            assert_eq!(
                on_old.subset_of(old),
                on_new.subset_of(r.new_of_old()[old as usize])
            );
        }
    }

    #[test]
    fn from_new_of_old_validates() {
        assert!(Relabeling::from_new_of_old(vec![1, 0, 2]).is_ok());
        let dup = Relabeling::from_new_of_old(vec![0, 0, 2]);
        assert!(dup.unwrap_err().contains("not a permutation"));
        let oob = Relabeling::from_new_of_old(vec![0, 5, 2]);
        assert!(oob.unwrap_err().contains("out of range"));
        let r = Relabeling::from_new_of_old(vec![2, 0, 1]).unwrap();
        assert_eq!(r.old_of_new(), &[1, 2, 0]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        let r = Relabeling::degree_ordered(&g);
        assert!(r.is_empty());
        let h = r.apply(&g);
        assert_eq!(h.node_count(), 0);
    }

    #[test]
    fn self_loops_survive() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 0, 3.0);
        b.add_unweighted_edge(0, 1);
        b.add_unweighted_edge(1, 2);
        let g = b.build();
        let r = Relabeling::degree_ordered(&g);
        let h = r.apply(&g);
        let new0 = r.new_of_old()[0];
        assert_eq!(h.self_loop_weight(new0), 3.0);
        assert_eq!(h.total_edge_weight(), g.total_edge_weight());
        assert_eq!(h.volume(new0), g.volume(0));
    }
}
