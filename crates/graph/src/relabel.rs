//! Degree-ordered node relabeling, kept only to read old `.pcg` files.
//!
//! Older `parcom convert --relabel` runs and daemon checkpoints of a
//! relabeled load stored the graph hub-first, with the permutation in
//! section 6 (DESIGN.md §15). The `.pcg` reader maps such a file back to
//! original ids once, at load, with [`Relabeling::from_new_of_old`] and
//! [`Relabeling::inverse`]; nothing downstream ever holds a permuted view.
//! The feature itself was retired on measurement: a hub-first order saved
//! at most 20 % on a community-rich LFR graph and cost up to 2.2× on R-MAT,
//! because PLP's and PLM's visiting order decides their result, not the
//! memory layout (ROADMAP item 5). [`Relabeling::degree_ordered`] and
//! [`Relabeling::apply`] stay because the benchmark still times them.

use crate::graph::{Graph, Node};
use crate::parallel::{chunk_ranges, default_threads, exclusive_prefix_sum, split_by_ranges};
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

    /// `new_of_old[old] = new` — the map the binary format persists.
    pub fn new_of_old(&self) -> &[Node] {
        &self.new_of_old
    }

    /// The inverse permutation, in O(1): both directions are stored, so
    /// this swaps them. `r.inverse().apply(&r.apply(g))` is `g`.
    pub fn inverse(self) -> Self {
        Self {
            new_of_old: self.old_of_new,
            old_of_new: self.new_of_old,
        }
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
    // audit:allow(budget-propagation): O(n + m) once per legacy `.pcg` load, whose header the decoder admitted against the budget
    pub fn apply(&self, g: &Graph) -> Graph {
        let n = g.node_count();
        assert_eq!(
            n,
            self.new_of_old.len(),
            "relabeling covers {} nodes, graph has {n}",
            self.new_of_old.len()
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
        let old_of_new = r.clone().inverse();
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
                let v_old = old_of_new.new_of_old()[v_new as usize];
                assert_eq!(h.edge_weight(new, v_new), g.edge_weight(old, v_old));
            }
        }
    }

    #[test]
    fn identity_roundtrip() {
        // The inverse undoes the permutation down to the CSR's bits.
        let g = star_plus_path();
        let r = Relabeling::degree_ordered(&g);
        let h = r.clone().inverse().apply(&r.apply(&g));
        let (a, b) = (g.csr_view(), h.csr_view());
        assert_eq!((a.offsets, a.targets), (b.offsets, b.targets));
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.weights), bits(b.weights));
        assert_eq!(bits(a.weighted_degrees), bits(b.weighted_degrees));
    }

    #[test]
    fn from_new_of_old_validates() {
        assert!(Relabeling::from_new_of_old(vec![1, 0, 2]).is_ok());
        let dup = Relabeling::from_new_of_old(vec![0, 0, 2]);
        assert!(dup.unwrap_err().contains("not a permutation"));
        let oob = Relabeling::from_new_of_old(vec![0, 5, 2]);
        assert!(oob.unwrap_err().contains("out of range"));
        let r = Relabeling::from_new_of_old(vec![2, 0, 1]).unwrap();
        assert_eq!(r.inverse().new_of_old(), &[1, 2, 0]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        let r = Relabeling::degree_ordered(&g);
        assert!(r.new_of_old().is_empty());
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
