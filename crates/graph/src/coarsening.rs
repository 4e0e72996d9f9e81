//! Parallel graph coarsening by community contraction (§III-B).
//!
//! Given a graph `G` and a partition ζ, every community becomes a single
//! coarse node. An edge between coarse nodes carries the summed weight of all
//! inter-community edges; intra-community weight (including existing
//! self-loops) becomes a self-loop on the coarse node. The mapping π from
//! fine to coarse nodes is returned so solutions on the coarse graph can be
//! *prolonged* back.
//!
//! The contraction aggregates per coarse node instead of sorting edges
//! (NetworKit's `ParallelPartitionCoarsening` shape): a counting sort groups
//! the fine nodes by coarse id, then one worker per coarse node `c` tallies
//! its members' edges into a flat [`crate::scratch::SparseWeightMap`],
//! keeping only targets `d >= c`, and sorts the few touched keys — an
//! upper-triangular row. The coarse ids are cut into ranges of near-equal
//! member *edge* count, several per thread, claimed dynamically. One
//! sequential pass over the coarse edges mirrors the rows into full CSR.
//! Work is O(m) for the tally plus O(m' log deg') on the coarse graph; no
//! per-edge tuple is ever materialised.
//!
//! Every coarse weight is summed by exactly one worker in (member id, CSR)
//! order and written to both endpoint rows from that one sum, so the output
//! is bit-identical at every thread count and symmetric by construction.

use crate::graph::{Graph, Node};
use crate::parallel::{weighted_ranges, DYNAMIC_PIECES};
use crate::partition::Partition;
use crate::scratch::ScratchPool;
use parcom_obs::Recorder;
use rayon::prelude::*;

/// Result of contracting a graph by a partition.
#[derive(Clone, Debug)]
pub struct Coarsening {
    /// The contracted graph `G'` (one node per non-empty community).
    pub coarse: Graph,
    /// π: fine node -> coarse node (dense ids `0..coarse.node_count()`).
    pub fine_to_coarse: Vec<Node>,
}

impl Coarsening {
    /// Prolongs a solution on the coarse graph to the fine graph:
    /// `ζ(v) = ζ'(π(v))`.
    // audit:allow(budget-propagation): one bounded parallel map per level; callers check the budget at level boundaries
    pub fn prolong(&self, coarse_solution: &Partition) -> Partition {
        assert_eq!(coarse_solution.len(), self.coarse.node_count());
        let data: Vec<u32> = self
            .fine_to_coarse
            .par_iter()
            .map(|&c| coarse_solution.subset_of(c))
            .collect();
        Partition::from_vec(data)
    }
}

/// Contracts `g` according to `zeta` (parallel).
///
/// # Examples
///
/// ```
/// use parcom_graph::{coarsen, GraphBuilder, Partition};
///
/// // a path 0-1-2-3 contracted into two pairs
/// let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let zeta = Partition::from_vec(vec![0, 0, 1, 1]);
/// let c = coarsen(&g, &zeta);
///
/// assert_eq!(c.coarse.node_count(), 2);
/// assert_eq!(c.coarse.self_loop_weight(0), 1.0); // intra edge 0-1
/// assert_eq!(c.coarse.edge_weight(0, 1), Some(1.0)); // the cut edge 1-2
/// ```
pub fn coarsen(g: &Graph, zeta: &Partition) -> Coarsening {
    coarsen_with(g, zeta, &Recorder::disabled())
}

/// [`coarsen`] with phase-level instrumentation: wraps the contraction in
/// a `coarsen` span and records the merge count (fine nodes absorbed into
/// other nodes) plus the coarse graph's size on it. With a disabled
/// recorder this is exactly `coarsen`.
// audit:allow(budget-propagation): one contraction per level; callers check the budget at level boundaries
pub fn coarsen_with(g: &Graph, zeta: &Partition, rec: &Recorder) -> Coarsening {
    assert_eq!(zeta.len(), g.node_count());
    let span = rec.span("coarsen");

    // Dense community ids in first-seen order, on a copy: the caller's
    // partition stays as it is.
    let mut dense = zeta.clone();
    let k = dense.compact();
    let fine_to_coarse: Vec<Node> = dense.into_vec();

    // Counting sort of the fine nodes by coarse id; members of one coarse
    // node end up contiguous, in ascending fine id. `work` is the same
    // prefix over the members' adjacency entries (+ 1 per member): what
    // tallying a coarse node costs.
    let mut member_offsets = vec![0usize; k + 1];
    let mut work = vec![0usize; k + 1];
    for (u, &c) in g.nodes().zip(&fine_to_coarse) {
        member_offsets[c as usize + 1] += 1;
        work[c as usize + 1] += g.degree(u) + 1;
    }
    for c in 0..k {
        member_offsets[c + 1] += member_offsets[c];
        work[c + 1] += work[c];
    }
    let mut members: Vec<Node> = vec![0; fine_to_coarse.len()];
    let mut cursor = member_offsets.clone();
    for (u, &c) in g.nodes().zip(&fine_to_coarse) {
        members[cursor[c as usize]] = u;
        cursor[c as usize] += 1;
    }

    // Upper-triangular rows: coarse node c keeps the targets d >= c. An
    // inter-community edge is seen from both sides and kept by the smaller
    // one; an intra-community edge is counted from its v >= u side, a fine
    // self-loop once. Several parts per thread, each a contiguous range of
    // coarse ids covering a near-equal share of `work`, handed out to
    // whichever thread is free; a thread reuses one tally map across its
    // parts. The rows are concatenated in coarse-id order, so where the
    // cuts fall changes nothing downstream.
    let f2c = &fine_to_coarse;
    let scratch = ScratchPool::new();
    let upper: Vec<UpperRows> = weighted_ranges(&work, DYNAMIC_PIECES)
        .into_par_iter()
        .map(|coarse_ids| {
            let mut tally = scratch.take(k);
            let mut rows = UpperRows::default();
            let mut row: Vec<(Node, f64)> = Vec::new();
            for c in coarse_ids {
                let id = c as Node;
                tally.clear();
                for &u in &members[member_offsets[c]..member_offsets[c + 1]] {
                    for (v, w) in g.edges_of(u) {
                        let d = f2c[v as usize];
                        if d > id || (d == id && v >= u) {
                            tally.add(d, w);
                        }
                    }
                }
                row.clear();
                row.extend(tally.iter());
                row.sort_unstable_by_key(|&(d, _)| d);
                rows.lens.push(row.len());
                rows.targets.extend(row.iter().map(|&(d, _)| d));
                rows.weights.extend(row.iter().map(|&(_, w)| w));
            }
            rows
        })
        .collect();

    parcom_guard::faultpoint!("graph/coarsen-merge");
    let result = Coarsening {
        coarse: mirror(&upper),
        fine_to_coarse,
    };
    span.counter(
        "merges",
        (g.node_count() - result.coarse.node_count()) as u64,
    );
    span.counter("coarse-nodes", result.coarse.node_count() as u64);
    span.counter("coarse-edges", result.coarse.edge_count() as u64);
    #[cfg(any(debug_assertions, feature = "validate"))]
    if let Err(e) = validate_coarsening(g, &result) {
        panic!("coarsen() postcondition violated: {e}");
    }
    result
}

/// A contiguous run of upper-triangular coarse rows (targets `d >= c`,
/// ascending), as one worker produced them.
#[derive(Default)]
struct UpperRows {
    lens: Vec<usize>,
    targets: Vec<Node>,
    weights: Vec<f64>,
}

impl UpperRows {
    fn rows(&self) -> impl Iterator<Item = (&[Node], &[f64])> {
        let mut at = 0;
        self.lens.iter().map(move |&len| {
            let row = at..at + len;
            at += len;
            (&self.targets[row.clone()], &self.weights[row])
        })
    }
}

/// Expands the upper triangle (`parts` in coarse-id order) into full CSR in
/// one pass over the coarse edges. Walking the rows in ascending `c`, every
/// mirror entry `(d, c)` with `c < d` lands in row `d` before row `d`'s own
/// entries are appended, so each full row comes out sorted; both directions
/// copy the same sum.
fn mirror(parts: &[UpperRows]) -> Graph {
    let rows = || parts.iter().flat_map(UpperRows::rows).enumerate();
    let k = parts.iter().map(|p| p.lens.len()).sum();
    let mut offsets = vec![0usize; k + 1];
    for (c, (targets, _)) in rows() {
        offsets[c + 1] += targets.len();
        for &d in targets.iter().filter(|&&d| d as usize != c) {
            offsets[d as usize + 1] += 1;
        }
    }
    for c in 0..k {
        offsets[c + 1] += offsets[c];
    }
    let mut targets: Vec<Node> = vec![0; offsets[k]];
    let mut weights = vec![0.0f64; offsets[k]];
    let mut cursor = offsets[..k].to_vec();
    for (c, (row_targets, row_weights)) in rows() {
        for (&d, &w) in row_targets.iter().zip(row_weights) {
            targets[cursor[c]] = d;
            weights[cursor[c]] = w;
            cursor[c] += 1;
            if d as usize != c {
                targets[cursor[d as usize]] = c as Node;
                weights[cursor[d as usize]] = w;
                cursor[d as usize] += 1;
            }
        }
    }
    Graph::from_csr(offsets, targets, weights)
}

/// Cross-checks a contraction against its fine graph: the mapping covers
/// every fine node with in-range coarse ids, and contraction conserved the
/// total edge weight (inter-community weight moved onto coarse edges,
/// intra-community weight onto self-loops — nothing lost, nothing double
/// counted). Compiled in debug builds or with the `validate` feature.
#[cfg(any(debug_assertions, feature = "validate"))]
pub fn validate_coarsening(fine: &Graph, c: &Coarsening) -> Result<(), String> {
    if c.fine_to_coarse.len() != fine.node_count() {
        return Err(format!(
            "fine-to-coarse mapping covers {} nodes, fine graph has {}",
            c.fine_to_coarse.len(),
            fine.node_count()
        ));
    }
    let k = c.coarse.node_count();
    for (v, &cv) in c.fine_to_coarse.iter().enumerate() {
        if cv as usize >= k {
            return Err(format!(
                "fine node {v} maps to coarse node {cv}, coarse graph has {k} nodes"
            ));
        }
    }
    let fine_total = fine.total_edge_weight();
    let coarse_total = c.coarse.total_edge_weight();
    if (fine_total - coarse_total).abs() > 1e-9 * fine_total.abs().max(1.0) {
        return Err(format!(
            "contraction changed the total edge weight: fine {fine_total}, coarse {coarse_total}"
        ));
    }
    c.coarse.validate()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Two triangles joined by one edge; partition = the two triangles.
    fn two_triangles() -> (Graph, Partition) {
        let g =
            GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let p = Partition::from_vec(vec![0, 0, 0, 1, 1, 1]);
        (g, p)
    }

    #[test]
    fn contracts_to_community_graph() {
        let (g, p) = two_triangles();
        let c = coarsen(&g, &p);
        assert_eq!(c.coarse.node_count(), 2);
        // intra weight 3 per triangle becomes a self-loop; one cut edge
        assert_eq!(c.coarse.self_loop_weight(0), 3.0);
        assert_eq!(c.coarse.self_loop_weight(1), 3.0);
        assert_eq!(c.coarse.edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn preserves_total_edge_weight() {
        let (g, p) = two_triangles();
        let c = coarsen(&g, &p);
        assert_eq!(c.coarse.total_edge_weight(), g.total_edge_weight());
    }

    #[test]
    fn preserves_volume_per_community() {
        let (g, p) = two_triangles();
        let c = coarsen(&g, &p);
        for cu in c.coarse.nodes() {
            let fine_vol: f64 = g
                .nodes()
                .filter(|&v| c.fine_to_coarse[v as usize] == cu)
                .map(|v| g.volume(v))
                .sum();
            assert!((c.coarse.volume(cu) - fine_vol).abs() < 1e-12);
        }
    }

    #[test]
    fn singleton_partition_preserves_structure() {
        let (g, _) = two_triangles();
        let c = coarsen(&g, &Partition::singleton(6));
        assert_eq!(c.coarse.node_count(), g.node_count());
        assert_eq!(c.coarse.edge_count(), g.edge_count());
        for u in g.nodes() {
            assert_eq!(
                c.coarse.neighbors(c.fine_to_coarse[u as usize]).len(),
                g.degree(u)
            );
        }
    }

    #[test]
    fn all_in_one_collapses_to_single_loop() {
        let (g, _) = two_triangles();
        let c = coarsen(&g, &Partition::all_in_one(6));
        assert_eq!(c.coarse.node_count(), 1);
        assert_eq!(c.coarse.edge_count(), 1);
        assert_eq!(c.coarse.self_loop_weight(0), 7.0);
    }

    #[test]
    fn handles_noncontiguous_community_ids() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (2, 3), (1, 2)]);
        let p = Partition::from_vec(vec![10, 10, 99, 99]);
        let c = coarsen(&g, &p);
        assert_eq!(c.coarse.node_count(), 2);
        assert_eq!(c.coarse.edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn prolong_maps_back() {
        let (g, p) = two_triangles();
        let c = coarsen(&g, &p);
        // coarse solution: both communities merge into one
        let coarse_sol = Partition::all_in_one(2);
        let fine = c.prolong(&coarse_sol);
        assert_eq!(fine.len(), g.node_count());
        assert_eq!(fine.number_of_subsets(), 1);

        // identity coarse solution reproduces the original grouping
        let fine2 = c.prolong(&Partition::singleton(2));
        for u in 0..6u32 {
            for v in 0..6u32 {
                assert_eq!(p.in_same_subset(u, v), fine2.in_same_subset(u, v));
            }
        }
    }

    #[test]
    fn self_loops_carry_into_coarse_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 2.0);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        let c = coarsen(&g, &Partition::all_in_one(2));
        assert_eq!(c.coarse.self_loop_weight(0), 3.0);
        assert_eq!(c.coarse.total_edge_weight(), g.total_edge_weight());
    }

    #[test]
    fn empty_graph_coarsens() {
        let g = GraphBuilder::new(0).build();
        let c = coarsen(&g, &Partition::singleton(0));
        assert_eq!(c.coarse.node_count(), 0);
    }
}
