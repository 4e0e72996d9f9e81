//! Incremental graph construction.
//!
//! [`GraphBuilder`] accumulates edges in any order and assembles the CSR
//! [`Graph`] fully in parallel and in place: per-thread degree histograms
//! merged with a parallel prefix sum, a partitioned scatter where each
//! thread owns a disjoint node range (and therefore a disjoint contiguous
//! region of the flat arrays — no `unsafe`, no atomics), in-place per-row
//! sort + duplicate merge, and compaction driven by a second prefix sum.
//! Parallel edges are merged by summing their weights — the convention
//! graph coarsening relies on (§III-B) — in a canonical order (sorted by
//! neighbor, then weight bit pattern), so the merged `f64` is bit-identical
//! regardless of edge insertion order. See DESIGN.md §10.

use crate::graph::{Graph, Node};
use crate::parallel::{chunk_ranges, exclusive_prefix_sum, split_by_ranges};
use rayon::prelude::*;

/// Below this many pending edges the assembly runs as a single part; the
/// parallel machinery degenerates to the sequential loop without spawning.
const MIN_EDGES_PER_PART: usize = 1 << 13;

/// Builds a [`Graph`] from a stream of edges.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    /// Edges as added, canonicalized to `u <= v`.
    edges: Vec<(Node, Node, f64)>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "node count exceeds u32 id space");
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates space for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Number of nodes the built graph will have.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges added so far (before duplicate merging).
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}` with weight `w`. Duplicate edges are
    /// merged at build time by summing weights. Panics if an endpoint is out
    /// of range or the weight is not finite and positive.
    pub fn add_edge(&mut self, u: Node, v: Node, w: f64) {
        assert!((u as usize) < self.n, "node {u} out of range");
        assert!((v as usize) < self.n, "node {v} out of range");
        assert!(
            w.is_finite() && w > 0.0,
            "edge weight must be positive and finite"
        );
        self.edges.push(if u <= v { (u, v, w) } else { (v, u, w) });
    }

    /// Adds an unweighted (weight 1) edge.
    #[inline]
    pub fn add_unweighted_edge(&mut self, u: Node, v: Node) {
        self.add_edge(u, v, 1.0);
    }

    /// Bulk-adds weighted edges from a parallel iterator: validation and
    /// canonicalization run on the worker threads and the per-part results
    /// concatenate in input order, so generators and parsers can feed
    /// edges straight from rayon without a serial `add_edge` loop.
    /// Panics (propagated from the workers) on the same conditions as
    /// [`add_edge`](Self::add_edge).
    pub fn par_extend<P>(&mut self, edges: P)
    where
        P: ParallelIterator<Item = (Node, Node, f64)>,
    {
        let n = self.n;
        let mut canon: Vec<(Node, Node, f64)> = edges
            .map(move |(u, v, w)| {
                assert!((u as usize) < n, "node {u} out of range");
                assert!((v as usize) < n, "node {v} out of range");
                assert!(
                    w.is_finite() && w > 0.0,
                    "edge weight must be positive and finite"
                );
                if u <= v {
                    (u, v, w)
                } else {
                    (v, u, w)
                }
            })
            .collect();
        if self.edges.is_empty() {
            self.edges = canon;
        } else {
            self.edges.append(&mut canon);
        }
    }

    /// Bulk-adds an owned edge vector: validation and canonicalization run
    /// in place (a parallel read-modify-write pass, no intermediate
    /// collect), and the vector itself is moved into the builder when it
    /// is the first batch — the zero-copy path the chunked parsers use to
    /// hand over their per-chunk edge lists. Panics on the same conditions
    /// as [`add_edge`](Self::add_edge).
    pub fn extend_edges(&mut self, mut edges: Vec<(Node, Node, f64)>) {
        let n = self.n;
        edges.par_iter_mut().for_each(|e| {
            let (u, v, w) = *e;
            assert!((u as usize) < n, "node {u} out of range");
            assert!((v as usize) < n, "node {v} out of range");
            assert!(
                w.is_finite() && w > 0.0,
                "edge weight must be positive and finite"
            );
            if u > v {
                *e = (v, u, w);
            }
        });
        self.take_or_append(edges);
    }

    /// Moves an edge vector into the builder with no validation pass:
    /// every edge must already be canonical (`u <= v`) with in-range
    /// endpoints and a positive finite weight — the contract the chunked
    /// parsers establish while parsing (a METIS adjacency line for node
    /// `u` only keeps neighbors `v >= u`, range-checked on the spot).
    /// The contract is re-checked in debug builds; use
    /// [`extend_edges`](Self::extend_edges) for edges of unknown
    /// provenance.
    pub fn extend_canonical(&mut self, edges: Vec<(Node, Node, f64)>) {
        #[cfg(debug_assertions)]
        for &(u, v, w) in &edges {
            debug_assert!(u <= v, "edge ({u}, {v}) is not canonical");
            debug_assert!((v as usize) < self.n, "node {v} out of range");
            debug_assert!(
                w.is_finite() && w > 0.0,
                "edge weight must be positive and finite"
            );
        }
        self.take_or_append(edges);
    }

    /// Keeps the zero-copy promise of the bulk paths: the first batch's
    /// vector is moved in whole (unless a larger reservation already
    /// exists), later batches append.
    fn take_or_append(&mut self, mut edges: Vec<(Node, Node, f64)>) {
        if self.edges.is_empty() && self.edges.capacity() < edges.len() {
            self.edges = edges;
        } else {
            self.edges.append(&mut edges);
        }
    }

    /// Consumes the builder and assembles the CSR graph in parallel.
    ///
    /// The result is bit-identical to [`build_reference`](Self::build_reference)
    /// for every edge multiset, independent of insertion order and thread
    /// count: rows are sorted by `(neighbor, weight bit pattern)` before
    /// duplicate weights are summed, which fixes one canonical summation
    /// order per row.
    pub fn build(self) -> Graph {
        parcom_guard::faultpoint!("graph/csr-assembly");
        let n = self.n;
        let edges = self.edges;
        let m = edges.len();

        // Histogram counts are u32; cap part sizes so a per-part count can
        // never overflow, and leave the (out-of-memory-territory) huge-m
        // case to the reference assembly.
        if m >= (1usize << 31) {
            return Self { n, edges }.build_reference();
        }

        let threads = rayon::current_num_threads().max(1);
        let parts = threads.min(m.div_ceil(MIN_EDGES_PER_PART)).max(1);

        // Phase 1a: per-part degree histograms over disjoint edge chunks.
        let edge_ranges = chunk_ranges(m, parts);
        let histograms: Vec<Vec<u32>> = edge_ranges
            .par_iter()
            .map(|r| {
                let mut counts = vec![0u32; n];
                for &(u, v, _) in &edges[r.clone()] {
                    counts[u as usize] += 1;
                    if u != v {
                        counts[v as usize] += 1;
                    }
                }
                counts
            })
            .collect();

        // Phase 1b: merge histograms into per-node degrees, parallel over
        // disjoint node ranges.
        let node_ranges = chunk_ranges(n, parts);
        let mut degree = vec![0u32; n];
        {
            let pieces = split_by_ranges(&mut degree, &node_ranges);
            node_ranges
                .iter()
                .zip(pieces)
                .collect::<Vec<_>>()
                .into_par_iter()
                .for_each(|(r, piece)| {
                    for h in &histograms {
                        for (slot, &c) in piece.iter_mut().zip(&h[r.clone()]) {
                            *slot += c;
                        }
                    }
                });
        }
        drop(histograms);

        // Phase 1c: row offsets via a parallel exclusive prefix sum.
        let offsets = exclusive_prefix_sum(&degree, parts);
        drop(degree);
        let total = offsets[n];

        // Phase 2+3: partitioned scatter, then in-place per-row sort and
        // duplicate merge. Each part owns a contiguous node range and hence
        // a contiguous region of the flat arrays; it scans the whole edge
        // list but writes only rows it owns, in insertion order, so the
        // scatter itself is deterministic. `merged_len[u]` is the row length
        // after duplicate merging.
        let mut targets = vec![0 as Node; total];
        let mut weights = vec![0.0f64; total];
        let mut merged_len = vec![0u32; n];
        {
            let region_bounds: Vec<std::ops::Range<usize>> = node_ranges
                .iter()
                .map(|r| offsets[r.start]..offsets[r.end])
                .collect();
            let t_regions = split_by_ranges(&mut targets, &region_bounds);
            let w_regions = split_by_ranges(&mut weights, &region_bounds);
            let l_regions = split_by_ranges(&mut merged_len, &node_ranges);
            let edges = &edges;
            let offsets = &offsets;
            node_ranges
                .iter()
                .zip(t_regions)
                .zip(w_regions)
                .zip(l_regions)
                .collect::<Vec<_>>()
                .into_par_iter()
                .for_each(|(((nodes, t_reg), w_reg), l_reg)| {
                    let base = offsets[nodes.start];
                    // Region-relative write cursors, one per owned node.
                    let mut cursor: Vec<usize> = offsets[nodes.start..nodes.end]
                        .iter()
                        .map(|&o| o - base)
                        .collect();
                    let mut place = |node: Node, other: Node, w: f64| {
                        let i = node as usize - nodes.start;
                        let at = cursor[i];
                        t_reg[at] = other;
                        w_reg[at] = w;
                        cursor[i] = at + 1;
                    };
                    for &(u, v, w) in edges {
                        if nodes.contains(&(u as usize)) {
                            place(u, v, w);
                        }
                        if u != v && nodes.contains(&(v as usize)) {
                            place(v, u, w);
                        }
                    }

                    // Per-row sort + merge, reusing one scratch buffer for
                    // the whole region (no per-row allocation). Sorting by
                    // (neighbor, weight bits) fixes the duplicate summation
                    // order, making the merged weight order-independent.
                    let mut scratch: Vec<(Node, f64)> = Vec::new();
                    for u in nodes.clone() {
                        let row = offsets[u] - base..offsets[u + 1] - base;
                        scratch.clear();
                        scratch.extend(
                            t_reg[row.clone()]
                                .iter()
                                .copied()
                                .zip(w_reg[row.clone()].iter().copied()),
                        );
                        scratch.sort_unstable_by_key(|&(v, w)| (v, w.to_bits()));
                        let mut out = row.start;
                        for &(v, w) in scratch.iter() {
                            if out > row.start && t_reg[out - 1] == v {
                                w_reg[out - 1] += w;
                            } else {
                                t_reg[out] = v;
                                w_reg[out] = w;
                                out += 1;
                            }
                        }
                        l_reg[u - nodes.start] = (out - row.start) as u32;
                    }

                    // Phase 4a: region-local compaction — shift merged rows
                    // left so the region's live entries are contiguous at
                    // its base. Pure no-op when nothing merged.
                    let mut dst = 0usize;
                    for u in nodes.clone() {
                        let src = offsets[u] - base;
                        let len = l_reg[u - nodes.start] as usize;
                        if src != dst {
                            t_reg.copy_within(src..src + len, dst);
                            w_reg.copy_within(src..src + len, dst);
                        }
                        dst += len;
                    }
                });
        }
        drop(edges);

        // Phase 4b: final offsets via the second prefix sum, then stitch
        // the per-region compacted blocks together. Every block moves left
        // (compaction only shrinks), so in-order `copy_within` is safe and
        // no reassembly allocation is needed.
        let new_offsets = exclusive_prefix_sum(&merged_len, parts);
        let new_total = new_offsets[n];
        if new_total != total {
            for r in &node_ranges {
                let src = offsets[r.start];
                let dst = new_offsets[r.start];
                let len = new_offsets[r.end] - new_offsets[r.start];
                if src != dst && len > 0 {
                    targets.copy_within(src..src + len, dst);
                    weights.copy_within(src..src + len, dst);
                }
            }
            targets.truncate(new_total);
            weights.truncate(new_total);
        }

        Graph::from_csr(new_offsets, targets, weights)
    }

    /// The retained sequential reference assembly (the pre-parallel
    /// implementation, plus the canonical duplicate ordering): counting
    /// sort into rows, per-row sort by `(neighbor, weight bits)`, merge by
    /// summing, reassemble. [`build`](Self::build) falls back to it for
    /// m ≥ 2³¹ (its per-part histograms count in `u32`), and the
    /// differential tests pin `build` against it.
    pub fn build_reference(self) -> Graph {
        let n = self.n;
        let edges = self.edges;

        // Count row sizes: each non-loop edge lands in both rows, loops once.
        let mut counts = vec![0usize; n + 1];
        for &(u, v, _) in &edges {
            counts[u as usize + 1] += 1;
            if u != v {
                counts[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts; // offsets[u]..offsets[u+1] is row u (after scatter)

        // Scatter.
        let total = *offsets.last().unwrap();
        let mut targets = vec![0 as Node; total];
        let mut weights = vec![0.0f64; total];
        let mut cursor = offsets.clone();
        for &(u, v, w) in &edges {
            let i = cursor[u as usize];
            targets[i] = v;
            weights[i] = w;
            cursor[u as usize] += 1;
            if u != v {
                let j = cursor[v as usize];
                targets[j] = u;
                weights[j] = w;
                cursor[v as usize] += 1;
            }
        }

        // Per-row sort + merge duplicates. Sorting by (neighbor, weight
        // bits) fixes the summation order of parallel edges, so the merged
        // f64 cannot depend on insertion order (float addition is not
        // associative).
        let mut rows: Vec<(Vec<Node>, Vec<f64>)> = Vec::with_capacity(n);
        for u in 0..n {
            let row = offsets[u]..offsets[u + 1];
            let mut pairs: Vec<(Node, f64)> = targets[row.clone()]
                .iter()
                .copied()
                .zip(weights[row].iter().copied())
                .collect();
            pairs.sort_unstable_by_key(|&(v, w)| (v, w.to_bits()));
            let mut ts = Vec::with_capacity(pairs.len());
            let mut ws: Vec<f64> = Vec::with_capacity(pairs.len());
            for (v, w) in pairs {
                if ts.last() == Some(&v) {
                    *ws.last_mut().unwrap() += w;
                } else {
                    ts.push(v);
                    ws.push(w);
                }
            }
            rows.push((ts, ws));
        }

        // Reassemble compacted CSR.
        let mut new_offsets = Vec::with_capacity(n + 1);
        new_offsets.push(0usize);
        let mut acc = 0usize;
        for (ts, _) in &rows {
            acc += ts.len();
            new_offsets.push(acc);
        }
        let mut new_targets = Vec::with_capacity(acc);
        let mut new_weights = Vec::with_capacity(acc);
        for (ts, ws) in rows.drain(..) {
            new_targets.extend(ts);
            new_weights.extend(ws);
        }

        Graph::from_csr(new_offsets, new_targets, new_weights)
    }

    /// Convenience: build a graph straight from an unweighted edge list.
    pub fn from_edges(n: usize, edges: &[(Node, Node)]) -> Graph {
        let mut b = Self::with_capacity(n, edges.len());
        for &(u, v) in edges {
            b.add_unweighted_edge(u, v);
        }
        b.build()
    }

    /// Convenience: build a graph from a weighted edge list.
    pub fn from_weighted_edges(n: usize, edges: &[(Node, Node, f64)]) -> Graph {
        let mut b = Self::with_capacity(n, edges.len());
        for &(u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_path() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.check_consistency());
    }

    #[test]
    fn merges_parallel_edges_by_summing() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 2.5);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3.5));
        assert_eq!(g.total_edge_weight(), 3.5);
    }

    #[test]
    fn merges_duplicate_self_loops() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(0, 0, 1.0);
        b.add_edge(0, 0, 2.0);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.self_loop_weight(0), 3.0);
        assert_eq!(g.volume(0), 6.0);
        assert_eq!(g.total_edge_weight(), 3.0);
    }

    #[test]
    fn edge_order_does_not_matter() {
        let g1 = GraphBuilder::from_edges(4, &[(0, 1), (2, 3), (1, 2)]);
        let g2 = GraphBuilder::from_edges(4, &[(1, 2), (0, 1), (3, 2)]);
        for u in g1.nodes() {
            assert_eq!(g1.neighbors(u), g2.neighbors(u));
        }
    }

    #[test]
    fn duplicate_merge_is_order_independent_bitwise() {
        // Summing f64 is not associative: these three weights produce
        // different bit patterns depending on addition order, so the
        // builder must fix one canonical order.
        let ws = [0.1, 0.2, 0.3, 1e-17, 1.0];
        let forward = GraphBuilder::from_weighted_edges(
            2,
            &ws.iter().map(|&w| (0, 1, w)).collect::<Vec<_>>(),
        );
        let reversed = GraphBuilder::from_weighted_edges(
            2,
            &ws.iter().rev().map(|&w| (1, 0, w)).collect::<Vec<_>>(),
        );
        let a = forward.edge_weight(0, 1).unwrap();
        let b = reversed.edge_weight(0, 1).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        for u in forward.nodes() {
            assert_eq!(forward.neighbors(u), reversed.neighbors(u));
            let (_, wa) = forward.neighbors_and_weights(u);
            let (_, wb) = reversed.neighbors_and_weights(u);
            let bits = |ws: &[f64]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(wa), bits(wb));
        }
    }

    #[test]
    fn parallel_and_reference_builds_are_bit_identical() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let n = 200;
        let mut edges = Vec::new();
        for _ in 0..3000 {
            let u = rng.gen_range(0..n as Node);
            let v = rng.gen_range(0..n as Node);
            edges.push((u, v, rng.gen_range(0.1..2.0)));
        }
        let mut a = GraphBuilder::with_capacity(n, edges.len());
        let mut b = GraphBuilder::with_capacity(n, edges.len());
        for &(u, v, w) in &edges {
            a.add_edge(u, v, w);
            b.add_edge(u, v, w);
        }
        let ga = a.build();
        let gb = b.build_reference();
        assert_eq!(ga.node_count(), gb.node_count());
        assert_eq!(ga.edge_count(), gb.edge_count());
        for u in ga.nodes() {
            let (ta, wa) = ga.neighbors_and_weights(u);
            let (tb, wb) = gb.neighbors_and_weights(u);
            assert_eq!(ta, tb);
            assert_eq!(
                wa.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                wb.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn par_extend_matches_sequential_adds() {
        let edges: Vec<(Node, Node, f64)> = (0..1000)
            .map(|i| ((i % 50) as Node, ((i * 7 + 1) % 50) as Node, 1.5))
            .collect();
        let mut a = GraphBuilder::new(50);
        a.par_extend(edges.clone().into_par_iter());
        let ga = a.build();
        let gb = GraphBuilder::from_weighted_edges(50, &edges);
        for u in ga.nodes() {
            assert_eq!(ga.neighbors(u), gb.neighbors(u));
        }
        assert_eq!(ga.total_edge_weight(), gb.total_edge_weight());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn par_extend_rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.par_extend(vec![(0 as Node, 5 as Node, 1.0)].into_par_iter());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_nodes() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_nonpositive_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_nan_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, f64::NAN);
    }

    #[test]
    fn with_capacity_counts() {
        let mut b = GraphBuilder::with_capacity(3, 10);
        assert_eq!(b.node_count(), 3);
        b.add_unweighted_edge(0, 1);
        assert_eq!(b.pending_edges(), 1);
    }

    #[test]
    fn large_random_graph_is_consistent() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 500;
        let mut b = GraphBuilder::new(n);
        for _ in 0..5000 {
            let u = rng.gen_range(0..n as Node);
            let v = rng.gen_range(0..n as Node);
            b.add_edge(u, v, rng.gen_range(0.1..2.0));
        }
        let g = b.build();
        assert!(g.check_consistency());
        let vol: f64 = g.nodes().map(|u| g.volume(u)).sum();
        assert!((vol - 2.0 * g.total_edge_weight()).abs() < 1e-9 * vol.abs());
    }
}
