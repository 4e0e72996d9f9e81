//! The immutable CSR graph.
//!
//! `Graph` stores an undirected, weighted graph in compressed sparse row
//! layout: for every node the sorted list of neighbors and the parallel list
//! of edge weights. Each undirected edge `{u, v}` with `u != v` appears in
//! both adjacency rows; a self-loop `{u, u}` appears once in `u`'s row.
//!
//! Conventions (matching the paper's §III definitions):
//!
//! * `total_edge_weight` is ω(E): the sum of edge weights with self-loops
//!   counted **once**.
//! * `weighted_degree(u)` is the sum of weights of `u`'s adjacency row
//!   (self-loop counted once).
//! * `volume(u)` = weighted_degree(u) + self_loop_weight(u), i.e. self-loops
//!   count **twice** — exactly the paper's `vol(u)`. Consequently
//!   `Σ_u volume(u) = 2 ω(E)`.
//!
//! Every `Graph` is made by one constructor tail (`from_rows`), and every
//! cache it holds — degrees, self-loops, ω(E), m — is derived from its own
//! arrays there; no caller, and no file, supplies one.
//!
//! A graph whose every edge weight is 1.0 — every generator's output and
//! every unweighted file — is *unit*: it stores no `weights` array at all.
//! `from_rows` enforces that rule (empty ⇔ every weight is 1.0), so two
//! graphs with the same edges have the same arrays. The kernels never see
//! the difference: [`Graph::neighbors_and_weights`] hands a unit row a
//! slice of a per-graph run of 1.0s, and sums of 1.0 are exact in `f64`,
//! so every cache and every result is bit for bit the weighted one's.

use crate::parallel::{split_by_ranges, weighted_ranges, DYNAMIC_PIECES};
use rayon::prelude::*;
use std::ops::Range;

/// Node identifier. Graphs are limited to `u32::MAX` nodes, which halves the
/// memory traffic of adjacency scans compared to `usize` ids.
pub type Node = u32;

/// An immutable, undirected, weighted graph in CSR layout.
///
/// # Examples
///
/// ```
/// use parcom_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_unweighted_edge(0, 1);
/// b.add_edge(1, 2, 2.5);
/// let g = b.build();
///
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert_eq!(g.weighted_degree(1), 3.5);
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    /// Row offsets; `offsets[u]..offsets[u+1]` indexes `u`'s adjacency.
    offsets: Vec<usize>,
    /// Concatenated, per-row-sorted neighbor lists.
    targets: Vec<Node>,
    /// Edge weights parallel to `targets`; empty iff every weight is 1.0.
    weights: Vec<f64>,
    /// A unit graph's weights as rows borrow them: one 1.0 per entry of
    /// its longest row (empty when `weights` is stored).
    ones: Vec<f64>,
    /// Cached per-node sum of incident weights (self-loop once).
    weighted_degrees: Vec<f64>,
    /// Cached per-node self-loop weight (0.0 for most nodes).
    self_loops: Vec<f64>,
    /// ω(E): total edge weight, self-loops counted once.
    total_weight: f64,
    /// Number of undirected edges (self-loops count one).
    num_edges: usize,
}

/// Borrowed view of every CSR array and derived cache of a [`Graph`] — what a
/// serializer or a footprint count reads.
#[derive(Clone, Copy, Debug)]
pub struct CsrView<'a> {
    /// Row offsets; length `n + 1`.
    pub offsets: &'a [usize],
    /// Concatenated, per-row-sorted neighbor lists.
    pub targets: &'a [Node],
    /// Edge weights parallel to `targets`, or empty: a unit graph, every
    /// weight 1.0, stores none.
    pub weights: &'a [f64],
    /// Per-node sum of incident weights (self-loop once).
    pub weighted_degrees: &'a [f64],
    /// Per-node self-loop weight.
    pub self_loops: &'a [f64],
    /// ω(E): total edge weight, self-loops counted once.
    pub total_weight: f64,
    /// Number of undirected edges (self-loops count one).
    pub num_edges: usize,
}

/// The five arrays of a graph under construction, rows appended in node
/// order — the output side of [`Graph::patched_into`].
struct CsrRows {
    offsets: Vec<usize>,
    targets: Vec<Node>,
    /// Parallel to `targets` if `weighted`, else empty.
    weights: Vec<f64>,
    weighted_degrees: Vec<f64>,
    self_loops: Vec<f64>,
    /// Whether `weights` is kept; without it every entry is 1.0.
    weighted: bool,
    /// Whether every weight appended so far is 1.0.
    unit: bool,
}

/// The weight of entry `i` of arrays whose `weights` may be a unit
/// graph's empty ones.
#[inline]
fn weight_at(weights: &[f64], i: usize) -> f64 {
    if weights.is_empty() {
        1.0
    } else {
        weights[i]
    }
}

/// The weights of the entries `range`: none for a unit graph's empty array.
#[inline]
fn weights_of(weights: &[f64], range: Range<usize>) -> &[f64] {
    if weights.is_empty() {
        &[]
    } else {
        &weights[range]
    }
}

/// The caches of row `row` — its weighted degree, its self-loop weight and
/// its number of loop entries — summed entry by entry in CSR order, and
/// whether each of its weights is 1.0: the one definition every
/// construction path and [`Graph::validate`] share, so a cache equals its
/// recomputation bit for bit. Empty `weights` are a unit row's, one 1.0
/// per target; their sums are the counts, exactly.
#[inline]
fn row_sums(row: usize, targets: &[Node], weights: &[f64]) -> (f64, f64, usize, bool) {
    if weights.is_empty() {
        let loops = targets.iter().filter(|&&t| t as usize == row).count();
        return (targets.len() as f64, loops as f64, loops, true);
    }
    let (mut degree, mut self_loop, mut loops, mut unit) = (0.0, 0.0, 0usize, true);
    for (&t, &w) in targets.iter().zip(weights) {
        degree += w;
        unit &= w == 1.0;
        if t as usize == row {
            self_loop += w;
            loops += 1;
        }
    }
    (degree, self_loop, loops, unit)
}

/// ω(E) from the per-node caches: non-loop edges are stored twice, loops
/// once. Summed sequentially in node order — a parallel reduction would tie
/// the value to the split points. A row has at most one loop entry, so
/// adding `self_loops[u]` (0.0 elsewhere) is the entry-by-entry sum.
fn total_weight(weighted_degrees: &[f64], self_loops: &[f64]) -> f64 {
    let (mut directed_weight, mut loop_total) = (0.0, 0.0);
    for (wd, sl) in weighted_degrees.iter().zip(self_loops) {
        directed_weight += wd;
        loop_total += sl;
    }
    (directed_weight - loop_total) / 2.0 + loop_total
}

/// The invariants of the three CSR arrays, `weights` empty for a unit
/// graph. The O(n + m) ones that keep
/// later code from panicking always run: array lengths, offsets starting
/// at 0, never decreasing and ending at `targets.len()`, every target id in
/// range. `rows` adds the per-row ones: rows strictly sorted (no duplicate
/// targets), weights finite and non-negative, and every non-loop entry
/// `(u → v, w)` mirrored by `(v → u, w)` — self-loops appear once, in their
/// own row (the workspace's self-loop convention).
fn check_arrays(
    offsets: &[usize],
    targets: &[Node],
    weights: &[f64],
    rows: bool,
) -> Result<(), String> {
    let Some(&end) = offsets.last() else {
        return Err("offsets must have length n + 1 (is empty)".into());
    };
    let n = offsets.len() - 1;
    if offsets[0] != 0 {
        return Err(format!("offsets[0] = {} (want 0)", offsets[0]));
    }
    if !weights.is_empty() && targets.len() != weights.len() {
        return Err(format!(
            "targets/weights length mismatch: {} vs {}",
            targets.len(),
            weights.len()
        ));
    }
    if end != targets.len() {
        return Err(format!(
            "offsets end at {end} but there are {} adjacency entries",
            targets.len()
        ));
    }
    if let Some(u) = (0..n).find(|&u| offsets[u] > offsets[u + 1]) {
        return Err(format!(
            "offsets not monotone at node {u}: {} > {}",
            offsets[u],
            offsets[u + 1]
        ));
    }
    if let Some(&v) = targets.iter().find(|&&v| v as usize >= n) {
        return Err(format!("out-of-range target {v} (n = {n})"));
    }
    if !rows {
        return Ok(());
    }
    for u in 0..n {
        let row = offsets[u]..offsets[u + 1];
        let row_targets = &targets[row.clone()];
        if let Some(p) = row_targets.windows(2).find(|p| p[0] >= p[1]) {
            return Err(format!(
                "row of node {u} not strictly sorted: {} then {}",
                p[0], p[1]
            ));
        }
        if let Some((v, w)) = (row_targets.iter().zip(row.map(|i| weight_at(weights, i))))
            .find(|(_, w)| !w.is_finite() || *w < 0.0)
        {
            return Err(format!(
                "edge {{{u}, {v}}} has invalid weight {w} (want finite, non-negative)"
            ));
        }
    }
    match first_asymmetry(offsets, targets, weights) {
        Some(a) => Err(format!(
            "asymmetric edge {{{}, {}}}: forward weight {:?}, reverse weight {:?}",
            a.u, a.v, a.forward, a.backward
        )),
        None => Ok(()),
    }
}

/// An undirected edge whose two adjacency rows disagree: one of them does
/// not list it, or the two give it different weight bits. `u < v`; a
/// self-loop sits in one row only and cannot disagree with itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Asymmetry {
    /// The smaller endpoint.
    pub u: Node,
    /// The larger endpoint.
    pub v: Node,
    /// The weight `u`'s row gives the edge, `None` if it does not list `v`.
    pub forward: Option<f64>,
    /// The weight `v`'s row gives the edge, `None` if it does not list `u`.
    pub backward: Option<f64>,
}

/// The smallest `(u, v)` whose two directions disagree, in strictly
/// sorted rows: every entry's mirror looked up by binary search, one pass.
/// The cold half of [`rows_mirror`] and the symmetry check of
/// [`Graph::validate`].
// audit:allow(budget-propagation): one pass over arrays the loader admitted against the budget
fn first_asymmetry(offsets: &[usize], targets: &[Node], weights: &[f64]) -> Option<Asymmetry> {
    let mirror_of = |row: usize, target: usize| {
        let r = offsets[row]..offsets[row + 1];
        (targets[r.clone()].binary_search(&(target as Node)).ok())
            .map(|i| weight_at(weights, r.start + i))
    };
    let mut first: Option<Asymmetry> = None;
    for u in 0..offsets.len() - 1 {
        let row = offsets[u]..offsets[u + 1];
        for (i, &v) in row.clone().zip(&targets[row]) {
            let (v, w) = (v as usize, weight_at(weights, i));
            if v == u {
                continue;
            }
            let mirror = mirror_of(v, u);
            if mirror.map(f64::to_bits) == Some(w.to_bits()) {
                continue;
            }
            let found = if u < v {
                Asymmetry {
                    u: u as Node,
                    v: v as Node,
                    forward: Some(w),
                    backward: mirror,
                }
            } else {
                Asymmetry {
                    u: v as Node,
                    v: u as Node,
                    forward: mirror,
                    backward: Some(w),
                }
            };
            if first.is_none_or(|f| (found.u, found.v) < (f.u, f.v)) {
                first = Some(found);
            }
        }
    }
    first
}

/// Whether every non-loop entry `u → v` of strictly sorted rows has the
/// mirror `v → u` with the same weight bits. Parallel over edge-balanced
/// ranges of *target* rows, like the builder's scatter: each part walks
/// the source rows in order and consumes its own rows' lower parts (the
/// entries below the diagonal, a prefix of each sorted row) with one
/// cursor per row, so every mirror is found by a compare, not a search.
/// Every part visits each source row below its range's end, so there is
/// one part per thread rather than several.
fn rows_mirror(offsets: &[usize], targets: &[Node], weights: &[f64]) -> bool {
    let lower_parts_mirrored = |owned: Range<usize>| {
        let mut cursor: Vec<usize> = offsets[owned.clone()].to_vec();
        for u in 0..owned.end {
            let row = offsets[u]..offsets[u + 1];
            let first = owned.start.max(u + 1);
            let skip = targets[row.clone()].partition_point(|&v| (v as usize) < first);
            for i in row.start + skip..row.end {
                let v = targets[i] as usize;
                if v >= owned.end {
                    break;
                }
                let at = cursor[v - owned.start];
                if at == offsets[v + 1]
                    || targets[at] as usize != u
                    || weight_at(weights, at).to_bits() != weight_at(weights, i).to_bits()
                {
                    return false;
                }
                cursor[v - owned.start] = at + 1;
            }
        }
        // no lower entry left over that no smaller row listed
        owned
            .zip(cursor)
            .all(|(v, at)| at == offsets[v + 1] || targets[at] as usize >= v)
    };
    weighted_ranges(offsets, 1)
        .into_par_iter()
        .filter(|owned| !lower_parts_mirrored(owned.clone()))
        .count()
        == 0
}

/// `buffer` emptied and able to hold `len` elements. One too small is
/// freed *before* its successor is allocated (`reserve` would keep both
/// resident while it copies) and `allocated` is set. A fresh buffer gets
/// 1/16 headroom, so a slowly growing graph fits the buffers it retires.
fn fitted<T>(mut buffer: Vec<T>, len: usize, allocated: &mut bool) -> Vec<T> {
    buffer.clear();
    if buffer.capacity() < len {
        drop(buffer);
        *allocated = true;
        buffer = Vec::with_capacity(len + len / 16);
    }
    buffer
}

impl CsrRows {
    /// Empty rows for `n` nodes and up to `entries` adjacency entries, with
    /// a weights array if `weighted`, in the buffers of `retired`; and
    /// whether all the buffers they need were large enough. Unit rows need
    /// no weights buffer, so a retired unit graph's serves them in full.
    fn recycling(retired: Option<Graph>, n: usize, entries: usize, weighted: bool) -> (Self, bool) {
        let mut allocated = retired.is_none();
        let parts = |g: Graph| {
            (
                g.offsets,
                g.targets,
                g.weights,
                g.weighted_degrees,
                g.self_loops,
            )
        };
        let (offsets, targets, weights, weighted_degrees, self_loops) =
            retired.map(parts).unwrap_or_default();
        let mut rows = Self {
            offsets: fitted(offsets, n + 1, &mut allocated),
            targets: fitted(targets, entries, &mut allocated),
            weights: match weighted {
                true => fitted(weights, entries, &mut allocated),
                false => Vec::new(),
            },
            weighted_degrees: fitted(weighted_degrees, n, &mut allocated),
            self_loops: fitted(self_loops, n, &mut allocated),
            weighted,
            unit: true,
        };
        rows.offsets.push(0);
        (rows, !allocated)
    }

    /// Appends entries to the open row; empty `weights` are 1.0s.
    fn extend(&mut self, targets: &[Node], weights: &[f64]) {
        self.targets.extend_from_slice(targets);
        if !self.weighted {
            debug_assert!(weights.iter().all(|&w| w == 1.0));
        } else if weights.is_empty() {
            self.weights.resize(self.targets.len(), 1.0);
        } else {
            self.unit = self.unit && weights.iter().all(|&w| w == 1.0);
            self.weights.extend_from_slice(weights);
        }
    }

    /// Closes the open row, summing its caches as [`Graph::from_csr`] does.
    fn end_row(&mut self) {
        let row = self.weighted_degrees.len();
        let start = self.offsets[row];
        let weights = if self.weighted {
            &self.weights[start..]
        } else {
            &[]
        };
        let (degree, self_loop, _, _) = row_sums(row, &self.targets[start..], weights);
        self.weighted_degrees.push(degree);
        self.self_loops.push(self_loop);
        self.offsets.push(self.targets.len());
    }

    /// Appends the rows `rows` of `g` unchanged: one slice copy per array,
    /// offsets shifted by the displacement accumulated so far. Rows past
    /// `g`'s node range come out empty.
    fn copy_rows(&mut self, g: &Graph, rows: std::ops::Range<usize>) {
        let old_end = rows.end.min(g.node_count());
        if rows.start < old_end {
            let (lo, hi) = (g.offsets[rows.start], g.offsets[old_end]);
            let base = self.targets.len();
            self.extend(&g.targets[lo..hi], weights_of(&g.weights, lo..hi));
            self.offsets.extend(
                g.offsets[rows.start + 1..=old_end]
                    .iter()
                    .map(|&o| o - lo + base),
            );
            let old = rows.start..old_end;
            self.weighted_degrees
                .extend_from_slice(&g.weighted_degrees[old.clone()]);
            self.self_loops.extend_from_slice(&g.self_loops[old]);
        }
        let end = self.targets.len();
        self.offsets
            .extend((rows.start.max(old_end)..rows.end).map(|_| end));
        self.weighted_degrees.resize(self.offsets.len() - 1, 0.0);
        self.self_loops.resize(self.offsets.len() - 1, 0.0);
    }
}

impl Graph {
    /// Assembles a graph from raw CSR arrays, deriving every cache from
    /// them. Rows must be sorted by target and free of duplicate targets;
    /// every non-loop edge must appear in both endpoint rows with equal
    /// weight. The builder, coarsening and relabeling guarantee this; an
    /// untrusted source goes through [`Self::try_from_csr`].
    // audit:allow(budget-propagation): one linear pass per construction, over arrays the loader admitted against the budget
    pub(crate) fn from_csr(offsets: Vec<usize>, targets: Vec<Node>, weights: Vec<f64>) -> Self {
        let n = offsets.len() - 1;
        debug_assert!(weights.is_empty() || targets.len() == weights.len());
        debug_assert_eq!(*offsets.last().unwrap(), targets.len());

        // Per-node caches, parallel over edge-balanced node ranges. Each
        // row is summed by one worker in CSR order, so the values do not
        // depend on the split; the same pass finds whether every weight is
        // 1.0.
        let ranges = weighted_ranges(&offsets, DYNAMIC_PIECES);
        let mut rows = CsrRows {
            offsets,
            targets,
            weights,
            weighted_degrees: vec![0.0; n],
            self_loops: vec![0.0; n],
            weighted: true,
            unit: true,
        };
        let sums_per_range: Vec<(usize, bool)> = {
            let degree_pieces = split_by_ranges(&mut rows.weighted_degrees, &ranges);
            let loop_pieces = split_by_ranges(&mut rows.self_loops, &ranges);
            let (offsets, targets, weights) = (&rows.offsets, &rows.targets, &rows.weights);
            ranges
                .iter()
                .zip(degree_pieces)
                .zip(loop_pieces)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|((rows, degrees), loops)| {
                    let (mut num_loops, mut unit) = (0usize, true);
                    for (u, (wd, sl)) in rows.clone().zip(degrees.iter_mut().zip(loops)) {
                        let row = offsets[u]..offsets[u + 1];
                        let (row_loops, row_unit);
                        (*wd, *sl, row_loops, row_unit) =
                            row_sums(u, &targets[row.clone()], weights_of(weights, row));
                        num_loops += row_loops;
                        unit &= row_unit;
                    }
                    (num_loops, unit)
                })
                .collect()
        };
        rows.unit = sums_per_range.iter().all(|&(_, unit)| unit);
        Self::from_rows(rows, sums_per_range.iter().map(|&(loops, _)| loops).sum())
    }

    /// The graph of five finished arrays, `num_loops` of whose entries are
    /// self-loops: the one place the two totals are computed, and the one
    /// place the unit rule is applied — rows whose every weight is 1.0
    /// keep no weights array.
    fn from_rows(mut rows: CsrRows, num_loops: usize) -> Self {
        let ones = if rows.unit {
            rows.weights = Vec::new();
            let longest = rows.offsets.windows(2).map(|o| o[1] - o[0]).max();
            vec![1.0; longest.unwrap_or(0)]
        } else {
            Vec::new()
        };
        let g = Self {
            total_weight: total_weight(&rows.weighted_degrees, &rows.self_loops),
            // Non-loop edges are stored twice, loops once.
            num_edges: (rows.targets.len() - num_loops) / 2 + num_loops,
            offsets: rows.offsets,
            targets: rows.targets,
            weights: rows.weights,
            ones,
            weighted_degrees: rows.weighted_degrees,
            self_loops: rows.self_loops,
        };
        // Postcondition of every construction path (GraphBuilder::build,
        // coarsening and patches all land here): the full validator in
        // debug builds or when the `validate` feature is on.
        #[cfg(any(debug_assertions, feature = "validate"))]
        if let Err(e) = g.validate() {
            panic!("construction produced an inconsistent CSR graph: {e}");
        }
        g
    }

    /// A copy of this graph with `edits` applied and the node range grown to
    /// `n_new`, built by merging rows instead of re-assembling the CSR.
    ///
    /// Each edit is one undirected edge `{u, v}`, at most once per unordered
    /// pair, with ids below `n_new`: `Some(w)` inserts the edge or overwrites
    /// its weight, `None` removes it if present. Rows no edit touches are
    /// bulk-copied in runs (offsets shifted by the running displacement) and
    /// their cached sums with them; only the ≤ 2·|edits| touched rows are
    /// merged and re-summed entry by entry, so the cost beyond the memcpy is
    /// proportional to the edit, not to the graph.
    ///
    /// The result is what [`crate::GraphBuilder::build`] yields for the
    /// edited edge set, bit for bit: rows sorted by neighbor, untouched
    /// weights carried verbatim, caches from the same [`Self::from_csr`]
    /// arithmetic. Sequential, hence identical at any thread count.
    // audit:allow(unreachable-pub): the allocating reference `patched_into` is pinned against (patch_differential.rs, fold_differential.rs) and the warm-start tests' edit step
    pub fn patched(&self, n_new: usize, edits: &[(Node, Node, Option<f64>)]) -> Self {
        self.patched_into(n_new, edits, None).0
    }

    /// [`Self::patched`], written into the buffers of `retired` — a graph
    /// nobody reads any more, which passing it by value proves — so that a
    /// chain of patches stops allocating (and page-faulting in) a whole CSR
    /// per link. Also returns whether every array of `retired` was large
    /// enough, i.e. nothing was allocated; no bit of the graph depends on it.
    pub fn patched_into(
        &self,
        n_new: usize,
        edits: &[(Node, Node, Option<f64>)],
        retired: Option<Self>,
    ) -> (Self, bool) {
        let n_old = self.node_count();
        assert!(n_new >= n_old, "a patch cannot shrink the node range");
        assert!(
            n_new <= u32::MAX as usize,
            "node count exceeds u32 id space"
        );

        // Both directions of every edit (a self-loop once), in row order.
        let mut delta: Vec<(Node, Node, Option<f64>)> = Vec::with_capacity(2 * edits.len());
        for &(u, v, w) in edits {
            assert!(
                (u as usize) < n_new && (v as usize) < n_new,
                "edit {{{u}, {v}}} out of range (n = {n_new})"
            );
            assert!(
                w.is_none_or(|w| w.is_finite() && w > 0.0),
                "edge weight must be positive and finite"
            );
            delta.push((u, v, w));
            if u != v {
                delta.push((v, u, w));
            }
        }
        delta.sort_unstable_by_key(|&(row, target, _)| (row, target));
        assert!(
            delta
                .windows(2)
                .all(|d| (d[0].0, d[0].1) != (d[1].0, d[1].1)),
            "an edge may be edited at most once per patch"
        );

        let inserts = delta.iter().filter(|d| d.2.is_some()).count();
        // A unit graph stays unit under edits of weight 1.0 and gets no
        // weights array; `from_rows` drops one that ends up all 1.0.
        let weighted =
            !self.weights.is_empty() || delta.iter().any(|d| d.2.is_some_and(|w| w != 1.0));
        let (mut out, in_place) =
            CsrRows::recycling(retired, n_new, self.targets.len() + inserts, weighted);
        // m = (entries + loops) / 2; only an edit of `{row, row}` changes the loops
        let mut num_loops = 2 * self.num_edges - self.targets.len();
        let mut next_row = 0usize;
        for run in delta.chunk_by(|a, b| a.0 == b.0) {
            let row = run[0].0;
            out.copy_rows(self, next_row..row as usize);
            let (old_t, old_w): (&[Node], &[f64]) = if (row as usize) < n_old {
                self.neighbors_and_weights(row)
            } else {
                (&[], &[])
            };
            let mut k = 0;
            for &(_, target, w) in run {
                let keep = old_t[k..].partition_point(|&t| t < target);
                out.extend(&old_t[k..k + keep], &old_w[k..k + keep]);
                k += keep;
                if old_t.get(k) == Some(&target) {
                    k += 1;
                    num_loops -= usize::from(target == row);
                }
                if let Some(w) = w {
                    out.extend(&[target], &[w]);
                    num_loops += usize::from(target == row);
                }
            }
            out.extend(&old_t[k..], &old_w[k..]);
            out.end_row();
            next_row = row as usize + 1;
        }
        out.copy_rows(self, next_row..n_new);
        (Self::from_rows(out, num_loops), in_place)
    }

    /// `from_csr` for arrays from an untrusted source — what the
    /// binary graph format (`parcom_io::binfmt`) decodes. The checks whose
    /// failure would panic later code always run first: array lengths,
    /// offsets that start at 0, never decrease and end at `targets.len()`,
    /// and every target id in range. Debug builds and the `validate`
    /// feature add the per-row checks of [`Self::validate`]. Every cache is
    /// then derived from the arrays; none is taken on trust.
    pub fn try_from_csr(
        offsets: Vec<usize>,
        targets: Vec<Node>,
        weights: Vec<f64>,
    ) -> Result<Self, String> {
        let rows = cfg!(any(debug_assertions, feature = "validate"));
        check_arrays(&offsets, &targets, &weights, rows)?;
        Ok(Self::from_csr(offsets, targets, weights))
    }

    /// The graph of adjacency rows as a text file lists them: row `u` is
    /// `offsets[u]..offsets[u + 1]` of `targets` and `weights`, in any
    /// order, repeats allowed, and every edge is expected in both of its
    /// endpoints' rows (a self-loop in its one row). Targets must be in
    /// range and weights positive and finite, which a reader checks while
    /// it parses.
    ///
    /// Each row is sorted by `(neighbor, weight bits)` and its repeats are
    /// summed in that order, as [`crate::GraphBuilder::build`] merges
    /// parallel edges; a row that is already strictly sorted is left as
    /// it is. Then every non-loop entry `u → v` must have the mirror
    /// `v → u` with the same weight bits, or the smallest disagreeing pair
    /// comes back as the error. On rows that mirror, the graph is the
    /// builder's for the edges of the rows' upper halves, bit for bit.
    pub fn from_adjacency_rows(
        offsets: Vec<usize>,
        mut targets: Vec<Node>,
        mut weights: Vec<f64>,
    ) -> Result<Self, Asymmetry> {
        debug_assert!(check_arrays(&offsets, &targets, &weights, false).is_ok());
        let offsets = crate::builder::merge_rows(&offsets, &mut targets, &mut weights);
        if !rows_mirror(&offsets, &targets, &weights) {
            if let Some(a) = first_asymmetry(&offsets, &targets, &weights) {
                return Err(a);
            }
        }
        Ok(Self::from_csr(offsets, targets, weights))
    }

    /// Borrows every CSR array and derived cache at once.
    pub fn csr_view(&self) -> CsrView<'_> {
        CsrView {
            offsets: &self.offsets,
            targets: &self.targets,
            weights: &self.weights,
            weighted_degrees: &self.weighted_degrees,
            self_loops: &self.self_loops,
            total_weight: self.total_weight,
            num_edges: self.num_edges,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m` (self-loops count one).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.num_edges
    }

    /// ω(E): total edge weight with self-loops counted once.
    #[inline]
    pub fn total_edge_weight(&self) -> f64 {
        self.total_weight
    }

    /// Iterator over all node ids `0..n`.
    #[inline]
    pub fn nodes(&self) -> std::ops::Range<Node> {
        0..self.node_count() as Node // audit:allow(lossy-cast): bounded by the u32 node id space
    }

    /// Parallel iterator over all node ids.
    #[inline]
    // audit:allow(budget-propagation): constructs a lazy parallel iterator; no work runs until the caller drives it
    pub fn par_nodes(&self) -> rayon::range::Iter<Node> {
        (0..self.node_count() as Node).into_par_iter() // audit:allow(lossy-cast): bounded by the u32 node id space
    }

    /// At most `current_num_threads()` contiguous node ranges holding
    /// near-equal shares of the adjacency entries, split at the CSR
    /// offsets: the parts for a parallel `fold` over nodes whose cost
    /// follows the degrees and whose per-part state is a dense accumulator
    /// (one range per part, so a hub-heavy id range gets fewer nodes).
    /// Small graphs come back as one range.
    pub fn edge_balanced_ranges(&self) -> Vec<std::ops::Range<Node>> {
        weighted_ranges(&self.offsets, 1)
            .into_iter()
            .map(|r| r.start as Node..r.end as Node)
            .collect()
    }

    /// Unweighted degree of `u` (number of adjacency entries; a self-loop
    /// contributes one).
    #[inline]
    pub fn degree(&self, u: Node) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// Sorted neighbor ids of `u`.
    #[inline]
    pub fn neighbors(&self, u: Node) -> &[Node] {
        &self.targets[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Neighbor ids and the parallel slice of edge weights — for a unit
    /// graph a prefix of its run of 1.0s, so callers read the same values
    /// either way.
    #[inline]
    pub fn neighbors_and_weights(&self, u: Node) -> (&[Node], &[f64]) {
        let row = self.offsets[u as usize]..self.offsets[u as usize + 1];
        let weights = if self.weights.is_empty() {
            &self.ones[..row.len()]
        } else {
            &self.weights[row.clone()]
        };
        (&self.targets[row], weights)
    }

    /// Iterator over `(neighbor, weight)` pairs of `u`.
    #[inline]
    pub fn edges_of(&self, u: Node) -> impl Iterator<Item = (Node, f64)> + '_ {
        let (t, w) = self.neighbors_and_weights(u);
        t.iter().copied().zip(w.iter().copied())
    }

    /// Weight of the edge `{u, v}`, or `None` if absent. O(log deg(u)).
    pub fn edge_weight(&self, u: Node, v: Node) -> Option<f64> {
        let (t, w) = self.neighbors_and_weights(u);
        t.binary_search(&v).ok().map(|i| w[i])
    }

    /// Whether the edge `{u, v}` exists.
    // audit:allow(unreachable-pub): the edge-presence oracle of the generator and store tests
    #[inline]
    pub fn has_edge(&self, u: Node, v: Node) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Sum of incident edge weights of `u` (self-loop counted once).
    // audit:allow(unreachable-pub): the derived-cache oracle of the relabel and .pcg round-trip tests
    #[inline]
    pub fn weighted_degree(&self, u: Node) -> f64 {
        self.weighted_degrees[u as usize]
    }

    /// Self-loop weight ω(u, u) (0 if no loop).
    // audit:allow(unreachable-pub): the derived-cache oracle of the coarsening, relabel and .pcg round-trip tests
    #[inline]
    pub fn self_loop_weight(&self, u: Node) -> f64 {
        self.self_loops[u as usize]
    }

    /// The paper's `vol(u)`: incident weight with self-loops counted twice.
    #[inline]
    pub fn volume(&self, u: Node) -> f64 {
        self.weighted_degrees[u as usize] + self.self_loops[u as usize]
    }

    /// Maximum unweighted degree over all nodes.
    // audit:allow(budget-propagation): one bounded degree scan; callers (coloring preflight) check the budget per round
    pub fn max_degree(&self) -> usize {
        self.par_nodes().map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Visits every undirected edge exactly once as `(u, v, w)` with `u <= v`.
    pub fn for_edges(&self, mut f: impl FnMut(Node, Node, f64)) {
        for u in self.nodes() {
            for (v, w) in self.edges_of(u) {
                if v >= u {
                    f(u, v, w);
                }
            }
        }
    }

    /// Collects every undirected edge once as `(u, v, w)` with `u <= v`,
    /// in parallel.
    pub fn par_collect_edges(&self) -> Vec<(Node, Node, f64)> {
        self.par_nodes()
            .flat_map_iter(|u| {
                self.edges_of(u)
                    .filter(move |&(v, _)| v >= u)
                    .map(move |(v, w)| (u, v, w))
            })
            .collect()
    }

    /// Full structural validation with diagnostics. Verifies every CSR
    /// invariant the rest of the workspace relies on:
    ///
    /// * offsets are monotone, start at 0 and end at `targets.len()`;
    ///   `targets` and `weights` are parallel arrays, or `weights` is
    ///   empty and every weight is 1.0 — never a stored array of 1.0s;
    /// * every adjacency row is strictly sorted (no duplicate targets) and
    ///   every target id is in range;
    /// * edge weights are finite and non-negative;
    /// * undirected symmetry: every non-loop entry `(u → v, w)` has the
    ///   mirror entry `(v → u, w)`; self-loops appear exactly once, in
    ///   their own row (the workspace's self-loop convention);
    /// * the cached `weighted_degrees`, `self_loops`, `total_weight` and
    ///   `num_edges` equal, bit for bit, their recomputation from the raw
    ///   arrays — every construction path derives them with the same
    ///   arithmetic, so there is no rounding to allow for.
    ///
    /// Every construction path runs it as a postcondition in debug builds
    /// or with the `validate` feature.
    pub fn validate(&self) -> Result<(), String> {
        check_arrays(&self.offsets, &self.targets, &self.weights, true)?;
        let n = self.node_count();
        if self.weighted_degrees.len() != n || self.self_loops.len() != n {
            return Err("cached degree arrays have wrong length".into());
        }
        let longest = (0..n).map(|u| self.offsets[u + 1] - self.offsets[u]).max();
        let want_ones = if self.weights.is_empty() {
            longest.unwrap_or(0)
        } else {
            0
        };
        if self.ones.len() != want_ones || self.ones.iter().any(|&w| w != 1.0) {
            return Err(format!(
                "run of unit weights has {} entries (want {want_ones} 1.0s)",
                self.ones.len()
            ));
        }
        let (mut num_loops, mut unit) = (0usize, true);
        for u in 0..n {
            let row = self.offsets[u]..self.offsets[u + 1];
            let (degree, self_loop, loops, row_unit) = row_sums(
                u,
                &self.targets[row.clone()],
                weights_of(&self.weights, row),
            );
            num_loops += loops;
            unit &= row_unit;
            if self.weighted_degrees[u].to_bits() != degree.to_bits() {
                return Err(format!(
                    "cached weighted_degree of {u} is {} (recomputed {degree})",
                    self.weighted_degrees[u]
                ));
            }
            if self.self_loops[u].to_bits() != self_loop.to_bits() {
                return Err(format!(
                    "cached self-loop weight of {u} is {} (recomputed {self_loop})",
                    self.self_loops[u]
                ));
            }
        }
        if unit && !self.weights.is_empty() {
            return Err("stores a weights array of 1.0s (a unit graph stores none)".into());
        }
        // The per-node caches are now known exact, so the totals recompute
        // from them as `from_rows` computes them.
        let total = total_weight(&self.weighted_degrees, &self.self_loops);
        if self.total_weight.to_bits() != total.to_bits() {
            return Err(format!(
                "cached total_weight is {} (recomputed {total})",
                self.total_weight
            ));
        }
        let edges = (self.targets.len() - num_loops) / 2 + num_loops;
        if self.num_edges != edges {
            return Err(format!(
                "cached num_edges is {} (recomputed {edges})",
                self.num_edges
            ));
        }
        Ok(())
    }

    /// Whether [`Self::validate`] passes.
    // audit:allow(unreachable-pub): the structural invariant the generator, io_fuzz and invariants proptests assert
    pub fn check_consistency(&self) -> bool {
        self.validate().is_ok()
    }
}

/// Corrupted-CSR fixtures: every class of invariant breakage must be
/// rejected by [`Graph::validate`]. Lives in this module because only here
/// can a `Graph` be assembled field by field, bypassing the builder.
#[cfg(test)]
mod validate_tests {
    use super::Graph;
    use crate::GraphBuilder;

    /// A valid path 0-1-2 as raw parts, ready to be corrupted.
    fn intact() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.build()
    }

    #[test]
    fn intact_graph_validates() {
        assert!(intact().validate().is_ok());
    }

    #[test]
    fn rejects_non_monotone_offsets() {
        let mut g = intact();
        g.offsets[1] = 3; // 3 > offsets[2] = 3? make it regress: offsets = [0,3,1,4]
        g.offsets[2] = 1;
        let err = g.validate().unwrap_err();
        assert!(err.contains("monotone") || err.contains("sorted"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_target() {
        let mut g = intact();
        g.targets[0] = 7;
        let err = g.validate().unwrap_err();
        assert!(
            err.contains("out-of-range") || err.contains("asymmetric"),
            "{err}"
        );
    }

    #[test]
    fn rejects_asymmetric_edge() {
        let mut g = intact();
        // 1's row is [0, 2]; retarget the mirror entry of {0,1} to 2 → dup,
        // instead retarget 0's single entry from 1 to 2 (row stays sorted)
        g.targets[0] = 2;
        let err = g.validate().unwrap_err();
        assert!(err.contains("asymmetric"), "{err}");
    }

    #[test]
    fn rejects_nan_and_negative_weights() {
        let mut g = intact();
        g.weights[0] = f64::NAN;
        assert!(g.validate().unwrap_err().contains("invalid weight"));
        let mut g = intact();
        g.weights[0] = -1.0;
        assert!(g.validate().unwrap_err().contains("invalid weight"));
        let mut g = intact();
        g.weights[0] = f64::INFINITY;
        assert!(g.validate().unwrap_err().contains("invalid weight"));
    }

    #[test]
    fn rejects_stale_caches() {
        let mut g = intact();
        g.total_weight = 99.0;
        assert!(g.validate().unwrap_err().contains("total_weight"));
        let mut g = intact();
        g.weighted_degrees[1] = 0.5;
        assert!(g.validate().unwrap_err().contains("weighted_degree"));
        let mut g = intact();
        g.num_edges = 5;
        assert!(g.validate().unwrap_err().contains("num_edges"));
        let mut g = intact();
        g.self_loops[0] = 1.0;
        assert!(g.validate().unwrap_err().contains("self-loop"));
    }

    #[test]
    fn rejects_a_cache_one_ulp_off() {
        let ulp_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let mut g = intact();
        g.total_weight = ulp_up(g.total_weight);
        assert!(g.validate().unwrap_err().contains("total_weight"));
        let mut g = intact();
        g.weighted_degrees[2] = ulp_up(g.weighted_degrees[2]);
        assert!(g.validate().unwrap_err().contains("weighted_degree"));
    }

    #[test]
    fn try_from_csr_derives_every_cache() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.1);
        b.add_edge(1, 2, 0.2);
        b.add_edge(2, 2, 0.7);
        b.add_edge(0, 3, 0.3);
        let want = b.build();
        let v = want.csr_view();
        let got = Graph::try_from_csr(v.offsets.to_vec(), v.targets.to_vec(), v.weights.to_vec())
            .unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let g = got.csr_view();
        assert_eq!(bits(g.weighted_degrees), bits(v.weighted_degrees));
        assert_eq!(bits(g.self_loops), bits(v.self_loops));
        assert_eq!(g.total_weight.to_bits(), v.total_weight.to_bits());
        assert_eq!(g.num_edges, v.num_edges);
    }

    #[test]
    fn try_from_csr_rejects_arrays_that_would_panic() {
        let rejects = |offsets: Vec<usize>, targets: Vec<u32>, weights: Vec<f64>, needle| {
            let err = Graph::try_from_csr(offsets, targets, weights).unwrap_err();
            assert!(err.contains(needle), "{err}");
        };
        rejects(vec![], vec![], vec![], "is empty");
        rejects(vec![1, 1], vec![0], vec![1.0], "offsets[0]");
        rejects(vec![0, 2], vec![0, 0], vec![1.0], "length mismatch");
        rejects(vec![0, 1, 3], vec![1], vec![1.0], "end at");
        rejects(vec![0, 2, 1, 2], vec![1, 0], vec![1.0, 1.0], "monotone");
        rejects(vec![0, 1, 2], vec![1, 5], vec![1.0, 1.0], "out-of-range");
    }

    #[test]
    fn rejects_duplicate_targets() {
        let mut g = intact();
        // 1's row is [0, 2] at indices 1..3; duplicate the first entry
        g.targets[2] = 0;
        g.weights[2] = 1.0;
        let err = g.validate().unwrap_err();
        assert!(err.contains("sorted"), "{err}");
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn triangle_with_loop() -> crate::Graph {
        // triangle 0-1-2 plus self-loop at 2 with weight 5
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(0, 2, 3.0);
        b.add_edge(2, 2, 5.0);
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = triangle_with_loop();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.total_edge_weight(), 11.0);
    }

    #[test]
    fn degrees_and_volumes() {
        let g = triangle_with_loop();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3); // 0, 1 and the loop entry
        assert_eq!(g.weighted_degree(0), 4.0);
        assert_eq!(g.weighted_degree(2), 10.0); // 2 + 3 + 5
        assert_eq!(g.volume(2), 15.0); // loop counted twice
        assert_eq!(g.self_loop_weight(2), 5.0);
        assert_eq!(g.self_loop_weight(0), 0.0);
    }

    #[test]
    fn volume_sums_to_twice_total_weight() {
        let g = triangle_with_loop();
        let vol: f64 = g.nodes().map(|u| g.volume(u)).sum();
        assert!((vol - 2.0 * g.total_edge_weight()).abs() < 1e-12);
    }

    #[test]
    fn neighbors_sorted_and_weighted() {
        let g = triangle_with_loop();
        assert_eq!(g.neighbors(2), &[0, 1, 2]);
        assert_eq!(g.edge_weight(2, 0), Some(3.0));
        assert_eq!(g.edge_weight(0, 2), Some(3.0));
        assert_eq!(g.edge_weight(2, 2), Some(5.0));
        assert_eq!(g.edge_weight(0, 0), None);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn for_edges_visits_each_once() {
        let g = triangle_with_loop();
        let mut edges = vec![];
        g.for_edges(|u, v, w| edges.push((u, v, w)));
        edges.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.total_cmp(&b.2)));
        assert_eq!(
            edges,
            vec![(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0), (2, 2, 5.0)]
        );
    }

    #[test]
    fn par_collect_edges_matches_sequential() {
        let g = triangle_with_loop();
        let mut seq = vec![];
        g.for_edges(|u, v, w| seq.push((u, v, w)));
        let mut par = g.par_collect_edges();
        let key = |a: &(u32, u32, f64), b: &(u32, u32, f64)| {
            a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.total_cmp(&b.2))
        };
        seq.sort_by(key);
        par.sort_by(key);
        assert_eq!(seq, par);
    }

    #[test]
    fn patched_equals_a_fresh_build_of_the_edited_edge_set() {
        let g = triangle_with_loop();
        // overwrite, remove, remove-absent, new edge into a grown empty row
        let edits = [
            (1, 0, Some(4.0)),
            (2, 2, None),
            (0, 0, None),
            (4, 1, Some(0.5)),
        ];
        let got = g.patched(6, &edits);
        let mut b = GraphBuilder::new(6);
        for (u, v, w) in [(0, 1, 4.0), (1, 2, 2.0), (0, 2, 3.0), (1, 4, 0.5)] {
            b.add_edge(u, v, w);
        }
        let want = b.build();
        let (got, want) = (got.csr_view(), want.csr_view());
        assert_eq!(got.offsets, want.offsets);
        assert_eq!(got.targets, want.targets);
        assert_eq!(got.weights, want.weights);
        assert_eq!(got.weighted_degrees, want.weighted_degrees);
        assert_eq!(got.self_loops, want.self_loops);
        assert_eq!(got.total_weight, want.total_weight);
        assert_eq!(got.num_edges, want.num_edges);
    }

    #[test]
    #[should_panic(expected = "at most once")]
    fn patched_rejects_an_edge_edited_twice() {
        triangle_with_loop().patched(3, &[(0, 1, None), (1, 0, Some(2.0))]);
    }

    #[test]
    fn max_degree() {
        let g = triangle_with_loop();
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.total_edge_weight(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn isolated_nodes() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        assert_eq!(g.volume(3), 0.0);
    }

    #[test]
    fn consistency_holds() {
        assert!(triangle_with_loop().check_consistency());
    }
}
