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
//!
//! A graph can also be an *overlay*: a plain base CSR, shared through an
//! `Arc`, plus a small set of replaced rows ([`Graph::overlaid`]). That is
//! how an edit reaches a resident graph without copying it: the edit
//! writes the rows it touches, and every accessor reads a replaced row
//! from the overlay and any other from the base. Each accessor reads the
//! same values the compacted graph — the overlay written out as one CSR —
//! would give, down to the bits, and [`Graph::edge_balanced_ranges`]
//! splits where that graph's offsets would, so a kernel cannot tell the
//! two apart. A graph without an overlay (every batch graph) tests one
//! pointer per accessor call and takes the plain path.

use crate::parallel::{split_by_ranges, weighted_ranges, weighted_ranges_of, DYNAMIC_PIECES};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

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
    /// The replaced rows over a shared base, for an overlay graph; its
    /// five arrays above are then empty.
    overlay: Option<Box<Overlay>>,
}

/// Rows replacing a graph's own, for an edited graph of `n` nodes: row
/// `ids[i]` is `offsets[i]..offsets[i + 1]` of `targets` and `weights`,
/// with its caches at index `i`. One merge builds it
/// ([`Graph::replaced_rows`]); an overlay graph reads it, a compaction
/// writes it out.
#[derive(Clone, Debug)]
struct RowSet {
    /// Replaced row ids, strictly increasing.
    ids: Vec<Node>,
    /// Row offsets into `targets`; length `ids.len() + 1`.
    offsets: Vec<usize>,
    /// Concatenated, per-row-sorted neighbor lists.
    targets: Vec<Node>,
    /// Parallel to `targets`; empty iff every weight in it is 1.0.
    weights: Vec<f64>,
    /// One 1.0 per entry of the longest row when `weights` is empty.
    ones: Vec<f64>,
    /// Per-row sum of incident weights (self-loop once).
    weighted_degrees: Vec<f64>,
    /// Per-row self-loop weight.
    self_loops: Vec<f64>,
    /// Entries the base CSR gives the rows `ids[..i]`, per `i` in
    /// `0..=ids.len()` (a row past the base's node range has none).
    base_prefix: Vec<usize>,
    /// Node count of the edited graph.
    n: usize,
    /// Adjacency entries of the edited graph.
    entries: usize,
    /// How many of those entries are self-loops.
    num_loops: usize,
}

/// What an overlay graph holds beside its totals: the base, the replaced
/// rows and the index that finds them.
#[derive(Clone, Debug)]
struct Overlay {
    /// The plain CSR every row not in `rows` is read from (rows at or past
    /// its node count are empty), shared with the graphs edited from it.
    base: Arc<Graph>,
    rows: RowSet,
    /// Bit `u % 64` of word `u / 64` is set iff row `u` is replaced.
    mask: Vec<u64>,
    /// Replaced rows below `64 · w`, per mask word `w`.
    rank: Vec<u32>,
    /// The compacted graph, built by the first [`Graph::csr_view`].
    compacted: OnceLock<Graph>,
}

/// The bytes a graph holds, split between the base CSR and an overlay —
/// counted from the arrays' lengths, without compacting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Bytes of the five arrays of the plain CSR: the graph itself, or an
    /// overlay graph's base.
    pub base_bytes: usize,
    /// Adjacency entries of that CSR.
    pub base_entries: usize,
    /// Replaced rows of the overlay (0 for a plain graph).
    pub overlay_rows: usize,
    /// Adjacency entries of those rows.
    pub overlay_entries: usize,
    /// Bytes of every array the overlay holds: its rows' ids, offsets,
    /// targets, weights (none when all are 1.0), caches and base-entry
    /// prefix, the row mask and its rank table.
    pub overlay_bytes: usize,
}

/// Borrowed view of every CSR array and derived cache of a [`Graph`] — what a
/// serializer or a footprint count reads. An overlay graph shows its
/// compaction.
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
/// order — the output side of a compaction, and (rows appended in id
/// order) the arena a [`RowSet`] is merged into.
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
#[derive(Default)]
struct WeightSum {
    directed: f64,
    loops: f64,
}

impl WeightSum {
    /// Adds the caches of the next rows, in node order.
    fn add(&mut self, weighted_degrees: &[f64], self_loops: &[f64]) {
        for (wd, sl) in weighted_degrees.iter().zip(self_loops) {
            self.directed += wd;
            self.loops += sl;
        }
    }

    fn total(&self) -> f64 {
        (self.directed - self.loops) / 2.0 + self.loops
    }
}

/// ω(E) of a whole CSR's caches.
fn total_weight(weighted_degrees: &[f64], self_loops: &[f64]) -> f64 {
    let mut sum = WeightSum::default();
    sum.add(weighted_degrees, self_loops);
    sum.total()
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

impl CsrRows {
    /// Empty rows for `n` nodes and exactly `entries` adjacency entries,
    /// with a weights array if `weighted`.
    fn new(n: usize, entries: usize, weighted: bool) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        Self {
            offsets,
            targets: Vec::with_capacity(entries),
            weights: Vec::with_capacity(if weighted { entries } else { 0 }),
            weighted_degrees: Vec::with_capacity(n),
            self_loops: Vec::with_capacity(n),
            weighted,
            unit: true,
        }
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

    /// Closes the open row, that of node `row`, summing its caches as
    /// [`Graph::from_csr`] does.
    fn end_row(&mut self, row: usize) {
        let start = self.offsets[self.weighted_degrees.len()];
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

    /// Appends the rows `rows` (indices, not ids) of `set` unchanged, with
    /// their cached sums: one slice copy per array.
    fn copy_set_rows(&mut self, set: &RowSet, rows: Range<usize>) {
        if rows.is_empty() {
            return;
        }
        let (lo, hi) = (set.offsets[rows.start], set.offsets[rows.end]);
        let base = self.targets.len();
        self.extend(&set.targets[lo..hi], weights_of(&set.weights, lo..hi));
        self.offsets.extend(
            set.offsets[rows.start + 1..=rows.end]
                .iter()
                .map(|&o| o - lo + base),
        );
        self.weighted_degrees
            .extend_from_slice(&set.weighted_degrees[rows.clone()]);
        self.self_loops.extend_from_slice(&set.self_loops[rows]);
    }
}

impl RowSet {
    /// The row set of merged `rows` with ids `ids`, the unit rule applied:
    /// rows whose every weight is 1.0 keep no weights array.
    fn new(
        ids: Vec<Node>,
        base_prefix: Vec<usize>,
        rows: CsrRows,
        n: usize,
        entries: usize,
        num_loops: usize,
    ) -> Self {
        let (mut weights, mut ones) = (rows.weights, Vec::new());
        if rows.unit {
            weights = Vec::new();
            let longest = rows.offsets.windows(2).map(|o| o[1] - o[0]).max();
            ones = vec![1.0; longest.unwrap_or(0)];
        }
        Self {
            ids,
            offsets: rows.offsets,
            targets: rows.targets,
            weights,
            ones,
            weighted_degrees: rows.weighted_degrees,
            self_loops: rows.self_loops,
            base_prefix,
            n,
            entries,
            num_loops,
        }
    }

    /// Targets and weights of the `i`-th row.
    #[inline]
    fn row(&self, i: usize) -> (&[Node], &[f64]) {
        let row = self.offsets[i]..self.offsets[i + 1];
        let weights = if self.weights.is_empty() {
            &self.ones[..row.len()]
        } else {
            &self.weights[row.clone()]
        };
        (&self.targets[row], weights)
    }

    /// The graph these rows and `base`'s other rows make, written as one
    /// CSR: base rows are bulk-copied in runs between the replaced ones.
    fn compact(&self, base: &Graph) -> Graph {
        debug_assert!(base.overlay.is_none());
        let weighted = !base.weights.is_empty() || !self.weights.is_empty();
        let mut out = CsrRows::new(self.n, self.entries, weighted);
        let mut next_row = 0;
        for (i, &row) in self.ids.iter().enumerate() {
            out.copy_rows(base, next_row..row as usize);
            out.copy_set_rows(self, i..i + 1);
            next_row = row as usize + 1;
        }
        out.copy_rows(base, next_row..self.n);
        Graph::from_rows(out, self.num_loops)
    }

    /// Undirected edges of the edited graph (self-loops count one).
    fn num_edges(&self) -> usize {
        (self.entries - self.num_loops) / 2 + self.num_loops
    }

    /// ω(E) of the graph these rows and `base`'s other rows make, bit for
    /// bit what [`Graph::from_rows`] computes for its compaction: the same
    /// node-order sums, read from the base between the replaced rows. When
    /// every weight is 1.0 those sums are counts, exact in any order below
    /// 2^53, so ω(E) is m and nothing is read.
    fn total_weight(&self, base: &Graph) -> f64 {
        if base.weights.is_empty()
            && self.weights.is_empty()
            && self.entries < 1 << f64::MANTISSA_DIGITS
        {
            return self.num_edges() as f64;
        }
        let bn = base.node_count();
        let mut sum = WeightSum::default();
        let mut next_row = 0;
        for (i, &u) in self.ids.iter().enumerate() {
            let u = u as usize;
            // Rows past the base's range that are not replaced are empty;
            // skipping their 0.0s leaves every partial sum as it was.
            let upto = u.min(bn);
            if next_row < upto {
                sum.add(
                    &base.weighted_degrees[next_row..upto],
                    &base.self_loops[next_row..upto],
                );
            }
            sum.add(&self.weighted_degrees[i..=i], &self.self_loops[i..=i]);
            next_row = u + 1;
        }
        if next_row < bn {
            sum.add(
                &base.weighted_degrees[next_row..],
                &base.self_loops[next_row..],
            );
        }
        sum.total()
    }

    fn bytes(&self) -> usize {
        std::mem::size_of_val(self.ids.as_slice())
            + std::mem::size_of_val(self.offsets.as_slice())
            + std::mem::size_of_val(self.targets.as_slice())
            + std::mem::size_of_val(self.weights.as_slice())
            + std::mem::size_of_val(self.weighted_degrees.as_slice())
            + std::mem::size_of_val(self.self_loops.as_slice())
            + std::mem::size_of_val(self.base_prefix.as_slice())
    }
}

impl Overlay {
    /// The index of row `u` in `rows`, if it is replaced.
    #[inline]
    fn slot(&self, u: Node) -> Option<usize> {
        let at = u as usize / 64;
        let (word, bit) = (self.mask[at], 1u64 << (u % 64));
        (word & bit != 0).then(|| self.rank[at] as usize + (word & (bit - 1)).count_ones() as usize)
    }

    /// Replaced rows below `u`, for `u` in `0..=n`.
    fn rank_below(&self, u: usize) -> usize {
        match self.mask.get(u / 64) {
            Some(&word) if u < self.rows.n => {
                self.rank[u / 64] as usize + (word & ((1u64 << (u % 64)) - 1)).count_ones() as usize
            }
            _ => self.rows.ids.len(),
        }
    }

    /// Where row `u` starts in the compacted graph: its `offsets[u]`, for
    /// `u` in `0..=n`.
    fn offset(&self, u: usize) -> usize {
        let k = self.rank_below(u);
        self.base.offsets[u.min(self.base.node_count())] + self.rows.offsets[k]
            - self.rows.base_prefix[k]
    }

    #[inline(never)]
    fn neighbors_and_weights(&self, u: Node) -> (&[Node], &[f64]) {
        match self.slot(u) {
            Some(i) => self.rows.row(i),
            None if (u as usize) < self.base.node_count() => self.base.neighbors_and_weights(u),
            None => (&[], &[]),
        }
    }

    #[inline(never)]
    fn degree(&self, u: Node) -> usize {
        match self.slot(u) {
            Some(i) => self.rows.offsets[i + 1] - self.rows.offsets[i],
            None if (u as usize) < self.base.node_count() => self.base.degree(u),
            None => 0,
        }
    }

    /// Weighted degree and self-loop weight of `u`.
    #[inline(never)]
    fn caches(&self, u: Node) -> (f64, f64) {
        match self.slot(u) {
            Some(i) => (self.rows.weighted_degrees[i], self.rows.self_loops[i]),
            None if (u as usize) < self.base.node_count() => (
                self.base.weighted_degrees[u as usize],
                self.base.self_loops[u as usize],
            ),
            None => (0.0, 0.0),
        }
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
            overlay: None,
        };
        // Postcondition of every construction path (GraphBuilder::build,
        // coarsening and compactions all land here): the full validator in
        // debug builds or when the `validate` feature is on.
        #[cfg(any(debug_assertions, feature = "validate"))]
        if let Err(e) = g.validate() {
            panic!("construction produced an inconsistent CSR graph: {e}");
        }
        g
    }

    /// The graph `this` becomes under `edits`, with the node range grown to
    /// `n_new`. Each edit is one undirected edge `{u, v}`, at most once per
    /// unordered pair, with ids below `n_new`: `Some(w)` inserts the edge or
    /// overwrites its weight, `None` removes it if present.
    ///
    /// The result is an overlay that shares `this`'s base CSR and holds
    /// only the rows that differ from it: those the edits touch, merged,
    /// and those an overlay of `this` already held, copied. That costs
    /// O(Σ touched degree + |overlay|), an n-bit row mask and, unless every
    /// weight is 1.0, one O(n) read that re-sums ω(E) in node order. Nothing
    /// `this` holds is written. Its [`Self::compacted`] form is what
    /// [`crate::GraphBuilder::build`] yields for the edited edge set, bit
    /// for bit: rows sorted by neighbor, untouched weights carried verbatim,
    /// caches from the same [`Self::from_csr`] arithmetic, every total the
    /// same. Sequential, hence identical at any thread count.
    ///
    /// The rows pile up fold after fold; [`Self::compacted`] writes
    /// them out when the caller decides they are too many.
    pub fn overlaid(this: &Arc<Self>, n_new: usize, edits: &[(Node, Node, Option<f64>)]) -> Self {
        let rows = this.replaced_rows(n_new, edits);
        let base = match &this.overlay {
            Some(o) => Arc::clone(&o.base),
            None => Arc::clone(this),
        };
        let mut mask = vec![0u64; rows.n.div_ceil(64)];
        for &u in &rows.ids {
            mask[u as usize / 64] |= 1 << (u % 64);
        }
        let mut seen = 0u32;
        let rank = (mask.iter())
            .map(|word| {
                let below = seen;
                seen += word.count_ones();
                below
            })
            .collect();
        let total_weight = rows.total_weight(&base);
        let g = Self {
            offsets: Vec::new(),
            targets: Vec::new(),
            weights: Vec::new(),
            ones: Vec::new(),
            weighted_degrees: Vec::new(),
            self_loops: Vec::new(),
            total_weight,
            num_edges: rows.num_edges(),
            overlay: Some(Box::new(Overlay {
                base,
                rows,
                mask,
                rank,
                compacted: OnceLock::new(),
            })),
        };
        #[cfg(any(debug_assertions, feature = "validate"))]
        if let Err(e) = g.validate() {
            panic!("an edit produced an inconsistent overlay graph: {e}");
        }
        g
    }

    /// The rows of the graph `self` becomes under `edits` that differ from
    /// its plain base: each touched row merged with its run of edits (both
    /// directions of every edit, a self-loop once), each row of `self`'s
    /// overlay the edits leave alone copied in runs.
    fn replaced_rows(&self, n_new: usize, edits: &[(Node, Node, Option<f64>)]) -> RowSet {
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

        let old = self.overlay.as_deref().map(|o| &o.rows);
        // Unit rows stay unit under edits of weight 1.0 and get no weights
        // array; `RowSet::new` drops one that ends up all 1.0.
        let weighted = !self.plain().weights.is_empty()
            || old.is_some_and(|o| !o.weights.is_empty())
            || delta.iter().any(|d| d.2.is_some_and(|w| w != 1.0));
        let old_len = old.map_or(0, |o| o.ids.len());
        let mut out = CsrRows {
            offsets: vec![0],
            targets: Vec::new(),
            weights: Vec::new(),
            weighted_degrees: Vec::with_capacity(old_len + delta.len()),
            self_loops: Vec::with_capacity(old_len + delta.len()),
            weighted,
            unit: true,
        };
        let mut ids = Vec::with_capacity(old_len + delta.len());
        let mut base_prefix = Vec::with_capacity(old_len + delta.len() + 1);
        base_prefix.push(0);
        // appends the base entries of the old overlay's rows `rows`
        let copy_prefix = |prefix: &mut Vec<usize>, old: &RowSet, rows: Range<usize>| {
            let shift = prefix[prefix.len() - 1] - old.base_prefix[rows.start];
            prefix.extend(
                old.base_prefix[rows.start + 1..=rows.end]
                    .iter()
                    .map(|&p| p + shift),
            );
        };
        let mut entries = self.entry_count();
        // m = (entries + loops) / 2; only an edit of `{row, row}` changes the loops
        let mut num_loops = 2 * self.num_edges - entries;
        // the first row of `old` not merged or copied yet
        let mut next_old = 0;
        for run in delta.chunk_by(|a, b| a.0 == b.0) {
            let row = run[0].0;
            let (old_t, old_w): (&[Node], &[f64]) = if (row as usize) < n_old {
                self.neighbors_and_weights(row)
            } else {
                (&[], &[])
            };
            // a row the old overlay does not replace is the base's
            let mut base_degree = old_t.len();
            if let Some(old) = old {
                let upto = next_old + old.ids[next_old..].partition_point(|&r| r < row);
                out.copy_set_rows(old, next_old..upto);
                ids.extend_from_slice(&old.ids[next_old..upto]);
                copy_prefix(&mut base_prefix, old, next_old..upto);
                next_old = upto;
                if old.ids.get(upto) == Some(&row) {
                    base_degree = old.base_prefix[upto + 1] - old.base_prefix[upto];
                    next_old += 1;
                }
            }
            let start = out.targets.len();
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
            out.end_row(row as usize);
            entries = entries - old_t.len() + (out.targets.len() - start);
            ids.push(row);
            base_prefix.push(base_prefix[base_prefix.len() - 1] + base_degree);
        }
        if let Some(old) = old {
            out.copy_set_rows(old, next_old..old.ids.len());
            ids.extend_from_slice(&old.ids[next_old..]);
            copy_prefix(&mut base_prefix, old, next_old..old.ids.len());
        }
        RowSet::new(ids, base_prefix, out, n_new, entries, num_loops)
    }

    /// This graph written out as one plain CSR, into a fresh, exactly
    /// sized allocation. O(n + m): for an overlay graph, the base's rows
    /// are copied in runs between the replaced ones; a plain graph is
    /// cloned. The result equals [`Self::csr_view`]'s, bit for bit.
    pub fn compacted(&self) -> Self {
        match &self.overlay {
            Some(o) => o.rows.compact(&o.base),
            None => self.clone(),
        }
    }

    /// Whether this graph is an overlay over a shared base
    /// ([`Self::overlaid`]) rather than one plain CSR.
    pub fn is_overlaid(&self) -> bool {
        self.overlay.is_some()
    }

    /// The bytes this graph holds, base and overlay apart.
    pub fn footprint(&self) -> Footprint {
        let (base, overlay) = match &self.overlay {
            Some(o) => (&*o.base, Some(&**o)),
            None => (self, None),
        };
        let v = base.csr_view();
        let mut footprint = Footprint {
            base_bytes: std::mem::size_of_val(v.offsets)
                + std::mem::size_of_val(v.targets)
                + std::mem::size_of_val(v.weights)
                + std::mem::size_of_val(v.weighted_degrees)
                + std::mem::size_of_val(v.self_loops),
            base_entries: v.targets.len(),
            ..Footprint::default()
        };
        if let Some(o) = overlay {
            footprint.overlay_rows = o.rows.ids.len();
            footprint.overlay_entries = o.rows.targets.len();
            footprint.overlay_bytes = o.rows.bytes()
                + std::mem::size_of_val(o.mask.as_slice())
                + std::mem::size_of_val(o.rank.as_slice());
        }
        footprint
    }

    /// The plain CSR the rows not replaced are read from.
    fn plain(&self) -> &Self {
        self.overlay.as_deref().map_or(self, |o| &o.base)
    }

    /// Adjacency entries: twice the non-loop edges plus the loops.
    fn entry_count(&self) -> usize {
        match &self.overlay {
            Some(o) => o.rows.entries,
            None => self.targets.len(),
        }
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
    /// it parses; `sorted` says that every row is already strictly
    /// increasing, which a reader sees while it parses too.
    ///
    /// Unless `sorted`, each row is sorted by `(neighbor, weight bits)` and
    /// its repeats are summed in that order, as
    /// [`crate::GraphBuilder::build`] merges parallel edges; a row that is
    /// already strictly sorted is left as it is. Then every non-loop entry
    /// `u → v` must have the mirror `v → u` with the same weight bits, or
    /// the smallest disagreeing pair comes back as the error. On rows that
    /// mirror, the graph is the builder's for the edges of the rows' upper
    /// halves, bit for bit.
    pub fn from_adjacency_rows(
        offsets: Vec<usize>,
        mut targets: Vec<Node>,
        mut weights: Vec<f64>,
        sorted: bool,
    ) -> Result<Self, Asymmetry> {
        debug_assert!(check_arrays(&offsets, &targets, &weights, false).is_ok());
        let offsets = if sorted {
            debug_assert!(
                (0..offsets.len() - 1).all(|u| targets[offsets[u]..offsets[u + 1]]
                    .windows(2)
                    .all(|p| p[0] < p[1]))
            );
            offsets
        } else {
            crate::builder::merge_rows(&offsets, &mut targets, &mut weights)
        };
        if !rows_mirror(&offsets, &targets, &weights) {
            if let Some(a) = first_asymmetry(&offsets, &targets, &weights) {
                return Err(a);
            }
        }
        Ok(Self::from_csr(offsets, targets, weights))
    }

    /// Borrows every CSR array and derived cache at once: the only bulk
    /// access to a graph, which a serializer, a relabeling or a byte count
    /// reads. It *compacts*: an overlay graph is written out as one CSR —
    /// O(n + m) and a second graph's memory — on the first call, and keeps
    /// that copy for as long as it lives. Callers that hold an overlay
    /// graph and can replace it call [`Self::compacted`] instead.
    pub fn csr_view(&self) -> CsrView<'_> {
        let g = match &self.overlay {
            Some(o) => (o.compacted).get_or_init(|| o.rows.compact(&o.base)),
            None => self,
        };
        CsrView {
            offsets: &g.offsets,
            targets: &g.targets,
            weights: &g.weights,
            weighted_degrees: &g.weighted_degrees,
            self_loops: &g.self_loops,
            total_weight: g.total_weight,
            num_edges: g.num_edges,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        match &self.overlay {
            Some(o) => o.rows.n,
            None => self.offsets.len() - 1,
        }
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
    /// Small graphs come back as one range. An overlay graph splits where
    /// its compaction would.
    pub fn edge_balanced_ranges(&self) -> Vec<std::ops::Range<Node>> {
        let ranges = match &self.overlay {
            Some(o) => weighted_ranges_of(o.rows.n, |u| o.offset(u), 1),
            None => weighted_ranges(&self.offsets, 1),
        };
        ranges
            .into_iter()
            .map(|r| r.start as Node..r.end as Node)
            .collect()
    }

    /// Unweighted degree of `u` (number of adjacency entries; a self-loop
    /// contributes one).
    #[inline]
    pub fn degree(&self, u: Node) -> usize {
        if let Some(o) = &self.overlay {
            return o.degree(u);
        }
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// Sorted neighbor ids of `u`.
    #[inline]
    pub fn neighbors(&self, u: Node) -> &[Node] {
        if let Some(o) = &self.overlay {
            return o.neighbors_and_weights(u).0;
        }
        &self.targets[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Neighbor ids and the parallel slice of edge weights — for a unit
    /// graph a prefix of its run of 1.0s, so callers read the same values
    /// either way.
    #[inline]
    pub fn neighbors_and_weights(&self, u: Node) -> (&[Node], &[f64]) {
        if let Some(o) = &self.overlay {
            return o.neighbors_and_weights(u);
        }
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
    #[inline]
    pub fn weighted_degree(&self, u: Node) -> f64 {
        if let Some(o) = &self.overlay {
            return o.caches(u).0;
        }
        self.weighted_degrees[u as usize]
    }

    /// Self-loop weight ω(u, u) (0 if no loop).
    #[inline]
    pub fn self_loop_weight(&self, u: Node) -> f64 {
        if let Some(o) = &self.overlay {
            return o.caches(u).1;
        }
        self.self_loops[u as usize]
    }

    /// The paper's `vol(u)`: incident weight with self-loops counted twice.
    #[inline]
    pub fn volume(&self, u: Node) -> f64 {
        if let Some(o) = &self.overlay {
            let (weighted_degree, self_loop) = o.caches(u);
            return weighted_degree + self_loop;
        }
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
    /// An overlay graph is held to its compaction: that graph must pass
    /// all of the above, and every accessor, total and
    /// [`Self::edge_balanced_ranges`] of the overlay must read what it
    /// reads, bit for bit.
    ///
    /// Every construction path runs it as a postcondition in debug builds
    /// or with the `validate` feature.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(o) = &self.overlay {
            return self.validate_overlay(o);
        }
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

    /// [`Self::validate`] for an overlay graph.
    fn validate_overlay(&self, o: &Overlay) -> Result<(), String> {
        if o.base.overlay.is_some() {
            return Err("the base of an overlay is itself an overlay".into());
        }
        let rows = &o.rows;
        if let Some(p) = rows.ids.windows(2).find(|p| p[0] >= p[1]) {
            return Err(format!(
                "overlay rows not strictly sorted: {} then {}",
                p[0], p[1]
            ));
        }
        if rows
            .ids
            .iter()
            .enumerate()
            .any(|(i, &u)| o.slot(u) != Some(i))
            || o.mask
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
                != rows.ids.len()
        {
            return Err("overlay row mask does not list exactly the replaced rows".into());
        }
        let longest = rows.offsets.windows(2).map(|p| p[1] - p[0]).max();
        if rows.weights.is_empty() && rows.ones.len() != longest.unwrap_or(0) {
            return Err("overlay run of unit weights does not cover its longest row".into());
        }
        if !rows.weights.is_empty() && rows.weights.iter().all(|&w| w == 1.0) {
            return Err("overlay stores a weights array of 1.0s".into());
        }
        let flat = rows.compact(&o.base);
        flat.validate()?;
        let bits = |ws: &[f64]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        if flat.node_count() != self.node_count() {
            return Err(format!(
                "overlay has {} nodes, its compaction {}",
                self.node_count(),
                flat.node_count()
            ));
        }
        for u in flat.nodes() {
            let ((t, w), (ft, fw)) = (self.neighbors_and_weights(u), flat.neighbors_and_weights(u));
            if t != ft || bits(w) != bits(fw) || self.degree(u) != flat.degree(u) {
                return Err(format!(
                    "overlay row of node {u} differs from its compaction's"
                ));
            }
            if self.weighted_degree(u).to_bits() != flat.weighted_degree(u).to_bits()
                || self.self_loop_weight(u).to_bits() != flat.self_loop_weight(u).to_bits()
            {
                return Err(format!(
                    "overlay caches of node {u} differ from its compaction's"
                ));
            }
        }
        if self.total_weight.to_bits() != flat.total_weight.to_bits() {
            return Err(format!(
                "overlay total_weight is {} (compacted {})",
                self.total_weight, flat.total_weight
            ));
        }
        if self.num_edges != flat.num_edges {
            return Err(format!(
                "overlay num_edges is {} (compacted {})",
                self.num_edges, flat.num_edges
            ));
        }
        // what `edge_balanced_ranges` splits by
        if let Some(u) = (0..=flat.node_count()).find(|&u| o.offset(u) != flat.offsets[u]) {
            return Err(format!(
                "overlay offset of row {u} is {} (compacted {})",
                o.offset(u),
                flat.offsets[u]
            ));
        }
        Ok(())
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
    use crate::{Graph, GraphBuilder};
    use std::sync::Arc;

    fn triangle_with_loop() -> Graph {
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
        let got = Graph::overlaid(&Arc::new(g), 6, &edits);
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
        let g = Arc::new(triangle_with_loop());
        Graph::overlaid(&g, 3, &[(0, 1, None), (1, 0, Some(2.0))]);
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
        assert_eq!(triangle_with_loop().validate(), Ok(()));
    }
}
