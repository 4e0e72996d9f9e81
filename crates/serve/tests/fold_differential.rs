//! Differential test of the write-behind fold: [`GraphEntry::rebuild`]
//! (a row merge into an overlay over the shared base, `Graph::overlaid`)
//! against the routine it replaced, kept here as [`fold_reference`] —
//! collect every edge, resolve the buffer through a hash map, re-assemble
//! with `GraphBuilder::build`. The two must agree on every row accessor
//! and, compacted, on every CSR array and derived cache down to
//! `f64::to_bits`, at any thread count and for any fold cadence, because
//! WAL recovery replays acknowledged batches with a different cadence than
//! the live daemon folded them with.

use parcom_core::quality::modularity;
use parcom_core::DetectorSpec;
use parcom_generators::{lfr, rmat, LfrParams, RmatParams};
use parcom_graph::parallel::with_threads;
use parcom_graph::{Graph, GraphBuilder, Node};
use parcom_serve::store::{EdgeOp, GraphEntry, COMPACT_SHARE};
use std::collections::HashMap;

/// The pre-delta-merge fold, verbatim apart from taking its inputs as
/// arguments: last operation per edge wins, existing edges are replaced or
/// dropped in one pass over the collected edge set, what remains is new.
fn fold_reference(graph: &Graph, pending: &[EdgeOp]) -> Graph {
    let mut delta: HashMap<(Node, Node), Option<f64>> = HashMap::with_capacity(pending.len());
    let mut max_node: Node = 0;
    for op in pending {
        match *op {
            EdgeOp::Insert(u, v, w) => {
                let (u, v) = (u.min(v), u.max(v));
                max_node = max_node.max(v);
                delta.insert((u, v), Some(w));
            }
            EdgeOp::Remove(u, v) => {
                delta.insert((u.min(v), u.max(v)), None);
            }
        }
    }
    let mut edges = graph.par_collect_edges();
    edges.retain_mut(|(u, v, w)| match delta.remove(&(*u, *v)) {
        Some(Some(new_w)) => {
            *w = new_w;
            true
        }
        Some(None) => false,
        None => true,
    });
    for ((u, v), value) in delta {
        if let Some(w) = value {
            edges.push((u, v, w));
        }
    }
    let n = graph.node_count().max(max_node as usize + 1);
    let mut builder = GraphBuilder::with_capacity(n, edges.len());
    builder.extend_edges(edges);
    builder.build()
}

/// Bit-level equality of all seven parts of the CSR view.
fn assert_bit_identical(got: &Graph, want: &Graph, what: &str) {
    let bits = |ws: &[f64]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    let (g, w) = (got.csr_view(), want.csr_view());
    assert_eq!(g.offsets, w.offsets, "{what}: offsets");
    assert_eq!(g.targets, w.targets, "{what}: targets");
    assert_eq!(bits(g.weights), bits(w.weights), "{what}: weights");
    assert_eq!(
        bits(g.weighted_degrees),
        bits(w.weighted_degrees),
        "{what}: weighted degrees"
    );
    assert_eq!(bits(g.self_loops), bits(w.self_loops), "{what}: self-loops");
    assert_eq!(
        g.total_weight.to_bits(),
        w.total_weight.to_bits(),
        "{what}: total weight"
    );
    assert_eq!(g.num_edges, w.num_edges, "{what}: edge count");
}

/// Every row accessor of `got` — an overlay graph, read in place —
/// against `want`'s, bit for bit, and the split points of
/// `edge_balanced_ranges` on one, two and four threads.
fn assert_same_rows(got: &Graph, want: &Graph, what: &str) {
    let bits = |ws: &[f64]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    assert_eq!(got.node_count(), want.node_count(), "{what}: n");
    assert_eq!(got.edge_count(), want.edge_count(), "{what}: m");
    let total = |g: &Graph| g.total_edge_weight().to_bits();
    assert_eq!(total(got), total(want), "{what}: total weight");
    for u in want.nodes() {
        let ((t, w), (wt, ww)) = (got.neighbors_and_weights(u), want.neighbors_and_weights(u));
        assert_eq!((t, bits(w)), (wt, bits(ww)), "{what}: row {u}");
        assert_eq!(got.neighbors(u), wt, "{what}: neighbors of {u}");
        assert_eq!(got.degree(u), want.degree(u), "{what}: degree of {u}");
        let caches = |g: &Graph| {
            [g.weighted_degree(u), g.self_loop_weight(u), g.volume(u)].map(f64::to_bits)
        };
        assert_eq!(caches(got), caches(want), "{what}: caches of {u}");
        if let Some(&v) = wt.last() {
            let weight = |g: &Graph| g.edge_weight(u, v).map(f64::to_bits);
            assert_eq!(weight(got), weight(want), "{what}: edge {{{u}, {v}}}");
        }
    }
    for threads in [1, 2, 4] {
        let ranges = |g: &Graph| with_threads(threads, || g.edge_balanced_ranges());
        assert_eq!(ranges(got), ranges(want), "{what}: ranges at t{threads}");
    }
}

/// Folds `batches` into `base` at the given cadence: all in one window, or
/// one fold per batch.
fn fold(base: &Graph, batches: &[Vec<EdgeOp>], one_window: bool) -> GraphEntry {
    let mut entry = GraphEntry::new(base.clone(), None);
    for batch in batches {
        entry.buffer_ops(batch.iter().copied());
        if !one_window {
            entry.rebuild();
        }
    }
    entry.rebuild();
    entry
}

/// A weighted path 0-1-…-5 plus the isolated (empty-row) nodes 6 and 7.
fn base() -> Graph {
    let edges: Vec<(Node, Node, f64)> = (0..5).map(|u| (u, u + 1, 1.0 + f64::from(u))).collect();
    GraphBuilder::from_weighted_edges(8, &edges)
}

#[test]
fn degenerate_batches_match_the_reference_fold() {
    use EdgeOp::{Insert, Remove};
    let cases: Vec<(&str, Vec<EdgeOp>)> = vec![
        ("overwrite of an existing edge", vec![Insert(2, 1, 9.5)]),
        ("remove of an absent edge", vec![Remove(0, 4)]),
        (
            "insert-then-remove and remove-then-insert",
            vec![
                Insert(0, 3, 1.5),
                Remove(3, 0),
                Remove(1, 2),
                Insert(2, 1, 5.0),
            ],
        ),
        ("self-loop insert", vec![Insert(3, 3, 2.0)]),
        (
            "self-loop insert, overwrite and remove in one window",
            vec![
                Insert(3, 3, 2.0),
                Insert(3, 3, 4.0),
                Insert(6, 6, 1.0),
                Remove(6, 6),
            ],
        ),
        (
            "growth with id gaps",
            vec![Insert(2, 11, 1.0), Insert(14, 13, 0.25)],
        ),
        (
            "growth by an insert that is later removed",
            vec![Insert(1, 20, 3.0), Remove(20, 1)],
        ),
        (
            "remove with out-of-range ids",
            vec![Remove(3, 900), Remove(901, 902), Insert(0, 2, 1.0)],
        ),
        (
            "rows 0 and n-1",
            vec![Insert(0, 7, 2.0), Remove(0, 1), Insert(7, 7, 1.0)],
        ),
        (
            "empty rows gaining and losing entries",
            vec![Insert(6, 7, 1.0), Insert(6, 0, 2.0), Remove(7, 6)],
        ),
        (
            "a batch that resolves to no change",
            vec![Remove(0, 5), Insert(4, 6, 1.0), Remove(6, 4)],
        ),
        (
            "every row touched",
            (0..8).map(|u| Insert(u, (u + 3) % 8, 0.5)).collect(),
        ),
    ];
    for (what, ops) in &cases {
        let want = fold_reference(&base(), ops);
        let entry = fold(&base(), std::slice::from_ref(ops), true);
        let stats = entry.stats();
        assert_eq!((stats.generation, stats.pending), (1, 0));
        assert_same_rows(&entry.current().0, &want, what);
        assert_bit_identical(&entry.current().0, &want, what);
    }

    // Self-loop overwrite and remove against a loop that is already resident.
    let with_loop = fold_reference(&base(), &[Insert(3, 3, 2.0)]);
    for ops in [vec![Insert(3, 3, 7.0)], vec![Remove(3, 3)]] {
        let want = fold_reference(&with_loop, &ops);
        let entry = fold(&with_loop, &[ops], true);
        assert_bit_identical(&entry.current().0, &want, "resident self-loop");
    }
}

/// xorshift64*: the serve crate has no `rand` dev-dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A 256-op batch in the benchmark's mix, plus the cases it never sends:
/// overwrites with fresh weights, removes of absent edges, self-loops and
/// the occasional id past the node range.
fn random_batch(rng: &mut Rng, g: &Graph, edges: &[(Node, Node, f64)]) -> Vec<EdgeOp> {
    let n = g.node_count();
    (0..256)
        .map(|_| {
            let (u, v) = (rng.below(n) as Node, rng.below(n) as Node);
            let w = 0.25 + rng.below(64) as f64 / 8.0;
            let (eu, ev, _) = edges[rng.below(edges.len())];
            match rng.below(16) {
                0..=5 => EdgeOp::Insert(u, v, w),
                6..=9 => EdgeOp::Remove(eu, ev),
                10..=11 => EdgeOp::Insert(ev, eu, w),
                12 => EdgeOp::Remove(u, v),
                13 => EdgeOp::Insert(u, u, w),
                14 => EdgeOp::Insert(u, (n + rng.below(8)) as Node, w),
                _ => EdgeOp::Remove(v, (n + rng.below(8)) as Node),
            }
        })
        .collect()
}

#[test]
fn random_batches_match_at_any_thread_count_and_fold_cadence() {
    let instances = [
        ("lfr", lfr(LfrParams::benchmark(5000, 0.3), 11).0),
        ("rmat", rmat(RmatParams::paper_with_edge_factor(11, 8), 12)),
    ];
    for (name, g) in &instances {
        let edges = g.par_collect_edges();
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let batches: Vec<Vec<EdgeOp>> = (0..4).map(|_| random_batch(&mut rng, g, &edges)).collect();
        let all: Vec<EdgeOp> = batches.concat();
        let want = fold_reference(g, &all);
        for threads in [1, 2, 4] {
            let what = format!("{name} t{threads}");
            with_threads(threads, || {
                assert_bit_identical(&fold_reference(g, &all), &want, &what);
                let once = fold(g, &batches, true);
                let stepwise = fold(g, &batches, false);
                assert_eq!(
                    (once.stats().generation, stepwise.stats().generation),
                    (1, 4)
                );
                assert_same_rows(&stepwise.current().0, &want, &format!("{what} 4 folds"));
                assert_bit_identical(&once.current().0, &want, &format!("{what} one fold"));
                assert_bit_identical(&stepwise.current().0, &want, &format!("{what} 4 folds"));
            });
        }
    }
}

/// Nine folds through ONE entry, each snapshot against the reference fold
/// of its predecessor, each followed by a compaction.
#[test]
fn a_chain_of_folds_and_compactions_matches_the_reference() {
    use EdgeOp::{Insert, Remove};
    let g = lfr(LfrParams::benchmark(5000, 0.3), 11).0;
    let mut rng = Rng(0xD1B5_4A32_D192_ED03);
    let mut want = g.clone();
    let mut entry = GraphEntry::new(g, None);
    let mut compacted = Vec::new();
    for step in 0..9 {
        let (n, edges) = (want.node_count(), want.par_collect_edges());
        let mut pick = |k: usize| {
            (0..k)
                .map(|_| edges[rng.below(edges.len())])
                .collect::<Vec<_>>()
        };
        let batch: Vec<EdgeOp> = match step {
            // growth: rows past the old node range, with id gaps
            2 => (0..64)
                .map(|i| Insert(i * 7, (n + 2 * i as usize) as Node, 1.5))
                .collect(),
            // a net-shrinking batch
            3 => (pick(300).iter().map(|&(u, v, _)| Remove(u, v))).collect(),
            // non-unit weights on new, overwritten and removed self-loops
            4 => (pick(100).iter().enumerate())
                .flat_map(|(i, &(u, v, w))| {
                    [
                        Insert(u, u, 0.1 + w / 3.0),
                        Insert(v, v, 1e-17),
                        Remove(u, u),
                    ]
                    .into_iter()
                    .take(2 + i % 2)
                })
                .collect(),
            // more new entries than the graph holds
            5 => (0..9000)
                .map(|i| Insert(i % 4999, (i * 31 + 17) % 5000, 0.25 + f64::from(i % 7)))
                .collect(),
            _ => random_batch(&mut rng, &want, &edges),
        };
        want = fold_reference(&want, &batch);
        entry.buffer_ops(batch);
        let snapshot = entry.snapshot();
        let what = format!("fold {step}");
        assert_same_rows(&snapshot.graph, &want, &what);
        assert_bit_identical(&snapshot.graph, &want, &what);
        drop(snapshot.graph);
        compacted.push(snapshot.compacted);
        assert_eq!(entry.compact(), !snapshot.compacted, "{what}");
        assert_bit_identical(&entry.current().0, &want, &format!("{what} compacted"));
    }
    assert!(want.node_count() > 5000 && entry.stats().generation == 9);
    // A random batch touches a tenth of the rows and passes the share on
    // its own, and so do the net-shrinking and the oversized batch: they
    // compact inside the fold. The growth and the self-loops stay overlays.
    let share = [true, true, false, true, false, true, true, true, true];
    assert_eq!(compacted, share);
}

/// A unit graph through one entry: unit batches keep it unit, a weighted
/// insert gives it weights, removing that edge makes it unit again. Each
/// fold, and its compaction, must equal the reference —
/// `weights.is_empty()` included.
#[test]
fn a_unit_graph_stays_unit_until_a_weighted_insert_and_after_its_removal() {
    use EdgeOp::{Insert, Remove};
    let g = lfr(LfrParams::benchmark(5000, 0.3), 11).0;
    assert!(g.csr_view().weights.is_empty());
    let mut rng = Rng(0x2545_F491_4F6C_DD1D);
    let mut want = g.clone();
    let mut entry = GraphEntry::new(g, None);
    let mut unit = Vec::new();
    for step in 0..7 {
        let (n, edges) = (want.node_count(), want.par_collect_edges());
        let batch: Vec<EdgeOp> = match step {
            3 => vec![Insert(17, 4000, 2.5)],
            4 => vec![Remove(4000, 17), Insert(18, 4001, 1.0)],
            // the benchmark's mix: 48 unit inserts, 16 removes
            _ => (0..64)
                .map(|i| {
                    let (u, v, _) = edges[rng.below(edges.len())];
                    match i % 4 {
                        0 => Remove(u, v),
                        _ => Insert(rng.below(n) as Node, rng.below(n) as Node, 1.0),
                    }
                })
                .collect(),
        };
        want = fold_reference(&want, &batch);
        entry.buffer_ops(batch);
        let snapshot = entry.snapshot();
        let what = format!("fold {step}");
        assert!(!snapshot.compacted, "{what}");
        assert_same_rows(&snapshot.graph, &want, &what);
        assert_bit_identical(&snapshot.graph, &want, &what);
        unit.push(snapshot.graph.csr_view().weights.is_empty());
        drop(snapshot.graph);
        assert!(entry.compact(), "{what}: an overlay to compact");
        assert_bit_identical(&entry.current().0, &want, &format!("{what} compacted"));
    }
    assert_eq!(unit, [true, true, true, false, true, true, true]);
}

/// Folds that stay overlays, through ONE entry, each read in place and
/// compacted against the reference: a row re-touched across folds, growth
/// past the base's node range, a self-loop added and removed, a unit graph
/// that gets weights in one overlay row and loses them again, then unit
/// batches until the overlay crosses the compaction share — exactly at
/// the fold whose rows hold more than 1/`COMPACT_SHARE` of the base's
/// entries.
#[test]
fn overlay_chains_match_the_reference_after_every_fold() {
    use std::collections::BTreeSet;
    use EdgeOp::{Insert, Remove};
    let g = lfr(LfrParams::benchmark(1000, 0.3), 5).0;
    assert!(g.csr_view().weights.is_empty());
    let n = Node::try_from(g.node_count()).unwrap();
    let neighbor = g.neighbors(3)[0];
    let scripted: Vec<Vec<EdgeOp>> = vec![
        vec![Insert(3, 40, 1.0)],
        // row 3 again, and 40 untouched: both stay replaced
        vec![Insert(41, 3, 1.0), Remove(3, neighbor)],
        vec![Insert(5, n + 3, 1.0)],
        vec![Insert(7, 7, 2.0)],
        vec![Remove(7, 7)],
        vec![Insert(10, 50, 2.5), Insert(n + 1, n + 2, 1.0)],
        vec![Remove(50, 10)],
    ];
    let mut rng = Rng(0x6A09_E667_F3BC_C908);
    let mut want = g.clone();
    let mut entry = GraphEntry::new(g, None);
    let mut touched: BTreeSet<Node> = BTreeSet::new();
    let (mut unit, mut compactions) = (Vec::new(), 0);
    let mut base_entries = entry.current().0.footprint().base_entries;
    for step in 0..60 {
        let batch = match scripted.get(step) {
            Some(batch) => batch.clone(),
            None if compactions > 0 => break,
            None => {
                let m = want.node_count();
                (0..32)
                    .map(|_| Insert(rng.below(m) as Node, rng.below(m) as Node, 1.0))
                    .collect()
            }
        };
        want = fold_reference(&want, &batch);
        for op in &batch {
            let (EdgeOp::Insert(u, v, _) | EdgeOp::Remove(u, v)) = *op;
            touched.extend([u, v]);
        }
        // the overlay this fold writes holds the current rows of every row
        // touched since the last compaction
        let entries: usize = touched.iter().map(|&u| want.degree(u)).sum();
        entry.buffer_ops(batch);
        let snapshot = entry.snapshot();
        let what = format!("fold {step}");
        assert_same_rows(&snapshot.graph, &want, &what);
        assert_bit_identical(&snapshot.graph, &want, &what);
        unit.push(snapshot.graph.csr_view().weights.is_empty());
        assert_eq!(
            snapshot.compacted,
            entries * COMPACT_SHARE > base_entries,
            "{what}: {entries} overlay entries over {base_entries}"
        );
        let footprint = snapshot.graph.footprint();
        if snapshot.compacted {
            assert!(!snapshot.graph.is_overlaid() && snapshot.overlay_rows == 0);
            assert_eq!(footprint.base_entries, 2 * want.edge_count());
            (base_entries, compactions) = (footprint.base_entries, compactions + 1);
            touched.clear();
        } else {
            assert!(snapshot.graph.is_overlaid(), "{what}");
            assert_eq!(
                snapshot.overlay_rows,
                touched.len(),
                "{what}: replaced rows"
            );
            assert_eq!(footprint.overlay_rows, touched.len());
            assert_eq!(footprint.overlay_entries, entries);
        }
    }
    assert_eq!(compactions, 1, "the unit batches crossed the share once");
    assert_eq!(
        unit[..scripted.len()],
        [true, true, true, false, true, false, true]
    );
    assert!(unit[scripted.len()..].iter().all(|&u| u));
}

/// Detectors cannot tell an overlay graph from its compaction: cold
/// `plm:move=coloring` and `plp` at one thread give the same partition and
/// the same modularity bits on both, and modularity — a reduction split at
/// `edge_balanced_ranges` — keeps its bits on two threads too.
#[test]
fn detections_on_an_overlay_graph_and_its_compaction_are_bit_identical() {
    let g = lfr(LfrParams::benchmark(2000, 0.3), 9).0;
    let edges = g.par_collect_edges();
    let mut rng = Rng(0xBB67_AE85_84CA_A73B);
    let mut entry = GraphEntry::new(g.clone(), None);
    for _ in 0..3 {
        let batch = random_batch(&mut rng, &g, &edges);
        entry.buffer_ops(batch.into_iter().take(40));
        entry.rebuild();
    }
    let overlay = entry.current().0;
    assert!(overlay.is_overlaid());
    let compact = overlay.compacted();
    assert!(!compact.is_overlaid());
    let halves = with_threads(2, || overlay.edge_balanced_ranges());
    assert_eq!(halves.len(), 2, "the t2 reductions split the rows");
    assert_eq!(halves, with_threads(2, || compact.edge_balanced_ranges()));
    for spec in ["plm:move=coloring,seed=1", "plp:seed=1"] {
        let run = |g: &Graph| {
            with_threads(1, || {
                let mut detector = DetectorSpec::parse(spec).unwrap().build().unwrap();
                let zeta = detector.detect(g);
                let q = modularity(g, &zeta).to_bits();
                (zeta, q)
            })
        };
        let (on_overlay, on_compact) = (run(&overlay), run(&compact));
        assert_eq!(on_overlay, on_compact, "{spec}");
        let q = |g: &Graph| with_threads(2, || modularity(g, &on_overlay.0).to_bits());
        assert_eq!(q(&overlay), q(&compact), "{spec} at t2");
    }
}
