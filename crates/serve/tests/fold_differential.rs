//! Differential test of the write-behind fold: [`GraphEntry::rebuild`]
//! (a row merge through `Graph::patched`) against the routine it replaced,
//! kept here as [`fold_reference`] — collect every edge, resolve the buffer
//! through a hash map, re-assemble with `GraphBuilder::build`. The two must
//! agree on every CSR array and every derived cache down to `f64::to_bits`,
//! at any thread count and for any fold cadence, because WAL recovery
//! replays acknowledged batches with a different cadence than the live
//! daemon folded them with.

use parcom_generators::{lfr, rmat, LfrParams, RmatParams};
use parcom_graph::parallel::with_threads;
use parcom_graph::relabel::Relabeling;
use parcom_graph::{Graph, GraphBuilder, Node};
use parcom_serve::store::{EdgeOp, GraphEntry};
use std::collections::HashMap;

/// The pre-delta-merge fold, verbatim apart from taking its inputs as
/// arguments: last operation per edge wins, existing edges are replaced or
/// dropped in one pass over the collected edge set, what remains is new.
fn fold_reference(graph: &Graph, relabeling: Option<&Relabeling>, pending: &[EdgeOp]) -> Graph {
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
    if let Some(r) = relabeling {
        for e in edges.iter_mut() {
            let (u, v) = (r.to_old_id(e.0), r.to_old_id(e.1));
            (e.0, e.1) = (u.min(v), u.max(v));
        }
    }
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
        let want = fold_reference(&base(), None, ops);
        let entry = fold(&base(), std::slice::from_ref(ops), true);
        let stats = entry.stats();
        assert_eq!((stats.generation, stats.rebuilds, stats.pending), (1, 1, 0));
        assert_bit_identical(&entry.current().0, &want, what);
    }

    // Self-loop overwrite and remove against a loop that is already resident.
    let with_loop = fold_reference(&base(), None, &[Insert(3, 3, 2.0)]);
    for ops in [vec![Insert(3, 3, 7.0)], vec![Remove(3, 3)]] {
        let want = fold_reference(&with_loop, None, &ops);
        let entry = fold(&with_loop, &[ops], true);
        assert_bit_identical(&entry.current().0, &want, "resident self-loop");
    }
}

#[test]
fn first_mutation_of_a_relabeled_entry_unrelabels_then_patches() {
    // A star so the degree order is not the identity: hub 3 gets new id 0.
    let original = GraphBuilder::from_weighted_edges(
        6,
        &[
            (3, 0, 1.0),
            (3, 1, 2.0),
            (3, 2, 3.0),
            (3, 4, 4.0),
            (0, 1, 0.5),
        ],
    );
    let r = Relabeling::degree_ordered(&original);
    let relabeled = r.apply(&original);
    // Ops arrive in original ids; one of them resolves to no change.
    for ops in [
        vec![
            EdgeOp::Insert(2, 4, 2.0),
            EdgeOp::Remove(0, 1),
            EdgeOp::Insert(5, 8, 1.0),
        ],
        vec![EdgeOp::Remove(2, 4)],
    ] {
        let want = fold_reference(&relabeled, Some(&r), &ops);
        let mut entry = GraphEntry::new(relabeled.clone(), Some(r.clone()));
        assert!(entry.stats().relabeled);
        entry.buffer_ops(ops);
        entry.rebuild();
        let (got, relabeling, generation) = entry.current();
        assert!(relabeling.is_none(), "the fold drops the relabeling");
        assert!(entry.stats().relabel_dropped);
        assert_eq!(generation, 1);
        assert_bit_identical(&got, &want, "relabeled entry");
        assert_eq!(got.edge_weight(3, 2), Some(3.0), "ids are original again");
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
        let want = fold_reference(g, None, &all);
        for threads in [1, 2, 4] {
            let what = format!("{name} t{threads}");
            with_threads(threads, || {
                assert_bit_identical(&fold_reference(g, None, &all), &want, &what);
                let once = fold(g, &batches, true);
                let stepwise = fold(g, &batches, false);
                assert_eq!((once.stats().rebuilds, stepwise.stats().rebuilds), (1, 4));
                assert_bit_identical(&once.current().0, &want, &format!("{what} one fold"));
                assert_bit_identical(&stepwise.current().0, &want, &format!("{what} 4 folds"));
            });
        }

        // The relabeled view of the same instance: past the sequential
        // cut-off of `Relabeling::apply`, so the un-relabel runs in parallel.
        let r = Relabeling::degree_ordered(g);
        let relabeled = r.apply(g);
        for threads in [1, 2, 4] {
            with_threads(threads, || {
                let mut entry = GraphEntry::new(relabeled.clone(), Some(r.clone()));
                entry.buffer_ops(batches[0].iter().copied());
                entry.rebuild();
                let want = fold_reference(&relabeled, Some(&r), &batches[0]);
                let what = format!("{name} relabeled t{threads}");
                assert_bit_identical(&entry.current().0, &want, &what);
            });
        }
    }
}

/// Nine folds through ONE entry, each snapshot against the reference fold
/// of its predecessor: from the third on a fold writes into the buffers of
/// the CSR retired two folds earlier, and what it writes must not depend
/// on what they held.
#[test]
fn a_chain_of_folds_through_recycled_buffers_matches_the_reference() {
    use EdgeOp::{Insert, Remove};
    let g = lfr(LfrParams::benchmark(5000, 0.3), 11).0;
    let mut rng = Rng(0xD1B5_4A32_D192_ED03);
    let mut want = g.clone();
    let mut entry = GraphEntry::new(g, None);
    let mut recycled = Vec::new();
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
            // more new entries than any retired CSR's headroom holds
            5 => (0..9000)
                .map(|i| Insert(i % 4999, (i * 31 + 17) % 5000, 0.25 + f64::from(i % 7)))
                .collect(),
            _ => random_batch(&mut rng, &want, &edges),
        };
        want = fold_reference(&want, None, &batch);
        entry.buffer_ops(batch);
        let snapshot = entry.snapshot();
        assert_bit_identical(&snapshot.graph, &want, &format!("fold {step}"));
        recycled.push(snapshot.recycled);
    }
    assert!(want.node_count() > 5000 && entry.stats().rebuilds == 9);
    // No spare yet; its capacity is exact; then every fold recycles, but
    // the oversized one and the one that inherits the CSR before it.
    assert_eq!(
        recycled,
        [false, false, true, true, true, false, false, true, true]
    );
}
