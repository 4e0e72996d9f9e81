//! Differential property test of the row-merge patch: [`Graph::patched`]
//! run-copies the derived caches of the rows it leaves alone and re-sums
//! only the rows an edit touches, so its `weighted_degrees`, `self_loops`,
//! `total_weight` and `num_edges` must equal — by `f64::to_bits` — what
//! [`GraphBuilder::build`] computes from scratch for the edited edge set,
//! whether it wrote into fresh buffers or into those of a retired graph.
//! That includes the weights array itself: a unit graph, every weight 1.0,
//! stores none, and a patch must come out unit exactly when the build does.

use parcom_graph::{Graph, GraphBuilder, Node};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Edges = BTreeMap<(Node, Node), f64>;

fn build(n: usize, edges: &Edges) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (&(u, v), &w) in edges {
        b.add_edge(u, v, w);
    }
    b.build()
}

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

/// Weights whose sums differ in the low mantissa bits with the order of
/// summation, so a cache summed in any order but the CSR's shows.
fn arb_weight() -> impl Strategy<Value = f64> {
    (0u32..102u32).prop_map(|w| match w {
        100 => 1e-17,
        101 => 0.1,
        w => f64::from(w + 1) / 10.0,
    })
}

/// A graph (self-loops included) as its node count and edge set, a grown
/// node count, and one edit per unordered pair below it: inserts,
/// overwrites, removes of present and of absent edges. A `unit` graph has
/// every weight 1.0, and so has every one of its edits but about one insert
/// in eight: most patches keep it unit, some give it weights.
#[allow(clippy::type_complexity)]
fn arb_patch(
    unit: bool,
) -> impl Strategy<Value = (usize, Edges, usize, Vec<(Node, Node, Option<f64>)>)> {
    (2..60usize, 0..6usize).prop_flat_map(move |(n, grow)| {
        let n_new = n + grow;
        let edge_weight = arb_weight().prop_map(move |w| if unit { 1.0 } else { w });
        let edge = (0..n as Node, 0..n as Node, edge_weight);
        // two inserts or overwrites to one remove
        let value = (0..24u32, arb_weight()).prop_map(move |(kind, w)| match kind % 3 {
            0 => None,
            _ if unit && kind > 2 => Some(1.0),
            _ => Some(w),
        });
        let edit = (0..n_new as Node, 0..n_new as Node, value);
        (
            proptest::collection::vec(edge, 0..(4 * n)),
            proptest::collection::vec(edit, 0..(2 * n)),
        )
            .prop_map(move |(edges, edits)| {
                let edges: Edges = (edges.into_iter())
                    .map(|(u, v, w)| ((u.min(v), u.max(v)), w))
                    .collect();
                let edits: BTreeMap<(Node, Node), Option<f64>> = (edits.into_iter())
                    .map(|(u, v, w)| ((u.min(v), u.max(v)), w))
                    .collect();
                let edits = (edits.into_iter()).map(|((u, v), w)| (v, u, w)).collect();
                (n, edges, n_new, edits)
            })
    })
}

/// Applies `edits` to `g`, the graph of `edges`, and checks the patch
/// against a fresh build of the edited edge set, in fresh buffers and in
/// those of retired graphs: one that fits, a weighted one and a unit one
/// too small for anything.
fn check_patch(n: usize, mut edges: Edges, n_new: usize, edits: &[(Node, Node, Option<f64>)]) {
    let g = build(n, &edges);
    for &(u, v, w) in edits {
        let key = (u.min(v), u.max(v));
        match w {
            Some(w) => edges.insert(key, w),
            None => edges.remove(&key),
        };
    }
    let want = build(n_new, &edges);
    assert_bit_identical(&g.patched(n_new, edits), &want, "fresh buffers");
    let weighted = build(n_new, &[((0, 0), 0.5)].into_iter().collect());
    for (what, retired) in [
        ("recycled", want.clone()),
        ("weighted", weighted),
        ("too small", build(1, &Edges::new())),
    ] {
        let (got, _) = g.patched_into(n_new, edits, Some(retired));
        assert_bit_identical(&got, &want, what);
    }
}

proptest! {
    #[test]
    fn patched_caches_match_a_fresh_build((n, edges, n_new, edits) in arb_patch(false)) {
        check_patch(n, edges, n_new, &edits);
    }

    #[test]
    fn patched_unit_graphs_match_a_fresh_build((n, edges, n_new, edits) in arb_patch(true)) {
        prop_assert!(build(n, &edges).csr_view().weights.is_empty());
        check_patch(n, edges, n_new, &edits);
    }
}
