//! Differential property tests: every kernel decision made through the
//! generation-stamped [`SparseWeightMap`] must be *bit-identical* to the
//! same decision computed with a hash-map tally. PLP's tie-break is
//! iteration-order-independent (salted-hash maximum with the current label
//! unbeatable on ties), so the map's arbitrary order and the scratch map's
//! first-touch order must never disagree. The Louvain family's Δmod
//! arg-max has the same test next to the kernel itself
//! (`moves::tests::best_move_matches_hash_reference`).

use parcom_graph::hashing::FxHashMap;
use parcom_graph::{Graph, GraphBuilder, Partition, SparseWeightMap};
use proptest::prelude::*;

/// SplitMix64 mixing — the same function PLP uses for its pseudo-random
/// tie-break (kept in sync by the `plp_decision_*` tests themselves: a
/// divergence would show up as a tie broken differently).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Strategy: a random weighted graph with up to `max_n` nodes.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 1u32..100u32);
        proptest::collection::vec(edge, 0..(4 * n)).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                b.add_edge(u, v, w as f64 / 10.0);
            }
            b.build()
        })
    })
}

/// Strategy: a graph plus a random (compacted) label assignment.
fn arb_graph_and_labels(max_n: usize) -> impl Strategy<Value = (Graph, Partition)> {
    arb_graph(max_n).prop_flat_map(|g| {
        let n = g.node_count();
        proptest::collection::vec(0..(n as u32 / 2 + 1), n).prop_map(move |data| {
            let mut p = Partition::from_vec(data);
            p.compact();
            (g.clone(), p)
        })
    })
}

/// PLP's dominant-label decision for `v`, tallying into the scratch map.
fn plp_decision_scratch(
    g: &Graph,
    labels: &Partition,
    v: u32,
    salt: u64,
    weight_to: &mut SparseWeightMap,
) -> u32 {
    weight_to.clear();
    for (u, w) in g.edges_of(v) {
        if u != v {
            weight_to.add(labels.subset_of(u), w);
        }
    }
    let current = labels.subset_of(v);
    let mut best = current;
    let mut best_weight = weight_to.get(current);
    let mut best_hash = u64::MAX; // current label: unbeatable on ties
    for (l, w) in weight_to.iter() {
        if w > best_weight {
            best = l;
            best_weight = w;
            best_hash = splitmix64(l as u64 ^ salt);
        } else if w == best_weight && best != current {
            let h = splitmix64(l as u64 ^ salt);
            if h > best_hash {
                best = l;
                best_hash = h;
            }
        }
    }
    best
}

/// The same decision with a hash-map tally (the pre-scratch formulation);
/// the hash map's arbitrary iteration order stands in for "any order".
fn plp_decision_fxhash(
    g: &Graph,
    labels: &Partition,
    v: u32,
    salt: u64,
    weight_to: &mut FxHashMap<u32, f64>,
) -> u32 {
    weight_to.clear();
    for (u, w) in g.edges_of(v) {
        if u != v {
            *weight_to.entry(labels.subset_of(u)).or_insert(0.0) += w;
        }
    }
    let current = labels.subset_of(v);
    let mut best = current;
    let mut best_weight = weight_to.get(&current).copied().unwrap_or(0.0);
    let mut best_hash = u64::MAX;
    for (&l, &w) in weight_to.iter() {
        if w > best_weight {
            best = l;
            best_weight = w;
            best_hash = splitmix64(l as u64 ^ salt);
        } else if w == best_weight && best != current {
            let h = splitmix64(l as u64 ^ salt);
            if h > best_hash {
                best = l;
                best_hash = h;
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PLP label tally: scratch and hash tallies pick the same dominant
    /// label for every node, salt, and label assignment.
    #[test]
    fn plp_tally_decisions_match_hash_reference(
        (g, labels) in arb_graph_and_labels(50),
        salt in 0u64..u64::MAX,
    ) {
        let bound = labels.upper_bound() as usize;
        let mut scratch = SparseWeightMap::with_capacity(bound.max(1));
        let mut reference = FxHashMap::default();
        for v in g.nodes() {
            let a = plp_decision_scratch(&g, &labels, v, salt, &mut scratch);
            let b = plp_decision_fxhash(&g, &labels, v, salt, &mut reference);
            prop_assert_eq!(a, b);
        }
    }

    /// Raw accumulation semantics: any sequence of `add`s leaves the
    /// scratch map with exactly the contents of a hash-map accumulator.
    #[test]
    fn accumulated_contents_match_hash_reference(
        ops in proptest::collection::vec((0u32..64, 1u32..100), 0..200),
    ) {
        let mut scratch = SparseWeightMap::with_capacity(64);
        let mut reference: FxHashMap<u32, f64> = FxHashMap::default();
        for &(k, w) in &ops {
            let w = w as f64 / 10.0;
            scratch.add(k, w);
            *reference.entry(k).or_insert(0.0) += w;
        }
        prop_assert_eq!(scratch.len(), reference.len());
        for (k, w) in scratch.iter() {
            let expect = reference.get(&k).copied();
            prop_assert_eq!(Some(w.to_bits()), expect.map(f64::to_bits));
        }
    }
}
