//! Differential tests for aggregation coarsening (DESIGN.md §6).
//!
//! `coarsen` tallies each coarse node's edges into a flat scratch map and
//! mirrors an upper triangle into CSR. The reference here is the routine it
//! replaced — every fine edge as a tuple, one comparison sort, a segmented
//! sum into `GraphBuilder` — kept as test code so the two stay comparable:
//! same structure, weights equal up to summation order, symmetric entries
//! bit-equal, total weight conserved, and output independent of the thread
//! count.

use parcom::generators::{lfr, rmat, LfrParams, RmatParams};
use parcom::graph::parallel::with_threads;
use parcom::graph::{coarsen, Coarsening, Graph, GraphBuilder, Node, Partition};
use std::collections::HashMap;

/// The sort-based contraction: coarse ids in first-seen order, each fine
/// edge once as a canonical coarse pair, sorted, equal keys summed.
fn coarsen_reference(g: &Graph, zeta: &Partition) -> Coarsening {
    let mut remap: HashMap<u32, u32> = HashMap::new();
    let fine_to_coarse: Vec<Node> = zeta
        .as_slice()
        .iter()
        .map(|&c| {
            let next = u32::try_from(remap.len()).unwrap();
            *remap.entry(c).or_insert(next)
        })
        .collect();
    let mut edges: Vec<(Node, Node, f64)> = g
        .par_collect_edges()
        .into_iter()
        .map(|(u, v, w)| {
            let (cu, cv) = (fine_to_coarse[u as usize], fine_to_coarse[v as usize]);
            (cu.min(cv), cu.max(cv), w)
        })
        .collect();
    edges.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
    let mut b = GraphBuilder::new(remap.len());
    let mut it = edges.into_iter();
    if let Some((mut cu, mut cv, mut acc)) = it.next() {
        for (u, v, w) in it {
            if (u, v) == (cu, cv) {
                acc += w;
            } else {
                b.add_edge(cu, cv, acc);
                (cu, cv, acc) = (u, v, w);
            }
        }
        b.add_edge(cu, cv, acc);
    }
    Coarsening {
        coarse: b.build(),
        fine_to_coarse,
    }
}

fn assert_same_bits(a: &Graph, b: &Graph, what: &str) {
    let (a, b) = (a.csr_view(), b.csr_view());
    assert_eq!(a.offsets, b.offsets, "{what}: offsets");
    assert_eq!(a.targets, b.targets, "{what}: targets");
    let bits = |ws: &[f64]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a.weights), bits(b.weights), "{what}: weights");
}

/// Every property the contraction promises, on one (graph, partition) case.
fn check(name: &str, g: &Graph, zeta: &Partition) {
    let got = with_threads(1, || coarsen(g, zeta));
    let want = coarsen_reference(g, zeta);
    assert_eq!(got.fine_to_coarse, want.fine_to_coarse, "{name}: mapping");
    let (c, r) = (&got.coarse, &want.coarse);
    assert_eq!(c.node_count(), r.node_count(), "{name}: coarse nodes");
    assert_eq!(c.edge_count(), r.edge_count(), "{name}: coarse edges");
    for u in c.nodes() {
        assert_eq!(c.neighbors(u), r.neighbors(u), "{name}: row {u}");
        for (v, w) in c.edges_of(u) {
            let w_ref = r.edge_weight(u, v).unwrap();
            assert!(
                (w - w_ref).abs() <= 1e-12 * w_ref.abs().max(1.0),
                "{name}: weight of ({u},{v}) is {w}, reference {w_ref}"
            );
            let mirrored = c.edge_weight(v, u).map(f64::to_bits);
            assert_eq!(mirrored, Some(w.to_bits()), "{name}: ({u},{v}) mirror");
        }
    }
    let (fine, coarse) = (g.total_edge_weight(), c.total_edge_weight());
    assert!(
        (fine - coarse).abs() <= 1e-9 * fine.abs().max(1.0),
        "{name}: total weight {fine} became {coarse}"
    );
    for threads in [2, 4] {
        let again = with_threads(threads, || coarsen(g, zeta));
        assert_eq!(again.fine_to_coarse, got.fine_to_coarse);
        assert_same_bits(&again.coarse, c, &format!("{name} at {threads} threads"));
    }
}

/// A ring with chords, non-dyadic weights (sums depend on their order) and
/// a self-loop on every fifth node.
fn weighted_ring(n: u32) -> Graph {
    let mut b = GraphBuilder::new(n as usize);
    for u in 0..n {
        b.add_edge(u, (u + 1) % n, 0.1 * f64::from(1 + u % 7));
        b.add_edge(u, (u + 5) % n, 0.3 + 0.01 * f64::from(u % 11));
        if u % 5 == 0 {
            b.add_edge(u, u, 0.7);
        }
    }
    b.build()
}

#[test]
fn degenerate_matrix_matches_the_sort_based_reference() {
    let g = weighted_ring(60);
    let by = |f: &dyn Fn(u32) -> u32| Partition::from_vec((0..60).map(f).collect());
    check("blocks", &g, &by(&|u| u / 6));
    check("interleaved", &g, &by(&|u| u % 7));
    check("non-contiguous ids", &g, &by(&|u| 1000 - 13 * (u % 9)));
    check("singletons", &g, &Partition::singleton(60));
    check("all in one", &g, &Partition::all_in_one(60));

    // isolated nodes, alone and grouped with connected ones
    let mut b = GraphBuilder::new(8);
    b.add_edge(0, 1, 0.1);
    b.add_edge(1, 2, 0.2);
    b.add_edge(2, 2, 0.3);
    let sparse = b.build();
    check("isolated/singletons", &sparse, &Partition::singleton(8));
    let grouped = Partition::from_vec(vec![4, 4, 9, 9, 4, 2, 2, 7]);
    check("isolated/grouped", &sparse, &grouped);

    let empty = GraphBuilder::new(0).build();
    check("empty graph", &empty, &Partition::singleton(0));
    let edgeless = GraphBuilder::new(5).build();
    check(
        "edgeless",
        &edgeless,
        &Partition::from_vec(vec![3, 3, 1, 1, 1]),
    );
}

#[test]
fn lfr_and_rmat_match_the_sort_based_reference() {
    let (g, truth) = lfr(LfrParams::benchmark(3_000, 0.4), 17);
    check("lfr/truth", &g, &truth);
    // split every planted community three ways: many cut edges per pair
    let split: Vec<u32> = (0..3_000u32)
        .map(|u| truth.subset_of(u) * 3 + u % 3)
        .collect();
    check("lfr/split", &g, &Partition::from_vec(split));

    // hub-skewed rows: a few coarse nodes own most of the edges
    let g = rmat(RmatParams::paper_with_edge_factor(11, 8), 5);
    let hubs: Vec<u32> = g.nodes().map(|u| (u + 1).ilog2()).collect();
    check("rmat/log-bands", &g, &Partition::from_vec(hubs));
    let mixed: Vec<u32> = g.nodes().map(|u| u % 97).collect();
    check("rmat/mod-97", &g, &Partition::from_vec(mixed));
}
