//! Seeded edit batches for the warm-start tests: what a resident graph
//! sees between two detections, in the form [`Graph::patched`] takes —
//! and the connectivity diagnostic the drift test reads.

#![allow(dead_code)]

use parcom_graph::components::UnionFind;
use parcom_graph::{Graph, Node, Partition};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashSet;

/// One undirected edit: insert (or reweight) with `Some(w)`, remove with
/// `None`.
pub type Edit = (Node, Node, Option<f64>);

/// Up to `inserts` absent edges and `removes` present ones, drawn from
/// `rng`. No unordered pair appears twice, nor any already in `taken`
/// (which grows by the pairs chosen). A graph too small or too dense to
/// supply that many yields fewer.
pub fn random_edits(
    g: &Graph,
    rng: &mut SmallRng,
    inserts: usize,
    removes: usize,
    taken: &mut HashSet<(Node, Node)>,
) -> Vec<Edit> {
    let n = g.nodes().end;
    let mut edits = Vec::with_capacity(inserts + removes);
    if n < 2 {
        return edits;
    }
    let mut draw = |want: usize, present: bool, weight: Option<f64>| {
        let mut got = 0;
        for _ in 0..20 * want {
            if got == want {
                break;
            }
            let u = rng.gen_range(0..n);
            let v = if present {
                match g.neighbors(u) {
                    [] => continue,
                    row => row[rng.gen_range(0..row.len())],
                }
            } else {
                rng.gen_range(0..n)
            };
            let pair = (u.min(v), u.max(v));
            if u != v && g.has_edge(u, v) == present && taken.insert(pair) {
                edits.push((pair.0, pair.1, weight));
                got += 1;
            }
        }
    };
    draw(inserts, false, Some(1.0));
    draw(removes, true, None);
    edits
}

/// Every endpoint of `edits`: the frontier a warm start needs.
pub fn endpoints(edits: &[Edit]) -> Vec<Node> {
    edits.iter().flat_map(|&(u, v, _)| [u, v]).collect()
}

/// How many communities of `zeta` are internally disconnected: their nodes
/// do not form one connected piece of `g` using intra-community edges
/// alone. Label propagation and Louvain moves can both leave such
/// communities behind (a bridge node moves away, an edit removes the
/// bridge), and modularity does not see them. One sequential O(m) scan.
pub fn disconnected_communities(g: &Graph, zeta: &Partition) -> usize {
    let mut pieces = UnionFind::new(g.node_count());
    for u in g.nodes() {
        for &v in g.neighbors(u) {
            if v > u && zeta.in_same_subset(u, v) {
                pieces.union(u, v);
            }
        }
    }
    // a community is in one piece iff all its nodes share a root
    let mut root_of = vec![None; zeta.upper_bound() as usize];
    let mut split = vec![false; zeta.upper_bound() as usize];
    for v in g.nodes() {
        let (c, root) = (zeta.subset_of(v) as usize, pieces.find(v));
        split[c] |= *root_of[c].get_or_insert(root) != root;
    }
    split.iter().filter(|&&s| s).count()
}
