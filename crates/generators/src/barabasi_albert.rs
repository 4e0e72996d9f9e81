//! Barabási–Albert preferential attachment.
//!
//! Stand-in for the internet-topology instances (as-22july06, as-Skitter,
//! caidaRouterLevel): heavy-tailed degree distribution with pronounced hubs
//! but without the planted blocks of LFR.

use parcom_graph::{Graph, GraphBuilder, Node};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use rayon::prelude::*;

/// Generates a BA graph: starts from a clique on `attach + 1` nodes, then
/// every new node attaches to `attach` distinct existing nodes chosen
/// proportionally to their degree. Deterministic in `seed`.
///
/// Sampling is inherently sequential (each node's choices depend on all
/// earlier degrees), so edges are collected first and fed to the parallel
/// CSR assembly via [`GraphBuilder::par_extend`].
pub fn barabasi_albert(n: usize, attach: usize, seed: u64) -> Graph {
    assert!(attach >= 1, "attachment count must be positive");
    assert!(
        n > attach,
        "need more nodes ({n}) than the attachment count ({attach})"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pairs: Vec<(Node, Node)> = Vec::with_capacity(n * attach);

    // Repeated-endpoints list: sampling a uniform entry is sampling
    // proportional to degree.
    let mut endpoints: Vec<Node> = Vec::with_capacity(2 * n * attach);

    // seed clique
    let m0 = attach + 1;
    for u in 0..m0 as Node {
        for v in (u + 1)..m0 as Node {
            pairs.push((u, v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }

    let mut chosen: Vec<Node> = Vec::with_capacity(attach);
    for u in m0..n {
        chosen.clear();
        // rejection sampling for distinctness; degree skew keeps retries rare
        while chosen.len() < attach {
            let v = endpoints[rng.gen_range(0..endpoints.len())];
            if !chosen.contains(&v) {
                chosen.push(v);
            }
        }
        for &v in &chosen {
            pairs.push((u as Node, v));
            endpoints.push(u as Node);
            endpoints.push(v);
        }
    }

    let mut b = GraphBuilder::with_capacity(n, pairs.len());
    b.par_extend(pairs.into_par_iter().map(|(u, v)| (u, v, 1.0)));
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_count_formula() {
        let (n, k) = (500usize, 3usize);
        let g = barabasi_albert(n, k, 1);
        let clique = (k + 1) * k / 2;
        assert_eq!(g.edge_count(), clique + (n - k - 1) * k);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn graph_is_connected() {
        use parcom_graph::components::ConnectedComponents;
        let g = barabasi_albert(300, 2, 2);
        assert_eq!(ConnectedComponents::run(&g).count, 1);
    }

    #[test]
    fn hubs_emerge() {
        let g = barabasi_albert(2000, 2, 3);
        let avg = 2.0 * g.edge_count() as f64 / g.node_count() as f64;
        assert!(
            g.max_degree() as f64 > 5.0 * avg,
            "expected hubs, max degree {} vs avg {avg}",
            g.max_degree()
        );
    }

    #[test]
    fn min_degree_is_attach() {
        let g = barabasi_albert(200, 4, 4);
        assert!(g.nodes().all(|u| g.degree(u) >= 4));
    }

    #[test]
    fn deterministic() {
        let a = barabasi_albert(100, 2, 7);
        let b = barabasi_albert(100, 2, 7);
        for u in a.nodes() {
            assert_eq!(a.neighbors(u), b.neighbors(u));
        }
    }

    #[test]
    #[should_panic(expected = "more nodes")]
    fn rejects_tiny_n() {
        barabasi_albert(2, 2, 0);
    }
}
