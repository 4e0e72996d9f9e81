//! Watts–Strogatz small-world graphs.
//!
//! With a low rewiring probability this produces sparse, high-diameter,
//! locally clustered graphs — the stand-in for the `power` grid instance of
//! Table I.

use parcom_graph::{Graph, GraphBuilder, Node};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Generates a WS graph: a ring where each node connects to its `k` nearest
/// neighbors on each side, then every edge's far endpoint is rewired to a
/// uniform node with probability `beta` (avoiding loops and duplicates).
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Graph {
    assert!(k >= 1, "k must be positive");
    assert!(n > 2 * k, "ring needs n > 2k (n={n}, k={k})");
    assert!((0.0..=1.0).contains(&beta));
    let mut rng = SmallRng::seed_from_u64(seed);

    // adjacency set representation during rewiring
    let mut adj: Vec<std::collections::BTreeSet<Node>> = vec![std::collections::BTreeSet::new(); n];
    for u in 0..n {
        for d in 1..=k {
            let v = (u + d) % n;
            adj[u].insert(v as Node);
            adj[v].insert(u as Node);
        }
    }

    for u in 0..n {
        for d in 1..=k {
            let v = (u + d) % n;
            if rng.gen::<f64>() < beta {
                // rewire edge (u, v) -> (u, w)
                if adj[u].len() >= n - 1 {
                    continue; // u already adjacent to everyone
                }
                let w = loop {
                    let cand = rng.gen_range(0..n);
                    if cand != u && !adj[u].contains(&(cand as Node)) {
                        break cand;
                    }
                };
                adj[u].remove(&(v as Node));
                adj[v].remove(&(u as Node));
                adj[u].insert(w as Node);
                adj[w].insert(u as Node);
            }
        }
    }

    let mut b = GraphBuilder::new(n);
    for (u, nbrs) in adj.iter().enumerate() {
        for &v in nbrs {
            if v as usize > u {
                b.add_unweighted_edge(u as Node, v);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcom_graph::clustering::average_local_clustering;

    #[test]
    fn beta_zero_is_ring_lattice() {
        let g = watts_strogatz(20, 2, 0.0, 1);
        assert_eq!(g.edge_count(), 40);
        assert!(g.nodes().all(|u| g.degree(u) == 4));
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 18));
    }

    #[test]
    fn edge_count_is_preserved_by_rewiring() {
        let g = watts_strogatz(100, 3, 0.5, 2);
        assert_eq!(g.edge_count(), 300);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn lattice_is_clustered() {
        let g = watts_strogatz(200, 3, 0.0, 3);
        assert!(average_local_clustering(&g) > 0.5);
    }

    #[test]
    fn rewiring_reduces_clustering() {
        let lattice = average_local_clustering(&watts_strogatz(300, 3, 0.0, 4));
        let random = average_local_clustering(&watts_strogatz(300, 3, 1.0, 4));
        assert!(random < lattice);
    }

    #[test]
    fn rewiring_shrinks_diameter() {
        use parcom_graph::traversal::eccentricity;
        let ring = watts_strogatz(400, 1, 0.0, 5);
        let small_world = watts_strogatz(400, 1, 0.2, 5);
        // ring eccentricity from node 0 is n/2; shortcuts should cut it down
        assert_eq!(eccentricity(&ring, 0), 200);
        assert!(eccentricity(&small_world, 0) < 150);
    }

    #[test]
    fn simple_graph_invariants() {
        let g = watts_strogatz(150, 2, 0.3, 6);
        for u in g.nodes() {
            assert!(!g.has_edge(u, u));
        }
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "n > 2k")]
    fn rejects_overdense_ring() {
        watts_strogatz(6, 3, 0.1, 0);
    }
}
