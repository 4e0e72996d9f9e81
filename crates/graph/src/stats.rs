//! Graph summary statistics — the columns of the paper's Table I.

use crate::clustering::sampled_average_local_clustering;
use crate::components::ConnectedComponents;
use crate::graph::Graph;

/// The structural overview reported per instance in Table I.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphSummary {
    /// Number of nodes `n`.
    pub nodes: usize,
    /// Number of undirected edges `m`.
    pub edges: usize,
    /// Maximum degree (`max.d.` — load-balancing indicator).
    pub max_degree: usize,
    /// Number of connected components (`comp.`).
    pub components: usize,
    /// Average local clustering coefficient (`LCC` — density indicator).
    pub avg_lcc: f64,
}

/// Max nodes sampled for the LCC estimate (exact when `n` is below this).
const LCC_SAMPLE: usize = 20_000;

/// RNG seed for the LCC sample.
const LCC_SEED: u64 = 1;

/// Computes the Table-I row for `g`.
pub fn summarize(g: &Graph) -> GraphSummary {
    GraphSummary {
        nodes: g.node_count(),
        edges: g.edge_count(),
        max_degree: g.max_degree(),
        components: ConnectedComponents::run(g).count,
        avg_lcc: sampled_average_local_clustering(g, LCC_SAMPLE, LCC_SEED),
    }
}

/// Mean unweighted degree `2m / n` (0 for the empty graph).
pub fn average_degree(g: &Graph) -> f64 {
    if g.node_count() == 0 {
        return 0.0;
    }
    // each non-loop edge contributes 2 endpoint slots, loops contribute 1
    let endpoint_slots: usize = g.nodes().map(|u| g.degree(u)).sum();
    endpoint_slots as f64 / g.node_count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn summary_of_two_triangles() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let s = summarize(&g);
        assert_eq!(
            s,
            GraphSummary {
                nodes: 6,
                edges: 6,
                max_degree: 2,
                components: 2,
                avg_lcc: 1.0
            }
        );
    }

    #[test]
    fn average_degree_path() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]);
        assert!((average_degree(&g) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_stats() {
        let g = GraphBuilder::new(0).build();
        let s = summarize(&g);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.components, 0);
        assert_eq!(average_degree(&g), 0.0);
    }
}
