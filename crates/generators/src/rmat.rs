//! R-MAT / Kronecker graph generation.
//!
//! The paper's weak-scaling series (Fig. 10) uses R-MAT graphs with
//! parameters `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)` and edge factor 48 —
//! the Graph500 parameters that also produce the `kron_g500` instance of
//! Table I. Each edge picks one of the four adjacency-matrix quadrants per
//! scale level with those probabilities; duplicate edges and self-loops are
//! discarded, which is why R-MAT graphs have many isolated nodes and a
//! highly skewed degree distribution (the load-balancing stress the paper
//! targets).

use parcom_graph::{Graph, GraphBuilder, Node};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use rayon::prelude::*;

/// Parameters of the R-MAT recursion.
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    /// log2 of the node count.
    pub scale: u32,
    /// Edges drawn per node (before dedup); Graph500 uses 16, the paper 48.
    pub edge_factor: usize,
    /// Quadrant probabilities; must sum to 1.
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
    /// Lower-right quadrant probability.
    pub d: f64,
}

impl RmatParams {
    /// The paper's parameters: `(0.57, 0.19, 0.19, 0.05)`, edge factor 48.
    pub fn paper(scale: u32) -> Self {
        Self {
            scale,
            edge_factor: 48,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
        }
    }

    /// Same quadrant skew with a custom edge factor.
    pub fn paper_with_edge_factor(scale: u32, edge_factor: usize) -> Self {
        Self {
            edge_factor,
            ..Self::paper(scale)
        }
    }
}

fn sample_edge(params: &RmatParams, rng: &mut SmallRng) -> (Node, Node) {
    let (mut u, mut v) = (0u64, 0u64);
    let ab = params.a + params.b;
    let abc = ab + params.c;
    for _ in 0..params.scale {
        u <<= 1;
        v <<= 1;
        let r: f64 = rng.gen();
        if r < params.a {
            // upper-left: no bits set
        } else if r < ab {
            v |= 1;
        } else if r < abc {
            u |= 1;
        } else {
            u |= 1;
            v |= 1;
        }
    }
    (u as Node, v as Node)
}

/// Generates an R-MAT graph with `2^scale` nodes, deterministic in `seed`.
/// Self-loops are dropped and duplicates merged (unweighted output).
pub fn rmat(params: RmatParams, seed: u64) -> Graph {
    let sum = params.a + params.b + params.c + params.d;
    assert!(
        (sum - 1.0).abs() < 1e-9,
        "quadrant probabilities must sum to 1, got {sum}"
    );
    assert!(params.scale <= 31, "scale must fit u32 node ids");
    let n = 1usize << params.scale;
    let m_target = n * params.edge_factor;

    // Draw edges in parallel chunks with per-chunk deterministic RNG streams.
    let chunks = rayon::current_num_threads().max(1) * 4;
    let per_chunk = m_target.div_ceil(chunks);
    let mut pairs: Vec<(Node, Node)> = (0..chunks)
        .into_par_iter()
        .flat_map_iter(|ci| {
            let mut rng = SmallRng::seed_from_u64(
                seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(ci as u64 + 1)),
            );
            let count = per_chunk.min(m_target.saturating_sub(ci * per_chunk));
            (0..count)
                .map(move |_| sample_edge(&params, &mut rng))
                .filter(|&(u, v)| u != v)
                .map(|(u, v)| if u <= v { (u, v) } else { (v, u) })
                .collect::<Vec<_>>()
        })
        .collect();

    pairs.par_sort_unstable();
    pairs.dedup();

    let mut b = GraphBuilder::with_capacity(n, pairs.len());
    b.par_extend(pairs.into_par_iter().map(|(u, v)| (u, v, 1.0)));
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_count_is_power_of_two() {
        let g = rmat(RmatParams::paper_with_edge_factor(8, 8), 1);
        assert_eq!(g.node_count(), 256);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn no_self_loops_and_simple() {
        let g = rmat(RmatParams::paper_with_edge_factor(9, 8), 2);
        for u in g.nodes() {
            assert!(!g.has_edge(u, u));
        }
    }

    #[test]
    fn edge_count_below_target_after_dedup() {
        let p = RmatParams::paper_with_edge_factor(10, 8);
        let g = rmat(p, 3);
        assert!(g.edge_count() <= 1024 * 8);
        assert!(g.edge_count() > 1024); // most draws survive
    }

    #[test]
    fn skewed_degree_distribution() {
        let g = rmat(RmatParams::paper_with_edge_factor(11, 16), 4);
        let avg = 2.0 * g.edge_count() as f64 / g.node_count() as f64;
        assert!(
            g.max_degree() as f64 > 8.0 * avg,
            "R-MAT should produce hubs: max {} vs avg {avg}",
            g.max_degree()
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let p = RmatParams::paper_with_edge_factor(8, 4);
        let a = rmat(p, 5);
        let b = rmat(p, 5);
        assert_eq!(a.edge_count(), b.edge_count());
        for u in a.nodes() {
            assert_eq!(a.neighbors(u), b.neighbors(u));
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_probabilities() {
        rmat(
            RmatParams {
                scale: 4,
                edge_factor: 2,
                a: 0.5,
                b: 0.5,
                c: 0.5,
                d: 0.5,
            },
            0,
        );
    }
}
