//! Erdős–Rényi `G(n, p)` random graphs.
//!
//! Uses geometric edge skipping (Batagelj–Brandes) so generation is
//! `O(n + m)` instead of `O(n²)`, parallelized over contiguous row ranges
//! of the strictly-lower-triangular pair space: the geometric skip process
//! is memoryless, so restarting it at each range boundary with an
//! independent per-range RNG stream samples the exact same `G(n, p)`
//! distribution. Edges feed the parallel CSR assembly without a serial
//! collection step ([`GraphBuilder::par_extend`]).

use parcom_graph::parallel::chunk_ranges;
use parcom_graph::{Graph, GraphBuilder, Node};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use rayon::prelude::*;
use std::ops::Range;

/// Rows below this stay in one chunk: per-chunk RNG setup would dominate.
const MIN_ROWS_PER_CHUNK: usize = 512;

/// Batagelj–Brandes skipping over the pairs `(row, col)` with
/// `rows.start <= row < rows.end`, `col < row`.
fn sample_rows(n: usize, rows: Range<usize>, log_q: f64, seed: u64) -> Vec<(Node, Node, f64)> {
    let mut out = Vec::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut row = rows.start.max(1);
    let mut col = 0usize;
    if row >= rows.end {
        return out;
    }
    // Advances the cursor by `k` positions; returns false past the range.
    let advance = |row: &mut usize, col: &mut usize, mut k: usize| -> bool {
        while k > 0 {
            let left_in_row = *row - *col;
            if k < left_in_row {
                *col += k;
                return true;
            }
            k -= left_in_row;
            *row += 1;
            *col = 0;
            if *row >= rows.end {
                return false;
            }
        }
        true
    };
    debug_assert!(rows.end <= n);
    loop {
        let r: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let skip = (r.ln() / log_q).floor() as usize; // number of non-edges
        if !advance(&mut row, &mut col, skip) {
            return out;
        }
        out.push((col as Node, row as Node, 1.0));
        if !advance(&mut row, &mut col, 1) {
            return out;
        }
    }
}

/// Generates `G(n, p)`: each of the `n(n-1)/2` node pairs is an edge
/// independently with probability `p`. Deterministic in `seed` (for a
/// fixed thread count, which sets the row chunking).
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut b = GraphBuilder::new(n);
    if n < 2 || p == 0.0 {
        return b.build();
    }
    if p >= 1.0 {
        b.par_extend(
            (1..n as Node)
                .into_par_iter()
                .flat_map_iter(|row| (0..row).map(move |col| (col, row, 1.0))),
        );
        return b.build();
    }

    let log_q = (1.0 - p).ln();
    let parts = rayon::current_num_threads()
        .max(1)
        .min(n.div_ceil(MIN_ROWS_PER_CHUNK));
    let tasks: Vec<(usize, Range<usize>)> = chunk_ranges(n, parts.max(1))
        .into_iter()
        .enumerate()
        .collect();
    let per_chunk: Vec<Vec<(Node, Node, f64)>> = tasks
        .into_par_iter()
        .map(|(ci, rows)| {
            let chunk_seed = seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(ci as u64 + 1));
            sample_rows(n, rows, log_q, chunk_seed)
        })
        .collect();
    b.par_extend(per_chunk.into_par_iter().flat_map_iter(|v| v));
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_zero_yields_no_edges() {
        let g = erdos_renyi(100, 0.0, 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn p_one_yields_clique() {
        let g = erdos_renyi(10, 1.0, 1);
        assert_eq!(g.edge_count(), 45);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn edge_count_near_expectation() {
        let (n, p) = (2000usize, 0.01);
        let g = erdos_renyi(n, p, 42);
        let expect = p * (n * (n - 1) / 2) as f64;
        let m = g.edge_count() as f64;
        assert!(
            (m - expect).abs() < 4.0 * expect.sqrt() + 50.0,
            "m={m}, expected ~{expect}"
        );
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let g = erdos_renyi(500, 0.02, 7);
        for u in g.nodes() {
            assert!(!g.has_edge(u, u));
        }
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn deterministic_in_seed() {
        let a = erdos_renyi(300, 0.05, 5);
        let b = erdos_renyi(300, 0.05, 5);
        assert_eq!(a.edge_count(), b.edge_count());
        for u in a.nodes() {
            assert_eq!(a.neighbors(u), b.neighbors(u));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = erdos_renyi(300, 0.05, 5);
        let b = erdos_renyi(300, 0.05, 6);
        let same = a.nodes().all(|u| a.neighbors(u) == b.neighbors(u));
        assert!(!same);
    }

    #[test]
    fn tiny_graphs() {
        assert_eq!(erdos_renyi(0, 0.5, 1).node_count(), 0);
        assert_eq!(erdos_renyi(1, 0.5, 1).edge_count(), 0);
    }
}
