//! Breadth-first traversal utilities.
//!
//! The diameter oracle of the generators' shape tests (grid,
//! Watts–Strogatz); not on any algorithm hot path.

use crate::graph::{Graph, Node};
use std::collections::VecDeque;

/// Hop distance from `source` to every node (`u32::MAX` if unreachable).
fn bfs_distances(g: &Graph, source: Node) -> Vec<u32> {
    let n = g.node_count();
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Largest finite BFS distance from `source` (eccentricity within its
/// component).
// audit:allow(unreachable-pub): the grid and Watts–Strogatz generator tests' diameter oracle
pub fn eccentricity(g: &Graph, source: Node) -> u32 {
    bfs_distances(g, source)
        .into_iter()
        .filter(|&d| d != u32::MAX)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn distances_on_path() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(eccentricity(&g, 0), 3);
        assert_eq!(eccentricity(&g, 1), 2);
    }

    #[test]
    fn unreachable_marked_max() {
        let g = GraphBuilder::from_edges(3, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], u32::MAX);
    }

    #[test]
    fn cycle_distances() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 1]);
    }

    #[test]
    fn isolated_source() {
        let g = GraphBuilder::new(2).build();
        assert_eq!(eccentricity(&g, 0), 0);
    }
}
