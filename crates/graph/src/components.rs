//! Connected components (the `comp.` column of Table I).
//!
//! Union-find with path halving and union by size; edges are scanned once.

use crate::graph::Graph;
use crate::partition::Partition;

/// Disjoint-set forest over node ids.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set, with path halving.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns false if already joined.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        true
    }
}

/// Result of a connected-components run.
#[derive(Clone, Debug)]
pub struct ConnectedComponents {
    /// Component id per node (dense, `0..count`).
    pub assignment: Partition,
    /// Number of components.
    pub count: usize,
}

impl ConnectedComponents {
    /// Computes the connected components of `g`.
    pub fn run(g: &Graph) -> Self {
        let n = g.node_count();
        let mut uf = UnionFind::new(n);
        for u in g.nodes() {
            for v in g.neighbors(u) {
                if *v > u {
                    uf.union(u, *v);
                }
            }
        }
        let mut assignment =
            Partition::from_vec((0..n as u32).map(|v| uf.find(v)).collect::<Vec<_>>());
        let count = assignment.compact();
        Self { assignment, count }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn single_component_path() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let cc = ConnectedComponents::run(&g);
        assert_eq!(cc.count, 1);
    }

    #[test]
    fn counts_isolated_nodes() {
        let g = GraphBuilder::from_edges(5, &[(0, 1)]);
        let cc = ConnectedComponents::run(&g);
        assert_eq!(cc.count, 4); // {0,1}, {2}, {3}, {4}
    }

    #[test]
    fn two_components() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let cc = ConnectedComponents::run(&g);
        assert_eq!(cc.count, 2);
        assert!(cc.assignment.in_same_subset(0, 2));
        assert!(!cc.assignment.in_same_subset(2, 3));
    }

    #[test]
    fn self_loops_do_not_connect() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 1.0);
        let g = b.build();
        let cc = ConnectedComponents::run(&g);
        assert_eq!(cc.count, 2);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        let cc = ConnectedComponents::run(&g);
        assert_eq!(cc.count, 0);
    }

    #[test]
    fn union_find_semantics() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert!(uf.union(0, 3));
        assert_eq!(uf.find(0), uf.find(3));
    }
}
