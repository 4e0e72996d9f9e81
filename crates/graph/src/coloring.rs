//! Deterministic parallel greedy distance-1 coloring with vertex following.
//!
//! The conflict-free PLM move phase (DESIGN.md §14) partitions the nodes
//! into *color classes* — independent sets — and moves one class at a time:
//! within a class no two nodes are adjacent, so every node sees fresh
//! neighbor labels and no two neighbors move in the same step. This module
//! produces that partition once per coarsening level.
//!
//! The coloring is a Jones–Plassmann greedy: every node gets a fixed
//! pseudo-random priority (a splitmix64 hash of its id, so the priority
//! order is a property of the *graph*, not of the thread schedule); each
//! round, the uncolored nodes that are local priority maxima among their
//! uncolored neighbors form an independent set and concurrently pick the
//! smallest color unused by their already-colored neighbors. Because the
//! priorities are fixed and ties break by node id, the resulting colors are
//! bit-identical at any thread count.
//!
//! *Vertex following* (the VFC-Louvain trick) shrinks the color classes:
//! degree-1 nodes always profit from joining their sole neighbor's
//! community, so they are excluded from the coloring entirely and moved as
//! one extra class at the end of each sweep. Two followers are never
//! adjacent — an isolated degree-1 pair is split by id, the smaller
//! endpoint staying in the coloring — so the follower class is itself an
//! independent set.

use crate::graph::{Graph, Node};
use crate::scratch::ScratchPool;
use parcom_guard::{Budget, Termination};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Sentinel for "not colored": followers keep it permanently.
const UNCOLORED: u32 = u32::MAX;

/// The splitmix64 finalizer: a high-quality 64-bit mix used as the fixed
/// per-node priority. Any fixed hash works; this one is cheap and has no
/// fixed point at 0 thanks to the additive constant.
#[inline]
fn priority(u: Node) -> u64 {
    let mut x = (u as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A distance-1 coloring of a graph's non-follower nodes plus the follower
/// set, ready to drive a conflict-free move phase.
#[derive(Clone, Debug)]
pub struct Coloring {
    /// Color of each node; [`UNCOLORED`] for followers.
    colors: Vec<u32>,
    /// `classes[c]` lists the nodes of color `c` in ascending id order.
    classes: Vec<Vec<Node>>,
    /// Degree-1 nodes excluded from the coloring, ascending id order.
    /// Mutually non-adjacent by construction.
    followers: Vec<Node>,
}

impl Coloring {
    /// Colors `g` with an unlimited budget and a private scratch pool.
    pub fn compute(g: &Graph) -> Self {
        match Self::compute_budgeted(g, &ScratchPool::new(), &Budget::unlimited()) {
            Ok(c) => c,
            Err(_) => unreachable!("unlimited budget cannot expire"),
        }
    }

    /// Colors `g`, drawing per-thread scratch maps from `scratch` and
    /// testing `budget` once per coloring round. On expiry the partial
    /// coloring is abandoned (callers fall back to the uncolored state
    /// they were in — for PLM, the current level's assignment).
    pub fn compute_budgeted(
        g: &Graph,
        scratch: &ScratchPool,
        budget: &Budget,
    ) -> Result<Self, Termination> {
        let n = g.node_count();
        if n == 0 {
            return Ok(Self {
                colors: Vec::new(),
                classes: Vec::new(),
                followers: Vec::new(),
            });
        }

        // Non-self degree decides who follows: adjacency rows contain
        // self-loops, which do not constrain the coloring.
        let nonself_degree = |u: Node| g.edges_of(u).filter(|&(v, _)| v != u).count();
        let is_follower = |u: Node| {
            if nonself_degree(u) != 1 {
                return false;
            }
            // Sole neighbor v must stay in the coloring: always true when v
            // has other neighbors; in an isolated degree-1 pair the smaller
            // id is colored and the larger follows.
            let (v, _) = g
                .edges_of(u)
                .find(|&(v, _)| v != u)
                .expect("nonself degree 1");
            nonself_degree(v) != 1 || v < u
        };
        let follower_mask: Vec<bool> = g.par_nodes().map(is_follower).collect();

        let colors: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
        // One forbidden-color scratch slot per possible color: any greedy
        // color is at most the node's degree, so max_degree + 2 covers both
        // the marks and the first-free probe.
        let scratch_cap = g.max_degree() + 2;

        // Nodes still to color, shrinking every round. Filtering the
        // carried-over vector keeps later rounds cheap on the long tail.
        let mut pending: Vec<Node> = g.nodes().filter(|&u| !follower_mask[u as usize]).collect();

        // Relaxed is sufficient for every access to `colors` below: within
        // a round the winners are pairwise non-adjacent (no slot is both
        // read and written), and the executor closing each parallel call
        // (every helper leaves through the pool's lock) is the
        // happens-before edge for cross-round visibility.
        let is_winner = |u: Node| {
            let pu = (priority(u), u);
            g.edges_of(u).all(|(v, _)| {
                v == u
                    || follower_mask[v as usize]
                    || colors[v as usize].load(Ordering::Relaxed) != UNCOLORED // audit:allow(atomic-ordering): see the note above is_winner
                    || (priority(v), v) < pu
            })
        };
        let assign = |u: Node, forbidden: &mut crate::scratch::SparseWeightMap| {
            forbidden.clear();
            for (v, _) in g.edges_of(u) {
                if v == u {
                    continue;
                }
                let c = colors[v as usize].load(Ordering::Relaxed); // audit:allow(atomic-ordering): see is_winner
                if c != UNCOLORED {
                    forbidden.add(c, 1.0);
                }
            }
            let mut c = 0u32;
            while forbidden.get(c) != 0.0 {
                c += 1;
            }
            colors[u as usize].store(c, Ordering::Relaxed); // audit:allow(atomic-ordering): see is_winner
        };

        while !pending.is_empty() {
            budget.check()?;
            // Local priority maxima among *uncolored* non-follower
            // neighbors; ties (hash collisions) break by id. No two winners
            // are adjacent, so they can color themselves concurrently. The
            // long tail of small rounds goes through the executor like the
            // rest: a region costs ≈ 1 µs to enter (EXPERIMENTS.md, PR 17).
            let winners: Vec<Node> = pending
                .par_iter()
                .map(|&u| u)
                .filter(|&u| is_winner(u))
                .collect();
            debug_assert!(!winners.is_empty(), "JP round must color at least one node");
            winners.par_iter().for_each_init(
                || scratch.take(scratch_cap),
                |forbidden, &u| assign(u, forbidden),
            );
            // audit:allow(atomic-ordering): sequential read after the round's join
            pending.retain(|&u| colors[u as usize].load(Ordering::Relaxed) == UNCOLORED);
        }

        let colors: Vec<u32> = colors.into_iter().map(AtomicU32::into_inner).collect();
        let num_colors = colors
            .iter()
            .filter(|&&c| c != UNCOLORED)
            .max()
            .map_or(0, |&c| c as usize + 1);
        let mut classes: Vec<Vec<Node>> = vec![Vec::new(); num_colors];
        let mut followers = Vec::new();
        for u in g.nodes() {
            if follower_mask[u as usize] {
                followers.push(u);
            } else {
                classes[colors[u as usize] as usize].push(u);
            }
        }
        let result = Self {
            colors,
            classes,
            followers,
        };
        #[cfg(any(debug_assertions, feature = "validate"))]
        if let Err(e) = result.validate(g) {
            panic!("Coloring::compute postcondition violated: {e}");
        }
        Ok(result)
    }

    /// Number of distinct colors used (excluding the follower class).
    pub fn num_colors(&self) -> usize {
        self.classes.len()
    }

    /// The color classes, each an independent set in ascending id order.
    pub fn classes(&self) -> &[Vec<Node>] {
        &self.classes
    }

    /// The degree-1 follower nodes (mutually non-adjacent), ascending ids.
    pub fn followers(&self) -> &[Node] {
        &self.followers
    }

    /// The color of `u`, or `None` when `u` is a follower.
    pub fn color_of(&self, u: Node) -> Option<u32> {
        match self.colors[u as usize] {
            UNCOLORED => None,
            c => Some(c),
        }
    }

    /// Checks the coloring invariants against `g`: classes plus followers
    /// partition the node set, no two adjacent nodes share a color, and no
    /// follower neighbors another follower.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        if self.colors.len() != g.node_count() {
            return Err(format!(
                "coloring covers {} of {} nodes",
                self.colors.len(),
                g.node_count()
            ));
        }
        let mut seen = vec![false; g.node_count()];
        for (c, class) in self.classes.iter().enumerate() {
            for &u in class {
                if self.colors[u as usize] != c as u32 {
                    return Err(format!(
                        "node {u} listed in class {c} but colored elsewhere"
                    ));
                }
                if seen[u as usize] {
                    return Err(format!("node {u} appears in two classes"));
                }
                seen[u as usize] = true;
            }
        }
        for &u in &self.followers {
            if self.colors[u as usize] != UNCOLORED {
                return Err(format!("follower {u} carries a color"));
            }
            if seen[u as usize] {
                return Err(format!("follower {u} also appears in a color class"));
            }
            seen[u as usize] = true;
        }
        if let Some(u) = seen.iter().position(|&s| !s) {
            return Err(format!("node {u} is in no class and not a follower"));
        }
        for u in g.nodes() {
            for (v, _) in g.edges_of(u) {
                if v == u {
                    continue;
                }
                let cu = self.colors[u as usize];
                let cv = self.colors[v as usize];
                if cu != UNCOLORED && cu == cv {
                    return Err(format!("adjacent nodes {u} and {v} share color {cu}"));
                }
                if cu == UNCOLORED && cv == UNCOLORED {
                    return Err(format!("adjacent followers {u} and {v}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn colors_a_path() {
        // 0-1-2-3: endpoints are degree-1 followers, the middle is colored
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let c = Coloring::compute(&g);
        c.validate(&g).unwrap();
        assert_eq!(c.followers(), &[0, 3]);
        assert_eq!(c.color_of(0), None);
        assert!(c.num_colors() >= 2, "adjacent 1-2 need distinct colors");
    }

    #[test]
    fn triangle_needs_three_colors() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let c = Coloring::compute(&g);
        c.validate(&g).unwrap();
        assert_eq!(c.num_colors(), 3);
        assert!(c.followers().is_empty());
    }

    #[test]
    fn isolated_pair_splits_by_id() {
        // 0-1 alone: 0 colored, 1 follows
        let g = GraphBuilder::from_edges(2, &[(0, 1)]);
        let c = Coloring::compute(&g);
        c.validate(&g).unwrap();
        assert!(c.color_of(0).is_some());
        assert_eq!(c.followers(), &[1]);
    }

    #[test]
    fn star_center_is_colored_leaves_follow() {
        let g = GraphBuilder::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let c = Coloring::compute(&g);
        c.validate(&g).unwrap();
        assert_eq!(c.followers(), &[1, 2, 3, 4]);
        assert_eq!(c.num_colors(), 1);
    }

    #[test]
    fn self_loops_and_isolated_nodes_do_not_constrain() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 0, 2.0);
        let g = b.build();
        let c = Coloring::compute(&g);
        c.validate(&g).unwrap();
        assert_eq!(c.followers().len(), 0);
        assert_eq!(c.num_colors(), 1, "no real adjacency: one color suffices");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (g, _) = parcom_generators_free::grid(24, 24);
        let reference = Coloring::compute(&g);
        reference.validate(&g).unwrap();
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let c = pool.install(|| Coloring::compute(&g));
            assert_eq!(
                c.colors, reference.colors,
                "colors differ at {threads} threads"
            );
            assert_eq!(c.classes, reference.classes);
            assert_eq!(c.followers, reference.followers);
        }
    }

    #[test]
    fn budget_expiry_propagates() {
        let (g, _) = parcom_generators_free::grid(16, 16);
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let r = Coloring::compute_budgeted(&g, &ScratchPool::new(), &budget);
        assert!(r.is_err());
    }

    /// A tiny local generator so this crate's tests need no dependency on
    /// `parcom-generators` (which depends on this crate).
    mod parcom_generators_free {
        use crate::builder::GraphBuilder;
        use crate::graph::Graph;

        pub fn grid(w: u32, h: u32) -> (Graph, ()) {
            let mut b = GraphBuilder::new((w * h) as usize);
            for y in 0..h {
                for x in 0..w {
                    let u = y * w + x;
                    if x + 1 < w {
                        b.add_edge(u, u + 1, 1.0);
                    }
                    if y + 1 < h {
                        b.add_edge(u, u + w, 1.0);
                    }
                }
            }
            (b.build(), ())
        }
    }
}
