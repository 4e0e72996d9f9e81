//! Consensus combination of base solutions (§III-D).
//!
//! The core communities ζ̄ of an ensemble place two nodes together iff
//! *every* base solution places them together (Eq. III.2). The paper
//! implements this with a `b`-way hash: each node's tuple of base community
//! ids `(ζ₁(v), …, ζ_b(v))` is hashed with djb2 to its core community id —
//! embarrassingly parallel over nodes. Hash collisions could spuriously
//! merge nodes; with 64-bit djb2 they are negligible at benchmark scales,
//! and an exact (collision-free) variant is provided for verification.

use parcom_graph::hashing::{djb2, FxHashMap};
use parcom_graph::Partition;
use rayon::prelude::*;

/// Hash-based core-communities combine (the paper's parallel algorithm).
///
/// Panics if `solutions` is empty or the solutions disagree on length.
// audit:allow(budget-propagation): one bounded hash pass per ensemble round; the caller checks the budget between rounds
pub fn core_communities(solutions: &[Partition]) -> Partition {
    assert!(!solutions.is_empty(), "need at least one base solution");
    let n = solutions[0].len();
    assert!(
        solutions.iter().all(|s| s.len() == n),
        "base solutions must cover the same node set"
    );

    let hashes: Vec<u64> = (0..n)
        .into_par_iter()
        .map(|v| {
            let tuple: Vec<u32> = solutions.iter().map(|s| s.subset_of(v as u32)).collect();
            djb2(&tuple)
        })
        .collect();

    // densify 64-bit hashes to community ids
    let mut remap: FxHashMap<u64, u32> = FxHashMap::default();
    let mut data = Vec::with_capacity(n);
    for h in hashes {
        let next = remap.len() as u32; // audit:allow(lossy-cast): bounded by the u32 node id space
        data.push(*remap.entry(h).or_insert(next));
    }
    Partition::from_vec(data)
}

/// Exact (collision-free) combine via tuple interning. Slower; used in tests
/// to validate [`core_communities`].
// audit:allow(unreachable-pub): the collision-free reference `core_communities` is checked against (tests/invariants_proptest.rs)
pub fn core_communities_exact(solutions: &[Partition]) -> Partition {
    assert!(!solutions.is_empty());
    let n = solutions[0].len();
    let mut remap: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
    let mut data = Vec::with_capacity(n);
    for v in 0..n {
        let tuple: Vec<u32> = solutions.iter().map(|s| s.subset_of(v as u32)).collect();
        let next = remap.len() as u32; // audit:allow(lossy-cast): bounded by the u32 node id space
        data.push(*remap.entry(tuple).or_insert(next));
    }
    Partition::from_vec(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consensus_is_pairwise_intersection() {
        let a = Partition::from_vec(vec![0, 0, 0, 1, 1, 1]);
        let b = Partition::from_vec(vec![0, 0, 1, 1, 1, 2]);
        let core = core_communities(&[a.clone(), b.clone()]);
        for u in 0..6u32 {
            for v in 0..6u32 {
                let together = a.in_same_subset(u, v) && b.in_same_subset(u, v);
                assert_eq!(
                    core.in_same_subset(u, v),
                    together,
                    "nodes {u},{v}: Eq. III.2 violated"
                );
            }
        }
    }

    #[test]
    fn identical_solutions_unchanged() {
        let a = Partition::from_vec(vec![2, 2, 5, 5, 5]);
        let core = core_communities(&[a.clone(), a.clone(), a.clone()]);
        for u in 0..5u32 {
            for v in 0..5u32 {
                assert_eq!(core.in_same_subset(u, v), a.in_same_subset(u, v));
            }
        }
    }

    #[test]
    fn single_solution_is_identity_grouping() {
        let a = Partition::from_vec(vec![3, 3, 1, 1]);
        let core = core_communities(std::slice::from_ref(&a));
        assert_eq!(core.number_of_subsets(), 2);
        assert!(core.in_same_subset(0, 1));
        assert!(!core.in_same_subset(0, 2));
    }

    #[test]
    fn disjoint_solutions_give_singletons() {
        let a = Partition::from_vec(vec![0, 0, 1, 1]);
        let b = Partition::from_vec(vec![0, 1, 0, 1]);
        let core = core_communities(&[a, b]);
        assert_eq!(core.number_of_subsets(), 4);
    }

    #[test]
    fn hash_combine_matches_exact_combine() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 5000;
        let solutions: Vec<Partition> = (0..4)
            .map(|_| Partition::from_vec((0..n).map(|_| rng.gen_range(0..50u32)).collect()))
            .collect();
        let fast = core_communities(&solutions);
        let exact = core_communities_exact(&solutions);
        assert_eq!(fast.number_of_subsets(), exact.number_of_subsets());
        // same grouping up to relabeling: compare via canonical compact forms
        let mut f = fast.clone();
        let mut e = exact.clone();
        f.compact();
        e.compact();
        assert_eq!(f.as_slice(), e.as_slice());
    }

    #[test]
    fn core_is_refinement_of_every_base() {
        let a = Partition::from_vec(vec![0, 0, 1, 1, 2, 2]);
        let b = Partition::from_vec(vec![0, 1, 1, 1, 2, 2]);
        let core = core_communities(&[a.clone(), b.clone()]);
        assert!(core.is_refinement_of(&a));
        assert!(core.is_refinement_of(&b));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_ensemble_panics() {
        core_communities(&[]);
    }

    #[test]
    #[should_panic(expected = "same node set")]
    fn mismatched_lengths_panic() {
        core_communities(&[Partition::singleton(3), Partition::singleton(4)]);
    }
}
