//! Community assignments.
//!
//! A [`Partition`] maps every node to a community id, exactly the paper's
//! solution representation: "an array indexed by integer node identifiers and
//! containing integer community identifiers" (§III). [`AtomicPartition`] is
//! the shared-mutable variant the parallel algorithms write concurrently; its
//! relaxed atomic loads/stores reproduce the paper's deliberate benign races
//! (asynchronous label updating) without undefined behavior.

use crate::graph::Node;
use crate::hashing::FxHashMap;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// A disjoint community assignment: `data[v]` is the community of node `v`.
///
/// # Examples
///
/// ```
/// use parcom_graph::Partition;
///
/// let mut p = Partition::from_vec(vec![7, 7, 3, 3, 3]);
/// assert!(p.in_same_subset(0, 1));
/// assert_eq!(p.number_of_subsets(), 2);
/// p.compact();
/// assert_eq!(p.as_slice(), &[0, 0, 1, 1, 1]);
/// assert!(p.is_compacted());
/// ```
#[derive(Clone, Debug)]
pub struct Partition {
    data: Vec<u32>,
    /// Exclusive upper bound on community ids in `data`.
    upper: u32,
    /// Whether `data` is known to number its communities `0..upper` in
    /// order of first appearance — what [`Self::compact`] leaves.
    compacted: bool,
}

/// Two partitions are equal when they assign the same ids under the same
/// bound; whether either is known to be compacted does not matter.
impl PartialEq for Partition {
    fn eq(&self, other: &Self) -> bool {
        (&self.data, self.upper) == (&other.data, other.upper)
    }
}

impl Eq for Partition {}

impl Partition {
    /// Every node in its own community: `ζ(v) = v` (the paper's
    /// `ζ_singleton`).
    pub fn singleton(n: usize) -> Self {
        Self {
            data: (0..n as u32).collect(),
            upper: n as u32,
            compacted: true,
        }
    }

    /// All nodes in one community.
    // audit:allow(unreachable-pub): the one-community partition of the quality, coarsening and CNM tests
    pub fn all_in_one(n: usize) -> Self {
        Self {
            data: vec![0; n],
            upper: if n == 0 { 0 } else { 1 },
            compacted: true,
        }
    }

    /// Wraps an explicit assignment vector.
    pub fn from_vec(data: Vec<u32>) -> Self {
        let upper = data.iter().copied().max().map_or(0, |m| m + 1);
        Self {
            data,
            upper,
            compacted: false,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the partition covers no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// ζ(v): community of node `v`.
    #[inline]
    pub fn subset_of(&self, v: Node) -> u32 {
        self.data[v as usize]
    }

    /// Moves node `v` into community `c`.
    #[inline]
    pub fn set(&mut self, v: Node, c: u32) {
        self.data[v as usize] = c;
        if c >= self.upper {
            self.upper = c + 1;
        }
        self.compacted = false;
    }

    /// Exclusive upper bound on community ids.
    #[inline]
    pub fn upper_bound(&self) -> u32 {
        self.upper
    }

    /// Whether the ids are known to be what [`Self::compact`] would make
    /// them — `0..k` in order of first appearance — so that compacting
    /// would change nothing. `compact`, [`Self::singleton`] and
    /// [`Self::all_in_one`] set this, and [`Self::set`] clears it;
    /// [`Self::from_vec`] does not scan for it. [`Self::validate_dense`]
    /// checks the claim.
    #[inline]
    pub fn is_compacted(&self) -> bool {
        self.compacted
    }

    /// The raw assignment array.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.data
    }

    /// Consumes the partition, returning the assignment array.
    pub fn into_vec(self) -> Vec<u32> {
        self.data
    }

    /// Renumbers community ids to the dense range `0..k` (first-seen order)
    /// and returns `k`, the number of non-empty communities.
    pub fn compact(&mut self) -> usize {
        self.compact_with(|_, _| {})
    }

    /// [`Self::compact`], calling `renamed(old, new)` once per community,
    /// when its old id is first seen — the one first-seen renumbering that
    /// everything carrying per-community data through it shares.
    pub fn compact_with(&mut self, mut renamed: impl FnMut(u32, u32)) -> usize {
        // Ids are almost always node ids or compacted ids, so the remap is
        // a flat table; only an assignment with ids far above its length
        // pays for hashing.
        let k = if self.upper as usize <= 4 * self.data.len() {
            const UNSEEN: u32 = u32::MAX;
            let mut remap = vec![UNSEEN; self.upper as usize];
            let mut next = 0u32;
            for c in self.data.iter_mut() {
                let slot = &mut remap[*c as usize];
                if *slot == UNSEEN {
                    *slot = next;
                    renamed(*c, next);
                    next += 1;
                }
                *c = *slot;
            }
            next
        } else {
            let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
            for c in self.data.iter_mut() {
                let (old, next) = (*c, remap.len() as u32); // audit:allow(lossy-cast): bounded by the u32 node id space
                *c = *remap.entry(old).or_insert_with(|| {
                    renamed(old, next);
                    next
                });
            }
            remap.len() as u32 // audit:allow(lossy-cast): bounded by the u32 node id space
        };
        self.upper = k;
        self.compacted = true;
        #[cfg(any(debug_assertions, feature = "validate"))]
        if let Err(e) = self.validate_dense() {
            panic!("compact() postcondition violated: {e}");
        }
        k as usize
    }

    /// Checks the basic invariant: every community id is below
    /// [`Self::upper_bound`]. Compiled in debug builds or with the
    /// `validate` feature.
    #[cfg(any(debug_assertions, feature = "validate"))]
    pub fn validate(&self) -> Result<(), String> {
        for (v, &c) in self.data.iter().enumerate() {
            if c >= self.upper {
                return Err(format!(
                    "node {v} assigned community {c}, upper bound is {}",
                    self.upper
                ));
            }
        }
        Ok(())
    }

    /// Checks [`Self::validate`] plus denseness: community ids form exactly
    /// `0..upper_bound()` with no gaps — the state [`Self::compact`]
    /// guarantees — and, for a partition that claims to be compacted
    /// ([`Self::is_compacted`]), that each id first appears after the one
    /// below it. Compiled in debug builds or with the `validate` feature.
    #[cfg(any(debug_assertions, feature = "validate"))]
    pub fn validate_dense(&self) -> Result<(), String> {
        self.validate()?;
        let mut used = vec![false; self.upper as usize];
        let mut next = 0;
        for (v, &c) in self.data.iter().enumerate() {
            if self.compacted && c > next {
                return Err(format!(
                    "node {v} is first in community {c}, but the partition claims to be compacted and next is {next}"
                ));
            }
            next = next.max(c + 1);
            used[c as usize] = true;
        }
        if let Some(gap) = used.iter().position(|&u| !u) {
            return Err(format!(
                "community id {gap} is unused but below the upper bound {}",
                self.upper
            ));
        }
        Ok(())
    }

    /// Number of distinct (non-empty) communities. Does not modify ids.
    pub fn number_of_subsets(&self) -> usize {
        let mut seen = vec![false; self.upper as usize];
        let mut count = 0;
        for &c in &self.data {
            if !seen[c as usize] {
                seen[c as usize] = true;
                count += 1;
            }
        }
        count
    }

    /// Sizes of communities, indexed by community id (length `upper_bound()`).
    // audit:allow(unreachable-pub): the community-size oracle of the generator tests (tests/generator_properties.rs)
    pub fn subset_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.upper as usize];
        for &c in &self.data {
            sizes[c as usize] += 1;
        }
        sizes
    }

    /// Member lists per community id (length `upper_bound()`; empty lists for
    /// unused ids). Call [`Self::compact`] first for dense output.
    pub fn members(&self) -> Vec<Vec<Node>> {
        let mut out = vec![Vec::new(); self.upper as usize];
        for (v, &c) in self.data.iter().enumerate() {
            out[c as usize].push(v as Node);
        }
        out
    }

    /// True if `u` and `v` share a community.
    #[inline]
    pub fn in_same_subset(&self, u: Node, v: Node) -> bool {
        self.data[u as usize] == self.data[v as usize]
    }

    /// Whether this assignment is a refinement of `other`: every community of
    /// `self` is contained in a single community of `other`.
    pub fn is_refinement_of(&self, other: &Partition) -> bool {
        debug_assert_eq!(self.len(), other.len());
        let mut rep: FxHashMap<u32, u32> = FxHashMap::default();
        for v in 0..self.len() {
            let mine = self.data[v];
            let theirs = other.data[v];
            match rep.entry(mine) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != theirs {
                        return false;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(theirs);
                }
            }
        }
        true
    }
}

/// A partition whose entries can be read and written concurrently.
///
/// Used as the shared label array of PLP and the shared assignment of PLM's
/// parallel move phase. All accesses are `Relaxed`: the algorithms explicitly
/// tolerate stale values (§III-A, §III-B).
#[derive(Debug)]
pub struct AtomicPartition {
    data: Vec<AtomicU32>,
}

impl FromIterator<u32> for AtomicPartition {
    /// Node `v` starts in the `v`-th community id the iterator yields.
    fn from_iter<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        Self {
            data: ids.into_iter().map(AtomicU32::new).collect(),
        }
    }
}

impl AtomicPartition {
    /// Singleton assignment `ζ(v) = v`.
    pub fn singleton(n: usize) -> Self {
        (0..n as u32).collect()
    }

    /// Copies an existing partition.
    pub fn from_partition(p: &Partition) -> Self {
        p.as_slice().iter().copied().collect()
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads ζ(v) (relaxed).
    #[inline]
    pub fn get(&self, v: Node) -> u32 {
        self.data[v as usize].load(Ordering::Relaxed)
    }

    /// Writes ζ(v) (relaxed).
    #[inline]
    pub fn set(&self, v: Node, c: u32) {
        self.data[v as usize].store(c, Ordering::Relaxed);
    }

    /// Checks that every concurrently-written entry is below `upper` (for
    /// PLP's label array, `upper` is the node count: labels are node ids).
    /// The shared array is racy by design, but *values* must always be ones
    /// some thread actually wrote — a torn or out-of-range id would mean
    /// the benign-race argument no longer holds. Compiled in debug builds
    /// or with the `validate` feature.
    #[cfg(any(debug_assertions, feature = "validate"))]
    pub fn validate(&self, upper: u32) -> Result<(), String> {
        for (v, a) in self.data.iter().enumerate() {
            let c = a.load(Ordering::Relaxed);
            if c >= upper {
                return Err(format!(
                    "node {v} carries concurrent label {c}, upper bound is {upper}"
                ));
            }
        }
        Ok(())
    }

    /// Snapshot into an owned [`Partition`].
    pub fn to_partition(&self) -> Partition {
        let data: Vec<u32> = self
            .data
            .par_iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect();
        Partition::from_vec(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_assigns_unique_ids() {
        let p = Partition::singleton(4);
        assert_eq!(p.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(p.number_of_subsets(), 4);
        assert_eq!(p.upper_bound(), 4);
    }

    #[test]
    fn all_in_one() {
        let p = Partition::all_in_one(5);
        assert_eq!(p.number_of_subsets(), 1);
        assert!(p.in_same_subset(0, 4));
    }

    #[test]
    fn set_and_get() {
        let mut p = Partition::singleton(3);
        p.set(0, 2);
        assert_eq!(p.subset_of(0), 2);
        assert!(p.in_same_subset(0, 2));
        p.set(1, 99);
        assert_eq!(p.upper_bound(), 100);
    }

    #[test]
    fn compact_renumbers_densely() {
        let mut p = Partition::from_vec(vec![7, 7, 3, 9, 3]);
        let k = p.compact();
        assert_eq!(k, 3);
        assert_eq!(p.as_slice(), &[0, 0, 1, 2, 1]);
        assert_eq!(p.upper_bound(), 3);
    }

    #[test]
    fn compact_keeps_first_seen_order_on_both_remap_paths() {
        // ids within 4x the length take the flat table, larger ones the map
        let mut flat = Partition::from_vec(vec![7, 7, 3, 9, 3]);
        let mut hashed = Partition::from_vec(vec![700, 700, 3, 90_000, 3]);
        assert_eq!(flat.compact(), hashed.compact());
        assert_eq!(flat, hashed);
        let mut empty = Partition::singleton(0);
        assert_eq!(empty.compact(), 0);
    }

    #[test]
    fn compact_preserves_grouping() {
        let orig = Partition::from_vec(vec![5, 1, 5, 1, 2]);
        let mut p = orig.clone();
        p.compact();
        for u in 0..5u32 {
            for v in 0..5u32 {
                assert_eq!(orig.in_same_subset(u, v), p.in_same_subset(u, v));
            }
        }
    }

    #[test]
    fn subset_sizes_and_members() {
        let p = Partition::from_vec(vec![0, 1, 0, 1, 1]);
        assert_eq!(p.subset_sizes(), vec![2, 3]);
        let members = p.members();
        assert_eq!(members[0], vec![0, 2]);
        assert_eq!(members[1], vec![1, 3, 4]);
    }

    #[test]
    fn refinement_detection() {
        let coarse = Partition::from_vec(vec![0, 0, 0, 1, 1]);
        let fine = Partition::from_vec(vec![0, 1, 1, 2, 2]);
        assert!(fine.is_refinement_of(&coarse));
        assert!(!coarse.is_refinement_of(&fine));
        assert!(coarse.is_refinement_of(&coarse));
    }

    #[test]
    fn empty_partition() {
        let p = Partition::singleton(0);
        assert!(p.is_empty());
        assert_eq!(p.number_of_subsets(), 0);
        assert_eq!(Partition::all_in_one(0).upper_bound(), 0);
    }

    #[test]
    fn validate_accepts_consistent_partitions() {
        assert!(Partition::singleton(5).validate().is_ok());
        assert!(Partition::singleton(5).validate_dense().is_ok());
        assert!(Partition::from_vec(vec![2, 0, 2]).validate().is_ok());
        assert!(Partition::singleton(0).validate_dense().is_ok());
    }

    #[test]
    fn validate_rejects_id_above_upper_bound() {
        // corrupted fixture: an id at the upper bound (struct literal
        // bypasses the maintenance in set()/from_vec())
        let p = Partition {
            data: vec![0, 5, 1],
            upper: 3,
            compacted: false,
        };
        let err = p.validate().unwrap_err();
        assert!(err.contains("upper bound"), "{err}");
        assert!(p.validate_dense().is_err());
    }

    #[test]
    fn validate_dense_rejects_gaps() {
        // ids < upper but id 1 unused: valid, yet not dense
        let p = Partition {
            data: vec![0, 2, 0],
            upper: 3,
            compacted: false,
        };
        assert!(p.validate().is_ok());
        let err = p.validate_dense().unwrap_err();
        assert!(err.contains("unused"), "{err}");
    }

    #[test]
    fn only_a_compaction_makes_a_partition_compacted() {
        // dense, but not numbered in order of first appearance
        let mut p = Partition::from_vec(vec![1, 0, 1]);
        assert!(!p.is_compacted() && p.validate_dense().is_ok());
        p.compact();
        assert!(p.is_compacted());
        assert_eq!(
            p,
            Partition::from_vec(vec![0, 1, 0]),
            "the flag is not compared"
        );
        p.set(2, 1);
        assert!(!p.is_compacted());
        assert!(Partition::singleton(3).is_compacted() && Partition::all_in_one(3).is_compacted());
        // a false claim fails validation
        let lie = Partition {
            data: vec![1, 0, 1],
            upper: 2,
            compacted: true,
        };
        let err = lie.validate_dense().unwrap_err();
        assert!(err.contains("claims to be compacted"), "{err}");
    }

    #[test]
    fn atomic_validate_bounds_concurrent_labels() {
        let ap = AtomicPartition::singleton(4);
        assert!(ap.validate(4).is_ok());
        ap.set(2, 9);
        let err = ap.validate(4).unwrap_err();
        assert!(err.contains("concurrent label 9"), "{err}");
    }

    #[test]
    fn atomic_partition_roundtrip() {
        let ap = AtomicPartition::singleton(3);
        ap.set(1, 7);
        assert_eq!(ap.get(1), 7);
        let p = ap.to_partition();
        assert_eq!(p.as_slice(), &[0, 7, 2]);
        assert_eq!(p.upper_bound(), 8);
    }

    #[test]
    fn atomic_from_partition() {
        let p = Partition::from_vec(vec![4, 4, 1]);
        let ap = AtomicPartition::from_partition(&p);
        assert_eq!(ap.len(), 3);
        assert_eq!(ap.get(0), 4);
        assert_eq!(ap.to_partition(), p);
    }

    #[test]
    fn atomic_concurrent_writes() {
        use rayon::prelude::*;
        let ap = AtomicPartition::singleton(1000);
        (0..1000u32).into_par_iter().for_each(|v| ap.set(v, v % 7));
        let p = ap.to_partition();
        for v in 0..1000u32 {
            assert_eq!(p.subset_of(v), v % 7);
        }
    }
}
