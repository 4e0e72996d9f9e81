//! Generation-stamped scratch maps for the neighborhood-aggregation kernels.
//!
//! The inner loop of every label/move kernel — PLP's label-weight tally,
//! PLM's Δmod arg-max, sequential Louvain — aggregates edge weight per
//! neighbor *community* and then scans the aggregate. The paper's
//! implementation notes (§III-A, §III-D) credit much of NetworKit's speed to
//! replacing general hash maps with indexed scratch structures there: the
//! keys are community ids that the algorithms keep dense (`Partition::
//! compact` runs before every phase), so a flat array beats hashing.
//!
//! [`SparseWeightMap`] is that structure: a `Vec<f64>` of weights and a
//! `Vec<u32>` of generation stamps indexed by community id, plus a compact
//! list of touched keys for iteration. `clear()` is O(1) — it bumps the
//! generation, invalidating every stamp at once — so the per-visit cost is
//! exactly one stamp compare per edge, with no hashing and no per-visit
//! allocation. [`ScratchPool`] recycles the maps across rayon parallel
//! regions (whose per-worker state is constructed fresh each sweep), so the
//! backing arrays are allocated once per thread rather than once per sweep
//! or per level.
//!
//! When ids are *not* dense (e.g. remapping arbitrary ids during coarsening)
//! the hash map remains the right tool; see DESIGN.md §9 for the policy.

use std::sync::Mutex;

/// A map from dense `u32` keys to `f64` weight accumulators with O(1) reset.
///
/// Keys must be smaller than [`capacity`](Self::capacity); grow with
/// [`ensure_capacity`](Self::ensure_capacity). Iteration visits keys in
/// first-touch order (for the kernels: CSR neighbor order), which is
/// deterministic — unlike hash-map iteration order.
///
/// # Examples
///
/// ```
/// use parcom_graph::scratch::SparseWeightMap;
///
/// let mut m = SparseWeightMap::with_capacity(8);
/// m.add(3, 1.5);
/// m.add(5, 1.0);
/// m.add(3, 0.5);
/// assert_eq!(m.get(3), 2.0);
/// assert_eq!(m.get(4), 0.0);
/// assert_eq!(m.iter().collect::<Vec<_>>(), vec![(3, 2.0), (5, 1.0)]);
/// m.clear(); // O(1): bumps the generation
/// assert!(m.is_empty());
/// assert_eq!(m.get(3), 0.0);
/// ```
#[derive(Debug, Default)]
pub struct SparseWeightMap {
    /// `weights[k]` is valid iff `stamps[k] == generation`.
    weights: Vec<f64>,
    stamps: Vec<u32>,
    /// Current generation; starts at 1 and never becomes 0, so fresh
    /// (zeroed) stamp slots are always invalid.
    generation: u32,
    /// Keys stamped in the current generation, in first-touch order.
    touched: Vec<u32>,
}

impl SparseWeightMap {
    /// An empty map with zero capacity.
    pub fn new() -> Self {
        Self {
            weights: Vec::new(),
            stamps: Vec::new(),
            generation: 1,
            touched: Vec::new(),
        }
    }

    /// A map accepting keys in `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut m = Self::new();
        m.ensure_capacity(capacity);
        m
    }

    /// Exclusive upper bound on usable keys.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.stamps.len()
    }

    /// Grows the key space to at least `capacity`. Existing entries keep
    /// their values; new slots start vacant. Never shrinks.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if capacity > self.stamps.len() {
            self.stamps.resize(capacity, 0);
            self.weights.resize(capacity, 0.0);
        }
    }

    /// Removes every entry in O(1) by bumping the generation. On the
    /// (astronomically rare) generation wraparound the stamp array is
    /// rewritten once so stale stamps can never alias a future generation.
    pub fn clear(&mut self) {
        self.touched.clear();
        if self.generation == u32::MAX {
            self.stamps.fill(0);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
    }

    /// Adds `w` to the accumulator of `key`. Panics if `key` is outside
    /// the current capacity.
    #[inline]
    pub fn add(&mut self, key: u32, w: f64) {
        let i = key as usize;
        if self.stamps[i] == self.generation {
            self.weights[i] += w;
        } else {
            self.stamps[i] = self.generation;
            self.weights[i] = w;
            self.touched.push(key);
        }
    }

    /// The accumulated weight of `key`, or `0.0` if untouched since the
    /// last [`clear`](Self::clear). Panics if `key` is outside the current
    /// capacity.
    #[inline]
    pub fn get(&self, key: u32) -> f64 {
        let i = key as usize;
        if self.stamps[i] == self.generation {
            self.weights[i]
        } else {
            0.0
        }
    }

    /// Number of distinct keys touched since the last clear.
    #[inline]
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// True if no key has been touched since the last clear.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Iterates `(key, weight)` pairs in first-touch order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.touched.iter().map(|&k| (k, self.weights[k as usize]))
    }
}

/// A pool of [`SparseWeightMap`]s for rayon hot loops.
///
/// `for_each_init` constructs fresh per-worker state on every parallel
/// region; taking maps from a pool instead makes the backing arrays live
/// across sweeps (and, in PLM, across hierarchy levels): each worker locks
/// the pool once per region, not once per node visit.
///
/// # Examples
///
/// ```
/// use parcom_graph::scratch::ScratchPool;
///
/// let pool = ScratchPool::new();
/// {
///     let mut m = pool.take(16);
///     m.add(7, 1.0);
///     assert_eq!(m.get(7), 1.0);
/// } // returned to the pool on drop
/// let m = pool.take(4); // recycled: capacity stays 16
/// assert!(m.capacity() >= 16);
/// assert!(m.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<SparseWeightMap>>,
}

impl ScratchPool {
    /// An empty pool; `const`, so a pool can be a `static` whose maps
    /// outlive every run that borrows them.
    pub const fn new() -> Self {
        Self {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Drops the pooled maps past the first `maps`, bounding what a
    /// long-lived pool keeps to what one region of `maps` threads takes.
    pub fn truncate(&self, maps: usize) {
        self.free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .truncate(maps);
    }

    /// Takes a cleared map with room for keys in `0..capacity`, recycling a
    /// pooled one when available. The map returns to the pool when the
    /// guard drops.
    pub fn take(&self, capacity: usize) -> PooledScratch<'_> {
        let mut map = self
            .free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default();
        map.ensure_capacity(capacity);
        map.clear();
        PooledScratch { map, pool: self }
    }

    fn put(&self, map: SparseWeightMap) {
        self.free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(map);
    }
}

/// RAII guard dereferencing to a pooled [`SparseWeightMap`]; returns the
/// map to its [`ScratchPool`] on drop.
#[derive(Debug)]
pub struct PooledScratch<'a> {
    map: SparseWeightMap,
    pool: &'a ScratchPool,
}

impl std::ops::Deref for PooledScratch<'_> {
    type Target = SparseWeightMap;

    #[inline]
    fn deref(&self) -> &SparseWeightMap {
        &self.map
    }
}

impl std::ops::DerefMut for PooledScratch<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut SparseWeightMap {
        &mut self.map
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        self.pool.put(std::mem::take(&mut self.map));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_iterates_in_touch_order() {
        let mut m = SparseWeightMap::with_capacity(10);
        m.add(9, 1.0);
        m.add(2, 2.0);
        m.add(9, 0.5);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(9), 1.5);
        assert_eq!(m.get(2), 2.0);
        assert_eq!(m.get(0), 0.0);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(9, 1.5), (2, 2.0)]);
    }

    #[test]
    fn clear_is_a_full_reset() {
        let mut m = SparseWeightMap::with_capacity(4);
        m.add(1, 3.0);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(1), 0.0);
        m.add(1, 1.0);
        assert_eq!(m.get(1), 1.0, "stale weight must not leak through");
        assert_eq!(m.iter().count(), 1);
    }

    #[test]
    fn resize_keeps_entries_and_opens_new_keys() {
        let mut m = SparseWeightMap::with_capacity(2);
        m.add(1, 5.0);
        m.ensure_capacity(6);
        assert_eq!(m.capacity(), 6);
        assert_eq!(m.get(1), 5.0, "grow must preserve live entries");
        assert_eq!(m.get(5), 0.0, "new slots start vacant");
        m.add(5, 2.0);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(1, 5.0), (5, 2.0)]);
        // never shrinks
        m.ensure_capacity(1);
        assert_eq!(m.capacity(), 6);
    }

    #[test]
    fn generation_wraparound_rewrites_stamps() {
        let mut m = SparseWeightMap::with_capacity(3);
        m.add(0, 1.0);
        // force the wraparound edge: the next clear() must not alias old
        // stamps with a recycled generation value
        m.generation = u32::MAX - 1;
        m.stamps[0] = u32::MAX - 1; // entry live in the forced generation
        assert_eq!(m.get(0), 1.0);
        m.clear(); // -> u32::MAX
        assert_eq!(m.generation, u32::MAX);
        assert_eq!(m.get(0), 0.0);
        m.add(1, 2.0);
        m.clear(); // wraparound: stamps rewritten, generation back to 1
        assert_eq!(m.generation, 1);
        assert!(m.stamps.iter().all(|&s| s == 0));
        assert_eq!(m.get(1), 0.0);
        m.add(2, 4.0);
        assert_eq!(m.get(2), 4.0);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(2, 4.0)]);
    }

    #[test]
    fn wraparound_slot_never_resurrects() {
        // a slot stamped with generation 1 long ago must stay vacant after
        // the generation counter wraps back to 1... which clear() prevents
        // by zeroing every stamp on the wrap.
        let mut m = SparseWeightMap::with_capacity(2);
        m.add(0, 7.0); // stamped generation 1
        m.generation = u32::MAX;
        assert_eq!(m.get(0), 0.0, "generation moved on, entry is stale");
        m.clear(); // wraps to 1 and zeroes stamps
        assert_eq!(
            m.get(0),
            0.0,
            "pre-wrap stamp must not match the recycled generation"
        );
    }

    #[test]
    fn zero_capacity_map_is_usable_after_growth() {
        let mut m = SparseWeightMap::new();
        assert_eq!(m.capacity(), 0);
        assert!(m.is_empty());
        m.ensure_capacity(1);
        m.add(0, 1.0);
        assert_eq!(m.get(0), 1.0);
    }

    #[test]
    #[should_panic]
    fn out_of_capacity_key_panics() {
        let mut m = SparseWeightMap::with_capacity(2);
        m.add(2, 1.0);
    }

    #[test]
    fn pool_recycles_capacity() {
        let pool = ScratchPool::new();
        {
            let mut a = pool.take(100);
            a.add(99, 1.0);
        }
        let b = pool.take(10);
        assert!(b.capacity() >= 100, "pooled map keeps its larger capacity");
        assert!(b.is_empty(), "take() returns a cleared map");
        assert_eq!(b.get(99), 0.0);
    }

    #[test]
    fn truncate_keeps_the_first_maps() {
        static POOL: ScratchPool = ScratchPool::new();
        {
            let (_a, _b, _c) = (POOL.take(8), POOL.take(8), POOL.take(8));
        }
        POOL.truncate(2);
        let (a, b) = (POOL.take(1), POOL.take(1));
        assert!(a.capacity() >= 8 && b.capacity() >= 8, "two kept");
        assert_eq!(POOL.take(1).capacity(), 1, "the third was dropped");
    }

    #[test]
    fn pool_hands_out_distinct_maps_under_contention() {
        use rayon::prelude::*;
        let pool = ScratchPool::new();
        // each worker accumulates its own node range; totals must be exact,
        // which fails if two workers ever share a map
        let totals: Vec<f64> = (0..8u32)
            .into_par_iter()
            .map(|part| {
                let mut m = pool.take(64);
                for i in 0..64u32 {
                    m.add(i % 8, (part as f64) + 1.0);
                }
                m.iter().map(|(_, w)| w).sum()
            })
            .collect();
        for (part, total) in totals.iter().enumerate() {
            assert_eq!(*total, 64.0 * (part as f64 + 1.0));
        }
    }
}
