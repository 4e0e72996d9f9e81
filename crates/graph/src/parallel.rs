//! Thread-pool helpers for scaling experiments.
//!
//! The paper's strong/weak scaling experiments (Figs. 2, 3, 10) sweep the
//! number of OpenMP threads from 1 to 32. The rayon equivalent is running the
//! algorithm inside a dedicated pool of the requested size; [`with_threads`]
//! encapsulates that.

/// Runs `f` on a rayon pool with exactly `threads` worker threads.
///
/// A fresh pool is built per call and dropped when `f` returns: that
/// spawns and joins `threads − 1` OS threads (tens of µs each), so hoist
/// the call around a whole run rather than wrapping every kernel — the CLI
/// builds one per process. With `threads == 1` no thread is spawned and
/// every parallel call inside `f` runs inline.
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    assert!(threads >= 1, "need at least one thread");
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon pool");
    pool.install(f)
}

/// Number of threads rayon would use by default in the current context.
pub fn default_threads() -> usize {
    rayon::current_num_threads()
}

/// Splits `0..len` into at most `parts` contiguous, near-equal ranges.
///
/// Used where an algorithm wants explicit per-thread chunks (e.g. the
/// per-thread partial coarse graphs of §III-B) rather than rayon's adaptive
/// splitting.
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1).min(len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Pieces per thread for [`weighted_ranges`] callers that hand the pieces
/// to the executor's dynamic drivers (`for_each`, `collect`): the weights
/// make the pieces near-equal, several per thread absorb what the weights
/// cannot see (cache misses, a preempted thread). Same grain as the
/// executor's own chunking.
pub(crate) const DYNAMIC_PIECES: usize = 8;

/// Least weight (adjacency entries + rows) worth a piece of its own: a few
/// µs of streaming work against the ≈ 1–5 µs a parallel region costs to
/// enter, so graphs below two pieces' worth stay on the caller.
const MIN_PIECE_WEIGHT: usize = 4096;

/// Splits the rows of a CSR-style offsets array into contiguous ranges of
/// near-equal *weight* (see [`split_by_weight`]): `pieces_per_thread` for
/// each thread of the current pool, none lighter than
/// [`MIN_PIECE_WEIGHT`], a single range on a one-thread pool. This is
/// [`chunk_ranges`] for loops whose cost follows the row lengths rather
/// than the row count — a hub-heavy id range gets fewer rows. Pass
/// [`DYNAMIC_PIECES`] for dynamically claimed loops and 1 for folds whose
/// per-part state is a dense accumulator.
pub(crate) fn weighted_ranges(
    prefix: &[usize],
    pieces_per_thread: usize,
) -> Vec<std::ops::Range<usize>> {
    let rows = prefix.len() - 1;
    let weight = prefix[rows] - prefix[0] + rows;
    let threads = rayon::current_num_threads();
    let parts = if threads > 1 {
        (threads * pieces_per_thread).min(weight / MIN_PIECE_WEIGHT)
    } else {
        1
    };
    split_by_weight(prefix, parts)
}

/// Splits `0..prefix.len() - 1` into exactly `min(parts, len)` (at least
/// one) contiguous ranges of near-equal weight, where item `i` weighs
/// `prefix[i + 1] - prefix[i] + 1`: its entries plus one for the item
/// itself, so empty rows still count and the split points are unique. A
/// range comes out empty when a single item outweighs a whole share. The
/// bounds depend on `prefix` and `parts` only. `prefix` has at least its
/// leading entry, as every offsets array does.
fn split_by_weight(prefix: &[usize], parts: usize) -> Vec<std::ops::Range<usize>> {
    let len = prefix.len() - 1;
    let parts = parts.max(1).min(len.max(1));
    // weight of the items before `i`; strictly increasing in `i`
    let before = |i: usize| prefix[i] - prefix[0] + i;
    let total = before(len);
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for part in 1..=parts {
        let target = total * part / parts;
        // first index at or past `start` with `before(index) >= target`
        let (mut lo, mut hi) = (start, len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        out.push(start..lo);
        start = lo;
    }
    debug_assert_eq!(start, len);
    out
}

/// Splits `slice` into one sub-slice per range in `ranges`.
///
/// The ranges must tile a prefix of the slice (contiguous, in order,
/// starting at 0) — exactly what [`chunk_ranges`] produces. The returned
/// sub-slices are disjoint, so they can be handed to different threads;
/// this is how the CSR assembly distributes per-node-range regions of the
/// flat arrays without `unsafe`.
pub fn split_by_ranges<'a, T>(
    mut slice: &'a mut [T],
    ranges: &[std::ops::Range<usize>],
) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut expect = 0;
    for r in ranges {
        assert_eq!(r.start, expect, "ranges must tile the slice in order");
        let (head, tail) = slice.split_at_mut(r.len());
        out.push(head);
        slice = tail;
        expect = r.end;
    }
    out
}

/// Exclusive parallel prefix sum: returns `out` of length `xs.len() + 1`
/// with `out[i] = Σ_{j<i} xs[j]` (so `out[len]` is the total).
///
/// The classic two-pass scheme: per-part totals in parallel, a sequential
/// scan over the (few) part totals, then a parallel pass writing each
/// part's local prefix offset by its base. `parts` bounds the number of
/// concurrent parts; pass 1 for a sequential scan.
pub fn exclusive_prefix_sum(xs: &[u32], parts: usize) -> Vec<usize> {
    use rayon::prelude::*;
    let ranges = chunk_ranges(xs.len(), parts);
    let totals: Vec<usize> = ranges
        .par_iter()
        .map(|r| xs[r.clone()].iter().map(|&x| x as usize).sum())
        .collect();
    let mut bases = Vec::with_capacity(ranges.len());
    let mut acc = 0usize;
    for t in &totals {
        bases.push(acc);
        acc += t;
    }
    let mut out = vec![0usize; xs.len() + 1];
    out[xs.len()] = acc;
    {
        let pieces = split_by_ranges(&mut out[..xs.len()], &ranges);
        ranges
            .iter()
            .zip(pieces)
            .zip(bases)
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|((r, piece), base)| {
                let mut acc = base;
                for (slot, &x) in piece.iter_mut().zip(&xs[r.clone()]) {
                    *slot = acc;
                    acc += x as usize;
                }
            });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn with_threads_runs_closure() {
        let sum: u64 = with_threads(2, || (0..1000u64).into_par_iter().sum());
        assert_eq!(sum, 499_500);
    }

    #[test]
    fn with_threads_controls_pool_size() {
        let t = with_threads(3, rayon::current_num_threads);
        assert_eq!(t, 3);
        let t = with_threads(1, rayon::current_num_threads);
        assert_eq!(t, 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        with_threads(0, || ());
    }

    #[test]
    fn chunk_ranges_cover_everything() {
        for len in [0usize, 1, 5, 16, 17, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, parts);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
                assert_eq!(expect, len);
                // near-equal: sizes differ by at most one
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_never_exceed_parts() {
        assert_eq!(chunk_ranges(4, 8).len(), 4);
        assert_eq!(chunk_ranges(100, 8).len(), 8);
    }

    #[test]
    fn split_by_weight_tiles_and_balances() {
        // degenerate shapes: no items, one item, more parts than items
        assert_eq!(split_by_weight(&[0], 4), vec![0..0]);
        assert_eq!(split_by_weight(&[0, 9], 4), vec![0..1]);
        assert_eq!(split_by_weight(&[0, 0, 0, 0], 8).len(), 3);
        // a hub in front: 1000 entries, then 99 rows of one entry each
        let mut prefix = vec![0usize, 1000];
        prefix.extend((1..100).map(|i| 1000 + i));
        for parts in [1usize, 2, 3, 4, 16] {
            let ranges = split_by_weight(&prefix, parts);
            assert_eq!(ranges.len(), parts);
            let mut expect = 0;
            for r in &ranges {
                assert_eq!(r.start, expect);
                expect = r.end;
            }
            assert_eq!(expect, 100);
            // the hub outweighs any share, so it sits alone in front
            if parts > 1 {
                assert_eq!(ranges[0], 0..1);
            }
        }
        // uniform rows: the split is chunk_ranges'
        let uniform: Vec<usize> = (0..=64).map(|i| i * 5).collect();
        assert_eq!(split_by_weight(&uniform, 4), chunk_ranges(64, 4));
    }

    #[test]
    fn weighted_ranges_follow_the_pool_and_the_grain() {
        let light: Vec<usize> = (0..=100).map(|i| i * 10).collect(); // weight 1100
        let heavy: Vec<usize> = (0..=10_000).map(|i| i * 10).collect(); // weight 110 000
        assert_eq!(
            with_threads(1, || weighted_ranges(&heavy, DYNAMIC_PIECES)).len(),
            1
        );
        assert_eq!(
            with_threads(4, || weighted_ranges(&light, DYNAMIC_PIECES)).len(),
            1
        );
        assert_eq!(with_threads(4, || weighted_ranges(&heavy, 1)).len(), 4);
        // 4 threads x 8 pieces, but only 26 pieces' worth of weight
        assert_eq!(
            with_threads(4, || weighted_ranges(&heavy, DYNAMIC_PIECES)).len(),
            26
        );
        assert_eq!(
            with_threads(2, || weighted_ranges(&heavy, DYNAMIC_PIECES)).len(),
            16
        );
    }

    #[test]
    fn split_by_ranges_is_a_partition() {
        let mut data: Vec<u32> = (0..17).collect();
        let ranges = chunk_ranges(17, 4);
        let pieces = split_by_ranges(&mut data, &ranges);
        assert_eq!(pieces.len(), 4);
        let flat: Vec<u32> = pieces.iter().flat_map(|p| p.iter().copied()).collect();
        assert_eq!(flat, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn exclusive_prefix_sum_matches_sequential() {
        for len in [0usize, 1, 2, 7, 100, 1000] {
            let xs: Vec<u32> = (0..len).map(|i| (i as u32 * 7 + 3) % 11).collect();
            for parts in [1usize, 2, 3, 8] {
                let got = exclusive_prefix_sum(&xs, parts);
                let mut expect = Vec::with_capacity(len + 1);
                let mut acc = 0usize;
                for &x in &xs {
                    expect.push(acc);
                    acc += x as usize;
                }
                expect.push(acc);
                assert_eq!(got, expect, "len={len} parts={parts}");
            }
        }
    }
}
