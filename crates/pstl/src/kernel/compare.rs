//! Search kernels: the block-compare loops behind `find`, `mismatch`,
//! `equal`, and every other early-exit scan.
//!
//! The wide path evaluates the predicate over a [`FIND_BLOCK`]-element
//! block with **no branch inside the block**, packing the 32 results
//! into a `u32` mask (`mask |= pred << lane`), then pinpointing the
//! first match with `trailing_zeros` — the movemask + tzcnt idiom of a
//! vectorized `memchr`/`memcmp`. The branch-free block body is exactly
//! the shape LLVM autovectorizes on SSE2+, and even un-vectorized it
//! removes 31 of every 32 branch mispredictions on random data.
//!
//! **Over-evaluation contract:** on the wide path the predicate may be
//! evaluated on indices after the first match *within the same block*
//! (bounded by [`FIND_BLOCK`] − 1 elements). The returned index is
//! always the smallest match, and a matchless scan evaluates every
//! index exactly once on both paths. This matches C++ parallel-policy
//! semantics, where element access order and count past the result are
//! unspecified; predicates that panic *at* the match still surface the
//! panic (the block is abandoned mid-evaluation by the unwind).

use std::ops::Range;

use super::isa::dispatch;
use super::{FIND_BLOCK, WIDE_DEFAULT};

dispatch! {
    /// Smallest `i` in `range` with `pred_at(i)`. Dispatches on
    /// [`WIDE_DEFAULT`] and the CPU's [`isa::level`](super::isa::level).
    pub fn find_first_in[F: Fn(usize) -> bool + ?Sized](
        range: Range<usize>,
        pred_at: &F,
    ) -> Option<usize>, at find_first_in_at {
        if WIDE_DEFAULT {
            find_first_in_wide(range, pred_at)
        } else {
            find_first_in_scalar(range, pred_at)
        }
    }
}

/// Scalar short-circuit scan (the oracle path): strictly in-order, never
/// evaluates past the first match.
#[inline]
pub fn find_first_in_scalar<F>(range: Range<usize>, pred_at: &F) -> Option<usize>
where
    F: Fn(usize) -> bool + ?Sized,
{
    range.into_iter().find(|&i| pred_at(i))
}

/// Wide masked scan: branch-free [`FIND_BLOCK`]-lane blocks, first match
/// located by `trailing_zeros`. Partial tail blocks fall back to the
/// short-circuit loop.
#[inline]
pub fn find_first_in_wide<F>(range: Range<usize>, pred_at: &F) -> Option<usize>
where
    F: Fn(usize) -> bool + ?Sized,
{
    let mut i = range.start;
    while i + FIND_BLOCK <= range.end {
        let mut mask: u32 = 0;
        for lane in 0..FIND_BLOCK {
            mask |= (pred_at(i + lane) as u32) << lane;
        }
        if mask != 0 {
            return Some(i + mask.trailing_zeros() as usize);
        }
        i += FIND_BLOCK;
    }
    (i..range.end).find(|&j| pred_at(j))
}

dispatch! {
    /// Largest `i` in `range` with `pred_at(i)` — the reverse-scan
    /// sibling used by `find_end`. Wide path: blocks scanned
    /// back-to-front, last set lane located via `leading_zeros`. Same
    /// bounded over-evaluation contract as [`find_first_in`], mirrored.
    /// Dispatches on [`WIDE_DEFAULT`] and the CPU's
    /// [`isa::level`](super::isa::level).
    pub fn find_last_in[F: Fn(usize) -> bool + ?Sized](
        range: Range<usize>,
        pred_at: &F,
    ) -> Option<usize>, at find_last_in_at {
        if WIDE_DEFAULT {
            find_last_in_wide(range, pred_at)
        } else {
            find_last_in_scalar(range, pred_at)
        }
    }
}

/// Scalar reverse short-circuit scan.
#[inline]
pub fn find_last_in_scalar<F>(range: Range<usize>, pred_at: &F) -> Option<usize>
where
    F: Fn(usize) -> bool + ?Sized,
{
    range.into_iter().rev().find(|&i| pred_at(i))
}

/// Wide masked reverse scan.
#[inline]
pub fn find_last_in_wide<F>(range: Range<usize>, pred_at: &F) -> Option<usize>
where
    F: Fn(usize) -> bool + ?Sized,
{
    let mut end = range.end;
    while end >= range.start + FIND_BLOCK {
        let base = end - FIND_BLOCK;
        let mut mask: u32 = 0;
        for lane in 0..FIND_BLOCK {
            mask |= (pred_at(base + lane) as u32) << lane;
        }
        if mask != 0 {
            return Some(base + (31 - mask.leading_zeros() as usize));
        }
        end = base;
    }
    (range.start..end).rev().find(|&j| pred_at(j))
}

/// Index of the first position where `a` and `b` differ, over
/// `min(a.len(), b.len())` elements — the shared kernel of `mismatch`
/// and `equal` (sequential fallback *and* parallel leaves). Dispatches
/// on [`WIDE_DEFAULT`].
#[inline]
pub fn mismatch<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    let n = a.len().min(b.len());
    find_first_in(0..n, &|i| a[i] != b[i])
}

/// Elementwise slice equality: equal lengths and no mismatch.
#[inline]
pub fn equal<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    a.len() == b.len() && mismatch(a, b).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn both_paths_return_the_first_match() {
        for n in [0usize, 1, 31, 32, 33, 64, 1000] {
            for first in [0usize, 5, 31, 32, 63, 999] {
                if first >= n {
                    continue;
                }
                let pred = |i: usize| i >= first;
                assert_eq!(
                    find_first_in_scalar(0..n, &pred),
                    Some(first),
                    "scalar n={n}"
                );
                assert_eq!(find_first_in_wide(0..n, &pred), Some(first), "wide n={n}");
            }
        }
    }

    #[test]
    fn absent_match_evaluates_every_index_once_on_both_paths() {
        for n in [0usize, 31, 32, 100, 4096, 4097] {
            for wide in [false, true] {
                let visited = AtomicUsize::new(0);
                let pred = |_: usize| {
                    visited.fetch_add(1, Ordering::Relaxed);
                    false
                };
                let got = if wide {
                    find_first_in_wide(0..n, &pred)
                } else {
                    find_first_in_scalar(0..n, &pred)
                };
                assert_eq!(got, None);
                assert_eq!(visited.load(Ordering::Relaxed), n, "n={n} wide={wide}");
            }
        }
    }

    #[test]
    fn wide_over_evaluation_is_bounded_by_one_block() {
        let visited = AtomicUsize::new(0);
        let pred = |i: usize| {
            visited.fetch_add(1, Ordering::Relaxed);
            i == 3
        };
        assert_eq!(find_first_in_wide(0..10_000, &pred), Some(3));
        assert!(
            visited.load(Ordering::Relaxed) <= FIND_BLOCK,
            "visited {} > one block",
            visited.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn sub_ranges_respect_bounds() {
        let pred = |i: usize| i.is_multiple_of(7);
        for (start, end) in [(1usize, 6usize), (1, 100), (70, 71), (500, 500)] {
            let expect = (start..end).find(|&i| pred(i));
            assert_eq!(find_first_in_scalar(start..end, &pred), expect);
            assert_eq!(find_first_in_wide(start..end, &pred), expect);
        }
    }

    #[test]
    fn find_last_paths_agree() {
        let pred = |i: usize| i % 97 == 3;
        for (start, end) in [(0usize, 0usize), (0, 2), (0, 33), (0, 1000), (50, 400)] {
            let expect = (start..end).rev().find(|&i| pred(i));
            assert_eq!(find_last_in_scalar(start..end, &pred), expect);
            assert_eq!(
                find_last_in_wide(start..end, &pred),
                expect,
                "{start}..{end}"
            );
        }
    }

    #[test]
    fn mismatch_and_equal_follow_shorter_slice_rule() {
        let long = [1, 2, 3, 4, 5];
        let prefix = [1, 2, 3];
        assert_eq!(mismatch(&long, &prefix), None);
        assert_eq!(mismatch(&prefix, &long), None);
        assert!(!equal(&long, &prefix));
        let mut b = [0u64; 1000];
        let a: Vec<u64> = (0..1000).collect();
        b.copy_from_slice(&a);
        assert!(equal(&a, &b));
        b[777] ^= 1;
        assert_eq!(mismatch(&a, &b), Some(777));
    }
}
