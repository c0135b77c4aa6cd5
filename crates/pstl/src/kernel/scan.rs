//! Scan kernels: the per-chunk reduction (phase 1) and running-prefix
//! (phase 3) loops of the three-phase parallel scan, shared with the
//! sequential fallback.
//!
//! Phase 1 only needs the chunk *total*, so it is a fold and follows
//! the same rule as [`super::reduce`]: `f32`/`f64` accumulators take the
//! [`FOLD_LANES`]-operand reassociation tree, every other type the left
//! fold. Grouping changes, operand order does not, so any associative
//! `op` (including non-commutative ones) is exact. Phase 3
//! must emit every running prefix in order; that recurrence is
//! inherently serial, so [`scan_range_into`] and [`scan_in_place`] have
//! a single ordered implementation each — the point of putting them
//! here is that the loop exists exactly once, not that it widens.

use std::ops::Range;

use super::isa::dispatch;
use super::{tree_fold, FOLD_LANES};

dispatch! {
    /// Fold `get(i)` over `range` with `op` — the scan phase-1
    /// chunk-total kernel (also usable as a standalone range fold). Runs
    /// [`fold_range_wide`] for `f32`/`f64` accumulators and
    /// [`fold_range_scalar`] otherwise, on the CPU's
    /// [`isa::level`](super::isa::level).
    pub fn fold_range[
        U,
        G: Fn(usize) -> U + ?Sized,
        F: Fn(&U, &U) -> U + ?Sized,
    ](range: Range<usize>, get: &G, op: &F) -> Option<U>, at fold_range_at {
        if tree_fold::<U>() {
            fold_range_wide(range, get, op)
        } else {
            fold_range_scalar(range, get, op)
        }
    }
}

/// Scalar left fold of `get(i)`: the oracle, and the body for non-float
/// accumulators.
#[inline(always)]
pub fn fold_range_scalar<U, G, F>(range: Range<usize>, get: &G, op: &F) -> Option<U>
where
    G: Fn(usize) -> U + ?Sized,
    F: Fn(&U, &U) -> U + ?Sized,
{
    let mut acc: Option<U> = None;
    for i in range {
        let x = get(i);
        acc = Some(match acc {
            Some(a) => op(&a, &x),
            None => x,
        });
    }
    acc
}

/// Tree fold of `get(i)`, the body for `f32`/`f64` accumulators:
/// [`FOLD_LANES`]-operand reassociation trees per block, remainder
/// folded serially.
#[inline(always)]
pub fn fold_range_wide<U, G, F>(range: Range<usize>, get: &G, op: &F) -> Option<U>
where
    G: Fn(usize) -> U + ?Sized,
    F: Fn(&U, &U) -> U + ?Sized,
{
    let mut acc: Option<U> = None;
    let mut i = range.start;
    while i + FOLD_LANES <= range.end {
        let m01 = op(&get(i), &get(i + 1));
        let m23 = op(&get(i + 2), &get(i + 3));
        let m45 = op(&get(i + 4), &get(i + 5));
        let m67 = op(&get(i + 6), &get(i + 7));
        let block = op(&op(&m01, &m23), &op(&m45, &m67));
        acc = Some(match acc {
            Some(a) => op(&a, &block),
            None => block,
        });
        i += FOLD_LANES;
    }
    while i < range.end {
        let x = get(i);
        acc = Some(match acc {
            Some(a) => op(&a, &x),
            None => x,
        });
        i += 1;
    }
    acc
}

dispatch! {
    /// Fold a slice by reference — the in-place scan's phase-1 kernel
    /// (no per-element clones; at most one clone on tiny inputs). Runs
    /// [`fold_slice_wide`] for `f32`/`f64` elements and
    /// [`fold_slice_scalar`] otherwise, on the CPU's
    /// [`isa::level`](super::isa::level).
    pub fn fold_slice[T: Clone, F: Fn(&T, &T) -> T + ?Sized](data: &[T], op: &F) -> Option<T>,
    at fold_slice_at {
        if tree_fold::<T>() {
            fold_slice_wide(data, op)
        } else {
            fold_slice_scalar(data, op)
        }
    }
}

/// Scalar by-reference left fold: the oracle, and the body for
/// non-float elements.
#[inline(always)]
pub fn fold_slice_scalar<T, F>(data: &[T], op: &F) -> Option<T>
where
    T: Clone,
    F: Fn(&T, &T) -> T + ?Sized,
{
    let mut acc: Option<T> = None;
    for x in data {
        acc = Some(match acc {
            Some(a) => op(&a, x),
            None => x.clone(),
        });
    }
    acc
}

/// By-reference tree fold, the body for `f32`/`f64` elements.
#[inline(always)]
pub fn fold_slice_wide<T, F>(data: &[T], op: &F) -> Option<T>
where
    T: Clone,
    F: Fn(&T, &T) -> T + ?Sized,
{
    let mut chunks = data.chunks_exact(FOLD_LANES);
    let mut acc: Option<T> = None;
    for c in &mut chunks {
        let m01 = op(&c[0], &c[1]);
        let m23 = op(&c[2], &c[3]);
        let m45 = op(&c[4], &c[5]);
        let m67 = op(&c[6], &c[7]);
        let block = op(&op(&m01, &m23), &op(&m45, &m67));
        acc = Some(match acc {
            Some(a) => op(&a, &block),
            None => block,
        });
    }
    for x in chunks.remainder() {
        acc = Some(match acc {
            Some(a) => op(&a, x),
            None => x.clone(),
        });
    }
    acc
}

/// Sequentially scan `range` of the input into `dst`
/// (`dst.len() == range.len()`), seeded with `running` — the shared
/// phase-3 / sequential-fallback prefix loop of every out-of-place
/// scan. Inherently ordered.
pub fn scan_range_into<U, G, F>(
    dst: &mut [U],
    range: Range<usize>,
    get: &G,
    op: &F,
    mut running: Option<U>,
    exclusive: bool,
) where
    U: Clone,
    G: Fn(usize) -> U + ?Sized,
    F: Fn(&U, &U) -> U + ?Sized,
{
    debug_assert_eq!(dst.len(), range.len());
    for (slot, i) in dst.iter_mut().zip(range) {
        let x = get(i);
        if exclusive {
            let r = running.clone().expect("exclusive scan without seed");
            *slot = r.clone();
            running = Some(op(&r, &x));
        } else {
            let v = match &running {
                Some(acc) => op(acc, &x),
                None => x,
            };
            *slot = v.clone();
            running = Some(v);
        }
    }
}

/// In-place inclusive running prefix over `data`, seeded with `running`
/// — the shared loop of `inclusive_scan_in_place` (sequential arm with
/// no seed, parallel phase 3 with the chunk offset). Inherently
/// ordered.
pub fn scan_in_place<T, F>(data: &mut [T], mut running: Option<T>, op: &F)
where
    T: Clone,
    F: Fn(&T, &T) -> T + ?Sized,
{
    for x in data.iter_mut() {
        let v = match &running {
            Some(acc) => op(acc, x),
            None => x.clone(),
        };
        *x = v.clone();
        running = Some(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_range_paths_agree_including_non_commutative() {
        let src: Vec<String> = (0..100).map(|i| format!("{},", i % 10)).collect();
        let get = |i: usize| src[i].clone();
        let op = |a: &String, b: &String| format!("{a}{b}");
        for (s, e) in [(0usize, 0usize), (0, 7), (0, 8), (3, 99), (0, 100)] {
            assert_eq!(
                fold_range_wide(s..e, &get, &op),
                fold_range_scalar(s..e, &get, &op),
                "{s}..{e}"
            );
        }
    }

    #[test]
    fn fold_slice_paths_agree() {
        for n in [0usize, 1, 8, 9, 64, 1001] {
            let data: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
            let op = |a: &u64, b: &u64| a.wrapping_add(*b);
            assert_eq!(fold_slice_wide(&data, &op), fold_slice_scalar(&data, &op));
        }
    }

    #[test]
    fn scan_range_into_inclusive_and_exclusive() {
        let src = [1u64, 2, 3, 4];
        let get = |i: usize| src[i];
        let op = |a: &u64, b: &u64| a + b;
        let mut inc = [0u64; 4];
        scan_range_into(&mut inc, 0..4, &get, &op, None, false);
        assert_eq!(inc, [1, 3, 6, 10]);
        let mut exc = [0u64; 4];
        scan_range_into(&mut exc, 0..4, &get, &op, Some(10), true);
        assert_eq!(exc, [10, 11, 13, 16]);
    }

    #[test]
    fn scan_in_place_with_and_without_seed() {
        let mut v = [1u64, 2, 3];
        scan_in_place(&mut v, None, &|a, b| a + b);
        assert_eq!(v, [1, 3, 6]);
        let mut w = [1u64, 2, 3];
        scan_in_place(&mut w, Some(100), &|a, b| a + b);
        assert_eq!(w, [101, 103, 106]);
    }
}
