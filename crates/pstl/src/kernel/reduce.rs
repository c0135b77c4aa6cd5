//! Fold kernels: `reduce` / `transform_reduce` leaves and the
//! min/max/minmax scans.
//!
//! For `f32`/`f64` accumulators the folds replace the serial left fold
//! `((a⊕x0)⊕x1)⊕…` with a per-block reassociation tree over
//! [`FOLD_LANES`] operands:
//!
//! ```text
//! block = ((x0⊕x1)⊕(x2⊕x3)) ⊕ ((x4⊕x5)⊕(x6⊕x7))      acc = acc ⊕ block
//! ```
//!
//! Operand *order* is preserved — only the grouping changes — so any
//! associative `op` (commutative or not) produces the same value as the
//! scalar fold. The tree keeps 4+ independent in-flight operations,
//! which is what breaks the loop-carried dependency chain: an `f64` sum
//! goes from one add per FP latency (4–5 cycles) to one per issue slot,
//! and LLVM can map the tree onto vector lanes when `op` vectorizes.

use std::cmp::Ordering;

use super::isa::dispatch;
use super::{tree_fold, FOLD_LANES};

dispatch! {
    /// Fold `f(x)` over `data` with `op` — the `transform_reduce` leaf.
    /// Returns `None` on empty input. Runs [`fold_map_wide`] for `f32`/`f64`
    /// accumulators and [`fold_map_scalar`] otherwise, on the CPU's
    /// [`isa::level`](super::isa::level).
    pub fn fold_map[T, U](
        data: &[T],
        f: &(impl Fn(&T) -> U + ?Sized),
        op: &(impl Fn(U, U) -> U + ?Sized),
    ) -> Option<U>, at fold_map_at {
        if tree_fold::<U>() {
            fold_map_wide(data, f, op)
        } else {
            fold_map_scalar(data, f, op)
        }
    }
}

/// Scalar left fold of `f(x)`: the oracle, and the body for
/// non-float accumulators.
#[inline(always)]
pub fn fold_map_scalar<T, U>(
    data: &[T],
    f: &(impl Fn(&T) -> U + ?Sized),
    op: &(impl Fn(U, U) -> U + ?Sized),
) -> Option<U> {
    let mut iter = data.iter();
    let first = f(iter.next()?);
    Some(iter.fold(first, |acc, x| op(acc, f(x))))
}

/// Tree fold of `f(x)`, the body for `f32`/`f64` accumulators:
/// [`FOLD_LANES`]-operand reassociation trees per block, remainder
/// folded serially.
#[inline(always)]
pub fn fold_map_wide<T, U>(
    data: &[T],
    f: &(impl Fn(&T) -> U + ?Sized),
    op: &(impl Fn(U, U) -> U + ?Sized),
) -> Option<U> {
    let mut chunks = data.chunks_exact(FOLD_LANES);
    let mut acc: Option<U> = None;
    for c in &mut chunks {
        let m01 = op(f(&c[0]), f(&c[1]));
        let m23 = op(f(&c[2]), f(&c[3]));
        let m45 = op(f(&c[4]), f(&c[5]));
        let m67 = op(f(&c[6]), f(&c[7]));
        let block = op(op(m01, m23), op(m45, m67));
        acc = Some(match acc {
            Some(a) => op(a, block),
            None => block,
        });
    }
    for x in chunks.remainder() {
        let v = f(x);
        acc = Some(match acc {
            Some(a) => op(a, v),
            None => v,
        });
    }
    acc
}

dispatch! {
    /// Fold `combine(&a[i], &b[i])` over two equal-length slices — the
    /// `transform_reduce_binary` (inner product) leaf. Runs
    /// [`fold_zip_wide`] for `f32`/`f64` accumulators and
    /// [`fold_zip_scalar`] otherwise, on the CPU's
    /// [`isa::level`](super::isa::level).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn fold_zip[T, S, U](
        a: &[T],
        b: &[S],
        combine: &(impl Fn(&T, &S) -> U + ?Sized),
        op: &(impl Fn(U, U) -> U + ?Sized),
    ) -> Option<U>, at fold_zip_at {
        assert_eq!(a.len(), b.len(), "fold_zip: length mismatch");
        if tree_fold::<U>() {
            fold_zip_wide(a, b, combine, op)
        } else {
            fold_zip_scalar(a, b, combine, op)
        }
    }
}

/// Scalar left fold of `combine(&a[i], &b[i])`: the oracle, and the
/// body for non-float accumulators.
#[inline(always)]
pub fn fold_zip_scalar<T, S, U>(
    a: &[T],
    b: &[S],
    combine: &(impl Fn(&T, &S) -> U + ?Sized),
    op: &(impl Fn(U, U) -> U + ?Sized),
) -> Option<U> {
    let mut acc: Option<U> = None;
    for (x, y) in a.iter().zip(b) {
        let v = combine(x, y);
        acc = Some(match acc {
            Some(a) => op(a, v),
            None => v,
        });
    }
    acc
}

/// Tree fold of `combine(&a[i], &b[i])` over the common prefix, the body
/// for `f32`/`f64` accumulators.
#[inline(always)]
pub fn fold_zip_wide<T, S, U>(
    a: &[T],
    b: &[S],
    combine: &(impl Fn(&T, &S) -> U + ?Sized),
    op: &(impl Fn(U, U) -> U + ?Sized),
) -> Option<U> {
    let n = a.len().min(b.len());
    let mut ca = a[..n].chunks_exact(FOLD_LANES);
    let mut cb = b[..n].chunks_exact(FOLD_LANES);
    let mut acc: Option<U> = None;
    for (x, y) in (&mut ca).zip(&mut cb) {
        let m01 = op(combine(&x[0], &y[0]), combine(&x[1], &y[1]));
        let m23 = op(combine(&x[2], &y[2]), combine(&x[3], &y[3]));
        let m45 = op(combine(&x[4], &y[4]), combine(&x[5], &y[5]));
        let m67 = op(combine(&x[6], &y[6]), combine(&x[7], &y[7]));
        let block = op(op(m01, m23), op(m45, m67));
        acc = Some(match acc {
            Some(a) => op(a, block),
            None => block,
        });
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let v = combine(x, y);
        acc = Some(match acc {
            Some(a) => op(a, v),
            None => v,
        });
    }
    acc
}

dispatch! {
    /// Index of the first minimum of `data` under `cmp` (C++
    /// `min_element` tie rule: earliest wins), on the CPU's
    /// [`isa::level`](super::isa::level). The body is the oracle's loop.
    pub fn min_index[T](
        data: &[T],
        cmp: &(impl Fn(&T, &T) -> Ordering + ?Sized),
    ) -> Option<usize>, at min_index_at {
        min_index_scalar(data, cmp)
    }
}

/// Scalar first-minimum scan.
#[inline(always)]
pub fn min_index_scalar<T>(
    data: &[T],
    cmp: &(impl Fn(&T, &T) -> Ordering + ?Sized),
) -> Option<usize> {
    let mut best: Option<usize> = None;
    for i in 0..data.len() {
        // Strict less keeps the first occurrence.
        if best.is_none_or(|b| cmp(&data[i], &data[b]) == Ordering::Less) {
            best = Some(i);
        }
    }
    best
}

dispatch! {
    /// Indices of the first minimum and the *last* maximum of `data`
    /// under `cmp` (C++ `minmax_element` tie rules), in one pass, on the
    /// CPU's [`isa::level`](super::isa::level). The body is the oracle's
    /// loop.
    pub fn minmax_index[T](
        data: &[T],
        cmp: &(impl Fn(&T, &T) -> Ordering + ?Sized),
    ) -> Option<(usize, usize)>, at minmax_index_at {
        minmax_index_scalar(data, cmp)
    }
}

/// Scalar one-pass minmax scan.
#[inline(always)]
pub fn minmax_index_scalar<T>(
    data: &[T],
    cmp: &(impl Fn(&T, &T) -> Ordering + ?Sized),
) -> Option<(usize, usize)> {
    let mut mm: Option<(usize, usize)> = None;
    for i in 0..data.len() {
        mm = Some(match mm {
            None => (i, i),
            Some((lo, hi)) => (
                // Later index wins the min only on strict less…
                if cmp(&data[i], &data[lo]) == Ordering::Less {
                    i
                } else {
                    lo
                },
                // …but wins the max on ties (last max).
                if cmp(&data[i], &data[hi]) != Ordering::Less {
                    i
                } else {
                    hi
                },
            ),
        });
    }
    mm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrambled(n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 9)
            .collect()
    }

    #[test]
    fn wide_fold_equals_scalar_for_associative_ops() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 1000] {
            let data = scrambled(n);
            let f = |x: &u64| *x;
            let op = |a: u64, b: u64| a.wrapping_add(b);
            assert_eq!(
                fold_map_wide(&data, &f, &op),
                fold_map_scalar(&data, &f, &op),
                "n={n}"
            );
        }
    }

    #[test]
    fn wide_fold_preserves_order_for_non_commutative_ops() {
        // String concatenation: associative, not commutative. The tree
        // must give the exact left-to-right concatenation.
        let data: Vec<String> = (0..37).map(|i| format!("{i},")).collect();
        let f = |x: &String| x.clone();
        let op = |a: String, b: String| format!("{a}{b}");
        assert_eq!(
            fold_map_wide(&data, &f, &op),
            fold_map_scalar(&data, &f, &op)
        );
    }

    #[test]
    fn wide_float_fold_is_close() {
        let data: Vec<f64> = (1..=10_000).map(|i| 1.0 / i as f64).collect();
        let f = |x: &f64| *x;
        let op = |a: f64, b: f64| a + b;
        let w = fold_map_wide(&data, &f, &op).unwrap();
        let s = fold_map_scalar(&data, &f, &op).unwrap();
        assert!((w - s).abs() / s.abs() < 1e-12, "wide={w} scalar={s}");
    }

    #[test]
    fn fold_zip_paths_agree() {
        for n in [0usize, 1, 8, 17, 500] {
            let a = scrambled(n);
            let b: Vec<u64> = a.iter().map(|x| x ^ 0xFF).collect();
            let c = |x: &u64, y: &u64| x.wrapping_mul(*y);
            let op = |p: u64, q: u64| p.wrapping_add(q);
            assert_eq!(
                fold_zip_wide(&a, &b, &c, &op),
                fold_zip_scalar(&a, &b, &c, &op),
                "n={n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn fold_zip_rejects_length_mismatch() {
        fold_zip(&[1u64, 2], &[1u64], &|a, b| a + b, &|a, b| a + b);
    }

    #[test]
    fn min_index_tie_rule_first_wins() {
        let ord = |a: &u64, b: &u64| a.cmp(b);
        for n in [0usize, 1, 8, 9, 100] {
            let data = vec![5u64; n];
            let expect = (n > 0).then_some(0);
            assert_eq!(min_index_scalar(&data, &ord), expect, "scalar n={n}");
            assert_eq!(min_index(&data, &ord), expect, "dispatched n={n}");
        }
        for n in [3usize, 10, 64, 257, 4096] {
            let data = scrambled(n);
            assert_eq!(
                min_index(&data, &ord),
                min_index_scalar(&data, &ord),
                "n={n}"
            );
        }
    }

    #[test]
    fn minmax_tie_rules_first_min_last_max() {
        let ord = |a: &u64, b: &u64| a.cmp(b);
        let data = vec![7u64; 100];
        assert_eq!(minmax_index_scalar(&data, &ord), Some((0, 99)));
        assert_eq!(minmax_index(&data, &ord), Some((0, 99)));
        for n in [1usize, 8, 9, 63, 64, 1000] {
            let data = scrambled(n);
            assert_eq!(
                minmax_index(&data, &ord),
                minmax_index_scalar(&data, &ord),
                "n={n}"
            );
        }
    }
}
