//! The kernel layer: the innermost per-element loops every algorithm
//! bottoms out in, written once and shared by the sequential fallbacks
//! (`crate::seq`, `Plan::Sequential` arms) and the parallel leaf paths
//! (chunk bodies under `map_ranges`/`run_chunks`, the early-exit
//! engine's scan blocks).
//!
//! The paper attributes much of the backend gap at low thread counts to
//! *per-core* kernel throughput — vectorization above all (its NVC/ICC
//! analysis; `pstl-sim` models it as `vectorizes_reduce`). This module
//! is the Rust-side answer: for each entry point, the inner loop that
//! measured fastest, compiled for the host's vector width.
//!
//! # One body per entry point, three ISA levels
//!
//! Every public entry point (`fold_map`, `find_first_in`,
//! `count_matches`, …) has one body, picked by timing the plain loop
//! and a blocked one in the `x86-64-v4` clone on a 2.1 GHz AVX-512 Xeon
//! (CHANGES.md has the decision table):
//!
//! * **Searches and scatters** (`find_first_in`, `find_last_in`,
//!   `compact_each`, `split_each`) run a branch-free block body:
//!   movemask-style 32-lane predicate blocks for the searches, and
//!   branchless index compaction for the scatters. Per-element branches
//!   cost 2.1–3.7× on a matchless search and 2.3–4.1× on a
//!   random-predicate scatter of 2^16 elements.
//! * **`min_index`, `minmax_index` and `count_matches`** run the plain
//!   loop, which LLVM vectorizes itself; the tournament and
//!   four-counter blocks were 1.4–4.8× slower on 2^16 elements.
//! * **Folds** (`fold_map`, `fold_zip`, `fold_range`, `fold_slice`)
//!   follow the accumulator type, decided at compile time: `f32`/`f64`
//!   accumulators take an 8-wide reassociation tree (`*_wide`), which
//!   breaks the serial FP-add chain (1.6–2.9× on 2^16 `f64`); every
//!   other type takes the left fold (`*_scalar`), which LLVM vectorizes
//!   for integers and which was 1.4–8× faster than the tree there.
//!
//! The `*_scalar` functions are the differential oracles: the exact code
//! the algorithms used before this layer existed. Called directly they
//! run baseline code; where one is also an entry point's body, each
//! clone inlines its own copy.
//!
//! Each entry point's body is compiled three times by `isa::dispatch!`:
//! for the crate's baseline target (SSE2), for `x86-64-v3` (AVX2) and
//! for `x86-64-v4` (AVX-512), with the caller's closures inlined into
//! each clone. The entry point runs the clone for the CPU's
//! [`isa::level`], detected once per process, so the user's functor is
//! vectorized at the host's width as a C++ template kernel built with
//! `-march=native` is. Every clone returns bit-identical results
//! (`isa`'s differential tests). On a 2.1 GHz AVX-512 Xeon the
//! dispatched `jobs` digest (a `u32 → u64` wrapping-add `fold_map`)
//! runs 2.2–3.0× faster than the baseline one (`kernel_calibrate`'s
//! `digest_u32x64` row).
//!
//! # Semantics contracts
//!
//! * **Folds** ([`reduce`], [`scan`]) reassociate only by *grouping*
//!   (`((x0⊕x1)⊕(x2⊕x3))⊕…`), never by reordering operands, and only
//!   for `f32`/`f64` accumulators. Any associative `op` — including
//!   non-commutative ones like string concatenation — gives the left
//!   fold's result; float `+` may differ from it by rounding, exactly
//!   the `std::reduce` contract.
//! * **Searches** ([`compare`]) may evaluate the predicate on up to one
//!   block (31 elements) *past* the first match, like a vectorized
//!   `memchr`. C++ parallel semantics permit this; the index returned
//!   is always the smallest matching one, and a matchless scan
//!   evaluates every index exactly once.
//! * **Scatters** ([`partition`]) clone only matching elements (the
//!   branchless part is the index computation), so drop counts are
//!   identical to the scalar oracle's — required by the chaos
//!   drop-balance suite.
//! * The running-prefix pass of a scan is inherently serial;
//!   [`scan::scan_range_into`] is still the single shared entry point so
//!   the loop exists once.

pub mod compare;
pub mod isa;
pub mod partition;
pub mod reduce;
pub mod scan;

/// Fold-tree width: 8 independent operand slots per block. Matches one
/// AVX2 register of `f32` / two of `f64`, and is deep enough to hide a
/// 4-cycle FP-add latency chain on any current core.
pub const FOLD_LANES: usize = 8;

/// Whether a fold whose accumulator is `U` takes the [`FOLD_LANES`]
/// tree: only `f32` and `f64` do. The name comparison folds to a
/// constant in every monomorphized fold; a type it misses only loses
/// speed, never exactness.
#[inline(always)]
fn tree_fold<U>() -> bool {
    matches!(std::any::type_name::<U>(), "f32" | "f64")
}

/// Predicate-block width for the movemask-style searches: 32 predicate
/// results packed into one `u32` mask per block.
pub const FIND_BLOCK: usize = 32;

/// Block width of the branchless index-compaction scatter kernels.
pub const COMPACT_BLOCK: usize = 64;

#[cfg(test)]
mod tests {
    use super::reduce::{fold_map, fold_map_scalar, fold_map_wide};
    use super::reduce::{fold_zip, fold_zip_scalar, fold_zip_wide};
    use super::scan::{fold_range, fold_range_scalar, fold_range_wide};
    use super::scan::{fold_slice, fold_slice_scalar, fold_slice_wide};
    use super::FOLD_LANES;

    /// 2×2 matrices over wrapping `u64`: an associative product that does
    /// not commute, so every regrouping is exact and any reordering shows.
    type Mat = [[u64; 2]; 2];

    fn mat_mul(a: Mat, b: Mat) -> Mat {
        let dot = |i: usize, j: usize| {
            a[i][0]
                .wrapping_mul(b[0][j])
                .wrapping_add(a[i][1].wrapping_mul(b[1][j]))
        };
        [[dot(0, 0), dot(0, 1)], [dot(1, 0), dot(1, 1)]]
    }

    fn mats(n: usize) -> Vec<Mat> {
        (0..n as u64)
            .map(|i| [[1, i + 2], [3 * i + 1, i ^ 5]])
            .collect()
    }

    #[test]
    fn tree_bodies_keep_operand_order() {
        let all = mats(4 * FOLD_LANES + 2);
        assert_ne!(mat_mul(all[0], all[1]), mat_mul(all[1], all[0]));
        let mul = |a: Mat, b: Mat| mat_mul(a, b);
        let mul_ref = |a: &Mat, b: &Mat| mat_mul(*a, *b);
        for head in 0..FOLD_LANES {
            for n in 0..=3 * FOLD_LANES + 1 {
                let a = &all[head..head + n];
                let b = &all[all.len() - n..];
                let what = format!("head={head} n={n}");
                let id = |m: &Mat| *m;
                assert_eq!(
                    fold_map_wide(a, &id, &mul),
                    fold_map_scalar(a, &id, &mul),
                    "fold_map {what}"
                );
                let pair = |x: &Mat, y: &Mat| mat_mul(*x, *y);
                assert_eq!(
                    fold_zip_wide(a, b, &pair, &mul),
                    fold_zip_scalar(a, b, &pair, &mul),
                    "fold_zip {what}"
                );
                let get = |i: usize| all[i];
                let range = head..head + n;
                assert_eq!(
                    fold_range_wide(range.clone(), &get, &mul_ref),
                    fold_range_scalar(range, &get, &mul_ref),
                    "fold_range {what}"
                );
                assert_eq!(
                    fold_slice_wide(a, &mul_ref),
                    fold_slice_scalar(a, &mul_ref),
                    "fold_slice {what}"
                );
            }
        }
    }

    /// Each fold through dispatch, through its tree body and through its
    /// left fold, as `(dispatched, tree, scalar)`.
    fn three_ways<U: Clone>(
        data: &[U],
        op: impl Fn(U, U) -> U + Copy,
    ) -> [(Option<U>, Option<U>, Option<U>); 4] {
        let id = |x: &U| x.clone();
        let left = |x: &U, _: &U| x.clone();
        let by_ref = |x: &U, y: &U| op(x.clone(), y.clone());
        let get = |i: usize| data[i].clone();
        let n = data.len();
        [
            (
                fold_map(data, &id, &op),
                fold_map_wide(data, &id, &op),
                fold_map_scalar(data, &id, &op),
            ),
            (
                fold_zip(data, data, &left, &op),
                fold_zip_wide(data, data, &left, &op),
                fold_zip_scalar(data, data, &left, &op),
            ),
            (
                fold_range(0..n, &get, &by_ref),
                fold_range_wide(0..n, &get, &by_ref),
                fold_range_scalar(0..n, &get, &by_ref),
            ),
            (
                fold_slice(data, &by_ref),
                fold_slice_wide(data, &by_ref),
                fold_slice_scalar(data, &by_ref),
            ),
        ]
    }

    #[test]
    fn floats_fold_on_the_tree_and_everything_else_on_the_left_fold() {
        const N: usize = 8 * FOLD_LANES + 3;
        // Magnitudes 2^0..2^59: the two groupings round differently.
        let f64s: Vec<f64> = (0..N)
            .map(|i| ((i * 37 % 61) as f64).exp2() * if i % 3 == 0 { -1.0 } else { 1.0 } + 0.1)
            .collect();
        for (k, (got, tree, left)) in three_ways(&f64s, |a, b| a + b).into_iter().enumerate() {
            let bits = |r: Option<f64>| r.map(f64::to_bits);
            assert_ne!(
                bits(tree),
                bits(left),
                "f64 fold {k}: input does not tell them apart"
            );
            assert_eq!(bits(got), bits(tree), "f64 fold {k}");
        }
        let f32s: Vec<f32> = f64s.iter().map(|&x| x as f32).collect();
        for (k, (got, tree, left)) in three_ways(&f32s, |a, b| a + b).into_iter().enumerate() {
            let bits = |r: Option<f32>| r.map(f32::to_bits);
            assert_ne!(
                bits(tree),
                bits(left),
                "f32 fold {k}: input does not tell them apart"
            );
            assert_eq!(bits(got), bits(tree), "f32 fold {k}");
        }
        // A non-associative op makes the grouping visible on integers.
        let u64s: Vec<u64> = (0..N as u64).map(|i| i * i + 1).collect();
        let skew = |a: u64, b: u64| a.wrapping_mul(3).wrapping_add(b);
        for (k, (got, tree, left)) in three_ways(&u64s, skew).into_iter().enumerate() {
            assert_ne!(tree, left, "u64 fold {k}: input does not tell them apart");
            assert_eq!(got, left, "u64 fold {k}");
        }
        let pairs: Vec<(u64, u64)> = u64s.iter().map(|&x| (x, x ^ 7)).collect();
        let skew2 = |a: (u64, u64), b: (u64, u64)| (skew(a.0, b.0), skew(a.1, b.1));
        for (k, (got, tree, left)) in three_ways(&pairs, skew2).into_iter().enumerate() {
            assert_ne!(
                tree, left,
                "(u64, u64) fold {k}: input does not tell them apart"
            );
            assert_eq!(got, left, "(u64, u64) fold {k}");
        }
    }
}
