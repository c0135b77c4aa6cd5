//! Differential suite for the kernel layer: every dispatched entry
//! point, and each `f32`/`f64` fold's tree body (`*_wide`), must be
//! observationally equivalent to its scalar oracle — directly, kernel
//! vs. kernel, and end-to-end through every kernel-routed algorithm on
//! all three pool disciplines × all partitioners.
//!
//! Equivalence is *exact* everywhere except f32/f64 reduction, where
//! the tree's reassociation legitimately changes rounding (the same
//! latitude C++ `std::reduce` takes); there the suite checks a
//! summation-error bound instead. The tree bodies are called directly
//! on integers and strings too, which dispatch sends to the left fold,
//! so an operand-order bug cannot hide behind float rounding. Arbitrary
//! lengths (including 0, below one block, and non-multiples of every
//! block size) plus arbitrary sub-slice heads exercise unaligned
//! head/tail handling.

use proptest::prelude::*;
use std::sync::Arc;

use pstl::kernel;
use pstl::prelude::*;
use pstl_executor::{build_pool, Discipline, Executor};

/// One pool per parallel discipline, shared across proptest cases.
fn pools() -> &'static [(Discipline, Arc<dyn Executor>)] {
    use std::sync::OnceLock;
    static POOLS: OnceLock<Vec<(Discipline, Arc<dyn Executor>)>> = OnceLock::new();
    POOLS.get_or_init(|| {
        vec![
            (Discipline::ForkJoin, build_pool(Discipline::ForkJoin, 3)),
            (
                Discipline::WorkStealing,
                build_pool(Discipline::WorkStealing, 2),
            ),
            (Discipline::TaskPool, build_pool(Discipline::TaskPool, 2)),
        ]
    })
}

/// Sequential + every pool × every partitioner, small grain so short
/// inputs still split into several kernel-leaf invocations.
fn policies() -> Vec<ExecutionPolicy> {
    let mut v = vec![ExecutionPolicy::seq()];
    for (_, pool) in pools() {
        for mode in [
            Partitioner::Static,
            Partitioner::Guided,
            Partitioner::Adaptive,
        ] {
            v.push(ExecutionPolicy::par_with(
                Arc::clone(pool),
                ParConfig::with_grain(7)
                    .max_tasks_per_thread(4)
                    .partitioner(mode),
            ));
        }
    }
    v
}

fn vec_i64() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-1000i64..1000, 0..300)
}

fn vec_u32() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..50_000, 0..300)
}

/// Sub-slice with an arbitrary head offset: exercises kernel blocks
/// that start mid-array (unaligned heads) and ragged tails.
fn offcut(data: &[i64], head: usize) -> &[i64] {
    &data[head.min(data.len())..]
}

// ---------------------------------------------------------------------
// Direct kernel-vs-oracle equivalence (no pools involved).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fold_map_wide_is_exact_for_integers(data in vec_i64(), head in 0usize..40) {
        let d = offcut(&data, head);
        let f = |x: &i64| x.wrapping_mul(3);
        let op = |a: i64, b: i64| a.wrapping_add(b);
        prop_assert_eq!(
            kernel::reduce::fold_map_wide(d, &f, &op),
            kernel::reduce::fold_map_scalar(d, &f, &op)
        );
    }

    #[test]
    fn fold_map_wide_preserves_operand_order(data in vec_i64(), head in 0usize..40) {
        // Associative but NOT commutative: string concatenation. The
        // tree fold only regroups, never reorders, so the result must
        // be byte-identical.
        let d = offcut(&data, head);
        let f = |x: &i64| format!("{x},");
        let op = |a: String, b: String| a + &b;
        prop_assert_eq!(
            kernel::reduce::fold_map_wide(d, &f, &op),
            kernel::reduce::fold_map_scalar(d, &f, &op)
        );
    }

    #[test]
    fn fold_map_wide_f32_is_within_summation_error(data in vec_i64(), head in 0usize..40) {
        // Reassociated float sums round differently; bound the drift by
        // n·eps·Σ|x| (standard recursive-summation error bound).
        let floats: Vec<f32> = offcut(&data, head).iter().map(|&x| x as f32 * 0.1).collect();
        let id = |x: &f32| *x;
        let add = |a: f32, b: f32| a + b;
        let wide = kernel::reduce::fold_map_wide(&floats, &id, &add).unwrap_or(0.0);
        let scalar = kernel::reduce::fold_map_scalar(&floats, &id, &add).unwrap_or(0.0);
        let abs_sum: f32 = floats.iter().map(|x| x.abs()).sum();
        let tol = (floats.len() as f32 + 1.0) * f32::EPSILON * (abs_sum + 1.0);
        prop_assert!(
            (wide - scalar).abs() <= tol,
            "wide {wide} vs scalar {scalar}, tol {tol}"
        );
    }

    #[test]
    fn fold_map_wide_propagates_nan_like_scalar(data in vec_i64(), nan_at in 0usize..300) {
        // A NaN anywhere must poison both paths' sums identically
        // (NaN-ness, not bit pattern: reassociation keeps NaN NaN).
        let mut floats: Vec<f32> = data.iter().map(|&x| x as f32).collect();
        if !floats.is_empty() {
            let at = nan_at % floats.len();
            floats[at] = f32::NAN;
            let id = |x: &f32| *x;
            let add = |a: f32, b: f32| a + b;
            let wide = kernel::reduce::fold_map_wide(&floats, &id, &add).unwrap();
            let scalar = kernel::reduce::fold_map_scalar(&floats, &id, &add).unwrap();
            prop_assert!(wide.is_nan() && scalar.is_nan());
        }
    }

    #[test]
    fn find_paths_agree_everywhere(data in vec_i64(), needle in -1000i64..1000, head in 0usize..40) {
        let d = offcut(&data, head);
        let n = d.len();
        let pred = |i: usize| d[i] == needle;
        prop_assert_eq!(
            kernel::compare::find_first_in(0..n, &pred),
            kernel::compare::find_first_in_scalar(0..n, &pred)
        );
        prop_assert_eq!(
            kernel::compare::find_last_in(0..n, &pred),
            kernel::compare::find_last_in_scalar(0..n, &pred)
        );
    }

    #[test]
    fn count_and_compact_paths_agree(data in vec_i64(), m in 1i64..7, head in 0usize..40) {
        let d = offcut(&data, head);
        let pred = |x: &i64| x % m == 0;
        prop_assert_eq!(
            kernel::partition::count_matches(d, &pred),
            kernel::partition::count_matches_scalar(d, &pred)
        );
        let mut got: Vec<(usize, i64)> = Vec::new();
        let mut want: Vec<(usize, i64)> = Vec::new();
        kernel::partition::compact_each(d, &pred, &mut |rank, x: &i64| got.push((rank, *x)));
        kernel::partition::compact_each_scalar(d, &pred, &mut |rank, x: &i64| want.push((rank, *x)));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn split_paths_agree(data in vec_i64(), m in 1i64..7) {
        let pred = |x: &i64| x % m == 0;
        let run = |oracle: bool| {
            let mut t: Vec<(usize, i64)> = Vec::new();
            let mut f: Vec<(usize, i64)> = Vec::new();
            if !oracle {
                kernel::partition::split_each(
                    &data, &pred,
                    &mut |i, x: &i64| t.push((i, *x)),
                    &mut |i, x: &i64| f.push((i, *x)),
                );
            } else {
                kernel::partition::split_each_scalar(
                    &data, &pred,
                    &mut |i, x: &i64| t.push((i, *x)),
                    &mut |i, x: &i64| f.push((i, *x)),
                );
            }
            (t, f)
        };
        prop_assert_eq!(run(true), run(false));
    }

    #[test]
    fn min_and_minmax_paths_agree_on_ties(data in prop::collection::vec(0i64..8, 0..200)) {
        // Tiny value range forces heavy duplication: dispatch and oracle
        // must pick the same tied index (first min, last max).
        let cmp = |a: &i64, b: &i64| a.cmp(b);
        prop_assert_eq!(
            kernel::reduce::min_index(&data, &cmp),
            kernel::reduce::min_index_scalar(&data, &cmp)
        );
        prop_assert_eq!(
            kernel::reduce::minmax_index(&data, &cmp),
            kernel::reduce::minmax_index_scalar(&data, &cmp)
        );
    }

    #[test]
    fn fold_range_paths_agree(data in vec_i64(), head in 0usize..40) {
        let d = offcut(&data, head);
        let get = |i: usize| d[i].wrapping_mul(7);
        let op = |a: &i64, b: &i64| a.wrapping_add(*b);
        prop_assert_eq!(
            kernel::scan::fold_range_wide(0..d.len(), &get, &op),
            kernel::scan::fold_range_scalar(0..d.len(), &get, &op)
        );
        prop_assert_eq!(
            kernel::scan::fold_slice_wide(d, &op),
            kernel::scan::fold_slice_scalar(d, &op)
        );
    }

}

// ---------------------------------------------------------------------
// End-to-end: kernel-routed algorithms vs. std oracles on all three
// pools × all partitioners (fewer cases — each runs 10 policies).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn routed_reduce_count_find_match_oracles(data in vec_i64(), needle in -1000i64..1000) {
        for policy in policies() {
            prop_assert_eq!(
                pstl::reduce(&policy, &data, 0i64, |a, b| a.wrapping_add(b)),
                data.iter().fold(0i64, |a, b| a.wrapping_add(*b))
            );
            prop_assert_eq!(
                pstl::count_if(&policy, &data, |&x| x > needle),
                data.iter().filter(|&&x| x > needle).count()
            );
            prop_assert_eq!(
                pstl::find(&policy, &data, &needle),
                data.iter().position(|&x| x == needle)
            );
            prop_assert_eq!(
                pstl::min_element(&policy, &data),
                data.iter()
                    .enumerate()
                    .min_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(&b.0)))
                    .map(|(i, _)| i)
            );
        }
    }

    #[test]
    fn routed_copy_if_and_partition_match_oracles(data in vec_i64(), m in 1i64..7) {
        let pred = |x: &i64| x % m == 0;
        let expect: Vec<i64> = data.iter().filter(|x| pred(x)).copied().collect();
        for policy in policies() {
            let mut dst = vec![0i64; data.len()];
            let k = pstl::copy_if(&policy, &data, &mut dst, pred);
            prop_assert_eq!(&dst[..k], &expect[..]);

            let mut part = data.clone();
            let pivot = pstl::partition(&policy, &mut part, pred);
            prop_assert_eq!(pivot, expect.len());
            prop_assert!(part[..pivot].iter().all(pred));
            prop_assert!(part[pivot..].iter().all(|x| !pred(x)));
        }
    }

    #[test]
    fn routed_scan_matches_oracle(data in vec_u32()) {
        let scan_expect: Vec<u64> = data
            .iter()
            .scan(0u64, |acc, &x| {
                *acc += x as u64;
                Some(*acc)
            })
            .collect();
        for policy in policies() {
            let mut scanned: Vec<u64> = data.iter().map(|&x| x as u64).collect();
            pstl::inclusive_scan_in_place(&policy, &mut scanned, |a, b| a + b);
            prop_assert_eq!(&scanned, &scan_expect);
        }
    }
}
