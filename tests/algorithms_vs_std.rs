//! Property tests: every parallel algorithm, on every scheduling
//! backend, produces exactly the result of its sequential/std reference,
//! for arbitrary inputs — the core drop-in-replacement guarantee of the
//! library.

use proptest::prelude::*;
use std::sync::Arc;

use pstl::prelude::*;
use pstl_executor::{build_pool, Discipline, Executor};

/// One pool per discipline, shared by all proptest cases (spawning
/// threads per case would dominate the run time).
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

/// Policies exercised per case: sequential + all three disciplines with
/// a small grain so even short inputs split into several tasks.
fn policies() -> Vec<ExecutionPolicy> {
    let mut v = vec![ExecutionPolicy::seq()];
    for (_, pool) in pools() {
        v.push(ExecutionPolicy::par_with(
            Arc::clone(pool),
            ParConfig::with_grain(7).max_tasks_per_thread(4),
        ));
    }
    v
}

fn vec_i64() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-1000i64..1000, 0..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reduce_matches_iterator_sum(data in vec_i64(), init in -100i64..100) {
        for policy in policies() {
            let got = pstl::reduce(&policy, &data, init, |a, b| a + b);
            prop_assert_eq!(got, init + data.iter().sum::<i64>());
        }
    }

    #[test]
    fn find_matches_position(data in vec_i64(), needle in -1000i64..1000) {
        for policy in policies() {
            prop_assert_eq!(
                pstl::find(&policy, &data, &needle),
                data.iter().position(|&x| x == needle)
            );
        }
    }

    #[test]
    fn count_matches_filter(data in vec_i64(), needle in -1000i64..1000) {
        for policy in policies() {
            prop_assert_eq!(
                pstl::count(&policy, &data, &needle),
                data.iter().filter(|&&x| x == needle).count()
            );
            prop_assert_eq!(
                pstl::count_if(&policy, &data, |&x| x > needle),
                data.iter().filter(|&&x| x > needle).count()
            );
        }
    }

    #[test]
    fn inclusive_scan_matches_running_sum(data in vec_i64()) {
        let mut expect = Vec::with_capacity(data.len());
        let mut acc = 0i64;
        for &x in &data {
            acc += x;
            expect.push(acc);
        }
        for policy in policies() {
            let mut out = vec![0i64; data.len()];
            pstl::inclusive_scan(&policy, &data, &mut out, |a, b| a + b);
            prop_assert_eq!(&out, &expect);

            let mut in_place = data.clone();
            pstl::inclusive_scan_in_place(&policy, &mut in_place, |a, b| a + b);
            prop_assert_eq!(&in_place, &expect);
        }
    }

    #[test]
    fn exclusive_scan_shifts_inclusive(data in vec_i64(), init in -50i64..50) {
        for policy in policies() {
            let mut out = vec![0i64; data.len()];
            pstl::exclusive_scan(&policy, &data, &mut out, init, |a, b| a + b);
            let mut acc = init;
            for (i, &x) in data.iter().enumerate() {
                prop_assert_eq!(out[i], acc);
                acc += x;
            }
        }
    }

    #[test]
    fn sorts_match_std(data in vec_i64()) {
        let mut expect = data.clone();
        expect.sort();
        for policy in policies() {
            let mut a = data.clone();
            pstl::sort(&policy, &mut a);
            prop_assert_eq!(&a, &expect);

            let mut b = data.clone();
            pstl::stable_sort(&policy, &mut b);
            prop_assert_eq!(&b, &expect);

            let mut c = data.clone();
            pstl::sort_multiway(&policy, &mut c);
            prop_assert_eq!(&c, &expect);
        }
    }

    #[test]
    fn stable_sort_preserves_payload_order(keys in prop::collection::vec(0u8..8, 0..200)) {
        let data: Vec<(u8, usize)> = keys.into_iter().enumerate().map(|(i, k)| (k, i)).collect();
        for policy in policies() {
            let mut sorted = data.clone();
            pstl::stable_sort_by(&policy, &mut sorted, |a, b| a.0.cmp(&b.0));
            for w in sorted.windows(2) {
                prop_assert!(w[0].0 <= w[1].0);
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 < w[1].1, "stability violated");
                }
            }
        }
    }

    #[test]
    fn merge_matches_sorted_concat(mut a in vec_i64(), mut b in vec_i64()) {
        a.sort();
        b.sort();
        let mut expect = [a.clone(), b.clone()].concat();
        expect.sort();
        for policy in policies() {
            let mut out = vec![0i64; a.len() + b.len()];
            pstl::merge(&policy, &a, &b, &mut out);
            prop_assert_eq!(&out, &expect);
        }
    }

    #[test]
    fn partition_agrees_with_filters(data in vec_i64(), pivot in -1000i64..1000) {
        let pred = |x: &i64| *x < pivot;
        let expect_true: Vec<i64> = data.iter().copied().filter(|x| pred(x)).collect();
        let expect_false: Vec<i64> = data.iter().copied().filter(|x| !pred(x)).collect();
        for policy in policies() {
            let mut v = data.clone();
            let boundary = pstl::partition(&policy, &mut v, pred);
            prop_assert_eq!(boundary, expect_true.len());
            prop_assert_eq!(&v[..boundary], &expect_true[..]);
            prop_assert_eq!(&v[boundary..], &expect_false[..]);
        }
    }

    #[test]
    fn copy_if_matches_filter(data in vec_i64(), pivot in -1000i64..1000) {
        let expect: Vec<i64> = data.iter().copied().filter(|&x| x >= pivot).collect();
        for policy in policies() {
            let mut out = vec![0i64; data.len()];
            let wrote = pstl::copy_if(&policy, &data, &mut out, |&x| x >= pivot);
            prop_assert_eq!(wrote, expect.len());
            prop_assert_eq!(&out[..wrote], &expect[..]);
        }
    }

    #[test]
    fn minmax_match_iterator(data in vec_i64()) {
        for policy in policies() {
            let min = pstl::min_element(&policy, &data).map(|i| data[i]);
            let max = pstl::max_element(&policy, &data).map(|i| data[i]);
            prop_assert_eq!(min, data.iter().copied().min());
            prop_assert_eq!(max, data.iter().copied().max());
        }
    }

    #[test]
    fn quantifiers_match_iterators(data in vec_i64(), pivot in -1000i64..1000) {
        for policy in policies() {
            prop_assert_eq!(
                pstl::any_of(&policy, &data, |&x| x > pivot),
                data.iter().any(|&x| x > pivot)
            );
            prop_assert_eq!(
                pstl::all_of(&policy, &data, |&x| x > pivot),
                data.iter().all(|&x| x > pivot)
            );
        }
    }

    #[test]
    fn unique_matches_dedup(data in prop::collection::vec(0i64..5, 0..200)) {
        let mut expect = data.clone();
        expect.dedup();
        for policy in policies() {
            let mut v = data.clone();
            let n = pstl::unique(&policy, &mut v);
            prop_assert_eq!(&v[..n], &expect[..]);
        }
    }

    #[test]
    fn remove_if_matches_retain(data in vec_i64(), pivot in -1000i64..1000) {
        let mut expect = data.clone();
        expect.retain(|&x| x >= pivot);
        for policy in policies() {
            let mut v = data.clone();
            let n = pstl::remove_if(&policy, &mut v, |&x| x < pivot);
            prop_assert_eq!(&v[..n], &expect[..]);
        }
    }

    #[test]
    fn transform_and_reverse_roundtrip(data in vec_i64()) {
        for policy in policies() {
            let mut doubled = vec![0i64; data.len()];
            pstl::transform(&policy, &data, &mut doubled, |&x| x * 2);
            prop_assert!(doubled.iter().zip(&data).all(|(d, x)| *d == x * 2));

            let mut rev = data.clone();
            pstl::reverse(&policy, &mut rev);
            pstl::reverse(&policy, &mut rev);
            prop_assert_eq!(&rev, &data);
        }
    }

    #[test]
    fn is_sorted_until_matches_manual(data in vec_i64()) {
        for policy in policies() {
            let got = pstl::is_sorted_until(&policy, &data);
            let mut expect = data.len();
            for i in 1..data.len() {
                if data[i] < data[i - 1] {
                    expect = i;
                    break;
                }
            }
            prop_assert_eq!(got, expect);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn set_ops_match_btreeish_reference(
        mut a in prop::collection::vec(0i64..50, 0..150),
        mut b in prop::collection::vec(0i64..50, 0..150),
    ) {
        a.sort();
        b.sort();
        // Multiset reference via counting.
        let count = |v: &[i64], x: i64| v.iter().filter(|&&y| y == x).count();
        let mut union_ref = Vec::new();
        let mut inter_ref = Vec::new();
        let mut diff_ref = Vec::new();
        for x in 0i64..50 {
            let (ca, cb) = (count(&a, x), count(&b, x));
            union_ref.extend(std::iter::repeat_n(x, ca.max(cb)));
            inter_ref.extend(std::iter::repeat_n(x, ca.min(cb)));
            diff_ref.extend(std::iter::repeat_n(x, ca.saturating_sub(cb)));
        }
        for policy in policies() {
            let mut out = vec![0i64; a.len() + b.len()];
            let n = pstl::set_union(&policy, &a, &b, &mut out);
            prop_assert_eq!(&out[..n], &union_ref[..]);
            let n = pstl::set_intersection(&policy, &a, &b, &mut out);
            prop_assert_eq!(&out[..n], &inter_ref[..]);
            let n = pstl::set_difference(&policy, &a, &b, &mut out);
            prop_assert_eq!(&out[..n], &diff_ref[..]);
            // includes ⟺ difference(b, a) is empty.
            let n = pstl::set_difference(&policy, &b, &a, &mut out);
            prop_assert_eq!(pstl::includes(&policy, &a, &b), n == 0);
        }
    }

    #[test]
    fn rotate_matches_std_rotate(data in vec_i64(), mid_frac in 0.0f64..=1.0) {
        let mid = (data.len() as f64 * mid_frac) as usize;
        let mid = mid.min(data.len());
        let mut expect = data.clone();
        expect.rotate_left(mid);
        for policy in policies() {
            let mut v = data.clone();
            pstl::rotate(&policy, &mut v, mid);
            prop_assert_eq!(&v, &expect);
        }
    }

    #[test]
    fn inplace_merge_equals_full_sort(mut a in vec_i64(), mut b in vec_i64()) {
        a.sort();
        b.sort();
        let mid = a.len();
        let mut data = [a, b].concat();
        let mut expect = data.clone();
        expect.sort();
        for policy in policies() {
            let mut v = data.clone();
            pstl::inplace_merge(&policy, &mut v, mid);
            prop_assert_eq!(&v, &expect);
        }
        data.clear();
    }

    #[test]
    fn adjacent_difference_reconstructs_input(data in vec_i64()) {
        for policy in policies() {
            let mut diffs = vec![0i64; data.len()];
            pstl::adjacent_difference(&policy, &data, &mut diffs, |a, b| a - b);
            // inclusive_scan of differences reproduces the input.
            let mut back = vec![0i64; data.len()];
            pstl::inclusive_scan(&policy, &diffs, &mut back, |a, b| a + b);
            prop_assert_eq!(&back, &data);
        }
    }

    #[test]
    fn search_matches_windows_position(
        hay in prop::collection::vec(0u8..4, 0..120),
        needle in prop::collection::vec(0u8..4, 0..6),
    ) {
        let expect = if needle.is_empty() {
            Some(0)
        } else {
            hay.windows(needle.len()).position(|w| w == needle)
        };
        for policy in policies() {
            prop_assert_eq!(pstl::search(&policy, &hay, &needle), expect);
        }
    }

    #[test]
    fn lexicographic_matches_slice_cmp(a in vec_i64(), b in vec_i64()) {
        for policy in policies() {
            prop_assert_eq!(
                pstl::lexicographical_compare(&policy, &a, &b),
                a.as_slice().cmp(b.as_slice())
            );
        }
    }

    #[test]
    fn heap_checks_match_manual(data in vec_i64()) {
        for policy in policies() {
            let until = pstl::is_heap_until(&policy, &data);
            // The prefix is a heap, and extending by one breaks it.
            for i in 1..until {
                prop_assert!(data[(i - 1) / 2] >= data[i]);
            }
            if until < data.len() {
                prop_assert!(data[(until - 1) / 2] < data[until]);
            }
        }
    }
}

/// Deterministic replay of the shrunken case recorded in
/// `algorithms_vs_std.proptest-regressions` (a one-element left run
/// merged with a long unsorted-then-sorted right run). Pinned as a
/// plain test so the case is exercised on every run, with or without
/// proptest's persistence replay.
#[test]
fn merge_regression_single_element_left_run() {
    let mut a = vec![22i64];
    let mut b = vec![
        40i64, 29, 38, 30, 33, 28, 39, 42, 41, 33, 39, 24, 27, 11, 45, 21, 8, 0, 17, 6, 19, 4, 16,
        44, 1, 43, 45, 5, 44, 22, 23, 20, 35, 5, 35, 37, 48, 8, 40, 15, 43, 4, 14, 36, 48, 4, 1,
        47, 25, 6, 22, 5, 45, 49, 1, 12,
    ];
    a.sort();
    b.sort();
    let mut expect = [a.clone(), b.clone()].concat();
    expect.sort();
    for policy in policies() {
        let mut out = vec![0i64; a.len() + b.len()];
        pstl::merge(&policy, &a, &b, &mut out);
        assert_eq!(out, expect, "merge diverged under {policy:?}");

        let mut v = [a.clone(), b.clone()].concat();
        let mid = a.len();
        pstl::inplace_merge(&policy, &mut v, mid);
        assert_eq!(v, expect, "inplace_merge diverged under {policy:?}");
    }
}

/// Deterministic `String`s with many exact duplicates and many length
/// ties (a length-only comparator then has visible ties).
fn strings(n: usize) -> Vec<String> {
    (0..n as u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
            format!("{:x}", h % (n as u64 / 4 + 3)).repeat(1 + (h >> 60) as usize % 3)
        })
        .collect()
}

/// Non-`Copy` differential: the sorts and the merge move heap-owning
/// elements by `clone`, so a lost or duplicated element shows up as a
/// mismatch against `std`. Two geometries per pool: the default config
/// on 2 threads (16 leaves at 70 000: four even merge passes) and a
/// fine grain on 3 threads (12 leaves: a pass with an odd tail run).
#[test]
fn sorts_and_merge_match_std_on_strings() {
    let by_len = |a: &String, b: &String| a.len().cmp(&b.len());
    for d in Discipline::POOLS {
        let policies = [
            ExecutionPolicy::par(build_pool(d, 2)),
            ExecutionPolicy::par_with(
                build_pool(d, 3),
                ParConfig::with_grain(7).max_tasks_per_thread(4),
            ),
        ];
        for policy in &policies {
            for n in [0usize, 1, 25, 1000, 70_000] {
                let data = strings(n);
                let ctx = format!("{} n={n} {policy:?}", d.name());

                let mut expect = data.clone();
                expect.sort_unstable();
                let mut v = data.clone();
                pstl::sort(policy, &mut v);
                assert_eq!(v, expect, "sort: {ctx}");
                let mut v = data.clone();
                pstl::sort_multiway(policy, &mut v);
                assert_eq!(v, expect, "sort_multiway: {ctx}");

                let mut expect_stable = data.clone();
                expect_stable.sort_by(by_len);
                let mut v = data.clone();
                pstl::stable_sort_by(policy, &mut v, by_len);
                assert_eq!(v, expect_stable, "stable_sort_by: {ctx}");

                // Two length-sorted runs; the stable merge equals a stable
                // sort of their concatenation (ties from `a` first).
                let (mut a, mut b) = (data[..n / 3].to_vec(), data[n / 3..].to_vec());
                a.sort_by(by_len);
                b.sort_by(by_len);
                let mut out = vec![String::new(); n];
                pstl::merge_by(policy, &a, &b, &mut out, by_len);
                assert_eq!(out, expect_stable, "merge_by: {ctx}");
            }
        }
    }
}
