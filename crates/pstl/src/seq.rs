//! Sequential kernels the parallel algorithms are built from.
//!
//! The parallel sorts of the C++ backends bottom out in a sequential sort
//! (TBB: introsort leaves; GNU: sequential sort of each chunk before the
//! multiway merge). To keep the whole substrate self-contained these
//! kernels are implemented here from scratch: an introsort
//! (median-of-three quicksort with heapsort depth fallback and insertion
//! sort for small partitions), a stable bottom-up mergesort, a sequential
//! two-way merge, binary searches, and a quickselect.
//!
//! Every comparison kernel is generic over its comparator
//! (`cmp: &C` with `C: Fn(&T, &T) -> Ordering + ?Sized`), so a closure is
//! inlined into the loop like a C++ template comparator in `std::sort`.
//! A `&dyn Fn` still works; it just pays its virtual call.

use std::cmp::Ordering;

/// Partitions of at most this length use insertion sort.
const INSERTION_THRESHOLD: usize = 24;

/// In-place insertion sort.
pub fn insertion_sort<T, C>(data: &mut [T], cmp: &C)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    for i in 1..data.len() {
        let mut j = i;
        while j > 0 && cmp(&data[j - 1], &data[j]) == Ordering::Greater {
            data.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// In-place heapsort (the introsort depth-limit fallback).
pub fn heapsort<T, C>(data: &mut [T], cmp: &C)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    let n = data.len();
    // Build a max-heap.
    for start in (0..n / 2).rev() {
        sift_down(data, start, n, cmp);
    }
    for end in (1..n).rev() {
        data.swap(0, end);
        sift_down(data, 0, end, cmp);
    }
}

fn sift_down<T, C>(data: &mut [T], mut root: usize, end: usize, cmp: &C)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    loop {
        let left = 2 * root + 1;
        if left >= end {
            return;
        }
        let mut child = left;
        let right = left + 1;
        if right < end && cmp(&data[right], &data[left]) == Ordering::Greater {
            child = right;
        }
        if cmp(&data[child], &data[root]) == Ordering::Greater {
            data.swap(root, child);
            root = child;
        } else {
            return;
        }
    }
}

/// In-place introsort: quicksort with a `2·log2(n)` depth limit, heapsort
/// beyond it, insertion sort for small partitions. Not stable.
pub fn introsort<T, C>(data: &mut [T], cmp: &C)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    let depth_limit = 2 * (usize::BITS - data.len().leading_zeros()) as usize;
    introsort_rec(data, cmp, depth_limit);
}

fn introsort_rec<T, C>(mut data: &mut [T], cmp: &C, mut depth: usize)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    // Tail-recurse on the smaller side to bound stack depth.
    loop {
        let n = data.len();
        if n <= INSERTION_THRESHOLD {
            insertion_sort(data, cmp);
            return;
        }
        if depth == 0 {
            heapsort(data, cmp);
            return;
        }
        depth -= 1;
        let pivot = median_of_three(data, cmp);
        let mid = hoare_partition(data, pivot, cmp);
        let (left, right) = data.split_at_mut(mid);
        if left.len() <= right.len() {
            introsort_rec(left, cmp, depth);
            data = right;
        } else {
            introsort_rec(right, cmp, depth);
            data = left;
        }
    }
}

/// Place a median-of-three pivot at index 0 and return its position 0.
fn median_of_three<T, C>(data: &mut [T], cmp: &C) -> usize
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    let n = data.len();
    let (a, b, c) = (0, n / 2, n - 1);
    // Order a <= b <= c, then use b as pivot (moved to front).
    if cmp(&data[b], &data[a]) == Ordering::Less {
        data.swap(a, b);
    }
    if cmp(&data[c], &data[b]) == Ordering::Less {
        data.swap(b, c);
        if cmp(&data[b], &data[a]) == Ordering::Less {
            data.swap(a, b);
        }
    }
    data.swap(0, b);
    0
}

/// Hoare partition around the pivot at `pivot_idx` (must be 0); returns
/// the split point `m` such that `data[..m] <= pivot <= data[m..]` with
/// both sides non-empty.
fn hoare_partition<T, C>(data: &mut [T], pivot_idx: usize, cmp: &C) -> usize
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    debug_assert_eq!(pivot_idx, 0);
    let n = data.len();
    let mut i = 0usize;
    let mut j = n;
    loop {
        // data[0] is the pivot; scan inward.
        loop {
            i += 1;
            if i >= n || cmp(&data[i], &data[0]) != Ordering::Less {
                break;
            }
        }
        loop {
            j -= 1;
            if j == 0 || cmp(&data[j], &data[0]) != Ordering::Greater {
                break;
            }
        }
        if i >= j {
            // Move pivot into its final place.
            data.swap(0, j);
            // Ensure both sides are non-empty to guarantee progress.
            return (j).max(1).min(n - 1);
        }
        data.swap(i, j);
    }
}

/// Stable bottom-up mergesort using a caller-provided scratch buffer of at
/// least `data.len()` elements (contents are overwritten).
pub fn mergesort_stable<T: Clone, C>(data: &mut [T], scratch: &mut Vec<T>, cmp: &C)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    let n = data.len();
    if n <= INSERTION_THRESHOLD {
        // Binary insertion keeps stability.
        stable_insertion_sort(data, cmp);
        return;
    }
    scratch.clear();
    scratch.extend_from_slice(data);
    // Sort small runs in place, then merge pairs bottom-up, ping-ponging
    // between `data` and `scratch`.
    let run = INSERTION_THRESHOLD.max(1);
    let mut start = 0;
    while start < n {
        let end = (start + run).min(n);
        stable_insertion_sort(&mut data[start..end], cmp);
        start = end;
    }
    let mut width = run;
    let mut src_is_data = true;
    while width < n {
        if src_is_data {
            merge_pass(data, scratch, width, cmp);
        } else {
            merge_pass(scratch, data, width, cmp);
        }
        src_is_data = !src_is_data;
        width *= 2;
    }
    if !src_is_data {
        data.clone_from_slice(scratch);
    }
}

fn stable_insertion_sort<T, C>(data: &mut [T], cmp: &C)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    for i in 1..data.len() {
        let mut j = i;
        // Strictly-greater keeps equal elements in original order.
        while j > 0 && cmp(&data[j - 1], &data[j]) == Ordering::Greater {
            data.swap(j - 1, j);
            j -= 1;
        }
    }
}

fn merge_pass<T: Clone, C>(src: &mut [T], dst: &mut [T], width: usize, cmp: &C)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    let n = src.len();
    let mut start = 0;
    while start < n {
        let mid = (start + width).min(n);
        let end = (start + 2 * width).min(n);
        merge_into(&src[start..mid], &src[mid..end], &mut dst[start..end], cmp);
        start = end;
    }
}

/// Stable sequential merge of two sorted runs into `out`
/// (`out.len() == a.len() + b.len()`). Ties take from `a` first.
pub fn merge_into<T: Clone, C>(a: &[T], b: &[T], out: &mut [T], cmp: &C)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    assert_eq!(out.len(), a.len() + b.len(), "merge output length mismatch");
    let (mut i, mut j) = (0, 0);
    // Branch-free while both runs are non-empty: the comparison selects
    // the source by reference and the indices advance by `bool as usize`,
    // so the data-dependent outcome never becomes a jump.
    while i < a.len() && j < b.len() {
        // Only strictly-less takes from `b`: ties come from `a` (stable).
        let take_b = cmp(&b[j], &a[i]) == Ordering::Less;
        let src = if take_b { &b[j] } else { &a[i] };
        out[i + j] = src.clone();
        i += !take_b as usize;
        j += take_b as usize;
    }
    let (tail_a, tail_b) = out[i + j..].split_at_mut(a.len() - i);
    tail_a.clone_from_slice(&a[i..]);
    tail_b.clone_from_slice(&b[j..]);
}

/// First index in sorted `data` at which `probe(x)` is `false`
/// (i.e. partition point). `probe` must be monotone (all-true prefix).
pub fn partition_point<T>(data: &[T], probe: impl Fn(&T) -> bool) -> usize {
    let mut lo = 0;
    let mut hi = data.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(&data[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// `lower_bound`: first index whose element is not less than `value`.
pub fn lower_bound<T, C>(data: &[T], value: &T, cmp: &C) -> usize
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    partition_point(data, |x| cmp(x, value) == Ordering::Less)
}

/// `upper_bound`: first index whose element is greater than `value`.
pub fn upper_bound<T, C>(data: &[T], value: &T, cmp: &C) -> usize
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    partition_point(data, |x| cmp(x, value) != Ordering::Greater)
}

/// Sequential `std::mismatch`: index of the first position where `a` and
/// `b` differ, or `None` if one is a prefix of the other (including equal
/// slices). Like the C++ two-iterator overload, comparison stops at the
/// *shorter* length — unequal lengths are a prefix question, never an
/// out-of-bounds read.
pub fn seq_mismatch<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    crate::kernel::compare::mismatch(a, b)
}

/// Sequential `std::equal` on slices: equal lengths and element-wise
/// equality. The fallback/oracle of the parallel [`crate::equal`].
pub fn seq_equal<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    crate::kernel::compare::equal(a, b)
}

/// In-place quickselect: after the call, `data[k]` holds the element that
/// would be at position `k` after a full sort; smaller elements precede
/// it, larger follow (in arbitrary order).
pub fn quickselect<T, C>(data: &mut [T], k: usize, cmp: &C)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    assert!(k < data.len(), "quickselect index out of bounds");
    let mut lo = 0;
    let mut hi = data.len();
    loop {
        if hi - lo <= INSERTION_THRESHOLD {
            insertion_sort(&mut data[lo..hi], cmp);
            return;
        }
        let part = &mut data[lo..hi];
        median_of_three(part, cmp);
        // `mid` is strictly inside (lo, hi), so the interval always shrinks.
        let mid = lo + hoare_partition(part, 0, cmp);
        if k < mid {
            hi = mid;
        } else {
            lo = mid;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
    use std::sync::Arc;

    fn ord<T: Ord>() -> impl Fn(&T, &T) -> Ordering + Sync {
        |a: &T, b: &T| a.cmp(b)
    }

    fn check_sorted<T: Ord + std::fmt::Debug>(v: &[T]) {
        assert!(v.windows(2).all(|w| w[0] <= w[1]), "not sorted: {v:?}");
    }

    fn scrambled(n: usize) -> Vec<u64> {
        // Deterministic pseudo-random permutation-ish data.
        (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17))
            .collect()
    }

    #[test]
    fn insertion_sort_small_inputs() {
        for n in 0..32 {
            let mut v = scrambled(n);
            insertion_sort(&mut v, &ord());
            check_sorted(&v);
        }
    }

    #[test]
    fn heapsort_matches_std() {
        let mut v = scrambled(2000);
        let mut expect = v.clone();
        expect.sort_unstable();
        heapsort(&mut v, &ord());
        assert_eq!(v, expect);
    }

    #[test]
    fn introsort_matches_std() {
        for n in [0usize, 1, 2, 25, 100, 1000, 50_000] {
            let mut v = scrambled(n);
            let mut expect = v.clone();
            expect.sort_unstable();
            introsort(&mut v, &ord());
            assert_eq!(v, expect, "n={n}");
        }
    }

    #[test]
    fn introsort_handles_duplicates_and_sorted_input() {
        let mut all_same = vec![7u64; 10_000];
        introsort(&mut all_same, &ord());
        assert!(all_same.iter().all(|&x| x == 7));

        let mut sorted: Vec<u64> = (0..10_000).collect();
        introsort(&mut sorted, &ord());
        check_sorted(&sorted);

        let mut rev: Vec<u64> = (0..10_000).rev().collect();
        introsort(&mut rev, &ord());
        check_sorted(&rev);
    }

    #[test]
    fn mergesort_is_stable() {
        // Sort pairs by key only; payload order must be preserved.
        let mut v: Vec<(u32, usize)> = (0..1000).map(|i| ((i % 10) as u32, i)).collect();
        let mut scratch = Vec::new();
        mergesort_stable(&mut v, &mut scratch, &|a, b| a.0.cmp(&b.0));
        for w in v.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated: {w:?}");
            }
        }
    }

    #[test]
    fn mergesort_matches_std() {
        for n in [0usize, 1, 24, 25, 100, 4097] {
            let mut v = scrambled(n);
            let mut expect = v.clone();
            expect.sort();
            let mut scratch = Vec::new();
            mergesort_stable(&mut v, &mut scratch, &ord());
            assert_eq!(v, expect, "n={n}");
        }
    }

    /// `(key, tag)` with a key-only comparator: a tie taken from the
    /// wrong side changes the tag order, which bare ints cannot show.
    fn tagged(keys: &[u32], side: u32) -> Vec<(u32, u32)> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| (k, side * 1000 + i as u32))
            .collect()
    }

    #[test]
    fn merge_into_is_stable_and_ordered() {
        let by_key = |x: &(u32, u32), y: &(u32, u32)| x.0.cmp(&y.0);
        let cases: [(&[u32], &[u32]); 10] = [
            (&[5, 5, 5], &[5, 5]),             // all ties
            (&[], &[1, 2, 2]),                 // a empty
            (&[1, 1, 2], &[]),                 // b empty
            (&[1, 2, 2], &[2, 2, 3, 4]),       // a exhausted first
            (&[2, 2, 3, 4], &[1, 2, 2]),       // b exhausted first
            (&[1, 2, 3], &[7, 8]),             // a entirely less
            (&[7, 8], &[1, 2, 3]),             // b entirely less
            (&[3, 3], &[3, 3, 3, 9]),          // ties, then b's tail
            (&[0, 1, 1, 4, 4, 6], &[1, 4, 6]), // interleaved ties
            (&[1, 3, 3, 5], &[2, 3, 4]),       // mixed, one tie
        ];
        for (ka, kb) in cases {
            let (a, b) = (tagged(ka, 0), tagged(kb, 1));
            let mut out = vec![(u32::MAX, u32::MAX); a.len() + b.len()];
            merge_into(&a, &b, &mut out, &by_key);
            // std's stable sort of `a ++ b` is the stable merge.
            let mut expect = [a.clone(), b.clone()].concat();
            expect.sort_by(by_key);
            assert_eq!(out, expect, "a={ka:?} b={kb:?}");
        }
    }

    /// Counts its clones in a per-test counter.
    #[derive(Debug)]
    struct Counted {
        key: u32,
        clones: Arc<AtomicUsize>,
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.clones.fetch_add(1, AtomicOrdering::Relaxed);
            Counted {
                key: self.key,
                clones: Arc::clone(&self.clones),
            }
        }
    }

    #[test]
    fn merge_into_clones_each_output_once() {
        let clones = Arc::new(AtomicUsize::new(0));
        let run = |keys: &[u32]| -> Vec<Counted> {
            keys.iter()
                .map(|&key| Counted {
                    key,
                    clones: Arc::clone(&clones),
                })
                .collect()
        };
        let cases: [(&[u32], &[u32]); 5] = [
            (&[1, 3, 3, 5], &[2, 3, 4]),
            (&[], &[1, 2]),
            (&[1, 2], &[]),
            (&[1, 2], &[3, 4, 5]),
            (&[4, 4], &[4, 4]),
        ];
        for (ka, kb) in cases {
            let (a, b) = (run(ka), run(kb));
            let mut out = run(&vec![u32::MAX; ka.len() + kb.len()]);
            clones.store(0, AtomicOrdering::Relaxed);
            merge_into(&a, &b, &mut out, &|x: &Counted, y: &Counted| {
                x.key.cmp(&y.key)
            });
            assert_eq!(
                clones.load(AtomicOrdering::Relaxed),
                out.len(),
                "a={ka:?} b={kb:?}"
            );
            let mut keys = [ka, kb].concat();
            keys.sort_unstable();
            assert_eq!(out.iter().map(|c| c.key).collect::<Vec<_>>(), keys);
        }
    }

    #[test]
    #[should_panic(expected = "merge output length mismatch")]
    fn merge_into_length_mismatch_panics() {
        let mut out = [0; 3];
        merge_into(&[1, 2], &[3, 4], &mut out, &ord());
    }

    #[test]
    fn bounds_match_std() {
        let v = [1, 2, 2, 2, 5, 9];
        for probe in 0..11 {
            assert_eq!(
                lower_bound(&v, &probe, &ord()),
                v.partition_point(|&x| x < probe),
                "lower {probe}"
            );
            assert_eq!(
                upper_bound(&v, &probe, &ord()),
                v.partition_point(|&x| x <= probe),
                "upper {probe}"
            );
        }
    }

    #[test]
    fn mismatch_stops_at_the_shorter_slice() {
        // Regression: unequal lengths must be answered at the shorter
        // length (like `std`'s two-iterator overload / `Iterator::zip`),
        // never by reading past the short slice.
        let long = [1, 2, 3, 4, 5];
        let prefix = [1, 2, 3];
        assert_eq!(seq_mismatch(&long, &prefix), None);
        assert_eq!(seq_mismatch(&prefix, &long), None);
        let diverges = [1, 9, 3];
        assert_eq!(seq_mismatch(&long, &diverges), Some(1));
        assert_eq!(seq_mismatch(&diverges, &long), Some(1));
        let empty: [i32; 0] = [];
        assert_eq!(seq_mismatch(&long, &empty), None);
        assert_eq!(seq_mismatch(&empty, &empty), None);
    }

    #[test]
    fn mismatch_matches_std_zip_oracle() {
        let a = scrambled(500);
        let mut b = a.clone();
        b[137] ^= 1;
        b.truncate(300);
        let oracle = a.iter().zip(b.iter()).position(|(x, y)| x != y);
        assert_eq!(seq_mismatch(&a, &b), oracle);
        assert_eq!(oracle, Some(137));
    }

    #[test]
    fn equal_requires_equal_lengths() {
        let v = [1, 2, 3];
        assert!(seq_equal(&v, &[1, 2, 3]));
        assert!(!seq_equal(&v, &[1, 2]), "prefix is not equality");
        assert!(!seq_equal(&v, &[1, 2, 4]));
        let empty: [i32; 0] = [];
        assert!(seq_equal(&empty, &empty));
    }

    #[test]
    fn quickselect_places_kth() {
        for n in [1usize, 2, 30, 1000] {
            for k in [0, n / 3, n / 2, n - 1] {
                let mut v = scrambled(n);
                let mut expect = v.clone();
                expect.sort_unstable();
                quickselect(&mut v, k, &ord());
                assert_eq!(v[k], expect[k], "n={n} k={k}");
                assert!(v[..k].iter().all(|x| x <= &v[k]));
                assert!(v[k + 1..].iter().all(|x| x >= &v[k]));
            }
        }
    }
}
