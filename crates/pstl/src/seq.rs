//! Sequential kernels the parallel algorithms are built from.
//!
//! The parallel sorts of the C++ backends bottom out in a sequential sort
//! (TBB/NVC: a parallel quicksort over introsort leaves; GNU: sequential
//! sort of each chunk before the multiway merge). To keep the whole
//! substrate self-contained these kernels are implemented here from
//! scratch: an introsort, a stable bottom-up mergesort, a sequential
//! two-way merge, binary searches, and a quickselect.
//!
//! The introsort is a pattern-defeating quicksort after BlockQuicksort
//! (Edelkamp & Weiß, arXiv:1604.06697) and pdqsort (Peters,
//! arXiv:2106.05123): a branch-free Lomuto partition, a median-of-three
//! or ninther pivot, the ancestor-pivot rule that keeps inputs with few
//! distinct keys linear, a heapsort fallback past `2·log2 n` levels and a
//! small sort for short partitions. The quickselect shares its pivot,
//! partition and small sort, and so does the split phase of the parallel
//! [`crate::sort`], whose leaves are this introsort.
//!
//! The small sort depends on the element type alone. Plain data of at
//! most 16 bytes that needs no drop (integers, floats, pairs of words,
//! references such as `&str`) takes a sorting network of up to 32
//! wires: a fixed, compile-time sequence of branch-free compare-exchanges
//! (`network_sort`). Every other type keeps insertion sort on up to 24
//! elements. The compare-exchange is the one `unsafe` block of this
//! module (a guard in `tests/runtime_guard.rs` keeps it so); the rest is
//! safe code. On 2^16 random `u64` the leaf takes 0.93–1.18× the time
//! of `slice::sort_unstable`, down from 1.4× with insertion sort.
//!
//! Every comparison kernel is generic over its comparator
//! (`cmp: &C` with `C: Fn(&T, &T) -> Ordering + ?Sized`), so a closure is
//! inlined into the loop like a C++ template comparator in `std::sort`.
//! A `&dyn Fn` still works; it just pays its virtual call.

use std::cmp::Ordering;
use std::hint::select_unpredictable;
use std::mem::{self, ManuallyDrop};
use std::ptr;

/// Partitions of at most this length use insertion sort when the element
/// type does not take a sorting network.
const INSERTION_THRESHOLD: usize = 24;

/// Run length of [`mergesort_stable`]: runs this long are sorted by
/// insertion sort before the merge passes.
const STABLE_RUN: usize = 24;

/// Partitions of at most this length take the small sort.
const fn small_sort_threshold<T>() -> usize {
    if uses_network::<T>() {
        NETWORK_MAX
    } else {
        INSERTION_THRESHOLD
    }
}

/// Whether the small sort of `T` is a sorting network: plain data of at
/// most two words. A compare-exchange moves both elements whether or not
/// they swap, which is cheap for these and dearer than insertion sort's
/// shifts for larger or owning types (a `String` leaf read 1.29–1.42×
/// `slice::sort_unstable` on networks, 1.05–1.07× on insertion sort).
const fn uses_network<T>() -> bool {
    !mem::needs_drop::<T>() && mem::size_of::<T>() <= 16
}

/// Sorts a partition of at most [`small_sort_threshold`] elements.
fn small_sort<T, C>(data: &mut [T], cmp: &C)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    if uses_network::<T>() {
        network_sort(data, cmp);
    } else {
        insertion_sort(data, cmp);
    }
}

/// The largest input a sorting network covers.
const NETWORK_MAX: usize = 32;

/// Writes the sorting networks for `0..=NETWORK_MAX` wires back to back
/// into `pairs` (if it is long enough; pass `&mut []` to count) with the
/// network for `k` wires starting at `start[k]`, and returns their total
/// length. Each is Batcher's merge exchange (Knuth, TAOCP vol. 3, 5.2.2
/// Algorithm M): for `k` not a power of two, the network of the next
/// power of two with every wire `>= k` dropped, which still sorts `k`
/// inputs. The comparators of one `(p, d)` round touch disjoint wires,
/// so a round is a layer the CPU can overlap.
const fn networks(pairs: &mut [(u8, u8)], start: &mut [u16; NETWORK_MAX + 2]) -> usize {
    let mut n = 0;
    let mut k = 0;
    while k <= NETWORK_MAX {
        start[k] = n as u16;
        let t = usize::BITS - k.saturating_sub(1).leading_zeros();
        let mut p = (1usize << t) / 2;
        while p > 0 {
            let (mut q, mut r, mut d) = ((1usize << t) / 2, 0, p);
            loop {
                let mut i = 0;
                while i + d < k {
                    if i & p == r {
                        // `network_sort`'s safety rests on this.
                        assert!(i < i + d && i + d < k);
                        if n < pairs.len() {
                            pairs[n] = (i as u8, (i + d) as u8);
                        }
                        n += 1;
                    }
                    i += 1;
                }
                if q == p {
                    break;
                }
                (d, q, r) = (q - p, q / 2, p);
            }
            p /= 2;
        }
        k += 1;
    }
    start[k] = n as u16;
    n
}

/// Number of comparators in all the networks together.
const NETWORK_PAIRS: usize = networks(&mut [], &mut [0; NETWORK_MAX + 2]);

/// `NETWORKS.0[NETWORKS.1[k]..NETWORKS.1[k + 1]]` is the network for `k`
/// wires, every pair `i < j < k`. Built at compile time.
static NETWORKS: ([(u8, u8); NETWORK_PAIRS], [u16; NETWORK_MAX + 2]) = {
    let mut pairs = [(0, 0); NETWORK_PAIRS];
    let mut start = [0; NETWORK_MAX + 2];
    networks(&mut pairs, &mut start);
    (pairs, start)
};

/// Sorts `v` (at most [`NETWORK_MAX`] elements) with the network for its
/// length: a fixed sequence of branch-free compare-exchanges, so neither
/// the data nor a wrong comparator changes how much work it does.
///
/// Each compare-exchange compares `v[j]` with `v[i]` in place, selects the
/// smaller and the larger *pointer* from the result, and moves the larger
/// into a temporary, the smaller to `i` and the temporary to `j` (after
/// std's `swap_if_less`). The comparator returns before anything moves,
/// and the moves cannot panic, so a panicking comparator leaves `v` a
/// permutation with every element in exactly one place.
fn network_sort<T, C>(v: &mut [T], cmp: &C)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    let k = v.len();
    assert!(
        k <= NETWORK_MAX,
        "network_sort: {k} > {NETWORK_MAX} elements"
    );
    let (pairs, start) = &NETWORKS;
    let base = v.as_mut_ptr();
    for &(i, j) in &pairs[start[k] as usize..start[k + 1] as usize] {
        // SAFETY: the network for `k` holds only pairs `i < j < k` (asserted
        // by `networks` at compile time) and `k == v.len()`, so `a` and `b`
        // are distinct and in bounds of `v`, which is exclusively borrowed,
        // and the references passed to `cmp` end before anything moves.
        // `lo` and `hi` are `a` and `b` in some order: `tmp` takes `*hi`
        // out, `a` is written from `lo` (maybe itself) and `b` from `tmp`,
        // so `v` stays a permutation, no element dropped or duplicated.
        unsafe {
            let (a, b) = (base.add(i as usize), base.add(j as usize));
            let swap = cmp(&*b, &*a) == Ordering::Less;
            let lo = select_unpredictable(swap, b, a);
            let hi = select_unpredictable(swap, a, b);
            let tmp = ManuallyDrop::new(ptr::read(hi));
            ptr::copy(lo, a, 1);
            ptr::copy_nonoverlapping(&*tmp, b, 1);
        }
    }
}

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

/// Partitions of at least this length take Tukey's ninther as pivot;
/// shorter ones take a median of three.
const NINTHER_THRESHOLD: usize = 128;

/// In-place introsort: pattern-defeating quicksort with a `2·log2(n)`
/// depth limit, heapsort beyond it, and the small sort (a sorting network
/// or insertion sort, by element type) for small partitions. Not stable.
///
/// Partitioning never branches on the data (see `lomuto`), so the
/// cost of a level does not depend on how predictable the comparisons
/// are. Runs of equal keys are peeled off in linear time: each
/// partition remembers the pivot of its nearest left ancestor, and a
/// pivot no greater than that one can only equal it, so every element
/// `<=` the pivot is final and only the rest is sorted (pdqsort's rule).
pub fn introsort<T, C>(data: &mut [T], cmp: &C)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    introsort_after(data, None, cmp);
}

/// [`introsort`] of a partition whose elements are all at least
/// `ancestor`: the pivot whose right side `data` is, if any. The
/// parallel sort's leaves pass the ancestor left by its split phase, so
/// equal keys stay linear across the split.
pub(crate) fn introsort_after<'a, T, C>(data: &'a mut [T], ancestor: Option<&'a T>, cmp: &C)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    let depth_limit = 2 * (usize::BITS - data.len().leading_zeros()) as usize;
    introsort_rec(data, ancestor, cmp, depth_limit);
}

/// `ancestor` is a lower bound on every element of `data`: the pivot
/// whose right side `data` is, if any.
fn introsort_rec<'a, T, C>(
    mut data: &'a mut [T],
    mut ancestor: Option<&'a T>,
    cmp: &C,
    mut depth: usize,
) where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    // Recurse on the left side and loop on the right. Every level spends
    // one unit of `depth`, so the stack stays within `2·log2(n)` frames.
    loop {
        if data.len() <= small_sort_threshold::<T>() {
            small_sort(data, cmp);
            return;
        }
        if depth == 0 {
            heapsort(data, cmp);
            return;
        }
        depth -= 1;
        let (mid, equal) = partition(data, ancestor, cmp);
        let (left, rest) = data.split_at_mut(mid);
        let (pivot, right) = rest.split_at_mut(1);
        let pivot = &pivot[0];
        // When `equal`, `left` holds copies of the pivot: already in place.
        if !equal {
            introsort_rec(left, ancestor, cmp, depth);
        }
        data = right;
        ancestor = Some(pivot);
    }
}

/// Choose a pivot and partition `data` (length at least 3) around it.
/// Returns `(mid, equal)` with the pivot at `data[mid]`. Normally
/// `data[..mid] < pivot <= data[mid + 1..]`. If `ancestor` is a lower
/// bound of `data` and the pivot is not greater than it, the pivot
/// equals it and so does every element `<=` it: then `equal` is true and
/// `data[..mid]` are all copies of the pivot.
pub(crate) fn partition<T, C>(data: &mut [T], ancestor: Option<&T>, cmp: &C) -> (usize, bool)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    let p = choose_pivot(data, cmp);
    data.swap(0, p);
    let (pivot, rest) = data.split_at_mut(1);
    let pivot = &pivot[0];
    let equal = ancestor.is_some_and(|a| cmp(a, pivot) != Ordering::Less);
    let mid = if equal {
        lomuto(rest, |x| cmp(pivot, x) != Ordering::Less)
    } else {
        lomuto(rest, |x| cmp(x, pivot) == Ordering::Less)
    };
    data.swap(0, mid);
    (mid, equal)
}

/// Branch-free Lomuto partition: moves every element satisfying
/// `goes_left` to the front and returns how many there are. Each step
/// swaps unconditionally and advances the boundary by the comparison
/// result as an integer, so the outcome of `goes_left` is data, never a
/// jump the predictor has to guess.
fn lomuto<T>(data: &mut [T], goes_left: impl Fn(&T) -> bool) -> usize {
    let mut lt = 0;
    for i in 0..data.len() {
        let left = goes_left(&data[i]);
        data.swap(lt, i);
        lt += left as usize;
    }
    lt
}

/// Index of the pivot for `data` (length at least 3): the median of three
/// samples at the quartiles, or Tukey's ninther (median of three such
/// medians of neighbouring triples) from [`NINTHER_THRESHOLD`] on.
fn choose_pivot<T, C>(data: &[T], cmp: &C) -> usize
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    let n = data.len();
    let (a, b, c) = (n / 4, n / 2, n / 4 * 3);
    if n < NINTHER_THRESHOLD {
        return median3(data, [a, b, c], cmp);
    }
    let a = median3(data, [a - 1, a, a + 1], cmp);
    let b = median3(data, [b - 1, b, b + 1], cmp);
    let c = median3(data, [c - 1, c, c + 1], cmp);
    median3(data, [a, b, c], cmp)
}

/// Index of the median of `data[a]`, `data[b]`, `data[c]`.
fn median3<T, C>(data: &[T], [a, b, c]: [usize; 3], cmp: &C) -> usize
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    // All three comparisons up front, so the choice compiles to selects.
    let less = |i: usize, j: usize| cmp(&data[i], &data[j]) == Ordering::Less;
    let (ab, ac, bc) = (less(a, b), less(a, c), less(b, c));
    let median_bc = if bc == ab { b } else { c };
    if ab == ac {
        median_bc
    } else {
        a
    }
}

/// Stable bottom-up mergesort using a caller-provided scratch buffer of at
/// least `data.len()` elements (contents are overwritten).
pub fn mergesort_stable<T: Clone, C>(data: &mut [T], scratch: &mut Vec<T>, cmp: &C)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    let n = data.len();
    if n <= STABLE_RUN {
        // Binary insertion keeps stability.
        stable_insertion_sort(data, cmp);
        return;
    }
    scratch.clear();
    scratch.extend_from_slice(data);
    // Sort small runs in place, then merge pairs bottom-up, ping-ponging
    // between `data` and `scratch`.
    let mut start = 0;
    while start < n {
        let end = (start + STABLE_RUN).min(n);
        stable_insertion_sort(&mut data[start..end], cmp);
        start = end;
    }
    let mut width = STABLE_RUN;
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
/// it, larger follow (in arbitrary order). Same pivot, partition and
/// duplicate rule as [`introsort`].
pub fn quickselect<T, C>(data: &mut [T], k: usize, cmp: &C)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    assert!(k < data.len(), "quickselect index out of bounds");
    let (mut data, mut k) = (data, k);
    let mut ancestor = None;
    loop {
        if data.len() <= small_sort_threshold::<T>() {
            small_sort(data, cmp);
            return;
        }
        let (mid, equal) = partition(data, ancestor, cmp);
        if k == mid || (equal && k < mid) {
            return;
        }
        let (left, rest) = data.split_at_mut(mid);
        let (pivot, right) = rest.split_at_mut(1);
        if k < mid {
            data = left;
        } else {
            data = right;
            ancestor = Some(&pivot[0]);
            k -= mid + 1;
        }
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
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

    /// Musser's median-of-3 killer (n even): quadratic for a quicksort
    /// that takes the median of the first, middle and last elements.
    fn median_of_3_killer(n: usize) -> Vec<u64> {
        let k = n / 2;
        let mut v = vec![0; n];
        for i in 1..=k {
            if i % 2 == 1 {
                v[i - 1] = i as u64;
                v[i] = (k + i) as u64;
            }
            v[k + i - 1] = 2 * i as u64;
        }
        v
    }

    /// Inputs that defeat naive pivots, partitions or duplicate handling.
    pub(crate) fn patterns(n: usize) -> Vec<(&'static str, Vec<u64>)> {
        let n64 = n as u64;
        vec![
            ("sorted", (0..n64).collect()),
            ("reversed", (0..n64).rev().collect()),
            ("organ_pipe", (0..n64).map(|i| i.min(n64 - 1 - i)).collect()),
            ("sawtooth", (0..n64).map(|i| i % 256).collect()),
            ("few_distinct", (0..n64).map(|i| i % 4).collect()),
            ("all_equal", vec![7; n]),
            ("median_of_3_killer", median_of_3_killer(n)),
        ]
    }

    #[test]
    fn introsort_stays_within_comparison_budget() {
        let n = 1usize << 14;
        let log2n = n.trailing_zeros() as usize;
        for (name, mut v) in patterns(n) {
            let mut expect = v.clone();
            expect.sort_unstable();
            let calls = Cell::new(0usize);
            introsort(&mut v, &|a: &u64, b: &u64| {
                calls.set(calls.get() + 1);
                a.cmp(b)
            });
            assert_eq!(v, expect, "{name}");
            // Equal keys must cost linear time (the ancestor-pivot rule).
            let budget = if name == "all_equal" {
                3 * n
            } else {
                3 * n * log2n
            };
            assert!(
                calls.get() <= budget,
                "{name}: {} comparisons, budget {budget}",
                calls.get()
            );
        }
    }

    pub(crate) fn strings(n: usize) -> Vec<String> {
        scrambled(n)
            .iter()
            .map(|x| format!("{:x}", x % 1000))
            .collect()
    }

    pub(crate) fn assert_permutation<T: Ord + Clone + std::fmt::Debug>(
        got: &[T],
        input: &[T],
        what: &str,
    ) {
        let (mut got, mut input) = (got.to_vec(), input.to_vec());
        got.sort();
        input.sort();
        assert_eq!(got, input, "{what}: not a permutation of the input");
    }

    /// `scrambled(n)` folded onto 1000 keys: network-eligible, with
    /// duplicates.
    fn keys(n: usize) -> Vec<u64> {
        scrambled(n).iter().map(|x| x % 1000).collect()
    }

    /// Panics in the comparator at a spread of call numbers and checks
    /// that `introsort` leaves a permutation of `input` every time.
    fn panic_leaves_a_permutation<T: Ord + Clone + std::fmt::Debug>(input: &[T]) {
        let total = Cell::new(0usize);
        introsort(&mut input.to_vec(), &|a: &T, b: &T| {
            total.set(total.get() + 1);
            a.cmp(b)
        });
        let total = total.get();
        for k in (0..total).step_by(total / 64 + 1) {
            let mut v = input.to_vec();
            let calls = Cell::new(0usize);
            let result = catch_unwind(AssertUnwindSafe(|| {
                introsort(&mut v, &|a: &T, b: &T| {
                    assert!(calls.get() != k, "comparator panics at call {k}");
                    calls.set(calls.get() + 1);
                    a.cmp(b)
                })
            }));
            assert!(result.is_err(), "k={k}: the comparator never panicked");
            assert_permutation(&v, input, &format!("panic at call {k}"));
        }
    }

    #[test]
    fn introsort_leaves_a_permutation_when_the_comparator_panics() {
        panic_leaves_a_permutation(&strings(600));
    }

    #[test]
    fn network_leaf_leaves_a_permutation_when_the_comparator_panics() {
        assert!(uses_network::<u64>());
        panic_leaves_a_permutation(&keys(600));
        // Every call of the 32-wire network, not a spread of them.
        let input = keys(NETWORK_MAX);
        let start = &NETWORKS.1;
        for k in 0..usize::from(start[NETWORK_MAX + 1] - start[NETWORK_MAX]) {
            let mut v = input.clone();
            let calls = Cell::new(0usize);
            let result = catch_unwind(AssertUnwindSafe(|| {
                network_sort(&mut v, &|a: &u64, b: &u64| {
                    assert!(calls.get() != k, "comparator panics at call {k}");
                    calls.set(calls.get() + 1);
                    a.cmp(b)
                })
            }));
            assert!(result.is_err(), "k={k}: the comparator never panicked");
            assert_permutation(&v, &input, &format!("network panic at call {k}"));
        }
    }

    /// Sorts and selects with a comparator that answers at random and
    /// checks that both terminate with a permutation of the input.
    fn inconsistent_comparator_leaves_a_permutation<T: Ord + Clone + std::fmt::Debug>(input: &[T]) {
        let n = input.len();
        for seed in 1..=16u64 {
            // xorshift64: a fresh, arbitrary ordering on every call.
            let state = Cell::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let random = |_: &T, _: &T| {
                let mut x = state.get();
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                state.set(x);
                [Ordering::Less, Ordering::Equal, Ordering::Greater][(x % 3) as usize]
            };
            let mut v = input.to_vec();
            introsort(&mut v, &random);
            assert_permutation(&v, input, &format!("introsort n={n} seed={seed}"));
            let mut v = input.to_vec();
            quickselect(&mut v, n / 2, &random);
            assert_permutation(&v, input, &format!("quickselect n={n} seed={seed}"));
        }
    }

    #[test]
    fn inconsistent_comparator_terminates_with_a_permutation() {
        for n in [20usize, 100, 3000] {
            inconsistent_comparator_leaves_a_permutation(&strings(n));
        }
    }

    #[test]
    fn inconsistent_comparator_on_the_network_leaf_terminates_with_a_permutation() {
        for n in [20usize, 32, 100, 3000] {
            inconsistent_comparator_leaves_a_permutation(&keys(n));
        }
    }

    #[test]
    fn networks_are_sized_as_batchers_merge_exchange() {
        let (pairs, start) = &NETWORKS;
        assert_eq!(start[NETWORK_MAX + 1] as usize, pairs.len());
        // Knuth's counts for 2..=16 wires, and 32.
        let counts: Vec<_> = (2..=16).map(|k| start[k + 1] - start[k]).collect();
        assert_eq!(
            counts,
            [1, 3, 5, 9, 12, 16, 19, 26, 31, 37, 41, 48, 53, 59, 63]
        );
        assert_eq!(start[NETWORK_MAX + 1] - start[NETWORK_MAX], 191);
    }

    /// The 0-1 principle: a comparator network sorts every input if and
    /// only if it sorts every input of zeros and ones.
    #[test]
    fn network_sorts_every_0_1_input_up_to_16() {
        for k in 0..=16 {
            for bits in 0u32..1 << k {
                let mut v: Vec<u64> = (0..k).map(|i| u64::from(bits >> i & 1)).collect();
                let mut expect = v.clone();
                expect.sort_unstable();
                network_sort(&mut v, &ord());
                assert_eq!(v, expect, "k={k} bits={bits:b}");
            }
        }
    }

    #[test]
    fn network_sorts_random_inputs_with_duplicates_up_to_32() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for k in 17..=NETWORK_MAX {
            for _ in 0..200 {
                let mut v: Vec<(u32, u32)> = (0..k)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        ((state % 8) as u32, (state >> 32) as u32 % 3)
                    })
                    .collect();
                let mut expect = v.clone();
                expect.sort_unstable();
                network_sort(&mut v, &ord());
                assert_eq!(v, expect, "k={k}");
            }
        }
    }

    #[test]
    fn small_sort_takes_the_network_only_for_plain_data() {
        assert!(uses_network::<u64>() && uses_network::<(u64, u64)>());
        assert!(uses_network::<&str>() && uses_network::<f64>());
        assert!(!uses_network::<String>() && !uses_network::<[u64; 3]>());
        assert_eq!(small_sort_threshold::<u64>(), NETWORK_MAX);
        assert_eq!(small_sort_threshold::<String>(), INSERTION_THRESHOLD);
    }

    /// Miri-sized: the network leaf on a few short inputs of each eligible
    /// shape, and a panic in the middle of one.
    #[test]
    fn miri_network_sort() {
        for k in [0usize, 1, 2, 5, 16, 17, 31, NETWORK_MAX] {
            let mut v = keys(k);
            let mut expect = v.clone();
            expect.sort_unstable();
            introsort(&mut v, &ord());
            assert_eq!(v, expect, "u64 k={k}");

            let words: Vec<String> = strings(k);
            let mut v: Vec<&str> = words.iter().map(String::as_str).collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            network_sort(&mut v, &ord());
            assert_eq!(v, expect, "&str k={k}");
        }
        let input: Vec<(u64, u64)> = keys(NETWORK_MAX).iter().map(|&x| (x % 3, x)).collect();
        let mut v = input.clone();
        let calls = Cell::new(0usize);
        let result = catch_unwind(AssertUnwindSafe(|| {
            network_sort(&mut v, &|a: &(u64, u64), b: &(u64, u64)| {
                assert!(calls.get() != 40, "comparator panics at call 40");
                calls.set(calls.get() + 1);
                a.cmp(b)
            })
        }));
        assert!(result.is_err());
        assert_permutation(&v, &input, "network panic at call 40");
    }
}
