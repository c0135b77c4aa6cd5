//! `merge` and sortedness checks.
//!
//! The parallel merge uses *merge-path co-ranking*: the output index space
//! is cut into balanced segments, and for each segment boundary `k` a
//! binary search finds the unique stable split `(i, j)`, `i + j = k`, of
//! the two inputs. Segments are then merged independently — the same
//! decomposition TBB and MCSTL use inside their parallel sorts.

use std::cmp::Ordering;

use crate::algorithms::find_search::find_adjacent;
use crate::algorithms::scratch_clone;
use crate::chunk::chunk_range;
use crate::policy::{ExecutionPolicy, Plan};
use crate::ptr::SliceView;
use crate::seq;

/// Stable co-rank: the unique `(i, j)` with `i + j = k` such that merging
/// `a[..i]` and `b[..j]` yields exactly the first `k` outputs of the
/// stable merge (ties taken from `a` first).
pub(crate) fn co_rank<T, C>(a: &[T], b: &[T], k: usize, cmp: &C) -> (usize, usize)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    debug_assert!(k <= a.len() + b.len());
    let mut lo = k.saturating_sub(b.len());
    let mut hi = k.min(a.len());
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        let j = k - i;
        // b[j-1] would be emitted before a[i] only if strictly less; if it
        // is not strictly less, a[i] belongs to the first k outputs.
        if cmp(&b[j - 1], &a[i]) != Ordering::Less {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    (lo, k - lo)
}

/// Stable parallel merge of two sorted slices into `out`, by comparator.
///
/// # Panics
/// Panics if `out.len() != a.len() + b.len()`. Inputs must be sorted
/// under `cmp` (debug-asserted).
pub fn merge_by<T, C>(policy: &ExecutionPolicy, a: &[T], b: &[T], out: &mut [T], cmp: C)
where
    T: Clone + Send + Sync,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    assert_eq!(
        out.len(),
        a.len() + b.len(),
        "merge: output length mismatch"
    );
    debug_assert!(a.windows(2).all(|w| cmp(&w[0], &w[1]) != Ordering::Greater));
    debug_assert!(b.windows(2).all(|w| cmp(&w[0], &w[1]) != Ordering::Greater));
    let n = out.len();
    match policy.plan(n) {
        Plan::Sequential => seq::merge_into(a, b, out, &cmp),
        Plan::Parallel { exec, tasks, .. } => {
            // Segment boundaries in output space → input splits.
            let splits: Vec<(usize, usize)> = (0..=tasks)
                .map(|s| {
                    let k = if s == tasks {
                        n
                    } else {
                        chunk_range(n, tasks, s).start
                    };
                    co_rank(a, b, k, &cmp)
                })
                .collect();
            let splits = &splits;
            let view = SliceView::new(out);
            let view = &view;
            exec.run(tasks, &|s| {
                let (i0, j0) = splits[s];
                let (i1, j1) = splits[s + 1];
                let k0 = i0 + j0;
                let k1 = i1 + j1;
                // SAFETY: output segments are disjoint by construction.
                let dst = unsafe { view.range_mut(k0..k1) };
                seq::merge_into(&a[i0..i1], &b[j0..j1], dst, &cmp);
            });
        }
    }
}

/// Stable parallel merge by `Ord` (`std::merge`).
/// # Examples
/// ```
/// use pstl::ExecutionPolicy;
///
/// let policy = ExecutionPolicy::seq();
/// let mut out = [0; 6];
/// pstl::merge(&policy, &[1, 3, 5], &[2, 4, 6], &mut out);
/// assert_eq!(out, [1, 2, 3, 4, 5, 6]);
/// ```
pub fn merge<T>(policy: &ExecutionPolicy, a: &[T], b: &[T], out: &mut [T])
where
    T: Ord + Clone + Send + Sync,
{
    merge_by(policy, a, b, out, |x, y| x.cmp(y));
}

/// Merge the two consecutive sorted runs `data[..mid]` and `data[mid..]`
/// in place (`std::inplace_merge`), stably.
///
/// Like libstdc++'s implementation with a buffer available, this uses a
/// scratch allocation and the parallel merge, then copies back.
///
/// # Panics
/// Panics if `mid > data.len()`.
pub fn inplace_merge<T>(policy: &ExecutionPolicy, data: &mut [T], mid: usize)
where
    T: Ord + Clone + Send + Sync,
{
    inplace_merge_by(policy, data, mid, |a, b| a.cmp(b));
}

/// [`inplace_merge`] with a comparator.
pub fn inplace_merge_by<T, C>(policy: &ExecutionPolicy, data: &mut [T], mid: usize, cmp: C)
where
    T: Clone + Send + Sync,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    assert!(mid <= data.len(), "inplace_merge: mid out of range");
    if mid == 0 || mid == data.len() {
        return;
    }
    let mut scratch: Vec<T> = scratch_clone(policy, data);
    {
        let (a, b) = data.split_at(mid);
        merge_by(policy, a, b, &mut scratch, &cmp);
    }
    // Copy back in parallel (chunked clone_from_slice).
    let n = data.len();
    let view = SliceView::new(data);
    let view = &view;
    let scratch_ref: &[T] = &scratch;
    crate::algorithms::run_chunks(policy, n, &|r| {
        // SAFETY: disjoint chunk ranges.
        unsafe { view.range_mut(r.clone()) }.clone_from_slice(&scratch_ref[r]);
    });
}

/// Length of the longest sorted prefix (`std::is_sorted_until`; returns
/// `data.len()` when fully sorted).
pub fn is_sorted_until<T>(policy: &ExecutionPolicy, data: &[T]) -> usize
where
    T: Ord + Sync,
{
    match find_adjacent(policy, data, |a, b| b < a) {
        Some(i) => i + 1,
        None => data.len(),
    }
}

/// Whether the slice is sorted ascending (`std::is_sorted`).
pub fn is_sorted<T>(policy: &ExecutionPolicy, data: &[T]) -> bool
where
    T: Ord + Sync,
{
    is_sorted_until(policy, data) == data.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstl_executor::{build_pool, Discipline};

    fn policies() -> Vec<ExecutionPolicy> {
        vec![
            ExecutionPolicy::seq(),
            ExecutionPolicy::par(build_pool(Discipline::ForkJoin, 3)),
            ExecutionPolicy::par(build_pool(Discipline::WorkStealing, 2)),
            ExecutionPolicy::par(build_pool(Discipline::TaskPool, 2)),
        ]
    }

    #[test]
    fn co_rank_boundaries() {
        let a = [1, 3, 5, 7];
        let b = [2, 4, 6, 8];
        let cmp = &|x: &i32, y: &i32| x.cmp(y);
        assert_eq!(co_rank(&a, &b, 0, cmp), (0, 0));
        assert_eq!(co_rank(&a, &b, 8, cmp), (4, 4));
        // First 3 outputs of the merge are 1,2,3 → 2 from a, 1 from b.
        assert_eq!(co_rank(&a, &b, 3, cmp), (2, 1));
    }

    #[test]
    fn co_rank_tie_prefers_a() {
        let a = [5, 5];
        let b = [5, 5];
        let cmp = &|x: &i32, y: &i32| x.cmp(y);
        // First 2 outputs must both come from `a` for stability.
        assert_eq!(co_rank(&a, &b, 2, cmp), (2, 0));
    }

    #[test]
    fn merge_matches_reference() {
        for policy in policies() {
            let a: Vec<u64> = (0..20_000).map(|i| i * 2).collect();
            let b: Vec<u64> = (0..15_000).map(|i| i * 3).collect();
            let mut out = vec![0u64; a.len() + b.len()];
            merge(&policy, &a, &b, &mut out);
            let mut expect = [a.clone(), b.clone()].concat();
            expect.sort();
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn merge_is_stable() {
        for policy in policies() {
            // Tag each element with its source; equal keys must come from
            // `a` before `b`.
            let a: Vec<(u32, u8)> = (0..5000).map(|i| (i / 5, 0u8)).collect();
            let b: Vec<(u32, u8)> = (0..5000).map(|i| (i / 5, 1u8)).collect();
            let mut out = vec![(0u32, 0u8); 10_000];
            merge_by(&policy, &a, &b, &mut out, |x, y| x.0.cmp(&y.0));
            for w in out.windows(2) {
                assert!(w[0].0 <= w[1].0);
                if w[0].0 == w[1].0 {
                    assert!(w[0].1 <= w[1].1, "a-elements must precede b on ties");
                }
            }
        }
    }

    #[test]
    fn merge_with_empty_side() {
        for policy in policies() {
            let a: Vec<u64> = (0..1000).collect();
            let b: Vec<u64> = vec![];
            let mut out = vec![0u64; 1000];
            merge(&policy, &a, &b, &mut out);
            assert_eq!(out, a);
            let mut out2 = vec![0u64; 1000];
            merge(&policy, &b, &a, &mut out2);
            assert_eq!(out2, a);
        }
    }

    #[test]
    fn inplace_merge_matches_sorted_whole() {
        for policy in policies() {
            for (la, lb) in [(0usize, 100usize), (100, 0), (1, 1), (5000, 7000)] {
                let mut data: Vec<u64> = (0..la as u64)
                    .map(|i| i * 2)
                    .chain((0..lb as u64).map(|i| i * 3))
                    .collect();
                let mut expect = data.clone();
                expect.sort();
                // Both runs are sorted by construction.
                inplace_merge(&policy, &mut data, la);
                assert_eq!(data, expect, "la={la} lb={lb}");
            }
        }
    }

    #[test]
    fn inplace_merge_is_stable() {
        for policy in policies() {
            let mut data: Vec<(u32, u8)> = (0..500)
                .map(|i| (i / 5, 0u8))
                .chain((0..500).map(|i| (i / 5, 1u8)))
                .collect();
            inplace_merge_by(&policy, &mut data, 500, |a, b| a.0.cmp(&b.0));
            for w in data.windows(2) {
                assert!(w[0].0 <= w[1].0);
                if w[0].0 == w[1].0 {
                    assert!(w[0].1 <= w[1].1, "first-run elements precede on ties");
                }
            }
        }
    }

    #[test]
    fn sortedness_checks() {
        for policy in policies() {
            let sorted: Vec<u64> = (0..50_000).collect();
            assert!(is_sorted(&policy, &sorted));
            assert_eq!(is_sorted_until(&policy, &sorted), 50_000);

            let mut broken = sorted.clone();
            broken[33_000] = 0;
            assert!(!is_sorted(&policy, &broken));
            assert_eq!(is_sorted_until(&policy, &broken), 33_000);

            assert!(is_sorted::<u64>(&policy, &[]));
            assert!(is_sorted(&policy, &[9u64]));
            let dups = vec![3u64; 100];
            assert!(is_sorted(&policy, &dups), "equal runs are sorted");
        }
    }
}
