//! Set algorithms on sorted ranges: `includes`, `set_union`,
//! `set_intersection`, `set_difference`, `set_symmetric_difference` —
//! with C++ multiset semantics (duplicates count: union keeps
//! `max(m, n)` copies, intersection `min(m, n)`, difference
//! `max(m − n, 0)`).
//!
//! Parallel strategy: the combined input is cut into balanced segments at
//! *value boundaries* (a cut value `v` cuts both inputs at their
//! `lower_bound(v)`, so no run of equal elements straddles a segment),
//! then each segment is processed by the sequential merge-walk twice —
//! once counting output sizes, once writing at the scanned offsets.

use std::cmp::Ordering;

use crate::algorithms::merge::co_rank;
use crate::algorithms::scratch_filled;
use crate::policy::{ExecutionPolicy, Plan};
use crate::ptr::SliceView;
use crate::seq;

/// Which set operation a merge-walk performs.
#[derive(Clone, Copy, PartialEq)]
enum SetOp {
    Union,
    Intersection,
    Difference,
    SymmetricDifference,
}

/// Sequential merge-walk emitting the operation's output through `emit`.
/// Shared by the counting and writing passes.
fn walk<T: Ord>(op: SetOp, a: &[T], b: &[T], mut emit: impl FnMut(&T)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                if op != SetOp::Intersection {
                    emit(&a[i]);
                }
                i += 1;
            }
            Ordering::Greater => {
                if matches!(op, SetOp::Union | SetOp::SymmetricDifference) {
                    emit(&b[j]);
                }
                j += 1;
            }
            Ordering::Equal => {
                match op {
                    SetOp::Union | SetOp::Intersection => emit(&a[i]),
                    SetOp::Difference | SetOp::SymmetricDifference => {}
                }
                i += 1;
                j += 1;
            }
        }
    }
    if op != SetOp::Intersection {
        for x in &a[i..] {
            emit(x);
        }
    }
    if matches!(op, SetOp::Union | SetOp::SymmetricDifference) {
        for y in &b[j..] {
            emit(y);
        }
    }
}

/// Cut `a` and `b` into `parts` aligned segment pairs at value
/// boundaries. Returns `parts + 1` cut positions per input.
fn value_cuts<T: Ord>(
    policy: &ExecutionPolicy,
    a: &[T],
    b: &[T],
    parts: usize,
) -> (Vec<usize>, Vec<usize>) {
    let total = a.len() + b.len();
    let cmp = &|x: &T, y: &T| x.cmp(y);
    let mut ca = scratch_filled(policy, parts + 1, 0usize);
    let mut cb = scratch_filled(policy, parts + 1, 0usize);
    for s in 1..parts {
        let k = total * s / parts;
        let (i, j) = co_rank(a, b, k, cmp);
        // Snap the cut to the start of the boundary value's equal run in
        // *both* inputs, so multiset counting stays within one segment.
        // Both sides must snap by the same value even when one input is
        // already exhausted at the co-rank point — otherwise an equal run
        // straddles the boundary and gets double-counted.
        let boundary = match (a.get(i), b.get(j)) {
            (Some(va), Some(vb)) => Some(if va <= vb { va } else { vb }),
            (Some(va), None) => Some(va),
            (None, Some(vb)) => Some(vb),
            (None, None) => None,
        };
        let (i, j) = match boundary {
            Some(v) => (seq::lower_bound(a, v, cmp), seq::lower_bound(b, v, cmp)),
            None => (i, j),
        };
        // Keep cuts monotone (snapping can move left past the previous
        // cut on pathological duplicate distributions).
        ca[s] = i.max(ca[s - 1]);
        cb[s] = j.max(cb[s - 1]);
    }
    ca[parts] = a.len();
    cb[parts] = b.len();
    (ca, cb)
}

/// The generic two-pass parallel set operation. Returns elements written.
fn set_operation<T>(op: SetOp, policy: &ExecutionPolicy, a: &[T], b: &[T], out: &mut [T]) -> usize
where
    T: Ord + Clone + Send + Sync,
{
    debug_assert!(a.windows(2).all(|w| w[0] <= w[1]), "input a must be sorted");
    debug_assert!(b.windows(2).all(|w| w[0] <= w[1]), "input b must be sorted");
    let total = a.len() + b.len();
    match policy.plan(total) {
        Plan::Sequential => {
            let mut at = 0;
            walk(op, a, b, |x| {
                assert!(at < out.len(), "set operation: output too short");
                out[at] = x.clone();
                at += 1;
            });
            at
        }
        Plan::Parallel { exec, tasks, .. } => {
            let (ca, cb) = value_cuts(policy, a, b, tasks);
            // Pass 1: per-segment output sizes.
            let mut counts = scratch_filled(policy, tasks, 0usize);
            {
                let view = SliceView::new(&mut counts);
                let view = &view;
                let (ca, cb) = (&ca, &cb);
                exec.run(tasks, &|s| {
                    let mut c = 0usize;
                    walk(op, &a[ca[s]..ca[s + 1]], &b[cb[s]..cb[s + 1]], |_| c += 1);
                    // SAFETY: one write per task slot.
                    unsafe { view.write(s, c) };
                });
            }
            // Pass 2: offsets + write.
            let mut offsets = scratch_filled(policy, tasks + 1, 0usize);
            let mut acc = 0usize;
            for (s, &c) in counts.iter().enumerate() {
                offsets[s] = acc;
                acc += c;
            }
            offsets[tasks] = acc;
            assert!(acc <= out.len(), "set operation: output too short");
            let view = SliceView::new(out);
            let view = &view;
            let (ca, cb, offsets) = (&ca, &cb, &offsets);
            exec.run(tasks, &|s| {
                let mut at = offsets[s];
                walk(op, &a[ca[s]..ca[s + 1]], &b[cb[s]..cb[s + 1]], |x| {
                    // SAFETY: segments write disjoint output windows.
                    unsafe { view.write(at, x.clone()) };
                    at += 1;
                });
                debug_assert_eq!(at, offsets[s + 1]);
            });
            acc
        }
    }
}

/// Sorted-range union with multiset semantics (`std::set_union`).
/// Returns the number of elements written to `out`.
///
/// # Panics
/// Panics if `out` is too short; inputs must be sorted (debug-asserted).
/// # Examples
/// ```
/// use pstl::ExecutionPolicy;
///
/// let policy = ExecutionPolicy::seq();
/// let mut out = [0; 8];
/// let n = pstl::set_union(&policy, &[1, 1, 3], &[1, 2], &mut out);
/// assert_eq!(&out[..n], &[1, 1, 2, 3]); // multiset: max(m, n) copies
/// ```
pub fn set_union<T>(policy: &ExecutionPolicy, a: &[T], b: &[T], out: &mut [T]) -> usize
where
    T: Ord + Clone + Send + Sync,
{
    set_operation(SetOp::Union, policy, a, b, out)
}

/// Sorted-range intersection (`std::set_intersection`).
pub fn set_intersection<T>(policy: &ExecutionPolicy, a: &[T], b: &[T], out: &mut [T]) -> usize
where
    T: Ord + Clone + Send + Sync,
{
    set_operation(SetOp::Intersection, policy, a, b, out)
}

/// Sorted-range difference `a − b` (`std::set_difference`).
pub fn set_difference<T>(policy: &ExecutionPolicy, a: &[T], b: &[T], out: &mut [T]) -> usize
where
    T: Ord + Clone + Send + Sync,
{
    set_operation(SetOp::Difference, policy, a, b, out)
}

/// Sorted-range symmetric difference (`std::set_symmetric_difference`).
pub fn set_symmetric_difference<T>(
    policy: &ExecutionPolicy,
    a: &[T],
    b: &[T],
    out: &mut [T],
) -> usize
where
    T: Ord + Clone + Send + Sync,
{
    set_operation(SetOp::SymmetricDifference, policy, a, b, out)
}

/// Whether sorted `needles` is a (multiset) subset of sorted `haystack`
/// (`std::includes`). Parallelized over value-aligned segments, each
/// checked with a sequential merge walk and early exit.
pub fn includes<T>(policy: &ExecutionPolicy, haystack: &[T], needles: &[T]) -> bool
where
    T: Ord + Sync,
{
    debug_assert!(haystack.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(needles.windows(2).all(|w| w[0] <= w[1]));
    if needles.is_empty() {
        return true;
    }
    fn seq_includes<T: Ord>(hay: &[T], needles: &[T]) -> bool {
        let mut i = 0;
        for n in needles {
            while i < hay.len() && hay[i] < *n {
                i += 1;
            }
            if i >= hay.len() || hay[i] != *n {
                return false;
            }
            i += 1;
        }
        true
    }
    let total = haystack.len() + needles.len();
    match policy.plan(total) {
        Plan::Sequential => seq_includes(haystack, needles),
        Plan::Parallel { exec, tasks, .. } => {
            let (ch, cn) = value_cuts(policy, haystack, needles, tasks);
            let failed = std::sync::atomic::AtomicBool::new(false);
            let failed = &failed;
            let (ch, cn) = (&ch, &cn);
            exec.run(tasks, &|s| {
                if failed.load(std::sync::atomic::Ordering::Relaxed) {
                    return;
                }
                if !seq_includes(&haystack[ch[s]..ch[s + 1]], &needles[cn[s]..cn[s + 1]]) {
                    failed.store(true, std::sync::atomic::Ordering::Relaxed);
                }
            });
            !failed.load(std::sync::atomic::Ordering::Relaxed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstl_executor::{build_pool, Discipline};

    fn policies() -> Vec<ExecutionPolicy> {
        vec![
            ExecutionPolicy::seq(),
            ExecutionPolicy::par_with(
                build_pool(Discipline::ForkJoin, 3),
                crate::ParConfig::with_grain(16),
            ),
            ExecutionPolicy::par_with(
                build_pool(Discipline::WorkStealing, 2),
                crate::ParConfig::with_grain(16),
            ),
        ]
    }

    /// Reference implementations via the same walk (trusted by the
    /// multiset-semantics tests below).
    fn reference(op: SetOp, a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        walk(op, a, b, |x| out.push(*x));
        out
    }

    #[test]
    fn multiset_semantics_on_small_cases() {
        // a = {1,1,2,3}, b = {1,2,2,4}
        let a = [1u32, 1, 2, 3];
        let b = [1u32, 2, 2, 4];
        assert_eq!(reference(SetOp::Union, &a, &b), vec![1, 1, 2, 2, 3, 4]);
        assert_eq!(reference(SetOp::Intersection, &a, &b), vec![1, 2]);
        assert_eq!(reference(SetOp::Difference, &a, &b), vec![1, 3]);
        assert_eq!(
            reference(SetOp::SymmetricDifference, &a, &b),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn parallel_matches_sequential_walk() {
        let a: Vec<u32> = (0..20_000).map(|i| i / 3).collect();
        let b: Vec<u32> = (0..15_000).map(|i| i / 2 + 100).collect();
        type SetFn = fn(&ExecutionPolicy, &[u32], &[u32], &mut [u32]) -> usize;
        let ops: [(SetOp, SetFn); 4] = [
            (SetOp::Union, set_union),
            (SetOp::Intersection, set_intersection),
            (SetOp::Difference, set_difference),
            (SetOp::SymmetricDifference, set_symmetric_difference),
        ];
        for policy in policies() {
            for (op, f) in ops {
                let expect = reference(op, &a, &b);
                let mut out = vec![0u32; a.len() + b.len()];
                let n = f(&policy, &a, &b, &mut out);
                assert_eq!(n, expect.len());
                assert_eq!(&out[..n], &expect[..]);
            }
        }
    }

    #[test]
    fn union_with_empty_sides() {
        let a: Vec<u32> = (0..1000).collect();
        for policy in policies() {
            let mut out = vec![0u32; 1000];
            assert_eq!(set_union(&policy, &a, &[], &mut out), 1000);
            assert_eq!(&out[..1000], &a[..]);
            assert_eq!(set_union(&policy, &[], &a, &mut out), 1000);
            assert_eq!(set_intersection(&policy, &a, &[], &mut out), 0);
        }
    }

    #[test]
    fn intersection_of_disjoint_is_empty() {
        let a: Vec<u32> = (0..5000).map(|i| i * 2).collect();
        let b: Vec<u32> = (0..5000).map(|i| i * 2 + 1).collect();
        for policy in policies() {
            let mut out = vec![0u32; 10_000];
            assert_eq!(set_intersection(&policy, &a, &b, &mut out), 0);
            assert_eq!(set_symmetric_difference(&policy, &a, &b, &mut out), 10_000);
        }
    }

    #[test]
    fn includes_subset_and_not() {
        let hay: Vec<u32> = (0..50_000).collect();
        let sub: Vec<u32> = (0..10_000).map(|i| i * 5).collect();
        let not_sub: Vec<u32> = vec![1, 2, 3, 100_000];
        for policy in policies() {
            assert!(includes(&policy, &hay, &sub));
            assert!(!includes(&policy, &hay, &not_sub));
            assert!(includes(&policy, &hay, &[]));
            assert!(!includes(&policy, &[], &[1u32]));
        }
    }

    #[test]
    fn includes_respects_multiplicity() {
        let hay = [1u32, 2, 2, 3];
        let twice = [2u32, 2];
        let thrice = [2u32, 2, 2];
        for policy in policies() {
            assert!(includes(&policy, &hay, &twice));
            assert!(!includes(&policy, &hay, &thrice), "needs 3 copies of 2");
        }
    }

    #[test]
    fn heavy_duplicates_stress_value_cuts() {
        // Long equal runs must not be split inconsistently.
        let a: Vec<u32> = std::iter::repeat_n(7, 10_000).chain(8..500).collect();
        let b: Vec<u32> = std::iter::repeat_n(7, 6_000)
            .chain(std::iter::repeat_n(9, 3000))
            .collect();
        for policy in policies() {
            let expect = reference(SetOp::Union, &a, &b);
            let mut out = vec![0u32; a.len() + b.len()];
            let n = set_union(&policy, &a, &b, &mut out);
            assert_eq!(&out[..n], &expect[..]);
        }
    }
}
