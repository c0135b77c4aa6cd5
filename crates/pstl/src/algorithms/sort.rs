//! Sorting — the paper's `sort` benchmark (§5.6).
//!
//! Three parallel sorts are provided, one per algorithm shape among the
//! backends the paper contrasts:
//!
//! * [`sort`] — **in-place parallel quicksort** (the TBB/NVC shape): a
//!   split phase partitions segments in parallel one level at a time,
//!   then one pool task sorts each segment. Its first level is a single
//!   serial partition of the whole input, the limit the paper names for
//!   TBB's and NVC's `std::sort(par)`. It allocates nothing proportional
//!   to `n`.
//! * [`stable_sort`] — **binary parallel mergesort**: sorted leaf chunks,
//!   then `log2` merge passes through an `n`-element buffer, whose big
//!   merges are split across threads with merge-path co-ranking. Every
//!   pass traverses the whole array, which is what limits its
//!   scalability on memory-bound machines.
//! * [`sort_multiway`] — **PSRS multiway mergesort** (the GNU/MCSTL
//!   shape): sorted chunks, regular sampling for splitters, bucket
//!   formation by binary search, and one k-way merge per bucket — a
//!   *single* merge traversal, which is exactly why the paper measures
//!   GNU's sort scaling far better than the others (speedups 25–67 vs
//!   6–11 in its Table 5).
//!
//! All three sort their leaves (and everything below the parallel
//! threshold) with the sequential kernels of [`crate::seq`]: the
//! branch-free pattern-defeating introsort for unstable sorts, the
//! bottom-up mergesort for stable ones. Like every backend in the paper,
//! the parallel speed-up is measured against that leaf.

use std::cmp::Ordering;
use std::ops::Range;

use crate::algorithms::scratch_clone;
use crate::chunk::chunk_range;
use crate::policy::{ExecutionPolicy, Plan};
use crate::ptr::SliceView;
use crate::seq;

/// Unstable parallel sort by `Ord` (in-place parallel quicksort with
/// introsort leaves).
/// # Examples
/// ```
/// use pstl::ExecutionPolicy;
/// use pstl_executor::{build_pool, Discipline};
///
/// let policy = ExecutionPolicy::par(build_pool(Discipline::WorkStealing, 2));
/// let mut v = vec![3, 1, 4, 1, 5, 9, 2, 6];
/// pstl::sort(&policy, &mut v);
/// assert_eq!(v, [1, 1, 2, 3, 4, 5, 6, 9]);
/// ```
pub fn sort<T>(policy: &ExecutionPolicy, data: &mut [T])
where
    T: Ord + Send + Sync,
{
    sort_by(policy, data, |a, b| a.cmp(b));
}

/// Unstable parallel sort by comparator.
pub fn sort_by<T, C>(policy: &ExecutionPolicy, data: &mut [T], cmp: C)
where
    T: Send + Sync,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    quicksort(policy, data, &cmp);
}

/// A range of the input the quicksort has still to sort, and its
/// ancestor: the index of the pivot whose right side the range is, if
/// any. That pivot is a lower bound of every element in the range. It
/// lies outside every later segment and is never written again, so
/// tasks can share it.
struct Segment {
    range: Range<usize>,
    ancestor: Option<usize>,
}

impl Segment {
    /// The segment's elements and its ancestor pivot.
    ///
    /// # Safety
    /// No other task may access `self.range` while the slice is live, and
    /// nothing may write the ancestor (both hold for the segments of one
    /// quicksort level).
    unsafe fn parts<'a, T>(&self, view: &SliceView<'a, T>) -> (&'a mut [T], Option<&'a T>) {
        let ancestor = self.ancestor.map(|p| &view.range(p..p + 1)[0]);
        (view.range_mut(self.range.clone()), ancestor)
    }
}

/// The in-place parallel quicksort behind [`sort_by`]. Returns the
/// number of split levels it ran.
///
/// *Split phase:* one level at a time, one pool task per segment
/// partitions every segment of at least `min_split` elements with
/// [`seq::partition`], the introsort's own pivot choice, branch-free
/// partition and ancestor-pivot rule. The first level is one serial
/// partition of the whole input. The phase ends once there are `tasks`
/// segments or none is long enough, and after at most
/// `2·log2(tasks) + 2` levels, so adversarial pivots cannot prolong it.
/// *Leaf phase:* one pool task sorts each segment with the introsort;
/// work stealing evens out segments of unequal size.
fn quicksort<T, C>(policy: &ExecutionPolicy, data: &mut [T], cmp: &C) -> usize
where
    T: Send + Sync,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    let n = data.len();
    if n < 2 {
        return 0;
    }
    let (exec, tasks, grain) = match policy.plan(n) {
        Plan::Sequential => {
            seq::introsort(data, cmp);
            return 0;
        }
        Plan::Parallel {
            exec, tasks, cfg, ..
        } => (exec, tasks, cfg.grain),
    };
    // `seq::partition` needs at least three elements.
    let min_split = (2 * grain).max(n / (4 * tasks)).max(3);
    let max_levels = 2 * tasks.ilog2() as usize + 2;
    let view = SliceView::new(data);
    let view = &view;
    let mut segments = vec![Segment {
        range: 0..n,
        ancestor: None,
    }];
    let mut levels = 0;
    while segments.len() < tasks && levels < max_levels {
        let (split, mut next): (Vec<_>, Vec<_>) = segments
            .into_iter()
            .partition(|s| s.range.len() >= min_split);
        if split.is_empty() {
            segments = next;
            break;
        }
        let mut cuts = vec![(0, false); split.len()];
        {
            let cuts = SliceView::new(&mut cuts);
            let (split, cuts) = (&split, &cuts);
            exec.run(split.len(), &|i| {
                // SAFETY: the segments of a level are pairwise disjoint
                // and hold no ancestor; task `i` alone writes `cuts[i]`.
                let (part, ancestor) = unsafe { split[i].parts(view) };
                unsafe { cuts.write(i, seq::partition(part, ancestor, cmp)) };
            });
        }
        for (seg, (mid, equal)) in split.into_iter().zip(cuts) {
            let pivot = seg.range.start + mid;
            // When `equal`, the left side holds copies of the pivot:
            // already in place.
            if !equal {
                next.push(Segment {
                    range: seg.range.start..pivot,
                    ancestor: seg.ancestor,
                });
            }
            next.push(Segment {
                range: pivot + 1..seg.range.end,
                ancestor: Some(pivot),
            });
        }
        next.retain(|s| s.range.len() > 1);
        segments = next;
        levels += 1;
    }
    let segments = &segments;
    exec.run(segments.len(), &|i| {
        // SAFETY: as in the split phase.
        let (part, ancestor) = unsafe { segments[i].parts(view) };
        seq::introsort_after(part, ancestor, cmp);
    });
    levels
}

/// Stable parallel sort by `Ord`.
pub fn stable_sort<T>(policy: &ExecutionPolicy, data: &mut [T])
where
    T: Ord + Clone + Send + Sync,
{
    stable_sort_by(policy, data, |a, b| a.cmp(b));
}

/// Stable parallel sort by comparator (stable leaves + stable merges).
pub fn stable_sort_by<T, C>(policy: &ExecutionPolicy, data: &mut [T], cmp: C)
where
    T: Clone + Send + Sync,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    mergesort_driver(policy, data, &cmp);
}

/// The binary parallel mergesort behind [`stable_sort_by`]: each chunk
/// is sorted in place by the stable sequential mergesort, `cmp` drives
/// the merge passes.
fn mergesort_driver<T, C>(policy: &ExecutionPolicy, data: &mut [T], cmp: &C)
where
    T: Clone + Send + Sync,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    let n = data.len();
    if n < 2 {
        return;
    }
    match policy.plan(n) {
        Plan::Sequential => seq::mergesort_stable(data, &mut Vec::new(), cmp),
        Plan::Parallel { exec, tasks, .. } => {
            let tasks = tasks.min(n).max(1);
            if tasks == 1 {
                // Still dispatch through the pool so small inputs pay the
                // backend's overhead, as in the paper's measurements.
                let view = SliceView::new(data);
                let view = &view;
                exec.run(1, &|_| {
                    // SAFETY: single task owns the whole range.
                    seq::mergesort_stable(unsafe { view.range_mut(0..n) }, &mut Vec::new(), cmp);
                });
                return;
            }
            let mut scratch: Vec<T> = scratch_clone(policy, data);
            let bounds: Vec<usize> = (0..=tasks).map(|i| n * i / tasks).collect();

            let data_view = SliceView::new(data);
            let scratch_view = SliceView::new(&mut scratch);

            // Phase A: sort leaf chunks in place.
            {
                let view = &data_view;
                let bounds = &bounds;
                exec.run(tasks, &|t| {
                    // SAFETY: leaf ranges are disjoint.
                    let chunk = unsafe { view.range_mut(bounds[t]..bounds[t + 1]) };
                    seq::mergesort_stable(chunk, &mut Vec::new(), cmp);
                });
            }

            // Phase B: pairwise merge passes, ping-ponging buffers.
            let mut bounds = bounds;
            let mut in_data = true;
            while bounds.len() > 2 {
                let (src, dst): (&SliceView<T>, &SliceView<T>) = if in_data {
                    (&data_view, &scratch_view)
                } else {
                    (&scratch_view, &data_view)
                };
                bounds = merge_pass(exec, tasks, n, &bounds, src, dst, cmp);
                in_data = !in_data;
            }
            if !in_data {
                // Result ended in scratch: copy back in parallel.
                let src = &scratch_view;
                let dst = &data_view;
                exec.run(tasks, &|t| {
                    let r = chunk_range(n, tasks, t);
                    // SAFETY: disjoint ranges; scratch is read-only here.
                    let s = unsafe { src.range(r.clone()) };
                    unsafe { dst.range_mut(r) }.clone_from_slice(s);
                });
            }
        }
    }
}

/// One segment of a merge pass: merge `a` and `b` (ranges in the source
/// buffer) into `out` (range in the destination buffer).
struct MergeSegment {
    a: std::ops::Range<usize>,
    b: std::ops::Range<usize>,
    out: std::ops::Range<usize>,
}

/// Merge adjacent run pairs from `src` into `dst`, splitting large merges
/// across ~`tasks` segments with co-ranking. Returns the new run bounds.
fn merge_pass<T, C>(
    exec: &std::sync::Arc<dyn pstl_executor::Executor>,
    tasks: usize,
    n: usize,
    bounds: &[usize],
    src: &SliceView<T>,
    dst: &SliceView<T>,
    cmp: &C,
) -> Vec<usize>
where
    T: Clone + Send + Sync,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    let runs = bounds.len() - 1;
    let pairs = runs / 2;
    let tail = runs % 2 == 1;

    // Build the segment list sequentially (cheap: O(tasks · log n)).
    let mut segments: Vec<MergeSegment> = Vec::with_capacity(tasks + pairs + 1);
    let mut new_bounds = Vec::with_capacity(pairs + 2);
    new_bounds.push(bounds[0]);
    for p in 0..pairs {
        let a_r = bounds[2 * p]..bounds[2 * p + 1];
        let b_r = bounds[2 * p + 1]..bounds[2 * p + 2];
        let out0 = a_r.start;
        let pair_len = a_r.len() + b_r.len();
        new_bounds.push(out0 + pair_len);
        // SAFETY: sequential read access; no concurrent writers.
        let a = unsafe { src.range(a_r.clone()) };
        let b = unsafe { src.range(b_r.clone()) };
        let splits = ((pair_len * tasks).div_ceil(n.max(1))).clamp(1, tasks);
        let mut prev = (0usize, 0usize);
        for s in 1..=splits {
            let k = pair_len * s / splits;
            let cut = if s == splits {
                (a.len(), b.len())
            } else {
                super::merge::co_rank(a, b, k, cmp)
            };
            segments.push(MergeSegment {
                a: a_r.start + prev.0..a_r.start + cut.0,
                b: b_r.start + prev.1..b_r.start + cut.1,
                out: out0 + prev.0 + prev.1..out0 + cut.0 + cut.1,
            });
            prev = cut;
        }
    }
    if tail {
        // Odd run: carry it into the destination buffer unchanged.
        let r = bounds[runs - 1]..bounds[runs];
        new_bounds.push(r.end);
        segments.push(MergeSegment {
            a: r.clone(),
            b: r.end..r.end,
            out: r,
        });
    }

    let segments = &segments;
    exec.run(segments.len(), &|s| {
        let seg = &segments[s];
        // SAFETY: the source buffer is only read during this pass; output
        // segments are pairwise disjoint by construction.
        let a = unsafe { src.range(seg.a.clone()) };
        let b = unsafe { src.range(seg.b.clone()) };
        let out = unsafe { dst.range_mut(seg.out.clone()) };
        seq::merge_into(a, b, out, cmp);
    });
    new_bounds
}

/// GNU-flavoured multiway mergesort (PSRS) by `Ord`.
pub fn sort_multiway<T>(policy: &ExecutionPolicy, data: &mut [T])
where
    T: Ord + Clone + Send + Sync,
{
    sort_multiway_by(policy, data, |a, b| a.cmp(b));
}

/// GNU-flavoured multiway mergesort (PSRS) by comparator.
///
/// Phases: sort `p` chunks in parallel; sample `p` regular elements per
/// chunk; sort the `p²` samples and take `p − 1` splitters; cut every
/// chunk at the splitters by binary search; then each of the `p` buckets
/// is k-way merged *once* into its final position. One merge traversal
/// instead of `log2(p)` — the structural reason GNU's sort scales best in
/// the paper. Not stable.
pub fn sort_multiway_by<T, C>(policy: &ExecutionPolicy, data: &mut [T], cmp: C)
where
    T: Clone + Send + Sync,
    C: Fn(&T, &T) -> Ordering + Sync,
{
    let n = data.len();
    if n < 2 {
        return;
    }
    let (exec, p) = match policy.plan(n) {
        Plan::Sequential => {
            seq::introsort(data, &cmp);
            return;
        }
        Plan::Parallel { exec, tasks, .. } => (exec, exec.num_threads().min(tasks).min(n).max(1)),
    };
    if p == 1 {
        seq::introsort(data, &cmp);
        return;
    }
    let bounds: Vec<usize> = (0..=p).map(|i| n * i / p).collect();
    let data_view = SliceView::new(data);
    let data_view = &data_view;

    // Phase 1: sort the p chunks.
    {
        let bounds = &bounds;
        exec.run(p, &|t| {
            // SAFETY: disjoint leaf ranges.
            let chunk = unsafe { data_view.range_mut(bounds[t]..bounds[t + 1]) };
            seq::introsort(chunk, &cmp);
        });
    }

    // Phase 2: regular sampling → splitters (sequential; p² elements).
    let mut samples: Vec<T> = Vec::with_capacity(p * p);
    for t in 0..p {
        // SAFETY: no concurrent writers after phase 1 completed.
        let chunk = unsafe { data_view.range(bounds[t]..bounds[t + 1]) };
        for s in 0..p {
            if !chunk.is_empty() {
                samples.push(chunk[chunk.len() * s / p].clone());
            }
        }
    }
    seq::introsort(&mut samples, &cmp);
    let splitters: Vec<T> = (1..p)
        .map(|k| samples[(samples.len() * k / p).min(samples.len() - 1)].clone())
        .collect();

    // Phase 3: bucket boundaries per chunk (sequential; p² searches).
    // cuts[t] has p+1 positions inside chunk t.
    let mut cuts: Vec<Vec<usize>> = Vec::with_capacity(p);
    for t in 0..p {
        // SAFETY: read-only.
        let chunk = unsafe { data_view.range(bounds[t]..bounds[t + 1]) };
        let mut c = Vec::with_capacity(p + 1);
        c.push(0);
        for s in &splitters {
            c.push(seq::lower_bound(chunk, s, &cmp));
        }
        c.push(chunk.len());
        // lower_bound results are monotone because splitters are sorted.
        cuts.push(c);
    }

    // Phase 4: output offsets per bucket.
    let mut offsets = Vec::with_capacity(p + 1);
    offsets.push(0usize);
    for k in 0..p {
        let size: usize = (0..p).map(|t| cuts[t][k + 1] - cuts[t][k]).sum();
        offsets.push(offsets[k] + size);
    }
    debug_assert_eq!(offsets[p], n);

    // Phase 5: k-way merge each bucket into scratch.
    let mut scratch: Vec<T> = data_view_clone_contents(policy, data_view, n);
    let scratch_view = SliceView::new(&mut scratch);
    {
        let scratch_view = &scratch_view;
        let cuts = &cuts;
        let offsets = &offsets;
        let bounds = &bounds;
        exec.run(p, &|k| {
            // Gather this bucket's sub-run from every chunk.
            // SAFETY: reads are confined to phase-1-final data; no writer
            // touches `data` during this pass.
            let runs: Vec<&[T]> = (0..p)
                .map(|t| unsafe {
                    data_view.range(bounds[t] + cuts[t][k]..bounds[t] + cuts[t][k + 1])
                })
                .collect();
            // SAFETY: bucket output windows are disjoint.
            let out = unsafe { scratch_view.range_mut(offsets[k]..offsets[k + 1]) };
            multiway_merge_into(&runs, out, &cmp);
        });
    }

    // Phase 6: copy back.
    {
        let scratch_view = &scratch_view;
        exec.run(p, &|t| {
            let r = chunk_range(n, p, t);
            // SAFETY: disjoint ranges; scratch read-only here.
            let s = unsafe { scratch_view.range(r.clone()) };
            unsafe { data_view.range_mut(r) }.clone_from_slice(s);
        });
    }
}

/// Clone the current contents of a view into a fresh Vec (the multiway
/// scratch buffer), placement-routed like [`scratch_clone`].
fn data_view_clone_contents<T: Clone + Send + Sync>(
    policy: &ExecutionPolicy,
    view: &SliceView<'_, T>,
    n: usize,
) -> Vec<T> {
    // SAFETY: no concurrent writers at the call sites.
    scratch_clone(policy, unsafe { view.range(0..n) })
}

/// k-way merge of sorted `runs` into `out` using a binary heap of run
/// heads; ties break toward lower run index.
fn multiway_merge_into<T: Clone, C>(runs: &[&[T]], out: &mut [T], cmp: &C)
where
    C: Fn(&T, &T) -> Ordering + ?Sized,
{
    debug_assert_eq!(out.len(), runs.iter().map(|r| r.len()).sum::<usize>());
    let mut heads = vec![0usize; runs.len()];
    // Heap of run indices keyed by their head element.
    let mut heap: Vec<usize> = (0..runs.len()).filter(|&r| !runs[r].is_empty()).collect();
    let less = |a: usize, b: usize, heads: &[usize]| -> bool {
        match cmp(&runs[a][heads[a]], &runs[b][heads[b]]) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a < b,
        }
    };
    // Build min-heap.
    let len = heap.len();
    for i in (0..len / 2).rev() {
        sift_down(&mut heap, i, &heads, &less);
    }
    for slot in out.iter_mut() {
        let r = heap[0];
        *slot = runs[r][heads[r]].clone();
        heads[r] += 1;
        if heads[r] == runs[r].len() {
            let last = heap.len() - 1;
            heap.swap(0, last);
            heap.pop();
            if heap.is_empty() {
                break;
            }
        }
        sift_down(&mut heap, 0, &heads, &less);
    }
}

fn sift_down<L>(heap: &mut [usize], mut i: usize, heads: &[usize], less: &L)
where
    L: Fn(usize, usize, &[usize]) -> bool,
{
    loop {
        let l = 2 * i + 1;
        if l >= heap.len() {
            return;
        }
        let mut child = l;
        let r = l + 1;
        if r < heap.len() && less(heap[r], heap[l], heads) {
            child = r;
        }
        if less(heap[child], heap[i], heads) {
            heap.swap(i, child);
            i = child;
        } else {
            return;
        }
    }
}

/// Rearrange so that `data[k]` is the k-th smallest element, smaller
/// elements before it and larger after (`std::nth_element`).
///
/// Selection is executed sequentially (quickselect); the policy parameter
/// keeps the API uniform.
pub fn nth_element<T>(_policy: &ExecutionPolicy, data: &mut [T], k: usize)
where
    T: Ord + Send,
{
    if data.is_empty() {
        return;
    }
    seq::quickselect(data, k, &|a: &T, b: &T| a.cmp(b));
}

/// Sort the smallest `mid` elements into `data[..mid]`
/// (`std::partial_sort`): quickselect to find the boundary, then a
/// parallel sort of the prefix.
pub fn partial_sort<T>(policy: &ExecutionPolicy, data: &mut [T], mid: usize)
where
    T: Ord + Send + Sync,
{
    assert!(mid <= data.len(), "partial_sort: mid out of range");
    if mid == 0 {
        return;
    }
    if mid < data.len() {
        seq::quickselect(data, mid - 1, &|a: &T, b: &T| a.cmp(b));
    }
    sort(policy, &mut data[..mid]);
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

    fn scrambled(n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 3)
            .collect()
    }

    #[test]
    fn sort_matches_std() {
        for policy in policies() {
            for n in [0usize, 1, 2, 3, 100, 1024, 10_001, 100_000] {
                let mut v = scrambled(n);
                let mut expect = v.clone();
                expect.sort_unstable();
                sort(&policy, &mut v);
                assert_eq!(v, expect, "n={n}");
            }
        }
    }

    #[test]
    fn sort_adversarial_patterns() {
        for policy in policies() {
            for v in [
                (0..10_000u64).collect::<Vec<_>>(),       // sorted
                (0..10_000u64).rev().collect::<Vec<_>>(), // reversed
                vec![42u64; 10_000],                      // constant
                (0..10_000u64).map(|i| i % 4).collect(),  // few distinct
            ] {
                let mut data = v.clone();
                let mut expect = v;
                expect.sort_unstable();
                sort(&policy, &mut data);
                assert_eq!(data, expect);
            }
        }
    }

    #[test]
    fn stable_sort_preserves_equal_order() {
        for policy in policies() {
            let mut v: Vec<(u32, usize)> = (0..30_000).map(|i| ((i % 16) as u32, i)).collect();
            stable_sort_by(&policy, &mut v, |a, b| a.0.cmp(&b.0));
            for w in v.windows(2) {
                assert!(w[0].0 <= w[1].0);
                if w[0].0 == w[1].0 {
                    assert!(w[0].1 < w[1].1, "stability violated");
                }
            }
        }
    }

    #[test]
    fn multiway_sort_matches_std() {
        for policy in policies() {
            for n in [0usize, 1, 5, 1000, 65_536, 100_001] {
                let mut v = scrambled(n);
                let mut expect = v.clone();
                expect.sort_unstable();
                sort_multiway(&policy, &mut v);
                assert_eq!(v, expect, "n={n}");
            }
        }
    }

    #[test]
    fn multiway_sort_skewed_input() {
        // Heavily skewed data stresses the splitter selection.
        for policy in policies() {
            let mut v: Vec<u64> = (0..50_000)
                .map(|i| if i % 100 == 0 { i as u64 } else { 7 })
                .collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            sort_multiway(&policy, &mut v);
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn sort_by_custom_comparator() {
        for policy in policies() {
            let mut v = scrambled(10_000);
            sort_by(&policy, &mut v, |a, b| b.cmp(a)); // descending
            assert!(v.windows(2).all(|w| w[0] >= w[1]));
        }
    }

    #[test]
    fn nth_element_places_kth() {
        let policy = ExecutionPolicy::seq();
        for n in [1usize, 100, 10_000] {
            for k in [0, n / 2, n - 1] {
                let mut v = scrambled(n);
                let mut expect = v.clone();
                expect.sort_unstable();
                nth_element(&policy, &mut v, k);
                assert_eq!(v[k], expect[k]);
            }
        }
    }

    #[test]
    fn partial_sort_prefix_sorted() {
        for policy in policies() {
            let mut v = scrambled(20_000);
            let mut expect = v.clone();
            expect.sort_unstable();
            partial_sort(&policy, &mut v, 500);
            assert_eq!(&v[..500], &expect[..500]);
        }
    }

    #[test]
    fn multiway_merge_helper() {
        let runs: Vec<&[u32]> = vec![&[1, 4, 7], &[2, 5, 8], &[0, 3, 6, 9], &[]];
        let mut out = vec![0u32; 10];
        multiway_merge_into(&runs, &mut out, &|a, b| a.cmp(b));
        assert_eq!(out, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn paper_workload_shuffled_permutation() {
        // The paper's sort kernel: a shuffled permutation of [1..n].
        for policy in policies() {
            let n = 50_000u64;
            let mut v: Vec<u64> = (1..=n).map(|i| (i * 48271) % (n + 1)).collect();
            sort(&policy, &mut v);
            assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}

/// The sequential introsort's properties, checked on the parallel
/// quicksort on every pool, with sizes and grains at which its split
/// phase runs at least three levels.
#[cfg(test)]
mod quicksort_tests {
    use super::*;
    use crate::policy::ParConfig;
    use crate::seq::tests::{assert_permutation, patterns, strings};
    use pstl_executor::{build_pool, Discipline};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};

    fn pools(grain: usize) -> Vec<(Discipline, ExecutionPolicy)> {
        Discipline::POOLS
            .into_iter()
            .map(|d| {
                let cfg = ParConfig::with_grain(grain);
                (d, ExecutionPolicy::par_with(build_pool(d, 2), cfg))
            })
            .collect()
    }

    #[test]
    fn quicksort_stays_within_comparison_budget() {
        let n = 1usize << 14;
        let log2n = n.trailing_zeros() as usize;
        for (d, policy) in pools(256) {
            for (name, mut v) in patterns(n) {
                let mut expect = v.clone();
                expect.sort_unstable();
                let calls = AtomicUsize::new(0);
                let levels = quicksort(&policy, &mut v, &|a: &u64, b: &u64| {
                    calls.fetch_add(1, AtomicOrdering::Relaxed);
                    a.cmp(b)
                });
                assert_eq!(v, expect, "{d:?} {name}");
                let calls = calls.into_inner();
                // Equal keys must cost linear time (the ancestor-pivot
                // rule); they leave nothing to split after two levels.
                let budget = if name == "all_equal" {
                    3 * n
                } else {
                    assert!(levels >= 3, "{d:?} {name}: {levels} split levels");
                    3 * n * log2n
                };
                assert!(
                    calls <= budget,
                    "{d:?} {name}: {calls} comparisons, budget {budget}"
                );
            }
        }
    }

    #[test]
    fn quicksort_leaves_a_permutation_when_the_comparator_panics() {
        let input = strings(2000);
        for (d, policy) in pools(32) {
            let total = AtomicUsize::new(0);
            let levels = quicksort(&policy, &mut input.clone(), &|a: &String, b: &String| {
                total.fetch_add(1, AtomicOrdering::Relaxed);
                a.cmp(b)
            });
            assert!(levels >= 3, "{d:?}: {levels} split levels");
            let total = total.into_inner();
            for k in (0..total).step_by(total / 64 + 1) {
                let mut v = input.clone();
                let calls = AtomicUsize::new(0);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    sort_by(&policy, &mut v, |a: &String, b: &String| {
                        let call = calls.fetch_add(1, AtomicOrdering::Relaxed);
                        assert!(call != k, "comparator panics at call {k}");
                        a.cmp(b)
                    })
                }));
                assert!(
                    result.is_err(),
                    "{d:?} k={k}: the comparator never panicked"
                );
                assert_permutation(&v, &input, &format!("{d:?} panic at call {k}"));
                // The same pool then sorts cleanly.
                sort(&policy, &mut v);
                let mut expect = input.clone();
                expect.sort_unstable();
                assert_eq!(v, expect, "{d:?} k={k}: re-sort after the panic");
            }
        }
    }

    #[test]
    fn quicksort_with_an_inconsistent_comparator_terminates_with_a_permutation() {
        let n = 3000;
        let input = strings(n);
        for (d, policy) in pools(32) {
            for seed in 1..=16u64 {
                // A counter-based hash: a fresh, arbitrary ordering on
                // every call, from whichever thread makes it.
                let state = AtomicU64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let random = |_: &String, _: &String| {
                    let x = state.fetch_add(0x9E37_79B9_7F4A_7C15, AtomicOrdering::Relaxed);
                    let x = (x ^ (x >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    [Ordering::Less, Ordering::Equal, Ordering::Greater][((x >> 32) % 3) as usize]
                };
                let mut v = input.clone();
                let levels = quicksort(&policy, &mut v, &random);
                assert!(levels >= 3, "{d:?} seed={seed}: {levels} split levels");
                assert_permutation(&v, &input, &format!("{d:?} seed={seed}"));
            }
        }
    }

    /// Orders like its key; deliberately not `Clone`.
    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct NoClone(u64);

    #[test]
    fn unstable_sorts_need_no_clone() {
        let n = 20_000;
        let keys = |v: &[NoClone]| v.iter().map(|x| x.0).collect::<Vec<_>>();
        let scrambled = || {
            (0..n)
                .map(|i| NoClone(i * 48271 % 9973))
                .collect::<Vec<_>>()
        };
        let mut expect = keys(&scrambled());
        expect.sort_unstable();
        for (d, policy) in pools(256) {
            let mut v = scrambled();
            assert!(quicksort(&policy, &mut v, &|a: &NoClone, b: &NoClone| a.cmp(b)) >= 3);
            assert_eq!(keys(&v), expect, "{d:?} sort");
            let mut v = scrambled();
            sort_by_key(&policy, &mut v, |x| std::cmp::Reverse(x.0));
            assert!(keys(&v).iter().rev().eq(expect.iter()), "{d:?} sort_by_key");
            let mut v = scrambled();
            partial_sort(&policy, &mut v, 100);
            assert_eq!(keys(&v[..100]), expect[..100], "{d:?} partial_sort");
        }
    }

    /// Small enough for miri: several split levels on two threads, so
    /// the disjoint-segment accesses and the shared ancestor are checked.
    #[test]
    fn miri_sized_sort_splits_several_levels() {
        let n = 1500u64;
        let policy = ExecutionPolicy::par_with(
            build_pool(Discipline::WorkStealing, 2),
            ParConfig::with_grain(64),
        );
        let mut v: Vec<u64> = (0..n).map(|i| i * 48271 % 1499).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        let levels = quicksort(&policy, &mut v, &|a: &u64, b: &u64| a.cmp(b));
        assert!(levels >= 3, "{levels} split levels");
        assert_eq!(v, expect);
    }
}

/// Unstable parallel sort by a key-extraction function
/// (`sort_by_key`-style convenience over [`sort_by`]).
pub fn sort_by_key<T, K, F>(policy: &ExecutionPolicy, data: &mut [T], key: F)
where
    T: Send + Sync,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    sort_by(policy, data, |a, b| key(a).cmp(&key(b)));
}

/// Stable parallel sort by a key-extraction function.
pub fn stable_sort_by_key<T, K, F>(policy: &ExecutionPolicy, data: &mut [T], key: F)
where
    T: Clone + Send + Sync,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    stable_sort_by(policy, data, |a, b| key(a).cmp(&key(b)));
}

#[cfg(test)]
mod key_tests {
    use super::*;
    use pstl_executor::{build_pool, Discipline};

    #[test]
    fn sort_by_key_orders_by_extracted_key() {
        let policy = ExecutionPolicy::par(build_pool(Discipline::WorkStealing, 2));
        let mut v: Vec<(i64, &str)> = vec![(3, "c"), (-1, "a"), (2, "b"), (-5, "z")];
        sort_by_key(&policy, &mut v, |&(k, _)| k.abs());
        let keys: Vec<i64> = v.iter().map(|&(k, _)| k.abs()).collect();
        assert_eq!(keys, vec![1, 2, 3, 5]);
    }

    #[test]
    fn stable_sort_by_key_keeps_order_on_ties() {
        let policy = ExecutionPolicy::par(build_pool(Discipline::ForkJoin, 3));
        let mut v: Vec<(u32, usize)> = (0..5000).map(|i| ((i % 7) as u32, i)).collect();
        stable_sort_by_key(&policy, &mut v, |&(k, _)| k);
        for w in v.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1);
            }
        }
    }
}

/// Copy the smallest `out.len()` elements of `src` into `out`, sorted
/// (`std::partial_sort_copy`; if `out` is at least as long as `src` this
/// is a sorted copy). Returns the number of elements written.
pub fn partial_sort_copy<T>(policy: &ExecutionPolicy, src: &[T], out: &mut [T]) -> usize
where
    T: Ord + Clone + Send + Sync,
{
    let k = out.len().min(src.len());
    if k == 0 {
        return 0;
    }
    if out.len() >= src.len() {
        crate::algorithms::copy_fill::copy(policy, src, &mut out[..src.len()]);
        sort(policy, &mut out[..src.len()]);
        return src.len();
    }
    // Select the k smallest in a scratch copy, then sort them into out.
    let mut scratch = scratch_clone(policy, src);
    seq::quickselect(&mut scratch, k - 1, &|a: &T, b: &T| a.cmp(b));
    out[..k].clone_from_slice(&scratch[..k]);
    sort(policy, &mut out[..k]);
    k
}

#[cfg(test)]
mod partial_sort_copy_tests {
    use super::*;
    use pstl_executor::{build_pool, Discipline};

    #[test]
    fn copies_k_smallest_sorted() {
        let policy = ExecutionPolicy::par(build_pool(Discipline::WorkStealing, 2));
        let src: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(48271) % 9973)
            .collect();
        let mut expect = src.clone();
        expect.sort_unstable();
        let mut out = vec![0u64; 100];
        let n = partial_sort_copy(&policy, &src, &mut out);
        assert_eq!(n, 100);
        assert_eq!(&out[..], &expect[..100]);
    }

    #[test]
    fn output_longer_than_input_is_full_sorted_copy() {
        let policy = ExecutionPolicy::seq();
        let src = [5u64, 1, 4, 2];
        let mut out = [0u64; 6];
        let n = partial_sort_copy(&policy, &src, &mut out);
        assert_eq!(n, 4);
        assert_eq!(&out[..4], &[1, 2, 4, 5]);
    }

    #[test]
    fn empty_cases() {
        let policy = ExecutionPolicy::seq();
        let mut out: [u64; 0] = [];
        assert_eq!(partial_sort_copy(&policy, &[1u64, 2], &mut out), 0);
        let mut out2 = [9u64; 3];
        assert_eq!(partial_sort_copy(&policy, &[] as &[u64], &mut out2), 0);
    }
}
