//! The algorithm families, one module each.
//!
//! Every algorithm follows the same template: plan the invocation with
//! [`ExecutionPolicy::plan`], run a plain sequential implementation for
//! [`Plan::Sequential`], and otherwise decompose the index space through
//! the policy's pool. How the decomposition happens is the policy's
//! [`Partitioner`]: balanced plan-time chunks (see [`crate::chunk`]) for
//! `Static`, or the run-time engines in [`crate::splitter`] for `Guided`
//! and `Adaptive`. Shared decomposition helpers live here.

pub mod adjacent;
pub mod copy_fill;
pub mod find_search;
pub mod for_each;
pub mod heap;
pub mod merge;
pub mod minmax;
pub mod partition;
pub mod predicates;
pub mod reduce;
pub mod reorder;
pub mod scan;
pub mod set_ops;
pub mod sort;
pub mod transform;
pub mod unique_remove;

use std::ops::Range;
use std::sync::Mutex;

use pstl_alloc::Placement;

use crate::chunk::chunk_range;
use crate::guard::{CancelCtx, CancelReport, GuardedSlots};
use crate::policy::{ExecutionPolicy, Partitioner, Plan};
use crate::splitter;

/// Map every claimed sub-range of `0..n` through `map`, collecting
/// `(range, result)` pairs **sorted by range start**. The ranges are
/// disjoint, contiguous, and tile `0..n` exactly, whatever the policy's
/// partitioner; sequential plans produce a single pair covering the whole
/// range.
///
/// This is the workhorse of the reduction-shaped algorithms (`reduce`,
/// `count`, `min_element`, scan phase 1) and the geometry record that
/// multi-phase algorithms replay through [`run_over_ranges`]: dynamic
/// partitioners decide chunk boundaries at run time, so later phases must
/// work from the recorded ranges rather than re-deriving them.
pub(crate) fn map_ranges<R, F>(
    policy: &ExecutionPolicy,
    n: usize,
    map: &F,
) -> Vec<(Range<usize>, R)>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    match policy.plan(n) {
        Plan::Sequential => vec![(0..n, map(0..n))],
        Plan::Parallel {
            exec,
            tasks,
            cfg,
            cancel,
        } => {
            let cancel = CancelCtx::new(cancel);
            let _report = CancelReport::new(exec, &cancel);
            match cfg.partitioner {
                Partitioner::Static => {
                    let slots: GuardedSlots<(Range<usize>, R)> = GuardedSlots::new(tasks);
                    let slots_ref = &slots;
                    let cancel = &cancel;
                    exec.run(tasks, &|i| {
                        cancel.check();
                        let r = chunk_range(n, tasks, i);
                        let value = (r.clone(), map(r));
                        // SAFETY: each task index writes exactly its own
                        // slot. If a task panics (or a cancellation
                        // bails), `run` propagates before `into_values`
                        // and the guard drops exactly the written slots.
                        unsafe { slots_ref.write(i, value) };
                    });
                    slots.into_values()
                }
                _ => {
                    let out: Mutex<Vec<(Range<usize>, R)>> = Mutex::new(Vec::new());
                    splitter::run_partitioned(exec, n, &cfg, &cancel, &|r| {
                        let value = (r.clone(), map(r));
                        out.lock().unwrap().push(value);
                    });
                    let mut parts = out.into_inner().unwrap();
                    parts.sort_by_key(|(r, _)| r.start);
                    parts
                }
            }
        }
    }
}

/// [`map_ranges`] without the geometry: per-chunk results in range order.
pub(crate) fn map_chunks<R, F>(policy: &ExecutionPolicy, n: usize, map: &F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    map_ranges(policy, n, map)
        .into_iter()
        .map(|(_, v)| v)
        .collect()
}

/// Run `body(range)` over disjoint sub-ranges tiling `0..n` purely for
/// effects (the map-shaped algorithms: `for_each`, `transform`, `fill`,
/// `copy`…). Chunk boundaries depend on the policy's partitioner.
pub(crate) fn run_chunks<F>(policy: &ExecutionPolicy, n: usize, body: &F)
where
    F: Fn(Range<usize>) + Sync,
{
    match policy.plan(n) {
        Plan::Sequential => body(0..n),
        Plan::Parallel {
            exec,
            tasks,
            cfg,
            cancel,
        } => {
            let cancel = CancelCtx::new(cancel);
            let _report = CancelReport::new(exec, &cancel);
            match cfg.partitioner {
                Partitioner::Static => {
                    let cancel = &cancel;
                    exec.run(tasks, &|i| {
                        cancel.check();
                        body(chunk_range(n, tasks, i));
                    });
                }
                _ => splitter::run_partitioned(exec, n, &cfg, &cancel, body),
            }
        }
    }
}

/// Run `body(i, ranges[i])` for every range recorded by a preceding
/// [`map_ranges`] call with the same policy. Whole ranges are grouped
/// statically onto pool tasks, so the index/range pairing of the
/// recording phase is preserved exactly — this is what lets multi-phase
/// algorithms (scatter phases, scan phase 3) line up per-chunk metadata
/// between phases even under run-time partitioning.
pub(crate) fn run_over_ranges<F>(policy: &ExecutionPolicy, ranges: &[Range<usize>], body: &F)
where
    F: Fn(usize, Range<usize>) + Sync,
{
    let m = ranges.len();
    if m == 0 {
        return;
    }
    if m == 1 {
        body(0, ranges[0].clone());
        return;
    }
    match policy {
        ExecutionPolicy::Seq => {
            for (i, r) in ranges.iter().enumerate() {
                body(i, r.clone());
            }
        }
        ExecutionPolicy::Par { exec, cfg, cancel } => {
            let cancel = CancelCtx::new(cancel.as_ref());
            let _report = CancelReport::new(exec, &cancel);
            let cancel = &cancel;
            let cap = exec.num_threads() * cfg.max_tasks_per_thread.max(1);
            let groups = m.min(cap.max(1));
            exec.run(groups, &|g| {
                cancel.check();
                for i in chunk_range(m, groups, g) {
                    body(i, ranges[i].clone());
                }
            });
        }
    }
}

/// Clone `src` into a scratch buffer, routing the allocation through
/// `pstl-alloc` parallel first touch when the policy's
/// [`Placement`] asks for it.
///
/// This is the single allocation entry point for the algorithms'
/// whole-input scratch/output buffers (`stable_sort` merge scratch, `partition`
/// copies, `inplace_merge`, `unique`…). Under [`Placement::Default`] it is
/// a plain `to_vec()` — every page first-touched by the calling thread,
/// the paper's "default allocator" baseline. Under
/// [`Placement::FirstTouch`] pages are touched and initialized with the
/// policy's own pool, so on a NUMA machine they land on the nodes of the
/// threads that will process them (paper §3.3).
pub(crate) fn scratch_clone<T>(policy: &ExecutionPolicy, src: &[T]) -> Vec<T>
where
    T: Clone + Send + Sync,
{
    match policy {
        ExecutionPolicy::Par { exec, cfg, .. } if cfg.placement == Placement::FirstTouch => {
            pstl_alloc::alloc_init(exec, src.len(), |i| src[i].clone())
        }
        _ => src.to_vec(),
    }
}

/// A length-`n` buffer filled with clones of `value`, placement-routed
/// like [`scratch_clone`]. Used for the per-chunk offset/count control
/// buffers of the scatter-shaped algorithms (`copy_if`, `partition`,
/// `set_*`, scans); their contents are then computed in place.
pub(crate) fn scratch_filled<T>(policy: &ExecutionPolicy, n: usize, value: T) -> Vec<T>
where
    T: Clone + Send + Sync,
{
    match policy {
        ExecutionPolicy::Par { exec, cfg, .. } if cfg.placement == Placement::FirstTouch => {
            pstl_alloc::alloc_init(exec, n, |_| value.clone())
        }
        _ => vec![value; n],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ParConfig;
    use pstl_executor::{build_pool, Discipline};

    fn policies() -> Vec<ExecutionPolicy> {
        let mut out = vec![
            ExecutionPolicy::seq(),
            ExecutionPolicy::par(build_pool(Discipline::ForkJoin, 3)),
            ExecutionPolicy::par(build_pool(Discipline::WorkStealing, 2)),
            ExecutionPolicy::par(build_pool(Discipline::TaskPool, 2)),
        ];
        for mode in [Partitioner::Guided, Partitioner::Adaptive] {
            out.push(ExecutionPolicy::par_with(
                build_pool(Discipline::WorkStealing, 2),
                ParConfig::with_grain(64).partitioner(mode),
            ));
        }
        out
    }

    #[test]
    fn map_chunks_covers_range_in_order() {
        for policy in policies() {
            let ranges = map_chunks(&policy, 10_000, &|r| r);
            let mut end = 0;
            for r in &ranges {
                assert_eq!(r.start, end, "{policy:?}");
                end = r.end;
            }
            assert_eq!(end, 10_000);
        }
    }

    #[test]
    fn map_ranges_records_true_geometry() {
        for policy in policies() {
            let parts = map_ranges(&policy, 10_000, &|r| r.len());
            let mut end = 0;
            for (r, len) in &parts {
                assert_eq!(r.start, end, "{policy:?}");
                assert_eq!(r.len(), *len);
                end = r.end;
            }
            assert_eq!(end, 10_000);
        }
    }

    #[test]
    fn map_chunks_empty_input() {
        for policy in policies() {
            let parts = map_chunks(&policy, 0, &|r| r.len());
            assert_eq!(parts.iter().sum::<usize>(), 0);
        }
    }

    #[test]
    fn run_chunks_visits_everything_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for policy in policies() {
            let n = 4097;
            let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            run_chunks(&policy, n, &|r| {
                for i in r {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn run_over_ranges_replays_recorded_geometry() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for policy in policies() {
            let parts = map_ranges(&policy, 8192, &|r| r.len());
            let ranges: Vec<_> = parts.iter().map(|(r, _)| r.clone()).collect();
            let hits: Vec<AtomicUsize> = (0..ranges.len()).map(|_| AtomicUsize::new(0)).collect();
            run_over_ranges(&policy, &ranges, &|i, r| {
                assert_eq!(r, ranges[i], "{policy:?}");
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }
}
