//! Run-time partitioning engines: guided self-scheduling and lazy
//! binary splitting (the [`Partitioner::Guided`] / [`Partitioner::Adaptive`]
//! execution paths).
//!
//! Both engines dispatch a *small, fixed* number of pool tasks — at most
//! one per pool thread — through [`Executor::run_dynamic`] and let those
//! tasks self-schedule the element range cooperatively, instead of carving
//! the range into `tasks_for(n)` chunks at plan time the way
//! [`Partitioner::Static`] does. This mirrors what the paper's dynamic
//! backends do at run time: OpenMP `schedule(guided)` shrinks chunks from
//! a shared counter, and TBB's `auto_partitioner` splits a running range
//! in half only when another worker goes hungry.
//!
//! Deadlock-freedom note: an engine participant that runs out of local
//! work spins (yielding) inside its pool task until the whole range is
//! processed. That is safe because the seed count never exceeds the pool
//! thread count, so every seed task is picked up by a distinct
//! participant even while others spin.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pstl_executor::Executor;

use crate::chunk::chunk_range;
use crate::guard::CancelCtx;
use crate::policy::{ParConfig, Partitioner};

/// Dispatch `body` over every claimed sub-range of `0..n` using the
/// run-time partitioner selected in `cfg`. Every index in `0..n` is
/// covered by exactly one `body` call; ranges are disjoint but arrive in
/// no particular order and on no particular thread. `cancel` is polled
/// at every claim point; once tripped, every participant unwinds with a
/// `Cancelled` payload (tokenless contexts make the poll a single
/// branch).
///
/// `Static` is normally handled by the caller at plan-chunk granularity;
/// routing it here degrades to guided, the closest dynamic equivalent.
pub(crate) fn run_partitioned(
    exec: &Arc<dyn Executor>,
    n: usize,
    cfg: &ParConfig,
    cancel: &CancelCtx,
    body: &(dyn Fn(Range<usize>) + Sync),
) {
    if n == 0 {
        return;
    }
    let grain = cfg.grain.max(1);
    match cfg.partitioner {
        Partitioner::Guided | Partitioner::Static => run_guided(exec, n, grain, cancel, body),
        Partitioner::Adaptive => run_adaptive(exec, n, grain, cancel, body),
    }
}

/// Seed-task count: one per pool thread, fewer when the range is small
/// enough that a thread's share would drop below the grain. Shared with
/// the early-exit search engine, which replicates both dispatch shapes.
pub(crate) fn participants(exec: &Arc<dyn Executor>, n: usize, grain: usize) -> usize {
    n.div_ceil(grain).min(exec.num_threads()).max(1)
}

/// Guided self-scheduling (OpenMP `schedule(guided)`): participants claim
/// geometrically shrinking chunks off a shared cursor. Early chunks are
/// large (cheap: one `fetch_add` per chunk), the tail degenerates to
/// grain-sized chunks — the load-balancing reserve guided scheduling is
/// known for.
pub(crate) fn run_guided(
    exec: &Arc<dyn Executor>,
    n: usize,
    grain: usize,
    cancel: &CancelCtx,
    body: &(dyn Fn(Range<usize>) + Sync),
) {
    let initial = participants(exec, n, grain);
    let cursor = AtomicUsize::new(0);
    let cursor = &cursor;
    let shrink = 2 * exec.num_threads().max(1);
    exec.run_dynamic(initial, &|_| loop {
        // Claim point: one cancellation poll per claimed chunk.
        cancel.check();
        let seen = cursor.load(Ordering::Relaxed);
        if seen >= n {
            return;
        }
        // The size estimate may be computed from a stale cursor; the
        // claim itself is the serializing `fetch_add`, so coverage stays
        // exact and disjoint regardless.
        let size = ((n - seen) / shrink).max(grain);
        let start = cursor.fetch_add(size, Ordering::Relaxed);
        if start >= n {
            return;
        }
        let claimed = start..(start + size).min(n);
        exec.record_claim(claimed.len() as u64);
        body(claimed);
    });
}

/// State shared by the participants of one adaptive region.
struct AdaptiveShared<'a> {
    /// Ranges split off by running participants, awaiting a taker.
    queue: Mutex<Vec<Range<usize>>>,
    /// Elements not yet processed by a `body` call; `0` ends the region.
    remaining: AtomicUsize,
    /// Participants currently searching for work — the demand signal that
    /// makes running participants split.
    hungry: AtomicUsize,
    /// Set when a `body` call panicked. Releases searching participants:
    /// the panicking participant abandons its range, so `remaining` never
    /// reaches zero on this path.
    poisoned: AtomicBool,
    grain: usize,
    cancel: &'a CancelCtx,
    body: &'a (dyn Fn(Range<usize>) + Sync),
}

impl AdaptiveShared<'_> {
    /// Should a running participant hand off half of its range?
    fn pressure(&self, exec: &dyn Executor, pool_hint: bool) -> bool {
        self.hungry.load(Ordering::Relaxed) > 0 || (pool_hint && exec.idle_workers() > 0)
    }

    /// Pop split-off work, spinning (marked hungry) while other
    /// participants still hold unprocessed elements.
    fn find_work(&self) -> Option<Range<usize>> {
        if let Some(r) = self.queue.lock().unwrap().pop() {
            return Some(r);
        }
        self.hungry.fetch_add(1, Ordering::SeqCst);
        let got = loop {
            if let Some(r) = self.queue.lock().unwrap().pop() {
                break Some(r);
            }
            if self.remaining.load(Ordering::Acquire) == 0 || self.poisoned.load(Ordering::Acquire)
            {
                break None;
            }
            // A cancelled region may never drive `remaining` to zero
            // (every participant abandons its range), so spinners must
            // poll the token too or they would spin forever.
            if self.cancel.is_tripped() {
                break None;
            }
            std::thread::yield_now();
        };
        self.hungry.fetch_sub(1, Ordering::SeqCst);
        got
    }

    /// One participant: process `range` run-to-completion in grain-sized
    /// strides, lazily splitting off the back half whenever demand shows
    /// up between strides, then scavenge the split queue until the whole
    /// region is done.
    fn run_participant(&self, exec: &dyn Executor, mut range: Range<usize>, pool_hint: bool) {
        loop {
            while !range.is_empty() {
                // Claim point: one poll per stride/split decision.
                self.cancel.check();
                if range.len() > self.grain && self.pressure(exec, pool_hint) {
                    let mid = range.start + range.len() / 2;
                    let back = mid..range.end;
                    exec.record_split(back.len() as u64);
                    self.queue.lock().unwrap().push(back);
                    range.end = mid;
                    continue;
                }
                let stride_end = (range.start + self.grain).min(range.end);
                let block = range.start..stride_end;
                let len = block.len();
                let result = catch_unwind(AssertUnwindSafe(|| (self.body)(block)));
                self.remaining.fetch_sub(len, Ordering::AcqRel);
                if let Err(payload) = result {
                    self.poisoned.store(true, Ordering::Release);
                    resume_unwind(payload);
                }
                range.start = stride_end;
            }
            match self.find_work() {
                Some(r) => {
                    exec.record_claim(r.len() as u64);
                    range = r;
                }
                None => return,
            }
        }
    }
}

/// TBB-`auto_partitioner`-style lazy binary splitting: seed one
/// contiguous range per participant and split a running range in half
/// only while (a) it is still above the grain and (b) some participant
/// is hungry. On uniform input no participant ever goes hungry, so the
/// region dispatches exactly `participants` pool tasks and zero splits.
pub(crate) fn run_adaptive(
    exec: &Arc<dyn Executor>,
    n: usize,
    grain: usize,
    cancel: &CancelCtx,
    body: &(dyn Fn(Range<usize>) + Sync),
) {
    let initial = participants(exec, n, grain);
    let shared = AdaptiveShared {
        queue: Mutex::new(Vec::new()),
        remaining: AtomicUsize::new(n),
        hungry: AtomicUsize::new(0),
        poisoned: AtomicBool::new(false),
        grain,
        cancel,
        body,
    };
    let shared = &shared;
    // The pool-idle hint is only meaningful when every pool worker got a
    // seed task: a parked worker that never joins the region would
    // otherwise read as permanent demand and force useless splits.
    let pool_hint = initial == exec.num_threads();
    let exec_dyn: &dyn Executor = &**exec;
    exec.run_dynamic(initial, &|i| {
        shared.run_participant(exec_dyn, chunk_range(n, initial, i), pool_hint);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ParConfig;
    use pstl_executor::{build_pool, Discipline};
    use std::sync::atomic::AtomicUsize;

    fn pools() -> Vec<Arc<dyn Executor>> {
        vec![
            build_pool(Discipline::ForkJoin, 3),
            build_pool(Discipline::WorkStealing, 2),
            build_pool(Discipline::TaskPool, 2),
            build_pool(Discipline::WorkStealing, 1),
        ]
    }

    fn assert_exact_cover(pool: &Arc<dyn Executor>, cfg: &ParConfig, n: usize) {
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        run_partitioned(pool, n, cfg, &CancelCtx::new(None), &|r| {
            for i in r {
                counts[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "index {i} covered wrong number of times ({} mode, n={n})",
                cfg.partitioner.name()
            );
        }
    }

    #[test]
    fn guided_covers_exactly_once() {
        for pool in pools() {
            for n in [1usize, 7, 100, 4097, 20_000] {
                for grain in [1usize, 16, 1024] {
                    let cfg = ParConfig::with_grain(grain).partitioner(Partitioner::Guided);
                    assert_exact_cover(&pool, &cfg, n);
                }
            }
        }
    }

    #[test]
    fn adaptive_covers_exactly_once() {
        for pool in pools() {
            for n in [1usize, 7, 100, 4097, 20_000] {
                for grain in [1usize, 16, 1024] {
                    let cfg = ParConfig::with_grain(grain).partitioner(Partitioner::Adaptive);
                    assert_exact_cover(&pool, &cfg, n);
                }
            }
        }
    }

    #[test]
    fn empty_range_is_a_no_op() {
        for pool in pools() {
            for mode in [Partitioner::Guided, Partitioner::Adaptive] {
                let cfg = ParConfig::with_grain(8).partitioner(mode);
                run_partitioned(&pool, 0, &cfg, &CancelCtx::new(None), &|_| {
                    panic!("body must not run")
                });
            }
        }
    }

    #[test]
    fn adaptive_panic_propagates() {
        let pool = build_pool(Discipline::WorkStealing, 2);
        let cfg = ParConfig::with_grain(4).partitioner(Partitioner::Adaptive);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_partitioned(&pool, 1000, &cfg, &CancelCtx::new(None), &|r| {
                if r.contains(&500) {
                    panic!("boom in body");
                }
            });
        }));
        assert!(result.is_err(), "body panic must reach the caller");
        // The pool survives for the next region.
        let cfg = ParConfig::with_grain(4).partitioner(Partitioner::Adaptive);
        assert_exact_cover(&pool, &cfg, 1000);
    }

    #[test]
    fn guided_panic_propagates() {
        let pool = build_pool(Discipline::ForkJoin, 2);
        let cfg = ParConfig::with_grain(4).partitioner(Partitioner::Guided);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_partitioned(&pool, 1000, &cfg, &CancelCtx::new(None), &|r| {
                if r.contains(&500) {
                    panic!("boom in body");
                }
            });
        }));
        assert!(result.is_err(), "body panic must reach the caller");
        assert_exact_cover(&pool, &cfg, 1000);
    }

    #[test]
    fn adaptive_splits_under_skew() {
        // Two participants, one gets a heavy front half: the light one
        // goes hungry while the heavy one still holds work, which must
        // force at least one lazy split (observable in the counters).
        let pool = build_pool(Discipline::WorkStealing, 2);
        let before = pool.metrics().expect("ws pool reports metrics");
        let cfg = ParConfig::with_grain(8).partitioner(Partitioner::Adaptive);
        let n = 512;
        run_partitioned(&pool, n, &cfg, &CancelCtx::new(None), &|r| {
            for i in r {
                if i < n / 2 {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            }
        });
        let after = pool.metrics().unwrap();
        assert!(
            after.splits > before.splits,
            "skewed adaptive region recorded no splits"
        );
    }
}
