//! Cooperative early-exit engine for the search family (`find`,
//! `any_of`, `mismatch`, …) — the paper's §5.3 linear-search benchmark,
//! where backends diverge most because the winner is whoever *stops
//! earliest*.
//!
//! Every parallel search shares one [`EarlyExit`] state: a lowest-match
//! index folded with `fetch_min`, plus a latched broadcast
//! ([`pstl_executor::CancelToken`]) that tells every participant a match
//! exists. All three partitioner paths poll the state:
//!
//! * **Static** — every plan-time chunk is still dispatched, but a chunk
//!   positioned at or past the published match returns immediately
//!   (counted in `wasted_chunks`), and a running chunk aborts at the
//!   next [`POLL_BLOCK`] boundary.
//! * **Guided** — the claim loop stops claiming once the shared cursor
//!   has passed the published match: nothing left to claim can lower it.
//! * **Adaptive** — participants abandon a seed/split range that starts
//!   at or past the match at the next stride/split decision, and the
//!   lazy splitter keeps distributing the range *before* the match.
//!
//! **Determinism rule (lowest index wins):** a participant may only skip
//! work positioned *at or after* the published best index, so every
//! index smaller than the final best is scanned by exactly one
//! participant and the result equals the sequential one — first match
//! by *position*, never by time, exactly like C++ `std::find` under
//! `par`.
//!
//! The engine reports `early_exits` (1 per region that skipped work) and
//! `wasted_chunks` (dispatched chunks/claims skipped or aborted past the
//! match) through [`Executor::record_search`] via a drop guard, so the
//! counters flow even when the region unwinds from a cooperative
//! cancellation.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pstl_executor::{CancelToken, Executor};

use crate::chunk::chunk_range;
use crate::guard::{CancelCtx, CancelReport};
use crate::kernel::compare::find_first_in;
use crate::policy::{ExecutionPolicy, Partitioner, Plan};
use crate::splitter::participants;

/// Elements scanned between early-exit/cancellation polls. Small enough
/// that an already-published match aborts in-flight chunks promptly,
/// large enough that the two atomic loads per poll are noise.
pub const POLL_BLOCK: usize = 1024;

/// Shared state of one early-exit search region.
///
/// Opaque outside the crate; its semantics (min-CAS publication, latched
/// broadcast, skip-only-past-the-match) are documented on the module.
pub struct EarlyExit {
    /// Lowest published matching index; `usize::MAX` while none.
    best: AtomicUsize,
    /// Latched "some match exists" broadcast. A `CancelToken` rather
    /// than a bare flag so deadline-style composition stays possible.
    done: CancelToken,
    /// Dispatched chunks/claims skipped or aborted past the match.
    wasted: AtomicU64,
}

impl EarlyExit {
    pub(crate) fn new() -> Self {
        EarlyExit {
            best: AtomicUsize::new(usize::MAX),
            done: CancelToken::new(),
            wasted: AtomicU64::new(0),
        }
    }

    /// Publish a match at `i` and broadcast its existence. The min-fold
    /// keeps the lowest index regardless of publication order.
    fn publish(&self, i: usize) {
        self.best.fetch_min(i, Ordering::Relaxed);
        self.done.cancel();
    }

    /// Whether work starting at `start` can still lower the result.
    /// `false` once a match at or before `start` is published: such work
    /// could only find indices `>= start >= best`.
    fn past_match(&self, start: usize) -> bool {
        self.done.is_cancelled() && self.best.load(Ordering::Relaxed) <= start
    }

    fn record_wasted(&self) {
        self.wasted.fetch_add(1, Ordering::Relaxed);
    }

    fn result(&self) -> Option<usize> {
        let b = self.best.load(Ordering::Relaxed);
        (b != usize::MAX).then_some(b)
    }
}

/// Folds the region's early-exit counters into the executor once the
/// region is over — a drop guard so it also runs when the region unwinds
/// (cooperative cancellation mid-search). Dropped strictly after the
/// dispatching `run` returned, satisfying `record_search`'s between-runs
/// contract.
struct SearchReport<'a> {
    exec: &'a Arc<dyn Executor>,
    state: &'a EarlyExit,
}

impl Drop for SearchReport<'_> {
    fn drop(&mut self) {
        let wasted = self.state.wasted.load(Ordering::Relaxed);
        if wasted > 0 {
            self.exec.record_search(1, wasted);
        }
    }
}

/// Smallest index `i in 0..n` with `pred_at(i)` — the engine behind
/// every early-exit search in the crate. Deterministic: equal to the
/// sequential scan for any pool, partitioner, and timing.
pub(crate) fn find_first_index<F>(policy: &ExecutionPolicy, n: usize, pred_at: F) -> Option<usize>
where
    F: Fn(usize) -> bool + Sync,
{
    match policy.plan(n) {
        Plan::Sequential => find_first_in(0..n, &pred_at),
        Plan::Parallel {
            exec,
            tasks,
            cfg,
            cancel,
        } => {
            let state = EarlyExit::new();
            let ctx = CancelCtx::new(cancel);
            let _cancel_report = CancelReport::new(exec, &ctx);
            let _search_report = SearchReport {
                exec,
                state: &state,
            };
            let (state, ctx, pred_at) = (&state, &ctx, &pred_at);
            let grain = cfg.grain.max(1);
            match cfg.partitioner {
                Partitioner::Static => run_static(exec, tasks, n, state, ctx, pred_at),
                Partitioner::Guided => run_guided(exec, n, grain, state, ctx, pred_at),
                Partitioner::Adaptive => run_adaptive(exec, n, grain, state, ctx, pred_at),
            }
            state.result()
        }
    }
}

/// Scan one disjoint chunk, polling the shared state every
/// [`POLL_BLOCK`] elements. Ranges are disjoint across participants, so
/// a published best is either before `r` (abort, wasted) or after it
/// (keep scanning — we may still lower it).
fn scan_range<F>(r: Range<usize>, state: &EarlyExit, cancel: &CancelCtx, pred_at: &F)
where
    F: Fn(usize) -> bool + Sync,
{
    if state.past_match(r.start) {
        state.record_wasted();
        return;
    }
    let mut i = r.start;
    while i < r.end {
        // One cancellation poll and one exit poll per block.
        cancel.check();
        if state.past_match(r.start) {
            state.record_wasted();
            return;
        }
        let block_end = (i + POLL_BLOCK).min(r.end);
        if let Some(j) = find_first_in(i..block_end, pred_at) {
            state.publish(j);
            return;
        }
        i = block_end;
    }
}

/// Static plan-time chunks: all `tasks` indices are dispatched (that is
/// the nature of a plan-time decomposition), but each chunk polls the
/// exit state on entry and per block, so post-match chunks cost two
/// atomic loads each.
fn run_static<F>(
    exec: &Arc<dyn Executor>,
    tasks: usize,
    n: usize,
    state: &EarlyExit,
    cancel: &CancelCtx,
    pred_at: &F,
) where
    F: Fn(usize) -> bool + Sync,
{
    exec.run(tasks, &|i| {
        scan_range(chunk_range(n, tasks, i), state, cancel, pred_at);
    });
}

/// Guided self-scheduling with an early-exit claim loop: identical
/// geometry to the splitter's guided engine, but a participant stops
/// claiming once the unclaimed region (everything at or after the
/// cursor) lies past the published match.
fn run_guided<F>(
    exec: &Arc<dyn Executor>,
    n: usize,
    grain: usize,
    state: &EarlyExit,
    cancel: &CancelCtx,
    pred_at: &F,
) where
    F: Fn(usize) -> bool + Sync,
{
    let initial = participants(exec, n, grain);
    let cursor = AtomicUsize::new(0);
    let cursor = &cursor;
    let shrink = 2 * exec.num_threads().max(1);
    exec.run_dynamic(initial, &|_| loop {
        // Claim point: one cancellation poll and one exit poll per claim.
        cancel.check();
        let seen = cursor.load(Ordering::Relaxed);
        if seen >= n {
            return;
        }
        if state.past_match(seen) {
            // The claim this participant would have made is declined.
            state.record_wasted();
            return;
        }
        let size = ((n - seen) / shrink).max(grain);
        let start = cursor.fetch_add(size, Ordering::Relaxed);
        if start >= n {
            return;
        }
        scan_range(start..(start + size).min(n), state, cancel, pred_at);
    });
}

/// State shared by the participants of one adaptive search region — the
/// search-aware sibling of the splitter's `AdaptiveShared`, with the
/// same lazy-split/spin protocol plus exit polls at every stride/split
/// decision. Skipped and abandoned ranges still decrement `remaining`,
/// so the region terminates (and releases spinners) exactly as if the
/// work had run.
struct AdaptiveSearch<'a, F> {
    queue: Mutex<Vec<Range<usize>>>,
    remaining: AtomicUsize,
    hungry: AtomicUsize,
    poisoned: AtomicBool,
    grain: usize,
    cancel: &'a CancelCtx,
    state: &'a EarlyExit,
    pred_at: &'a F,
}

impl<F> AdaptiveSearch<'_, F>
where
    F: Fn(usize) -> bool + Sync,
{
    fn pressure(&self, exec: &dyn Executor, pool_hint: bool) -> bool {
        self.hungry.load(Ordering::Relaxed) > 0 || (pool_hint && exec.idle_workers() > 0)
    }

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
            if self.cancel.is_tripped() {
                break None;
            }
            std::thread::yield_now();
        };
        self.hungry.fetch_sub(1, Ordering::SeqCst);
        got
    }

    fn run_participant(&self, exec: &dyn Executor, mut range: Range<usize>, pool_hint: bool) {
        loop {
            while !range.is_empty() {
                // Stride/split decision: cancellation poll + exit poll.
                self.cancel.check();
                if self.state.past_match(range.start) {
                    // The whole rest of this range lies past a published
                    // match: abandon it and scavenge — earlier-positioned
                    // queued ranges may still lower the result.
                    self.state.record_wasted();
                    self.remaining.fetch_sub(range.len(), Ordering::AcqRel);
                    range.start = range.end;
                    continue;
                }
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
                let result = catch_unwind(AssertUnwindSafe(|| {
                    match find_first_in(block, self.pred_at) {
                        Some(j) => {
                            self.state.publish(j);
                            true
                        }
                        None => false,
                    }
                }));
                self.remaining.fetch_sub(len, Ordering::AcqRel);
                match result {
                    Err(payload) => {
                        self.poisoned.store(true, Ordering::Release);
                        resume_unwind(payload);
                    }
                    Ok(true) => {
                        // Found in our own stride: the rest of this range
                        // is at larger indices, so it cannot improve on
                        // the match we just published.
                        self.remaining
                            .fetch_sub(range.end - stride_end, Ordering::AcqRel);
                        range.start = range.end;
                    }
                    Ok(false) => range.start = stride_end,
                }
            }
            match self.find_work() {
                Some(r) => range = r,
                None => return,
            }
        }
    }
}

/// Lazy binary splitting with early exit: seed one contiguous range per
/// participant, split under demand, abandon post-match ranges.
fn run_adaptive<F>(
    exec: &Arc<dyn Executor>,
    n: usize,
    grain: usize,
    state: &EarlyExit,
    cancel: &CancelCtx,
    pred_at: &F,
) where
    F: Fn(usize) -> bool + Sync,
{
    let initial = participants(exec, n, grain);
    let shared = AdaptiveSearch {
        queue: Mutex::new(Vec::new()),
        remaining: AtomicUsize::new(n),
        hungry: AtomicUsize::new(0),
        poisoned: AtomicBool::new(false),
        grain,
        cancel,
        state,
        pred_at,
    };
    let shared = &shared;
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

    fn policies() -> Vec<ExecutionPolicy> {
        let mut out = Vec::new();
        for d in Discipline::POOLS {
            let pool = build_pool(d, 3);
            for p in Partitioner::all() {
                out.push(ExecutionPolicy::par_with(
                    Arc::clone(&pool),
                    ParConfig::with_grain(64).partitioner(p),
                ));
            }
        }
        out
    }

    #[test]
    fn lowest_index_wins_on_every_pool_and_partitioner() {
        for policy in policies() {
            let n = 40_000;
            for (first, dup) in [(0usize, 1), (37, 20_000), (9_999, 39_999)] {
                let hit = |i: usize| i == first || i == dup;
                assert_eq!(
                    find_first_index(&policy, n, hit),
                    Some(first),
                    "{policy:?} first={first} dup={dup}"
                );
            }
        }
    }

    #[test]
    fn absent_match_scans_everything() {
        use std::sync::atomic::AtomicUsize;
        for policy in policies() {
            let n = 10_000;
            let visited = AtomicUsize::new(0);
            let result = find_first_index(&policy, n, |_| {
                visited.fetch_add(1, Ordering::Relaxed);
                false
            });
            assert_eq!(result, None, "{policy:?}");
            assert_eq!(
                visited.load(Ordering::Relaxed),
                n,
                "{policy:?}: absent match must drain the range exactly once"
            );
        }
    }

    #[test]
    fn front_match_skips_most_of_the_range() {
        use std::sync::atomic::AtomicUsize;
        // A front match with per-element sleep pressure: each partitioner
        // must visit far fewer than n elements.
        for d in [Discipline::WorkStealing, Discipline::ForkJoin] {
            let pool = build_pool(d, 3);
            for p in Partitioner::all() {
                let policy = ExecutionPolicy::par_with(
                    Arc::clone(&pool),
                    ParConfig::with_grain(256).partitioner(p),
                );
                let n = 1 << 20;
                let visited = AtomicUsize::new(0);
                let result = find_first_index(&policy, n, |i| {
                    visited.fetch_add(1, Ordering::Relaxed);
                    i == 5
                });
                assert_eq!(result, Some(5));
                let seen = visited.load(Ordering::Relaxed);
                assert!(
                    seen < n / 2,
                    "{d:?}/{}: front match visited {seen} of {n}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn early_exit_counters_reach_pool_metrics() {
        let pool = build_pool(Discipline::WorkStealing, 3);
        let before = pool.metrics().expect("ws pool reports metrics");
        let policy = ExecutionPolicy::par_with(Arc::clone(&pool), ParConfig::with_grain(128));
        let n = 1 << 18;
        assert_eq!(find_first_index(&policy, n, |i| i == 0), Some(0));
        let d = pool.metrics().unwrap().since(&before);
        assert_eq!(d.early_exits, 1, "front match must count one early exit");
        assert!(
            d.wasted_chunks > 0,
            "post-match chunks must count as wasted"
        );
        // Wasted chunks are bounded by the dispatched static plan.
        assert!(
            d.wasted_chunks <= policy.tasks_for(n) as u64,
            "wasted {} > planned {}",
            d.wasted_chunks,
            policy.tasks_for(n)
        );
    }

    #[test]
    fn full_scan_records_no_early_exit() {
        let pool = build_pool(Discipline::WorkStealing, 2);
        let before = pool.metrics().unwrap();
        let policy = ExecutionPolicy::par_with(Arc::clone(&pool), ParConfig::with_grain(128));
        assert_eq!(find_first_index(&policy, 1 << 16, |_| false), None);
        let d = pool.metrics().unwrap().since(&before);
        assert_eq!(d.early_exits, 0);
        assert_eq!(d.wasted_chunks, 0);
    }

    #[test]
    fn empty_and_tiny_ranges() {
        for policy in policies() {
            assert_eq!(find_first_index(&policy, 0, |_| true), None);
            assert_eq!(find_first_index(&policy, 1, |i| i == 0), Some(0));
            assert_eq!(find_first_index(&policy, 1, |_| false), None);
        }
    }
}
