//! Thread-pool substrate for the pSTL-Bench reproduction.
//!
//! The paper compares C++ parallel-STL backends that differ primarily in
//! their *scheduling discipline*:
//!
//! * GNU's OpenMP-based backend (MCSTL) uses **static fork-join** chunking,
//! * Intel TBB uses **work stealing** with dynamic splitting,
//! * HPX uses **fine-grained tasks with futures** through a central
//!   scheduler.
//!
//! This crate implements all three disciplines from scratch over a common
//! [`Executor`] abstraction so the algorithm layer (`pstl`) can be run on
//! any of them. The work-stealing deque ([`deque`]) is a faithful
//! Chase–Lev implementation; the task pool intentionally pays a per-task
//! allocation, mirroring the instruction overhead the paper measures for
//! HPX (its Tables 3 and 4).
//!
//! All pools follow OpenMP "master participates" semantics: a pool
//! configured for `T` threads spawns `T - 1` workers and the calling
//! thread acts as worker 0, so `threads == 1` means strictly inline
//! execution with no cross-thread traffic.

pub mod cancel;
pub mod deque;
pub mod fault;
pub mod fork_join;
pub mod futures;
pub mod injector;
pub mod job;
pub mod latch;
pub mod metrics;
pub mod runtime;
pub mod seq;
pub mod service;
pub mod sync;
pub mod task_pool;
pub mod topology;
pub mod work_stealing;

use std::sync::Arc;

pub use cancel::{CancelToken, Cancelled};
pub use fault::{FaultPlan, StealDelay};
pub use fork_join::ForkJoinPool;
pub use futures::{future_promise, BrokenPromise, Future, Promise};
pub use latch::CountLatch;
pub use metrics::{HistKind, HistSet, MetricsSink, MetricsSnapshot};
pub use runtime::{Runtime, RuntimeCore, WorkerCtx, WorkerStrategy};
pub use seq::SequentialExecutor;
pub use service::{
    BatchPolicy, JobHandle, JobOutcome, JobService, JobSpec, Priority, Rejected, RetryPolicy,
    ServiceConfig, ServiceStatsSnapshot, ShedReason,
};
pub use task_pool::{Scope, TaskPool};
pub use topology::Topology;
pub use work_stealing::WorkStealingPool;

/// A parallel index-space executor.
///
/// `run(tasks, body)` executes `body(i)` once for every `i in 0..tasks`,
/// possibly in parallel, and returns only after every invocation has
/// completed. The *chunking* of real work into task indices is the
/// caller's responsibility (the `pstl` algorithm layer computes per-backend
/// chunk counts); the executor's responsibility is the *scheduling
/// discipline* used to map indices onto threads.
///
/// Implementations must tolerate `tasks == 0` (no-op) and concurrent `run`
/// calls from multiple user threads (runs are serialized internally, like
/// OpenMP parallel regions on a single team).
pub trait Executor: Send + Sync {
    /// Number of threads that participate in a `run`, including the caller.
    fn num_threads(&self) -> usize;

    /// The shared [`runtime::RuntimeCore`] this executor is built on, if
    /// any. Every pool in this crate returns `Some`; only executors with
    /// nothing to schedule (the sequential one) return `None`.
    ///
    /// This is the crate's answer to the hook-surface footgun: the
    /// recording hooks below (`record_split`, `record_claim`,
    /// `record_cancel`, `record_search`, `idle_workers`, snapshots,
    /// traces) are *defaulted through this method*, so a backend that
    /// plugs a [`WorkerStrategy`] into the runtime gets all of them for
    /// free and cannot silently drop data by forgetting to forward one.
    fn runtime_core(&self) -> Option<&runtime::RuntimeCore> {
        None
    }

    /// Execute `body(i)` for all `i in 0..tasks`; blocks until done.
    fn run(&self, tasks: usize, body: &(dyn Fn(usize) + Sync));

    /// Dynamic-dispatch entry point for adaptive partitioners: execute
    /// `body(i)` for all `i in 0..initial`, where `initial` is a *small*
    /// seed count (≈ one per worker) and each body is a long-running
    /// self-scheduling loop rather than a fixed chunk.
    ///
    /// The contract is the same as [`run`](Self::run); the distinction is
    /// a scheduling hint. Pools that normally over-decompose their index
    /// space (the work-stealing pool splits ranges binarily down to single
    /// indices) should dispatch each index as one indivisible task here,
    /// because the *caller* owns granularity decisions during a dynamic
    /// region. The default falls back to plain static `run`.
    fn run_dynamic(&self, initial: usize, body: &(dyn Fn(usize) + Sync)) {
        self.run(initial, body);
    }

    /// Best-effort count of pool workers currently parked with nothing to
    /// do — the pool-side steal-pressure hint adaptive partitioners may
    /// consult in addition to their own participant-level demand signal.
    /// Racy by nature; `0` (an executor without a runtime) means "no
    /// pressure visible".
    fn idle_workers(&self) -> usize {
        self.runtime_core()
            .map_or(0, runtime::RuntimeCore::idle_workers)
    }

    /// Record that a caller-level range of `size` elements was split off
    /// and made available to other participants. Folded into the runtime
    /// core's `splits` counter plus a
    /// [`pstl_trace::EventKind::RangeSplit`] event on the shared control
    /// track; a no-op only for executors without a runtime.
    fn record_split(&self, size: u64) {
        if let Some(core) = self.runtime_core() {
            core.record_split(size);
        }
    }

    /// Short human-readable name of the scheduling discipline.
    fn discipline(&self) -> Discipline;

    /// The worker → NUMA-node map this executor schedules against.
    /// Pools report the topology their runtime was built on; executors
    /// without a runtime default to the single-node topology.
    fn topology(&self) -> Topology {
        self.runtime_core().map_or_else(
            || Topology::flat(self.num_threads()),
            |c| c.topology().clone(),
        )
    }

    /// Scheduling counters accumulated since pool creation. `Some` for
    /// every runtime-backed pool; `None` only for executors with
    /// nothing to schedule (the sequential one).
    fn metrics(&self) -> Option<metrics::MetricsSnapshot> {
        self.runtime_core().map(runtime::RuntimeCore::snapshot)
    }

    /// Streaming distribution metrics (task durations, steal latencies,
    /// claim sizes — see [`metrics::HistKind`]) accumulated since pool
    /// creation. `Some` for every runtime-backed pool; the histograms
    /// only carry samples when this crate is built with the `trace`
    /// feature (otherwise the set is structurally valid but empty).
    /// `None` means the executor records no metrics at all (the
    /// sequential executor).
    fn hist_snapshot(&self) -> Option<metrics::HistSet> {
        self.runtime_core().map(runtime::RuntimeCore::hist_snapshot)
    }

    /// Record that a self-scheduling participant claimed a chunk of
    /// `size` indices from a shared source (the guided partitioner's
    /// cursor, the adaptive partitioner's split queue). Feeds the
    /// runtime core's [`metrics::HistKind::ClaimSize`] histogram; a
    /// no-op only for executors without a runtime.
    fn record_claim(&self, size: u64) {
        if let Some(core) = self.runtime_core() {
            core.record_claim(size);
        }
    }

    /// Drain and return the per-worker event trace recorded since the
    /// previous drain, labelled with this executor's discipline. `Some`
    /// for every runtime-backed pool; the log only carries events when
    /// this crate is built with the `trace` feature (otherwise it is
    /// structurally valid but empty). `None` means the executor does not
    /// trace at all (the sequential executor).
    fn take_trace(&self) -> Option<pstl_trace::TraceLog> {
        self.runtime_core()
            .map(|c| c.take_trace(self.discipline().name()))
    }

    /// Record the outcome of a cancellable region: `checks`
    /// cancellation polls, of which `cancelled` found the token tripped
    /// and skipped their work. Folded into the runtime core's
    /// `cancel_checks`/`cancelled_tasks` counters plus a
    /// [`pstl_trace::EventKind::Cancel`] event when `cancelled > 0`; a
    /// no-op only for executors without a runtime. Called between runs
    /// (never while this executor is inside `run`), like
    /// [`take_trace`](Self::take_trace).
    fn record_cancel(&self, checks: u64, cancelled: u64) {
        if let Some(core) = self.runtime_core() {
            core.record_cancel(checks, cancelled);
        }
    }

    /// Record the outcome of an early-exit search region: `early_exits`
    /// is 1 when the region returned before draining its range because a
    /// match was published, and `wasted` counts the dispatched
    /// chunks/claims that were skipped or aborted past the match. Folded
    /// into the runtime core's `early_exits`/`wasted_chunks` counters
    /// plus a [`pstl_trace::EventKind::EarlyExit`] event when
    /// `early_exits > 0`; a no-op only for executors without a runtime.
    /// Called between runs (never while this executor is inside `run`),
    /// like [`take_trace`](Self::take_trace).
    fn record_search(&self, early_exits: u64, wasted: u64) {
        if let Some(core) = self.runtime_core() {
            core.record_search(early_exits, wasted);
        }
    }

    /// Record the outcome of a streaming pipeline region: `push_waits`
    /// backpressure stalls (a stage found its downstream channel full
    /// and had to hold the item) and `dropped` in-flight items
    /// discarded during teardown after cancellation or a stage panic.
    /// Folded into the runtime core's `stage_push_waits`/`items_dropped`
    /// counters; a no-op only for executors without a runtime. Called
    /// between runs (never while this executor is inside `run`), like
    /// [`take_trace`](Self::take_trace).
    fn record_stream(&self, push_waits: u64, dropped: u64) {
        if let Some(core) = self.runtime_core() {
            core.record_stream(push_waits, dropped);
        }
    }

    /// Record one streaming-stage scheduling burst: stage `stage`
    /// processed `items` items back-to-back on some participant. Feeds
    /// a [`pstl_trace::EventKind::StageBurst`] event on the shared
    /// control track (per-stage timelines in the trace export); a no-op
    /// in builds without the `trace` feature and for executors without
    /// a runtime.
    fn record_stage_burst(&self, stage: u64, items: u64) {
        if let Some(core) = self.runtime_core() {
            core.record_stage_burst(stage, items);
        }
    }

    /// Execute `body(i)` for `i in 0..tasks` unless `token` trips
    /// first. Cancellation is cooperative with *skip* semantics: the
    /// token is polled immediately before each task body, and once it
    /// trips the remaining bodies return without running, so the region
    /// completes, the pool drains normally and stays reusable — the
    /// extra latency after tripping is bounded by the bodies already in
    /// flight (one chunk per worker), never by the remaining work.
    ///
    /// Returns `Err(Cancelled)` if the token was tripped (even on the
    /// very last body), `Ok(())` if every body ran.
    fn run_cancellable(
        &self,
        tasks: usize,
        body: &(dyn Fn(usize) + Sync),
        token: &CancelToken,
    ) -> Result<(), Cancelled> {
        use std::sync::atomic::{AtomicU64, Ordering};
        let checks = AtomicU64::new(0);
        let skipped = AtomicU64::new(0);
        self.run(tasks, &|i| {
            checks.fetch_add(1, Ordering::Relaxed);
            if token.is_cancelled() {
                skipped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            body(i);
        });
        self.record_cancel(
            checks.load(Ordering::Relaxed),
            skipped.load(Ordering::Relaxed),
        );
        if token.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }

    /// [`run_cancellable`](Self::run_cancellable) against a fresh
    /// deadline token: abandon the region once `timeout` elapses
    /// instead of blocking until every body has run.
    fn run_with_deadline(
        &self,
        tasks: usize,
        body: &(dyn Fn(usize) + Sync),
        timeout: std::time::Duration,
    ) -> Result<(), Cancelled> {
        let token = CancelToken::with_deadline(timeout);
        self.run_cancellable(tasks, body, &token)
    }

    /// Install a fault-injection plan for subsequent runs (see
    /// [`fault`]). Routed to the runtime core's injector; a no-op for
    /// executors without a runtime and in builds without the `fault`
    /// feature. Spawn faults cannot be installed here — they happen at
    /// construction time.
    fn install_fault_plan(&self, plan: FaultPlan) {
        if let Some(core) = self.runtime_core() {
            core.install_fault_plan(plan);
        }
    }
}

/// The scheduling disciplines implemented by this crate, named after the
/// backend families of the paper they model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Discipline {
    /// Inline sequential execution (the paper's `GCC SEQ` baseline).
    Sequential,
    /// Static contiguous partitioning with a barrier (GNU/NVC OpenMP).
    ForkJoin,
    /// Chase–Lev work stealing with dynamic splitting (TBB).
    WorkStealing,
    /// One heap-allocated task per index through a central queue (HPX).
    TaskPool,
}

impl Discipline {
    /// The three runtime-backed pools (every discipline but
    /// `Sequential`), in stable report order — the axis every test
    /// matrix iterates.
    pub const POOLS: [Discipline; 3] = [
        Discipline::ForkJoin,
        Discipline::WorkStealing,
        Discipline::TaskPool,
    ];

    /// Stable lowercase name, used in bench labels and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Discipline::Sequential => "seq",
            Discipline::ForkJoin => "fork_join",
            Discipline::WorkStealing => "work_stealing",
            Discipline::TaskPool => "task_pool",
        }
    }
}

/// Build a pool of the given discipline with `threads` participants.
///
/// `threads` is clamped to at least 1. For [`Discipline::Sequential`] the
/// thread count is ignored.
pub fn build_pool(discipline: Discipline, threads: usize) -> Arc<dyn Executor> {
    let threads = threads.max(1);
    build_pool_on(discipline, Topology::flat(threads))
}

/// Build a pool of the given discipline on an explicit worker → node
/// [`Topology`]; the thread count is the topology's. For
/// [`Discipline::Sequential`] the topology is ignored.
pub fn build_pool_on(discipline: Discipline, topology: Topology) -> Arc<dyn Executor> {
    build_pool_faulted(discipline, topology, FaultPlan::none())
}

/// As [`build_pool_on`], with a [`FaultPlan`] injected from
/// construction onwards. This is the only way to inject spawn faults
/// (they fire while the pool is being built); task/steal faults can
/// also be installed later via
/// [`Executor::install_fault_plan`]. With the `fault` feature off the
/// plan is ignored entirely.
pub fn build_pool_faulted(
    discipline: Discipline,
    topology: Topology,
    plan: FaultPlan,
) -> Arc<dyn Executor> {
    match discipline {
        Discipline::Sequential => Arc::new(SequentialExecutor::new()),
        Discipline::ForkJoin => Arc::new(ForkJoinPool::with_topology_faulted(topology, plan)),
        Discipline::WorkStealing => {
            Arc::new(WorkStealingPool::with_topology_faulted(topology, plan))
        }
        Discipline::TaskPool => Arc::new(TaskPool::with_topology_faulted(topology, plan)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn exercise(pool: &dyn Executor) {
        for tasks in [0usize, 1, 2, 3, 7, 64, 1000] {
            let hits = AtomicUsize::new(0);
            let sum = AtomicUsize::new(0);
            pool.run(tasks, &|i| {
                hits.fetch_add(1, Ordering::Relaxed);
                sum.fetch_add(i, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), tasks);
            let expect = if tasks == 0 {
                0
            } else {
                tasks * (tasks - 1) / 2
            };
            assert_eq!(sum.load(Ordering::Relaxed), expect);
        }
    }

    #[test]
    fn all_disciplines_cover_index_space() {
        for d in std::iter::once(Discipline::Sequential).chain(Discipline::POOLS) {
            for threads in [1usize, 2, 4] {
                let pool = build_pool(d, threads);
                exercise(&*pool);
            }
        }
    }

    #[test]
    fn discipline_names_are_stable() {
        assert_eq!(Discipline::Sequential.name(), "seq");
        assert_eq!(Discipline::ForkJoin.name(), "fork_join");
        assert_eq!(Discipline::WorkStealing.name(), "work_stealing");
        assert_eq!(Discipline::TaskPool.name(), "task_pool");
    }

    #[test]
    fn num_threads_reports_configuration() {
        for d in Discipline::POOLS {
            assert_eq!(build_pool(d, 3).num_threads(), 3, "{}", d.name());
        }
        assert_eq!(build_pool(Discipline::Sequential, 8).num_threads(), 1);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = build_pool(Discipline::ForkJoin, 0);
        assert_eq!(pool.num_threads(), 1);
        exercise(&*pool);
    }
}

#[cfg(test)]
mod panic_tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn panics_propagate(pool: &dyn Executor) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(64, &|i| {
                if i == 33 {
                    panic!("boom at {i}");
                }
            });
        }));
        assert!(result.is_err(), "panic must reach the caller");
        // The pool must stay usable afterwards.
        let hits = AtomicUsize::new(0);
        pool.run(100, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn every_pool_propagates_panics_and_survives() {
        for d in Discipline::POOLS {
            panics_propagate(&*build_pool(d, 3));
        }
    }

    #[test]
    fn panic_payload_is_preserved() {
        let pool = build_pool(Discipline::WorkStealing, 2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 5 {
                    std::panic::panic_any("custom payload");
                }
            });
        }));
        let payload = result.unwrap_err();
        assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "custom payload");
    }
}
