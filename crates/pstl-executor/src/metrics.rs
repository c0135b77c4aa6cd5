//! Scheduling metrics: the pool-side counterpart of the paper's
//! hardware-counter analysis (Tables 3–4), where HPX's instruction
//! blow-up is attributed to "managing and scheduling the individual work
//! chunks". These counters make that management directly observable on
//! the real pools: how many tasks were created, how often work was
//! stolen, how often workers went to sleep.
//!
//! Every pool embeds one [`MetricsSink`] (through its `RuntimeCore`): the
//! relaxed atomic counters behind [`MetricsSnapshot`] plus a set of
//! streaming [`Histogram`]s ([`HistKind`]) recording task durations,
//! steal latencies, claim sizes and service queue waits. Adding a new
//! metric means adding a field or a `HistKind` variant and a hook *here*
//! — the pool files only ever talk to the sink. Job-level facts
//! (admissions, refusals, sheds, retries) live in the service's own
//! ledger, `ServiceStatsSnapshot`, and nowhere else.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pstl_trace::hist::{HistSnapshot, Histogram};

/// A point-in-time copy of a pool's counters.
///
/// Serialized wholesale into the harness's per-benchmark `SchedDelta`
/// JSON — a counter added here (and recorded in `runtime.rs`) appears
/// in every pool's scheduling output with no further wiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct MetricsSnapshot {
    /// Parallel regions executed (`run` calls that dispatched).
    pub runs: u64,
    /// Task fragments executed across all threads (per-index for the
    /// task pool, per-chunk-split for work stealing, per-partition for
    /// fork-join).
    pub tasks_executed: u64,
    /// Successful steals from another participant's deque.
    pub steals: u64,
    /// Steals whose victim shared the thief's NUMA node. Together with
    /// `remote_steals` this partitions `steals` exactly.
    pub local_steals: u64,
    /// Steals that crossed NUMA nodes (always 0 on single-node
    /// topologies).
    pub remote_steals: u64,
    /// Steal attempts, including empty and contended ones.
    pub steal_attempts: u64,
    /// Times a worker gave up finding work and went to sleep.
    pub parks: u64,
    /// Times a parked worker woke back up (epoch moved or timeout).
    /// `parks - parked_wakeups` is the number of workers asleep right
    /// now; a wakeup count far above `runs` means the pool is churning
    /// through spurious timeouts instead of sleeping.
    pub parked_wakeups: u64,
    /// Range splits: a running task handed off part of its work in
    /// response to demand (work-stealing binary splits and the adaptive
    /// partitioner's lazy splits both count here).
    pub splits: u64,
    /// Cancellation-point polls observed by cancellable regions (task
    /// bodies, chunk boundaries, partitioner claim points).
    pub cancel_checks: u64,
    /// Task bodies or chunks skipped/aborted because a cancellation
    /// token had tripped.
    pub cancelled_tasks: u64,
    /// Worker threads the pool failed to spawn at construction and
    /// compensated for by running with a smaller team.
    pub spawn_failures: u64,
    /// Search regions that returned before draining their range because
    /// a match was published (find-family early exit).
    pub early_exits: u64,
    /// Chunks/claims a search region dispatched but skipped or aborted
    /// because they lay past an already-published match.
    pub wasted_chunks: u64,
    /// Times a streaming stage failed to push a batch into an
    /// inter-stage edge without room for all of it and had to stall the
    /// batch (backpressure events; one per failed batch push, not per
    /// item). A high count relative to batches flowed marks the
    /// bottleneck stage's downstream edge as undersized.
    pub stage_push_waits: u64,
    /// In-flight streaming items discarded during pipeline teardown
    /// (cancellation or a stage panic). The stream layer guarantees
    /// every produced item is either consumed by the sink or counted
    /// here exactly once.
    pub items_dropped: u64,
}

impl MetricsSnapshot {
    /// Task fragments per parallel region — the granularity of the
    /// discipline (HPX-style pools create orders of magnitude more).
    pub fn tasks_per_run(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.tasks_executed as f64 / self.runs as f64
        }
    }

    /// Difference since an earlier snapshot.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            runs: self.runs - earlier.runs,
            tasks_executed: self.tasks_executed - earlier.tasks_executed,
            steals: self.steals - earlier.steals,
            local_steals: self.local_steals - earlier.local_steals,
            remote_steals: self.remote_steals - earlier.remote_steals,
            steal_attempts: self.steal_attempts - earlier.steal_attempts,
            parks: self.parks - earlier.parks,
            parked_wakeups: self.parked_wakeups - earlier.parked_wakeups,
            splits: self.splits - earlier.splits,
            cancel_checks: self.cancel_checks - earlier.cancel_checks,
            cancelled_tasks: self.cancelled_tasks - earlier.cancelled_tasks,
            spawn_failures: self.spawn_failures - earlier.spawn_failures,
            early_exits: self.early_exits - earlier.early_exits,
            wasted_chunks: self.wasted_chunks - earlier.wasted_chunks,
            stage_push_waits: self.stage_push_waits - earlier.stage_push_waits,
            items_dropped: self.items_dropped - earlier.items_dropped,
        }
    }
}

/// The distribution metrics every pool records, all in one place so a
/// new one needs no pool-file edits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKind {
    /// Wall time of one executed task/chunk body, in nanoseconds.
    TaskDuration,
    /// Wall time from a steal attempt round starting to a successful
    /// steal, in nanoseconds.
    StealLatency,
    /// Number of indices in an executed task/claimed chunk.
    ClaimSize,
    /// Wall time a service job spent queued between admission and the
    /// start of its execution on a worker or a waiting caller, in
    /// nanoseconds.
    QueueWait,
}

impl HistKind {
    /// Every kind, in stable report order.
    pub const ALL: [HistKind; 4] = [
        HistKind::TaskDuration,
        HistKind::StealLatency,
        HistKind::ClaimSize,
        HistKind::QueueWait,
    ];

    /// Stable snake_case name used as the JSON report key.
    pub fn name(&self) -> &'static str {
        match self {
            HistKind::TaskDuration => "task_duration_ns",
            HistKind::StealLatency => "steal_latency_ns",
            HistKind::ClaimSize => "claim_size",
            HistKind::QueueWait => "queue_wait_ns",
        }
    }

    fn index(&self) -> usize {
        *self as usize
    }
}

/// A drained copy of every [`HistKind`] histogram — the distribution
/// analog of [`MetricsSnapshot`]. Always available (empty when the
/// `trace` feature is off).
#[derive(Debug, Clone)]
pub struct HistSet {
    hists: Vec<HistSnapshot>,
}

impl Default for HistSet {
    fn default() -> Self {
        Self::new()
    }
}

impl HistSet {
    /// An empty set (one empty histogram per kind).
    pub fn new() -> Self {
        HistSet {
            hists: HistKind::ALL.iter().map(|_| HistSnapshot::new()).collect(),
        }
    }

    /// The histogram for `kind`.
    pub fn get(&self, kind: HistKind) -> &HistSnapshot {
        &self.hists[kind.index()]
    }

    /// Kind-wise interval delta (see [`HistSnapshot::since`]).
    pub fn since(&self, before: &HistSet) -> HistSet {
        HistSet {
            hists: HistKind::ALL
                .iter()
                .map(|k| self.get(*k).since(before.get(*k)))
                .collect(),
        }
    }

    /// Fold another set in, kind-wise.
    pub fn merge(&mut self, other: &HistSet) {
        for k in HistKind::ALL {
            self.hists[k.index()].merge(other.get(k));
        }
    }

    /// True when no kind recorded any sample.
    pub fn is_empty(&self) -> bool {
        self.hists.iter().all(HistSnapshot::is_empty)
    }
}

/// Times one task body; created by [`MetricsSink::task_timer`], closed
/// by [`finish`](TaskTimer::finish) *after* the pool's panic-containing
/// execute path returns, so panicking bodies still record a duration.
/// Dropping without `finish` loses the duration sample only.
#[must_use = "call finish() after the task body to record its duration"]
pub struct TaskTimer<'a> {
    sink: &'a MetricsSink,
    start: Option<Instant>,
}

impl TaskTimer<'_> {
    /// Record the elapsed task duration.
    pub fn finish(self) {
        if let Some(start) = self.start {
            self.sink
                .observe(HistKind::TaskDuration, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Times one steal search; created by [`MetricsSink::steal_timer`] when
/// a worker starts probing victims. [`success`](StealTimer::success)
/// counts the steal (via [`MetricsSink::record_steal`]) and records its
/// latency; dropping the timer without success records nothing (the attempts
/// themselves are counted per probe via `record_steal_attempt`).
#[must_use = "call success(local) when the steal lands, or drop on failure"]
pub struct StealTimer<'a> {
    sink: &'a MetricsSink,
    start: Option<Instant>,
}

impl StealTimer<'_> {
    /// The steal landed: count it (classified by victim locality) and
    /// record the attempt→success latency.
    pub fn success(self, local: bool) {
        self.sink.record_steal(local);
        if let Some(start) = self.start {
            self.sink
                .observe(HistKind::StealLatency, start.elapsed().as_nanos() as u64);
        }
    }
}

/// The one metrics hook a pool embeds: one relaxed atomic per
/// [`MetricsSnapshot`] counter plus one streaming histogram per
/// [`HistKind`].
#[derive(Default)]
pub struct MetricsSink {
    runs: AtomicU64,
    tasks_executed: AtomicU64,
    steals: AtomicU64,
    local_steals: AtomicU64,
    remote_steals: AtomicU64,
    steal_attempts: AtomicU64,
    parks: AtomicU64,
    parked_wakeups: AtomicU64,
    splits: AtomicU64,
    cancel_checks: AtomicU64,
    cancelled_tasks: AtomicU64,
    spawn_failures: AtomicU64,
    early_exits: AtomicU64,
    wasted_chunks: AtomicU64,
    stage_push_waits: AtomicU64,
    items_dropped: AtomicU64,
    hists: [Histogram; HistKind::ALL.len()],
}

impl MetricsSink {
    /// Fresh zeroed sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample into the `kind` histogram (no-op without the
    /// `trace` feature — the histograms are ZSTs then).
    #[inline]
    pub fn observe(&self, kind: HistKind, value: u64) {
        self.hists[kind.index()].record(value);
    }

    /// Start timing a task body of `size` indices: counts the task,
    /// records its claim size, and (when tracing is compiled in) stamps
    /// the start time for [`TaskTimer::finish`].
    #[inline]
    pub fn task_timer(&self, size: u64) -> TaskTimer<'_> {
        self.record_tasks(1);
        self.observe(HistKind::ClaimSize, size);
        TaskTimer {
            sink: self,
            start: pstl_trace::enabled().then(Instant::now),
        }
    }

    /// Start timing a steal search (call when probing begins, after the
    /// local fast paths missed).
    #[inline]
    pub fn steal_timer(&self) -> StealTimer<'_> {
        StealTimer {
            sink: self,
            start: pstl_trace::enabled().then(Instant::now),
        }
    }

    /// Drain every histogram into a plain [`HistSet`].
    pub fn hist_snapshot(&self) -> HistSet {
        HistSet {
            hists: self.hists.iter().map(Histogram::snapshot).collect(),
        }
    }

    /// Record a dispatched parallel region.
    pub fn record_run(&self) {
        self.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` executed task fragments. Prefer [`task_timer`] (which
    /// also feeds the distributions) on per-task paths; this stays for
    /// bulk/inline accounting.
    ///
    /// [`task_timer`]: Self::task_timer
    pub fn record_tasks(&self, n: u64) {
        self.tasks_executed.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a successful steal, classified by victim locality:
    /// `local` means the victim shared the thief's NUMA node. Keeps
    /// `steals == local_steals + remote_steals`. Prefer
    /// [`steal_timer`](Self::steal_timer) on the worker loop.
    pub fn record_steal(&self, local: bool) {
        self.steals.fetch_add(1, Ordering::Relaxed);
        if local {
            self.local_steals.fetch_add(1, Ordering::Relaxed);
        } else {
            self.remote_steals.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a steal attempt (successful or not).
    pub fn record_steal_attempt(&self) {
        self.steal_attempts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a worker parking.
    pub fn record_park(&self) {
        self.parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a parked worker waking back up.
    pub fn record_parked_wakeup(&self) {
        self.parked_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a range split (demand-driven work handoff).
    pub fn record_split(&self) {
        self.splits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `checks` cancellation polls, of which `cancelled` found
    /// the token tripped and skipped/aborted their work.
    pub fn record_cancel(&self, checks: u64, cancelled: u64) {
        self.cancel_checks.fetch_add(checks, Ordering::Relaxed);
        self.cancelled_tasks.fetch_add(cancelled, Ordering::Relaxed);
    }

    /// Record `n` worker-spawn failures the pool degraded around.
    pub fn record_spawn_failures(&self, n: u64) {
        self.spawn_failures.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `early_exits` search regions that returned before draining
    /// their range, skipping or aborting `wasted` dispatched chunks.
    pub fn record_search(&self, early_exits: u64, wasted: u64) {
        self.early_exits.fetch_add(early_exits, Ordering::Relaxed);
        self.wasted_chunks.fetch_add(wasted, Ordering::Relaxed);
    }

    /// Record `push_waits` backpressure stalls and `dropped` in-flight
    /// items discarded by a streaming pipeline region.
    pub fn record_stream(&self, push_waits: u64, dropped: u64) {
        self.stage_push_waits
            .fetch_add(push_waits, Ordering::Relaxed);
        self.items_dropped.fetch_add(dropped, Ordering::Relaxed);
    }

    /// Copy the current counter values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            runs: self.runs.load(Ordering::Relaxed),
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            local_steals: self.local_steals.load(Ordering::Relaxed),
            remote_steals: self.remote_steals.load(Ordering::Relaxed),
            steal_attempts: self.steal_attempts.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            parked_wakeups: self.parked_wakeups.load(Ordering::Relaxed),
            splits: self.splits.load(Ordering::Relaxed),
            cancel_checks: self.cancel_checks.load(Ordering::Relaxed),
            cancelled_tasks: self.cancelled_tasks.load(Ordering::Relaxed),
            spawn_failures: self.spawn_failures.load(Ordering::Relaxed),
            early_exits: self.early_exits.load(Ordering::Relaxed),
            wasted_chunks: self.wasted_chunks.load(Ordering::Relaxed),
            stage_push_waits: self.stage_push_waits.load(Ordering::Relaxed),
            items_dropped: self.items_dropped.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsSink::new();
        m.record_run();
        m.record_tasks(10);
        m.record_tasks(5);
        m.record_steal(true);
        m.record_steal(false);
        m.record_steal_attempt();
        m.record_steal_attempt();
        m.record_park();
        m.record_parked_wakeup();
        m.record_split();
        m.record_split();
        m.record_cancel(5, 2);
        m.record_spawn_failures(1);
        m.record_search(1, 3);
        m.record_search(1, 4);
        m.record_stream(4, 2);
        m.record_stream(1, 0);
        let s = m.snapshot();
        assert_eq!(s.runs, 1);
        assert_eq!(s.tasks_executed, 15);
        assert_eq!(s.steals, 2);
        assert_eq!(s.local_steals, 1);
        assert_eq!(s.remote_steals, 1);
        assert_eq!(s.steals, s.local_steals + s.remote_steals);
        assert_eq!(s.steal_attempts, 2);
        assert_eq!(s.parks, 1);
        assert_eq!(s.parked_wakeups, 1);
        assert_eq!(s.splits, 2);
        assert_eq!(s.cancel_checks, 5);
        assert_eq!(s.cancelled_tasks, 2);
        assert_eq!(s.spawn_failures, 1);
        assert_eq!(s.early_exits, 2);
        assert_eq!(s.wasted_chunks, 7);
        assert_eq!(s.stage_push_waits, 5);
        assert_eq!(s.items_dropped, 2);
    }

    #[test]
    fn snapshot_delta() {
        let m = MetricsSink::new();
        m.record_run();
        m.record_tasks(4);
        let a = m.snapshot();
        m.record_run();
        m.record_tasks(6);
        let b = m.snapshot();
        let d = b.since(&a);
        assert_eq!(d.runs, 1);
        assert_eq!(d.tasks_executed, 6);
    }

    #[test]
    fn tasks_per_run_handles_zero() {
        let s = MetricsSnapshot::default();
        assert_eq!(s.tasks_per_run(), 0.0);
        let s = MetricsSnapshot {
            runs: 2,
            tasks_executed: 10,
            ..Default::default()
        };
        assert_eq!(s.tasks_per_run(), 5.0);
    }
}

#[cfg(test)]
mod pool_integration_tests {
    use crate::{build_pool, Discipline};

    #[test]
    fn task_pool_creates_one_task_per_index() {
        let pool = build_pool(Discipline::TaskPool, 2);
        pool.run(500, &|_| {});
        let m = pool.metrics().unwrap();
        assert_eq!(m.runs, 1);
        assert_eq!(m.tasks_executed, 500);
    }

    #[test]
    fn fork_join_creates_one_task_per_thread() {
        let pool = build_pool(Discipline::ForkJoin, 3);
        pool.run(500, &|_| {});
        let m = pool.metrics().unwrap();
        assert_eq!(m.runs, 1);
        assert_eq!(m.tasks_executed, 3, "one partition per team member");
    }

    #[test]
    fn disciplines_rank_by_task_granularity() {
        // The observable core of the paper's Table 3 story: per run, the
        // HPX-style pool creates the most task fragments, fork-join the
        // fewest.
        let n = 4096;
        let fj = build_pool(Discipline::ForkJoin, 2);
        let ws = build_pool(Discipline::WorkStealing, 2);
        let tp = build_pool(Discipline::TaskPool, 2);
        for pool in [&fj, &ws, &tp] {
            pool.run(n, &|_| {});
        }
        let fj_tasks = fj.metrics().unwrap().tasks_executed;
        let ws_tasks = ws.metrics().unwrap().tasks_executed;
        let tp_tasks = tp.metrics().unwrap().tasks_executed;
        assert!(
            fj_tasks < ws_tasks,
            "fork-join {fj_tasks} < stealing {ws_tasks}"
        );
        assert!(
            ws_tasks <= tp_tasks,
            "stealing {ws_tasks} <= task pool {tp_tasks}"
        );
        assert_eq!(tp_tasks, n as u64);
    }

    #[test]
    fn sequential_executor_has_no_metrics() {
        let pool = build_pool(Discipline::Sequential, 1);
        pool.run(10, &|_| {});
        assert!(pool.metrics().is_none());
    }
}
