//! The shared worker runtime every pool is built on.
//!
//! The paper compares scheduling disciplines as *policies over one
//! machine*; this module is that machine. Everything a pool used to
//! duplicate — worker-thread lifecycle (spawn with graceful truncation
//! on spawn failure, join on drop), the epoch-based park/unpark idle
//! protocol, the `catch_unwind` panic envelope, fault-injection hooks,
//! and `MetricsSink`/trace emission — lives here exactly once:
//!
//! * [`RuntimeCore`] owns the cross-cutting state (metrics, tracer,
//!   topology, idle count, fault injector, work signal, shutdown flag)
//!   and implements every `Executor` hook the trait-level defaults
//!   route through (`record_split`, `record_cancel`, `record_search`,
//!   `record_claim`, `idle_workers`, snapshots, trace draining).
//! * [`Runtime<S>`] adds the worker threads. A discipline supplies only
//!   a [`WorkerStrategy`] — its scheduling decisions (what "one unit of
//!   work" is and where to find it) — and the runtime runs the loop:
//!   `try_work` until dry, then check shutdown, then park on the
//!   signal.
//! * [`contain`] and [`PanicSlot`] are the one panic envelope. Pool
//!   files must not call `std::panic::catch_unwind` themselves (a CI
//!   lint enforces this): a worker thread never unwinds, and payloads
//!   always take the first-panic-wins, re-throw-on-caller route.
//!
//! Adding a counter means editing `metrics.rs` (the counter) and this
//! file (the call site) — no pool file changes, and the counter appears
//! in every pool's `SchedDelta` JSON because the harness serializes
//! [`MetricsSnapshot`](crate::metrics::MetricsSnapshot) wholesale.
//! Adding a backend means writing a strategy; see `fork_join.rs` for
//! the smallest one (none of it lifecycle).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Mutex, MutexGuard};
use pstl_trace::{EventKind, PoolTracer, TraceLog, WorkerRecorder};

use crate::fault::{self, FaultInjector, FaultPlan};
use crate::metrics::{HistKind, HistSet, MetricsSink, MetricsSnapshot};
use crate::sync::{ShutdownFlag, WorkSignal};
use crate::topology::Topology;

/// A caught panic payload, as produced by [`contain`].
pub type PanicPayload = Box<dyn std::any::Any + Send>;

/// Run `f`, containing any panic it lets escape. The one
/// `catch_unwind` wrapper in the executor crate: workers must never
/// unwind, and callers decide whether the payload is stored
/// ([`PanicSlot`]), returned through a future, or dropped.
pub fn contain<R>(f: impl FnOnce() -> R) -> Result<R, PanicPayload> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
}

/// First-panic-wins payload slot shared by one run/scope: every task
/// fragment captures into it, the caller re-throws after the join.
#[derive(Default)]
pub struct PanicSlot {
    slot: Mutex<Option<PanicPayload>>,
}

impl PanicSlot {
    /// An empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `payload` unless an earlier panic already won.
    pub fn capture(&self, payload: PanicPayload) {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Run `f` through [`contain`], capturing its panic (if any) here.
    pub fn run_contained(&self, f: impl FnOnce()) {
        if let Err(payload) = contain(f) {
            self.capture(payload);
        }
    }

    /// Take the stored payload, if any.
    pub fn take(&self) -> Option<PanicPayload> {
        self.slot.lock().take()
    }

    /// Re-throw the stored panic on the calling thread. Call after the
    /// run's join point. If this thread is itself already unwinding,
    /// the payload is dropped instead — a second `resume_unwind`
    /// during an unwind aborts the process (double panic).
    pub fn resume_if_panicked(&self) {
        if let Some(payload) = self.take() {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// The cross-cutting state shared by every pool, and the single
/// implementation of the `Executor` hook surface. One per pool;
/// strategies reach it through [`WorkerCtx::core`].
pub struct RuntimeCore {
    threads: usize,
    topology: Topology,
    signal: WorkSignal,
    shutdown: ShutdownFlag,
    metrics: MetricsSink,
    /// Workers currently parked with nothing to do (the steal-pressure
    /// hint surfaced through `Executor::idle_workers`).
    idle: AtomicUsize,
    /// One single-producer track per participant (caller is track 0),
    /// plus the shared control track appended last.
    tracer: PoolTracer,
    /// Serialized handle to the control track: splits, cancels and
    /// early-exits originate from arbitrary threads between runs, but
    /// each ring is single-producer, so this one is behind a lock.
    ctl: Mutex<WorkerRecorder>,
    /// Installed fault-injection plan (zero-sized when the `fault`
    /// feature is off).
    faults: FaultInjector,
}

impl RuntimeCore {
    fn new(topology: Topology) -> Self {
        let threads = topology.threads();
        let tracer = PoolTracer::with_splitter_track(threads, false);
        let ctl = Mutex::new(tracer.splitter_recorder());
        RuntimeCore {
            threads,
            topology,
            signal: WorkSignal::new(),
            shutdown: ShutdownFlag::new(),
            metrics: MetricsSink::new(),
            idle: AtomicUsize::new(0),
            tracer,
            ctl,
            faults: FaultInjector::new(),
        }
    }

    /// Participants per run, caller included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The worker → NUMA-node map this runtime was built on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The pool's one metrics sink.
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// The pool's fault-injection owner.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Counter snapshot (the `Executor::metrics` hook).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Histogram snapshot (the `Executor::hist_snapshot` hook).
    pub fn hist_snapshot(&self) -> HistSet {
        self.metrics.hist_snapshot()
    }

    /// Workers currently parked (the `Executor::idle_workers` hook).
    pub fn idle_workers(&self) -> usize {
        self.idle.load(Ordering::Relaxed)
    }

    /// Drain the event trace under `discipline`'s label (the
    /// `Executor::take_trace` hook).
    pub fn take_trace(&self, discipline: &'static str) -> TraceLog {
        self.tracer.take(discipline, self.threads)
    }

    /// The `Executor::record_split` hook: count the split and put a
    /// `RangeSplit` event on the shared control track.
    pub fn record_split(&self, size: u64) {
        self.metrics.record_split();
        self.ctl.lock().record(EventKind::RangeSplit { size });
    }

    /// The `Executor::record_claim` hook.
    pub fn record_claim(&self, size: u64) {
        self.metrics.observe(HistKind::ClaimSize, size);
    }

    /// The `Executor::record_cancel` hook: fold the counters and put a
    /// `Cancel` event on the control track when anything was skipped.
    pub fn record_cancel(&self, checks: u64, cancelled: u64) {
        self.metrics.record_cancel(checks, cancelled);
        if cancelled > 0 {
            self.ctl
                .lock()
                .record(EventKind::Cancel { tasks: cancelled });
        }
    }

    /// The `Executor::record_search` hook: fold the counters and put an
    /// `EarlyExit` event on the control track when a region bailed.
    pub fn record_search(&self, early_exits: u64, wasted: u64) {
        self.metrics.record_search(early_exits, wasted);
        if early_exits > 0 {
            self.ctl.lock().record(EventKind::EarlyExit { wasted });
        }
    }

    /// The `Executor::record_stream` hook: fold a streaming region's
    /// backpressure stalls and teardown drops into the counters.
    pub fn record_stream(&self, push_waits: u64, dropped: u64) {
        self.metrics.record_stream(push_waits, dropped);
    }

    /// The `Executor::record_stage_burst` hook: put a `StageBurst`
    /// event on the shared control track — stage `stage` processed
    /// `items` items in one scheduling burst. Gated on the trace build
    /// so the per-burst lock costs nothing in normal builds.
    pub fn record_stage_burst(&self, stage: u64, items: u64) {
        if pstl_trace::enabled() {
            self.ctl
                .lock()
                .record(EventKind::StageBurst { stage, items });
        }
    }

    /// The `Executor::install_fault_plan` hook.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.faults.install(plan);
    }

    /// Announce new work: bump the signal epoch and wake all parked
    /// workers.
    pub fn notify(&self) {
        self.signal.notify_all();
    }

    /// Current signal epoch (pass to [`park`](Self::park) after a dry
    /// `try_work`, read *before* looking for work so a concurrent
    /// `notify` cannot be missed).
    pub fn epoch(&self) -> usize {
        self.signal.epoch()
    }

    /// Whether the pool is shutting down.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.is_triggered()
    }

    /// The park half of the idle protocol: record the park, sleep until
    /// the signal epoch moves past `seen`, record the wakeup. Only
    /// worker threads call this; the caller helps via latches instead.
    fn park(&self, seen: usize, rec: &WorkerRecorder) {
        self.metrics.record_park();
        rec.record(EventKind::Park);
        self.idle.fetch_add(1, Ordering::Relaxed);
        self.signal.sleep_unless_changed(seen);
        self.idle.fetch_sub(1, Ordering::Relaxed);
        self.metrics.record_parked_wakeup();
        rec.record(EventKind::Unpark);
    }

    /// The `threads == 1` fast path shared by every pool: no workers
    /// exist, so the region runs strictly inline (fault hooks still
    /// consulted, no metrics — there is nothing scheduled).
    pub fn run_inline(&self, tasks: usize, body: &(dyn Fn(usize) + Sync)) {
        let faults = self.faults.hook();
        for i in 0..tasks {
            faults.on_task();
            body(i);
        }
    }
}

/// Everything the runtime hands a participant: the shared core, the
/// participant's index and NUMA node, and its single-producer trace
/// recorder. The caller (worker 0) gets one from
/// [`Runtime::caller_ctx`]; spawned workers get theirs from the loop.
pub struct WorkerCtx<'a> {
    /// The pool's shared core.
    pub core: &'a RuntimeCore,
    /// Participant index; 0 is the caller.
    pub worker: usize,
    /// NUMA node of this participant per the pool topology.
    pub node: usize,
    /// This participant's trace recorder (single-producer: only valid
    /// while the participant is exclusive, i.e. worker threads always,
    /// the caller while it holds the run serialization lock).
    pub rec: WorkerRecorder,
}

impl WorkerCtx<'_> {
    /// Run one task fragment of `size` indices inside the runtime's
    /// accounting envelope: claim-size + duration metrics and
    /// `TaskStart`/`TaskFinish` events. Panic containment is the
    /// *callee's* job (`Job::execute_*` or [`contain`]) so the latch
    /// discipline stays next to the scheduling decision; `f` must not
    /// unwind.
    pub fn task_scope(&self, size: u64, f: impl FnOnce()) {
        let timer = self.core.metrics.task_timer(size);
        self.rec.record(EventKind::TaskStart { size });
        f();
        self.rec.record(EventKind::TaskFinish);
        timer.finish();
    }
}

/// A scheduling discipline, reduced to its decisions. Implementations
/// supply per-participant state and "execute one unit of work"; the
/// runtime owns everything else (threads, parking, envelopes, metrics,
/// traces, faults, shutdown).
///
/// What a strategy may do in `try_work`: pop/steal/split its own data
/// structures, execute task fragments through [`WorkerCtx::task_scope`]
/// and the `Job` envelope, and record discipline-specific events on
/// `ctx.rec`. What it must not do: park, spawn threads, call
/// `catch_unwind`, or touch another participant's recorder.
pub trait WorkerStrategy: Send + Sync + 'static {
    /// Per-participant scheduling state (a deque, an RNG, an epoch
    /// cursor — whatever the discipline needs thread-locally).
    type Local: Send + 'static;

    /// Build the local state of participant `worker` (0 = caller).
    /// Called once per participant at pool construction.
    fn make_local(&self, worker: usize) -> Self::Local;

    /// Find and execute at most one unit of work. Return `true` if any
    /// work ran (the worker loop retries immediately), `false` if the
    /// discipline is dry (the worker checks shutdown and parks).
    fn try_work(&self, ctx: &WorkerCtx<'_>, local: &mut Self::Local) -> bool;
}

struct RtShared<S: WorkerStrategy> {
    /// Arc'd so layers above the pool (the job service) can hold the
    /// core — metrics, faults, signal — without owning the pool itself:
    /// a worker-held reference to the core must never be able to become
    /// the last owner of the thread handles it would then self-join.
    core: Arc<RuntimeCore>,
    strategy: S,
}

/// The worker-thread half of the runtime: `threads - 1` spawned workers
/// running `S`'s scheduling loop, plus the caller's own local state
/// behind the run-serialization lock. Dropping joins every worker.
pub struct Runtime<S: WorkerStrategy> {
    shared: Arc<RtShared<S>>,
    /// The caller's (`worker 0`) scheduling state. Locking it *is* the
    /// run serialization: only one user thread acts as worker 0 at a
    /// time, which also guards trace track 0.
    caller: Mutex<S::Local>,
    handles: Vec<JoinHandle<()>>,
}

impl<S: WorkerStrategy> Runtime<S> {
    /// Build the runtime on `topology` with `make(&topology)`'s
    /// strategy, spawning `threads - 1` named workers
    /// (`pstl-<name>-<index>`). A worker that fails to spawn — really
    /// or via `plan`'s injected spawn fault — does not abort
    /// construction: the partial team is torn down and everything
    /// (strategy included, since its state is sized to the team) is
    /// rebuilt on the surviving prefix of the topology. Each failure
    /// is logged and counted in the `spawn_failures` metric.
    pub fn build(
        name: &'static str,
        topology: Topology,
        plan: FaultPlan,
        make: impl Fn(&Topology) -> S,
    ) -> Self {
        let mut topology = topology;
        let mut failures = 0u64;
        loop {
            match Self::try_build(name, topology.clone(), &plan, &make) {
                Ok(rt) => {
                    rt.shared.core.metrics.record_spawn_failures(failures);
                    rt.shared.core.faults.install(plan);
                    return rt;
                }
                Err((reached, err)) => {
                    failures += 1;
                    eprintln!(
                        "pstl-executor: failed to spawn {name} worker {reached} ({err}); \
                         falling back to {reached} threads"
                    );
                    topology = topology.truncated(reached);
                }
            }
        }
    }

    /// Spawn the team; on the first spawn failure tear the partial team
    /// down and report how many threads (caller included) are viable.
    fn try_build(
        name: &'static str,
        topology: Topology,
        plan: &FaultPlan,
        make: &impl Fn(&Topology) -> S,
    ) -> Result<Self, (usize, String)> {
        let threads = topology.threads();
        // The strategy is rebuilt on every attempt: its state (deques,
        // victim lists, seats) is sized to the team, which shrinks when
        // a spawn fails.
        let strategy = make(&topology);
        let shared = Arc::new(RtShared {
            core: Arc::new(RuntimeCore::new(topology)),
            strategy,
        });
        let mut handles = Vec::with_capacity(threads.saturating_sub(1));
        for w in 1..threads {
            let spawned = if fault::spawn_should_fail(plan, w) {
                Err(std::io::Error::other(fault::INJECTED_PANIC))
            } else {
                let local = shared.strategy.make_local(w);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pstl-{name}-{w}"))
                    .spawn(move || worker_loop(&shared, w, local))
            };
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(err) => {
                    shared.core.shutdown.trigger();
                    shared.core.notify();
                    for handle in handles {
                        let _ = handle.join();
                    }
                    return Err((w, err.to_string()));
                }
            }
        }
        let caller = Mutex::new(shared.strategy.make_local(0));
        Ok(Runtime {
            shared,
            caller,
            handles,
        })
    }

    /// The shared core (metrics, tracer, topology, signal, faults).
    pub fn core(&self) -> &RuntimeCore {
        &self.shared.core
    }

    /// An owning handle on the core, for layers that outlive individual
    /// borrows (e.g. the job service's dispatcher and workers). Holding
    /// it does NOT keep the pool's threads alive — dropping it joins
    /// nothing.
    pub fn core_arc(&self) -> Arc<RuntimeCore> {
        Arc::clone(&self.shared.core)
    }

    /// The installed strategy.
    pub fn strategy(&self) -> &S {
        &self.shared.strategy
    }

    /// Lock the caller's scheduling state, serializing runs. Hold the
    /// guard for the whole region; it also guards trace track 0.
    pub fn lock_caller(&self) -> MutexGuard<'_, S::Local> {
        self.caller.lock()
    }

    /// The caller-participant context (worker 0). Only record on its
    /// `rec` while holding the [`lock_caller`](Self::lock_caller)
    /// guard.
    pub fn caller_ctx(&self) -> WorkerCtx<'_> {
        WorkerCtx {
            core: &self.shared.core,
            worker: 0,
            node: self.shared.core.topology.node_of(0),
            rec: self.shared.core.tracer.recorder(0),
        }
    }
}

fn worker_loop<S: WorkerStrategy>(shared: &RtShared<S>, worker: usize, mut local: S::Local) {
    let ctx = WorkerCtx {
        core: &shared.core,
        worker,
        node: shared.core.topology.node_of(worker),
        rec: shared.core.tracer.recorder(worker),
    };
    loop {
        // Epoch read precedes the work search: a notify between a dry
        // search and the park bumps the epoch, so the park returns
        // immediately instead of missing the wakeup.
        let seen = shared.core.epoch();
        if shared.strategy.try_work(&ctx, &mut local) {
            continue;
        }
        if shared.core.is_shutdown() {
            return;
        }
        shared.core.park(seen, &ctx.rec);
    }
}

impl<S: WorkerStrategy> Drop for Runtime<S> {
    fn drop(&mut self) {
        self.shared.core.shutdown.trigger();
        self.shared.core.notify();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injector::Injector;
    use crate::latch::WaitGroup;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The minimal consumer of the runtime contract: a strategy that
    /// drains queued unit closures.
    struct CounterStrategy {
        queue: Injector<Box<dyn FnOnce() + Send>>,
    }

    impl WorkerStrategy for CounterStrategy {
        type Local = ();

        fn make_local(&self, _worker: usize) {}

        fn try_work(&self, ctx: &WorkerCtx<'_>, _local: &mut ()) -> bool {
            match self.queue.pop() {
                Some(f) => {
                    ctx.task_scope(1, || {
                        let _ = contain(f);
                    });
                    true
                }
                None => false,
            }
        }
    }

    fn counter_rt(threads: usize) -> Runtime<CounterStrategy> {
        Runtime::build("test", Topology::flat(threads), FaultPlan::none(), |_| {
            CounterStrategy {
                queue: Injector::new(),
            }
        })
    }

    #[test]
    fn contain_passes_values_and_captures_panics() {
        assert_eq!(contain(|| 41 + 1).unwrap(), 42);
        let payload = contain(|| panic!("boom")).unwrap_err();
        assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "boom");
    }

    #[test]
    fn panic_slot_first_panic_wins() {
        let slot = PanicSlot::new();
        slot.run_contained(|| {});
        assert!(slot.take().is_none());
        slot.run_contained(|| std::panic::panic_any("first"));
        slot.run_contained(|| std::panic::panic_any("second"));
        let payload = slot.take().expect("panic captured");
        assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "first");
        assert!(slot.take().is_none(), "take drains the slot");
        slot.resume_if_panicked(); // empty slot: must not throw
    }

    #[test]
    fn workers_drain_queued_work() {
        let rt = counter_rt(3);
        let hits = Arc::new(AtomicUsize::new(0));
        let wg = Arc::new(WaitGroup::new());
        let n = 64;
        wg.add(n);
        for _ in 0..n {
            let hits = Arc::clone(&hits);
            let wg = Arc::clone(&wg);
            rt.strategy().queue.push(Box::new(move || {
                hits.fetch_add(1, Ordering::Relaxed);
                wg.done();
            }));
        }
        rt.core().notify();
        let mut caller = rt.lock_caller();
        let ctx = rt.caller_ctx();
        wg.wait_while_helping(|| rt.strategy().try_work(&ctx, &mut *caller));
        assert_eq!(hits.load(Ordering::Relaxed), n);
        assert!(rt.core().snapshot().tasks_executed >= n as u64);
    }

    #[test]
    fn panicking_task_does_not_kill_worker() {
        let rt = counter_rt(2);
        let wg = Arc::new(WaitGroup::new());
        wg.add(2);
        for _ in 0..2 {
            let wg = Arc::clone(&wg);
            rt.strategy().queue.push(Box::new(move || {
                let wg = wg; // moved before the unwind
                wg.done();
                panic!("contained");
            }));
        }
        rt.core().notify();
        let mut caller = rt.lock_caller();
        let ctx = rt.caller_ctx();
        wg.wait_while_helping(|| rt.strategy().try_work(&ctx, &mut *caller));
    }

    #[test]
    fn run_inline_covers_index_space_in_order() {
        let rt = counter_rt(1);
        let log = Mutex::new(Vec::new());
        rt.core().run_inline(5, &|i| log.lock().push(i));
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn hooks_route_through_core() {
        let rt = counter_rt(2);
        let core = rt.core();
        core.record_split(16);
        core.record_claim(8);
        core.record_cancel(10, 3);
        core.record_search(1, 4);
        core.record_stream(6, 2);
        let s = core.snapshot();
        assert_eq!(s.splits, 1);
        assert_eq!(s.cancel_checks, 10);
        assert_eq!(s.cancelled_tasks, 3);
        assert_eq!(s.early_exits, 1);
        assert_eq!(s.wasted_chunks, 4);
        assert_eq!(s.stage_push_waits, 6);
        assert_eq!(s.items_dropped, 2);
    }

    #[test]
    fn drop_joins_workers() {
        // Mostly a does-not-hang test.
        let rt = counter_rt(4);
        rt.core().notify();
        drop(rt);
    }

    #[cfg(feature = "fault")]
    #[test]
    fn spawn_failure_truncates_team() {
        let rt = Runtime::build(
            "test",
            Topology::flat(4),
            FaultPlan::none().with_spawn_failure(2),
            |_| CounterStrategy {
                queue: Injector::new(),
            },
        );
        assert_eq!(rt.core().threads(), 2, "team truncated at the failure");
        assert_eq!(rt.core().snapshot().spawn_failures, 1);
    }
}
