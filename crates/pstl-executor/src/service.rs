//! Multi-tenant job service over the shared runtime.
//!
//! The pools below this layer answer "how do we run one parallel region
//! fast"; [`JobService`] answers "what happens when thousands of small
//! jobs from many tenants arrive faster than they can run". It is the
//! serving-traffic front end the roadmap's north star asks for, built
//! directly on [`TaskPool`]'s spawn/future surface and engineered for
//! *graceful* behavior at and past saturation:
//!
//! * **admission control** — a bounded queue plus per-tenant in-flight
//!   quotas; refusals are typed ([`Rejected`]) and counted, never
//!   silent;
//! * **deadline propagation** — every job carries a [`CancelToken`]
//!   (optionally armed with a deadline). Jobs whose deadline expires
//!   while still queued are *shed before execution* and counted apart
//!   from jobs cancelled mid-flight; a token tripped explicitly while
//!   queued sheds too, but as [`ShedReason::Cancelled`], so the
//!   deadline counters only count genuine expiries;
//! * **retry with exponential backoff** — transient failures (body
//!   panics that are not cancellation bail-outs) are re-queued with
//!   deterministically jittered backoff, bounded by
//!   [`RetryPolicy::max_retries`];
//! * **prioritized load shedding** — three [`Priority`] classes; under
//!   overload the lowest class is shed first and the highest class is
//!   never displaced by lower traffic;
//! * **tiny-job batching** — the paper's grain-size crossover applied
//!   to request traffic: consecutive same-class jobs whose cost hint is
//!   below [`BatchPolicy::tiny_cost`] are dispatched as one pool task,
//!   so per-task scheduling overhead cannot dominate at high offered
//!   load;
//! * **caller-runs** — a client blocked in [`JobHandle::wait`] on a job
//!   that is next in line runs it on its own thread instead of sleeping
//!   through three thread hops (the runtime's master-participates rule,
//!   applied to the one thread certainly idle: the one waiting).
//!
//! Every admission decision is booked once, in the service's own ledger
//! ([`JobService::stats`], a [`ServiceStatsSnapshot`]: admissions,
//! typed refusals, sheds by reason, retries, caller-runs, per-class
//! outcomes); the pool counters keep only pool facts (cancellations
//! count there as `cancelled_tasks`), and dispatch latency feeds the
//! [`HistKind::QueueWait`] histogram. The service keeps the exact
//! conservation law `admitted == completed + shed + cancelled + failed`
//! once drained — the overload chaos suite asserts it after every
//! scenario.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::cancel::{CancelToken, Cancelled};
use crate::futures::{future_promise, Future, Promise};
use crate::metrics::HistKind;
use crate::runtime::contain;
use crate::task_pool::TaskPool;

/// Job priority class. Under overload the service sheds [`Low`] first,
/// then [`Normal`]; [`High`] is only ever shed by its own deadline or
/// an explicit shutdown.
///
/// [`Low`]: Priority::Low
/// [`Normal`]: Priority::Normal
/// [`High`]: Priority::High
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Best-effort traffic: first to be shed.
    Low = 0,
    /// Default class.
    Normal = 1,
    /// Latency-critical traffic: never displaced by lower classes.
    High = 2,
}

impl Priority {
    /// Every class, lowest first (shedding order).
    pub const ALL: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

    /// Stable lowercase name, used in stats and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    /// Index into per-class arrays, in [`Priority::ALL`] order (also
    /// the layout of [`ServiceStatsSnapshot::per_class`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Why a submission was refused at admission. Rejected jobs were never
/// admitted: they appear in the `rejected_*` stats and in no other
/// counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded queue is at capacity and no lower-priority job could
    /// be displaced.
    QueueFull,
    /// The tenant already has its quota of jobs admitted and not yet
    /// resolved.
    Quota,
    /// The service is in shedding mode (queue past the watermark, or
    /// shutting down, or an injected admission fault) and refuses this
    /// class.
    Shedding,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull => f.write_str("admission refused: queue full"),
            Rejected::Quota => f.write_str("admission refused: tenant quota exhausted"),
            Rejected::Shedding => f.write_str("admission refused: shedding load"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Why an *admitted* job was dropped without executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Displaced by higher-priority traffic under overload.
    Overload,
    /// Its deadline expired while it was still queued.
    DeadlineExpired,
    /// Its [`CancelToken`] was tripped explicitly (via
    /// [`JobHandle::token`]) while it was still queued. Kept apart from
    /// [`DeadlineExpired`](Self::DeadlineExpired) so the deadline
    /// counters only count genuine expiries; a job whose deadline has
    /// *also* passed by the time the shed is classified counts as
    /// expired.
    Cancelled,
    /// The service shut down before the job was dispatched.
    Shutdown,
}

/// Terminal state of an admitted job, reported through its
/// [`JobHandle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The body ran to completion.
    Completed(T),
    /// Dropped before execution (see [`ShedReason`]).
    Shed(ShedReason),
    /// The body observed its tripped [`CancelToken`] and bailed, or the
    /// token tripped between dispatch and execution.
    Cancelled,
    /// Every attempt panicked on a transient fault; `attempts` is the
    /// total number of body executions (1 + retries).
    Failed {
        /// Body executions consumed, including the first.
        attempts: u32,
    },
}

impl<T> JobOutcome<T> {
    /// The completed value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            JobOutcome::Completed(v) => Some(v),
            _ => None,
        }
    }
}

/// Retry policy for transient execution failures.
///
/// Backoff for retry *n* (1-based) is `base * 2^(n-1)`, capped at
/// `cap`, then stretched by a deterministic jitter factor in `[1, 1.5)`
/// derived from `jitter_seed`, the job id, and the attempt number — two
/// runs of the same workload back off identically, but co-failing jobs
/// do not thunder back in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum re-executions after the first attempt (0 disables
    /// retry).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on the un-jittered backoff.
    pub cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(10),
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before retry `attempt` (1-based) of `job`.
    pub fn backoff(&self, job_id: u64, attempt: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32 << (attempt - 1).min(20));
        let capped = exp.min(self.cap);
        // xorshift64 over (seed ^ id ^ attempt): cheap, deterministic,
        // and distinct per (job, attempt) pair.
        let mut x = self.jitter_seed ^ job_id.rotate_left(17) ^ u64::from(attempt);
        x |= 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let jitter = 1.0 + (x >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        capped.mul_f64(jitter)
    }
}

/// Tiny-job batching policy: consecutive same-class jobs whose cost
/// hint is at or below `tiny_cost` are dispatched as one pool task of
/// up to `max_batch` jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Cost-hint threshold below which a job counts as tiny.
    pub tiny_cost: Duration,
    /// Maximum jobs folded into one dispatch.
    pub max_batch: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            tiny_cost: Duration::from_micros(50),
            max_batch: 8,
        }
    }
}

/// Configuration of a [`JobService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing jobs (at least 1). `submit` wakes one
    /// while fewer than `threads` pull tasks are pending or running;
    /// the dispatcher thread is separate and never executes bodies. A
    /// client blocked in [`JobHandle::wait`] may run its own job on its
    /// own thread, so bodies also execute on client threads — all of
    /// them within [`dispatch_window`](Self::dispatch_window).
    pub threads: usize,
    /// Maximum jobs queued (all classes plus pending retries). Beyond
    /// this, admission displaces lower-priority jobs or refuses.
    pub queue_cap: usize,
    /// Maximum jobs per tenant admitted and not yet resolved.
    pub tenant_quota: usize,
    /// Maximum jobs taken for execution at once, whether by a worker or
    /// by a waiting caller (see [`JobHandle::wait`]). At most this many
    /// bodies execute concurrently: a tiny batch counts each of its jobs
    /// against the window but runs them one after another.
    pub dispatch_window: usize,
    /// Queue depth at which the service enters shedding mode and
    /// refuses new [`Priority::Low`] work.
    pub shed_watermark: usize,
    /// Deadline applied to jobs whose spec carries none (`None` means
    /// no implicit deadline).
    pub default_deadline: Option<Duration>,
    /// Transient-failure retry policy.
    pub retry: RetryPolicy,
    /// Tiny-job batching policy.
    pub batch: BatchPolicy,
}

impl ServiceConfig {
    /// Defaults sized for `threads` workers: queue of 1024, watermark
    /// at 3/4 of it, a 2-per-worker dispatch window, and a generous
    /// per-tenant quota.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        ServiceConfig {
            threads,
            queue_cap: 1024,
            tenant_quota: 256,
            dispatch_window: threads * 2,
            shed_watermark: 768,
            default_deadline: None,
            retry: RetryPolicy::default(),
            batch: BatchPolicy::default(),
        }
    }

    /// Set the queue capacity and its shedding watermark (3/4 of cap).
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self.shed_watermark = (cap.max(1) * 3 / 4).max(1);
        self
    }

    /// Set the per-tenant in-flight quota.
    pub fn with_tenant_quota(mut self, quota: usize) -> Self {
        self.tenant_quota = quota.max(1);
        self
    }

    /// Set the dispatch window (max jobs executing at once, on workers
    /// and waiting callers together).
    pub fn with_dispatch_window(mut self, window: usize) -> Self {
        self.dispatch_window = window.max(1);
        self
    }

    /// Set the shedding watermark explicitly.
    pub fn with_shed_watermark(mut self, watermark: usize) -> Self {
        self.shed_watermark = watermark.max(1);
        self
    }

    /// Apply `deadline` to jobs that don't carry their own.
    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Set the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Set the batching policy.
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }
}

/// Per-job submission parameters.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// Tenant the job counts against for quota purposes.
    pub tenant: u64,
    /// Priority class.
    pub priority: Priority,
    /// Expected execution cost, consulted by the batching policy
    /// (jobs at or below [`BatchPolicy::tiny_cost`] may share a
    /// dispatch).
    pub cost_hint: Duration,
    /// Deadline from submission; `None` falls back to the service
    /// default.
    pub deadline: Option<Duration>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            tenant: 0,
            priority: Priority::Normal,
            cost_hint: Duration::from_micros(100),
            deadline: None,
        }
    }
}

impl JobSpec {
    /// A spec for `tenant` at [`Priority::Normal`].
    pub fn tenant(tenant: u64) -> Self {
        JobSpec {
            tenant,
            ..Default::default()
        }
    }

    /// Set the priority class.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Set the cost hint.
    pub fn cost(mut self, cost: Duration) -> Self {
        self.cost_hint = cost;
        self
    }

    /// Set an explicit deadline.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }
}

/// The caller's handle on an admitted job.
pub struct JobHandle<T> {
    id: u64,
    token: CancelToken,
    future: Future<(JobOutcome<T>, Instant)>,
    /// Lets a waiter run its own job (see [`wait`](Self::wait)). Safe to
    /// hold past the service: [`Shared`] does not own the pool.
    shared: Arc<Shared>,
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("resolved", &self.future.is_ready())
            .finish()
    }
}

impl<T> JobHandle<T> {
    /// Service-assigned job id (unique per service instance).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The job's cancellation token; tripping it cancels the job
    /// cooperatively (shed if still queued, bailed if running and the
    /// body polls).
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Whether the job has reached a terminal state.
    pub fn is_resolved(&self) -> bool {
        self.future.is_ready()
    }

    /// Block until the job resolves.
    ///
    /// Caller-runs: if the job is still queued and the batch a worker
    /// would take next holds it (same class order, dispatch window,
    /// cancelled-head shedding and tiny-job batching as a worker), the
    /// caller takes that batch and runs it on its own thread, with the
    /// same panic envelope, retry path and counters. It tries once,
    /// before blocking; otherwise it just blocks. A waiter therefore
    /// never jumps priority order nor runs another client's long job,
    /// and caller-run bodies count against
    /// [`ServiceConfig::dispatch_window`] like any other. A body that
    /// panics on the caller's thread is retried on a worker.
    pub fn wait(self) -> JobOutcome<T> {
        self.wait_timed().0
    }

    /// Block until the job resolves, also returning the instant the
    /// terminal state was reached (for latency accounting in load
    /// generators: `resolved - submitted` is the client-visible
    /// latency even when the caller harvests handles late). Runs the
    /// job on the caller's thread under the same rule as
    /// [`wait`](Self::wait).
    pub fn wait_timed(self) -> (JobOutcome<T>, Instant) {
        if !self.future.is_ready() {
            self.shared.run_own(self.id);
        }
        match self.future.try_wait() {
            Ok(v) => v,
            // Unreachable by construction — the service resolves every
            // admitted job exactly once — but a lost promise must
            // surface as a failure, not a panic in the caller.
            Err(_) => (JobOutcome::Failed { attempts: 0 }, Instant::now()),
        }
    }
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct ClassCounters {
    admitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
}

/// Service-level counters (richer than the pool's scheduling counters:
/// rejection reasons and per-class terminal outcomes).
#[derive(Debug, Default)]
pub struct ServiceStats {
    admitted: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_shedding: AtomicU64,
    completed: AtomicU64,
    shed_overload: AtomicU64,
    shed_deadline: AtomicU64,
    shed_cancelled: AtomicU64,
    shed_shutdown: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    retries: AtomicU64,
    caller_runs: AtomicU64,
    class: [ClassCounters; 3],
}

/// Point-in-time copy of [`ServiceStats`], serialized into experiment
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct ServiceStatsSnapshot {
    /// Jobs accepted past admission.
    pub admitted: u64,
    /// Refusals: bounded queue at capacity.
    pub rejected_queue_full: u64,
    /// Refusals: tenant quota exhausted.
    pub rejected_quota: u64,
    /// Refusals: shedding mode, shutdown, or injected admission fault.
    pub rejected_shedding: u64,
    /// Jobs whose body ran to completion.
    pub completed: u64,
    /// Admitted jobs displaced by higher-priority traffic.
    pub shed_overload: u64,
    /// Admitted jobs whose deadline expired in queue.
    pub shed_deadline: u64,
    /// Admitted jobs explicitly cancelled while still queued (token
    /// tripped with no expired deadline).
    pub shed_cancelled: u64,
    /// Admitted jobs dropped by shutdown.
    pub shed_shutdown: u64,
    /// Jobs cancelled at or during execution.
    pub cancelled: u64,
    /// Jobs that exhausted their retry budget.
    pub failed: u64,
    /// Retry re-queues (bounded by `admitted * max_retries`).
    pub retries: u64,
    /// Job executions run by a client blocked in [`JobHandle::wait`]
    /// rather than by a worker. A count of where bodies ran, not part
    /// of the conservation law.
    pub caller_runs: u64,
    /// Terminal outcomes by class, in [`Priority::ALL`] order.
    pub per_class: [ClassStatsSnapshot; 3],
}

/// Per-class slice of [`ServiceStatsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct ClassStatsSnapshot {
    /// Class name (`low` / `normal` / `high`).
    pub class: &'static str,
    /// Jobs of this class accepted past admission.
    pub admitted: u64,
    /// Completed bodies.
    pub completed: u64,
    /// Shed before execution (any [`ShedReason`]).
    pub shed: u64,
    /// Cancelled at or during execution.
    pub cancelled: u64,
    /// Retry budget exhausted.
    pub failed: u64,
}

impl ServiceStatsSnapshot {
    /// Total admitted jobs shed before execution.
    pub fn shed_total(&self) -> u64 {
        self.shed_overload + self.shed_deadline + self.shed_cancelled + self.shed_shutdown
    }

    /// Total refusals at admission.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_queue_full + self.rejected_quota + self.rejected_shedding
    }

    /// The conservation law every drained service satisfies:
    /// `admitted == completed + shed + cancelled + failed`.
    pub fn accounting_balanced(&self) -> bool {
        self.admitted == self.completed + self.shed_total() + self.cancelled + self.failed
    }
}

impl ServiceStats {
    fn snapshot(&self) -> ServiceStatsSnapshot {
        let o = Ordering::Relaxed;
        let class = |i: usize| {
            let c: &ClassCounters = &self.class[i];
            ClassStatsSnapshot {
                class: Priority::ALL[i].name(),
                admitted: c.admitted.load(o),
                completed: c.completed.load(o),
                shed: c.shed.load(o),
                cancelled: c.cancelled.load(o),
                failed: c.failed.load(o),
            }
        };
        ServiceStatsSnapshot {
            admitted: self.admitted.load(o),
            rejected_queue_full: self.rejected_queue_full.load(o),
            rejected_quota: self.rejected_quota.load(o),
            rejected_shedding: self.rejected_shedding.load(o),
            completed: self.completed.load(o),
            shed_overload: self.shed_overload.load(o),
            shed_deadline: self.shed_deadline.load(o),
            shed_cancelled: self.shed_cancelled.load(o),
            shed_shutdown: self.shed_shutdown.load(o),
            cancelled: self.cancelled.load(o),
            failed: self.failed.load(o),
            retries: self.retries.load(o),
            caller_runs: self.caller_runs.load(o),
            per_class: [class(0), class(1), class(2)],
        }
    }
}

// ---------------------------------------------------------------------
// Internal job plumbing
// ---------------------------------------------------------------------

/// Outcome of one body execution attempt.
enum Attempt {
    /// Promise resolved with `Completed`.
    Completed,
    /// Promise resolved with `Cancelled` (the body bailed).
    Cancelled,
    /// Transient panic; the promise is still pending for retry or
    /// `Failed` resolution.
    Panicked,
}

type RunFn = Box<dyn FnMut(&CancelToken) -> Attempt + Send>;
type FinishFn = Box<dyn FnOnce(Terminal) + Send>;

/// Terminal states resolved outside the body (the body itself resolves
/// `Completed`/`Cancelled` inline, where the typed value is visible).
enum Terminal {
    Shed(ShedReason),
    Cancelled,
    Failed { attempts: u32 },
}

struct QueuedJob {
    id: u64,
    tenant: u64,
    priority: Priority,
    tiny: bool,
    token: CancelToken,
    enqueued: Instant,
    /// Body executions consumed so far.
    attempts: u32,
    run: RunFn,
    finish: FinishFn,
}

impl QueuedJob {
    /// Why a job whose token tripped *in queue* is being shed: a
    /// genuine expiry only when the token was armed with a deadline
    /// that has passed, an explicit client cancel otherwise. Classified
    /// at shed time, so a job cancelled explicitly whose deadline has
    /// since also passed counts as expired — the deadline counters stay
    /// an upper bound on real expiries either way.
    fn cancel_shed_reason(&self) -> ShedReason {
        match self.token.deadline() {
            Some(d) if Instant::now() >= d => ShedReason::DeadlineExpired,
            _ => ShedReason::Cancelled,
        }
    }
}

struct RetryEntry {
    due: Instant,
    job: QueuedJob,
}

#[derive(Default)]
struct Inner {
    /// One FIFO per class, indexed by `Priority::index()`.
    classes: [VecDeque<QueuedJob>; 3],
    /// Jobs awaiting their backoff, unordered (scanned for due ones).
    retries: Vec<RetryEntry>,
    /// Jobs taken for execution — running on a worker or on a waiting
    /// caller — and not yet resolved/re-queued.
    in_flight: usize,
    /// Pull tasks ([`Shared::run_batch`]) pending or running on the
    /// pool, at most `threads`.
    pulls: usize,
    /// Of `pulls`, those running a batch: they take no other work
    /// until it ends.
    busy_pulls: usize,
    /// Admitted-unresolved jobs per tenant.
    tenants: HashMap<u64, usize>,
    shutdown: bool,
}

impl Inner {
    fn queued(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum::<usize>() + self.retries.len()
    }

    fn is_drained(&self) -> bool {
        self.queued() == 0 && self.in_flight == 0
    }

    fn tenant_release(&mut self, tenant: u64) {
        if let Some(n) = self.tenants.get_mut(&tenant) {
            *n -= 1;
            if *n == 0 {
                self.tenants.remove(&tenant);
            }
        }
    }
}

struct Shared {
    cfg: ServiceConfig,
    /// The pool's core (metrics, faults) — deliberately NOT the pool
    /// itself. Worker task closures and [`JobHandle`]s hold
    /// `Arc<Shared>`; if `Shared` owned the pool, a worker dropping the
    /// last reference would drop the pool from a worker thread and
    /// self-join. The pool is owned by [`JobService`] (and, while it
    /// runs, the dispatcher thread).
    core: Arc<crate::runtime::RuntimeCore>,
    inner: Mutex<Inner>,
    /// Wakes the dispatcher: a slot freed for its fallback, a retry
    /// re-queued, a shed, shutdown. `submit` does not signal it (it
    /// wakes a worker instead), and `join`/`shutdown` poll it every
    /// millisecond rather than rely on a signal.
    cond: Condvar,
    /// Arc'd so the typed run closures can bump terminal counters
    /// *before* resolving their promise (the accounting law must
    /// already hold when a waiter observes the outcome).
    stats: Arc<ServiceStats>,
}

impl Shared {
    /// Resolve a job as terminal and update every counter. Caller must
    /// have already removed the job from all queues; `inner` must NOT
    /// be locked (finish closures take the promise lock). A shed job was
    /// never taken for execution; a cancelled or failed one was, and
    /// leaves `in_flight` only after its counters are bumped, so a
    /// drained service always balances.
    fn resolve_terminal(&self, job: QueuedJob, terminal: Terminal) {
        let o = Ordering::Relaxed;
        let taken = !matches!(terminal, Terminal::Shed(_));
        let class = &self.stats.class[job.priority.index()];
        match &terminal {
            Terminal::Shed(reason) => {
                match reason {
                    ShedReason::Overload => self.stats.shed_overload.fetch_add(1, o),
                    ShedReason::DeadlineExpired => self.stats.shed_deadline.fetch_add(1, o),
                    ShedReason::Cancelled => self.stats.shed_cancelled.fetch_add(1, o),
                    ShedReason::Shutdown => self.stats.shed_shutdown.fetch_add(1, o),
                };
                class.shed.fetch_add(1, o);
            }
            Terminal::Cancelled => {
                self.stats.cancelled.fetch_add(1, o);
                class.cancelled.fetch_add(1, o);
                self.core.metrics().record_cancel(1, 1);
            }
            Terminal::Failed { .. } => {
                self.stats.failed.fetch_add(1, o);
                class.failed.fetch_add(1, o);
            }
        }
        (job.finish)(terminal);
        let mut inner = self.inner.lock();
        inner.in_flight -= usize::from(taken);
        inner.tenant_release(job.tenant);
        drop(inner);
        self.cond.notify_all();
    }

    /// Book a job whose body just resolved its own promise. The run
    /// closure already bumped the completed/cancelled stats *before*
    /// resolving (so the accounting law holds the instant a waiter
    /// sees the outcome); this only releases scheduling bookkeeping.
    /// Tenant quota therefore frees a beat *after* resolution — a
    /// client that resubmits the instant its wait returns can still
    /// briefly count as over quota.
    fn settle_executed(&self, job: QueuedJob, attempt: Attempt) {
        match attempt {
            Attempt::Completed => {}
            Attempt::Cancelled => self.core.metrics().record_cancel(1, 1),
            Attempt::Panicked => unreachable!("retry path handles panics"),
        }
        let mut inner = self.inner.lock();
        inner.in_flight -= 1;
        inner.tenant_release(job.tenant);
        // The freed slot matters to the dispatcher only if its fallback
        // can start a pull task for the work waiting on one.
        let wake = self.pulls_wanted(&inner) > 0;
        drop(inner);
        if wake {
            self.cond.notify_all();
        }
    }

    /// Execute one dispatched job on a worker or a waiting caller: run
    /// the body (panic containment inside), then either settle it or
    /// re-queue a retry.
    fn execute_one(self: &Arc<Self>, mut job: QueuedJob) {
        if job.token.is_cancelled() {
            // Tripped between dispatch and execution: the job *was*
            // dispatched, so this counts as a cancellation, not a shed.
            self.resolve_terminal(job, Terminal::Cancelled);
            return;
        }
        job.attempts += 1;
        match (job.run)(&job.token) {
            Attempt::Panicked => {
                let mut inner = self.inner.lock();
                // After shutdown is flagged the dispatcher may already
                // have passed (or finished) its drain; a retry pushed now
                // would sit in `retries` with no thread left to dispatch
                // or shed it, hanging `shutdown()`'s drain wait forever.
                // Every attempt so far panicked and shutdown denies the
                // remaining budget, so resolve terminally instead.
                if job.attempts > self.cfg.retry.max_retries || inner.shutdown {
                    drop(inner);
                    let attempts = job.attempts;
                    self.resolve_terminal(job, Terminal::Failed { attempts });
                    return;
                }
                inner.in_flight -= 1;
                job.enqueued = Instant::now();
                let due = job.enqueued + self.cfg.retry.backoff(job.id, job.attempts);
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
                inner.retries.push(RetryEntry { due, job });
                drop(inner);
                self.cond.notify_all();
            }
            done => self.settle_executed(job, done),
        }
    }

    /// Pop the next dispatchable batch under `inner`: highest class
    /// first, consecutive tiny same-class jobs coalesced, window
    /// respected (checked before the batch starts, so a tiny batch may
    /// overshoot it by at most `max_batch - 1` jobs — batching one pool
    /// task per batch is the point, a per-job window check would defeat
    /// it under tight windows). Cancelled-in-queue jobs encountered on
    /// the way are returned separately — they are sheds, not
    /// dispatches. With `own`, the batch is popped only if it holds job
    /// `own` (the caller-runs rule); otherwise nothing is.
    fn pop_batch(&self, inner: &mut Inner, own: Option<u64>) -> (Vec<QueuedJob>, Vec<QueuedJob>) {
        let mut sheds = Vec::new();
        while inner.in_flight < self.cfg.dispatch_window {
            let Some(class_idx) = (0..3).rev().find(|&c| !inner.classes[c].is_empty()) else {
                break;
            };
            let queue = &mut inner.classes[class_idx];
            if queue[0].token.is_cancelled() {
                // Expired between sweeps: still in queue, so this is a
                // shed, not an executed-then-cancelled job.
                sheds.extend(queue.pop_front());
                continue;
            }
            let len = if queue[0].tiny {
                1 + queue
                    .iter()
                    .skip(1)
                    .take(self.cfg.batch.max_batch.saturating_sub(1))
                    .take_while(|j| j.tiny && !j.token.is_cancelled())
                    .count()
            } else {
                1
            };
            if own.is_some_and(|id| !queue.iter().take(len).any(|j| j.id == id)) {
                break;
            }
            let batch: Vec<QueuedJob> = queue.drain(..len).collect();
            inner.in_flight += len;
            return (batch, sheds);
        }
        (Vec::new(), sheds)
    }

    /// Resolve jobs found cancelled in queue as sheds.
    fn shed_cancelled(&self, sheds: Vec<QueuedJob>) {
        for job in sheds {
            let reason = job.cancel_shed_reason();
            self.resolve_terminal(job, Terminal::Shed(reason));
        }
    }

    /// Record the admission→execution wait of every job in a batch.
    fn observe_queue_wait(&self, batch: &[QueuedJob]) {
        let now = Instant::now();
        for job in batch {
            self.core.metrics().observe(
                HistKind::QueueWait,
                now.duration_since(job.enqueued).as_nanos() as u64,
            );
        }
    }

    /// Run a batch taken for execution on this thread.
    fn execute_batch(self: &Arc<Self>, batch: Vec<QueuedJob>) {
        self.observe_queue_wait(&batch);
        for job in batch {
            self.execute_one(job);
        }
    }

    /// A pull task: take batches under [`pop_batch`](Self::pop_batch)'s
    /// rules until none is dispatchable. The worker that frees a slot
    /// takes the next highest-priority job itself, so under overload the
    /// top class's latency is bounded by one residual service time
    /// rather than by dispatcher wakeups. The task gives up its pull
    /// slot under the same lock that found nothing to take: a job queued
    /// after that sees the free slot in `submit`, which schedules a
    /// fresh pull task, and a job left behind a full window gets one
    /// from the dispatcher's fallback once a slot frees, so no job is
    /// stranded.
    fn run_batch(self: &Arc<Self>) {
        let mut busy = false;
        loop {
            let (batch, sheds) = {
                let mut inner = self.inner.lock();
                inner.busy_pulls -= usize::from(busy);
                // The dispatcher owns shutdown draining: queued jobs are
                // shed there, not executed here.
                let taken = if inner.shutdown {
                    (Vec::new(), Vec::new())
                } else {
                    self.pop_batch(&mut inner, None)
                };
                busy = !taken.0.is_empty();
                if busy {
                    inner.busy_pulls += 1;
                } else {
                    inner.pulls -= 1;
                }
                taken
            };
            self.shed_cancelled(sheds);
            if batch.is_empty() {
                return;
            }
            self.execute_batch(batch);
        }
    }

    /// Caller-runs for the owner of job `id`, about to block on it: take
    /// the next batch [`pop_batch`](Self::pop_batch) would hand a worker
    /// if that batch holds job `id`, and run it on this thread. Once,
    /// without looping.
    fn run_own(self: &Arc<Self>, id: u64) {
        let (batch, sheds) = {
            let mut inner = self.inner.lock();
            if inner.shutdown {
                return;
            }
            self.pop_batch(&mut inner, Some(id))
        };
        self.shed_cancelled(sheds);
        if batch.is_empty() {
            return;
        }
        // Counted before the bodies run, so the count already holds
        // when the waiter observes the outcome.
        let n = batch.len() as u64;
        self.stats.caller_runs.fetch_add(n, Ordering::Relaxed);
        self.execute_batch(batch);
    }

    /// Claim a pull slot under `inner` if fewer than `threads` pull
    /// tasks are pending or running; the caller then spawns one with
    /// [`spawn_pull`] after unlocking.
    fn reserve_pull(&self, inner: &mut Inner) -> bool {
        let free = self.free_pull_slots(inner) > 0;
        inner.pulls += usize::from(free);
        free
    }

    fn free_pull_slots(&self, inner: &Inner) -> usize {
        self.cfg.threads.max(1).saturating_sub(inner.pulls)
    }

    /// Pull tasks the dispatcher's fallback starts: one per queued job
    /// the window has room for, less the pull tasks that will pop work
    /// anyway (pending, or between batches; not those busy with a body),
    /// within the free pull slots.
    fn pulls_wanted(&self, inner: &Inner) -> usize {
        let queued: usize = inner.classes.iter().map(VecDeque::len).sum();
        let room = self.cfg.dispatch_window.saturating_sub(inner.in_flight);
        let takers = inner.pulls - inner.busy_pulls;
        queued
            .min(room)
            .saturating_sub(takers)
            .min(self.free_pull_slots(inner))
    }
}

/// Spawn a pull task whose slot [`Shared::reserve_pull`] claimed. Its
/// future is dropped: each job resolves through its own promise.
fn spawn_pull(shared: &Arc<Shared>, pool: &TaskPool) {
    let shared = Arc::clone(shared);
    drop(pool.spawn(move || shared.run_batch()));
}

// ---------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------

/// A multi-tenant job-submission service over a shared [`TaskPool`].
///
/// Construct with [`JobService::new`], submit with
/// [`submit`](Self::submit), drain with [`join`](Self::join). Dropping
/// the service sheds whatever is still queued (counted as
/// [`ShedReason::Shutdown`]), waits for in-flight jobs, and joins its
/// dispatcher and workers.
pub struct JobService {
    shared: Arc<Shared>,
    /// Owned here (not in `Shared`) so the workers are always joined
    /// from the caller's thread — see the note on [`Shared::core`].
    pool: Arc<TaskPool>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl JobService {
    /// Build a service with `cfg.threads` workers plus one dispatcher
    /// thread (retry timers, the periodic deadline sweep, the shutdown
    /// drain, and the fallback that starts pull tasks for queued work
    /// left behind a full window).
    pub fn new(cfg: ServiceConfig) -> Self {
        // `TaskPool` follows master-participates semantics: a pool of
        // `t` threads has `t - 1` workers and expects the caller to
        // help during `run`. Nobody calls `run` here — jobs arrive via
        // `spawn` — so size the pool one above the configured worker
        // count to get exactly `cfg.threads` executing workers.
        let pool = Arc::new(TaskPool::new(cfg.threads.max(1) + 1));
        let shared = Arc::new(Shared {
            cfg,
            core: pool.core_arc(),
            inner: Mutex::new(Inner::default()),
            cond: Condvar::new(),
            stats: Arc::new(ServiceStats::default()),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name("pstl-svc-dispatch".into())
                .spawn(move || dispatch_loop(&shared, &pool))
                .expect("spawn service dispatcher")
        };
        JobService {
            shared,
            pool,
            dispatcher: Some(dispatcher),
            next_id: AtomicU64::new(1),
        }
    }

    /// Service with default config for `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        JobService::new(ServiceConfig::new(threads))
    }

    /// Submit a job. `f` runs with the job's [`CancelToken`] on a pool
    /// worker, or on the caller's thread if the caller reaches
    /// [`JobHandle::wait`] while the job is next in line; long bodies
    /// should poll the token (or [`bail`](CancelToken::bail)) at
    /// natural boundaries. `f` may run more than once under the retry
    /// policy, so it must be `Fn`, and it must be idempotent under
    /// retry or tolerate re-execution.
    ///
    /// Admission wakes a worker directly — it schedules a pull task
    /// while fewer than [`ServiceConfig::threads`] are pending or
    /// running — and never the dispatcher.
    ///
    /// Returns the handle on admission, or a typed [`Rejected`] error.
    pub fn submit<T, F>(&self, spec: JobSpec, f: F) -> Result<JobHandle<T>, Rejected>
    where
        T: Send + 'static,
        F: Fn(&CancelToken) -> T + Send + 'static,
    {
        let shared = &self.shared;
        let reject = |stat: &AtomicU64, err: Rejected| {
            stat.fetch_add(1, Ordering::Relaxed);
            Err(err)
        };

        // Injected admission fault (chaos testing): deterministic
        // rejection of the k-th submission, reported as shedding.
        if shared.core.faults().on_admission() {
            return reject(&shared.stats.rejected_shedding, Rejected::Shedding);
        }

        let mut inner = shared.inner.lock();
        if inner.shutdown {
            drop(inner);
            return reject(&shared.stats.rejected_shedding, Rejected::Shedding);
        }
        if inner.tenants.get(&spec.tenant).copied().unwrap_or(0) >= shared.cfg.tenant_quota {
            drop(inner);
            return reject(&shared.stats.rejected_quota, Rejected::Quota);
        }
        let queued = inner.queued();
        if queued >= shared.cfg.shed_watermark && spec.priority == Priority::Low {
            drop(inner);
            return reject(&shared.stats.rejected_shedding, Rejected::Shedding);
        }
        let mut displaced = None;
        if queued >= shared.cfg.queue_cap {
            // Shed-to-admit: displace the newest job of a strictly
            // lower class, lowest class first. If none exists the
            // queue really is full for this caller.
            let victim_class = (0..spec.priority.index()).find(|&c| !inner.classes[c].is_empty());
            match victim_class {
                Some(c) => displaced = inner.classes[c].pop_back(),
                None => {
                    drop(inner);
                    return reject(&shared.stats.rejected_queue_full, Rejected::QueueFull);
                }
            }
        }

        // Admitted.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let deadline = spec.deadline.or(shared.cfg.default_deadline);
        let token = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let (future, promise) = future_promise::<(JobOutcome<T>, Instant)>();
        let slot = Arc::new(Mutex::new(Some(promise)));
        let run = make_run(
            Arc::clone(&slot),
            f,
            Arc::clone(&shared.stats),
            spec.priority.index(),
            shared.core.faults().hook(),
        );
        let finish = make_finish(slot);
        let job = QueuedJob {
            id,
            tenant: spec.tenant,
            priority: spec.priority,
            tiny: spec.cost_hint <= shared.cfg.batch.tiny_cost,
            token: token.clone(),
            enqueued: Instant::now(),
            attempts: 0,
            run,
            finish,
        };
        inner.classes[spec.priority.index()].push_back(job);
        *inner.tenants.entry(spec.tenant).or_insert(0) += 1;
        let wake_worker = shared.reserve_pull(&mut inner);
        drop(inner);

        let o = Ordering::Relaxed;
        shared.stats.admitted.fetch_add(1, o);
        shared.stats.class[spec.priority.index()]
            .admitted
            .fetch_add(1, o);
        if let Some(victim) = displaced {
            shared.resolve_terminal(victim, Terminal::Shed(ShedReason::Overload));
        }
        if wake_worker {
            spawn_pull(shared, &self.pool);
        }
        Ok(JobHandle {
            id,
            token,
            future,
            shared: Arc::clone(shared),
        })
    }

    /// Block until every admitted job has resolved (queue, retries and
    /// in-flight all empty). Racy against concurrent submitters by
    /// nature: it waits for a moment of quiescence, not a permanent
    /// one.
    pub fn join(&self) {
        let mut inner = self.shared.inner.lock();
        while !inner.is_drained() {
            // Timed wait: retry due-times and queued deadlines advance
            // without notifications.
            self.shared
                .cond
                .wait_for(&mut inner, Duration::from_millis(1));
        }
    }

    /// Service-level counters.
    pub fn stats(&self) -> ServiceStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Scheduling counters of the underlying pool. Job-level facts are
    /// in [`stats`](Self::stats) only.
    pub fn metrics(&self) -> crate::metrics::MetricsSnapshot {
        self.shared.core.snapshot()
    }

    /// Distribution metrics of the underlying pool (includes
    /// [`HistKind::QueueWait`]; carries samples only with the `trace`
    /// feature).
    pub fn hist_snapshot(&self) -> crate::metrics::HistSet {
        self.shared.core.hist_snapshot()
    }

    /// Install a fault plan on the underlying pool (panics at task
    /// bodies, admission rejections; see [`crate::fault`]).
    pub fn install_fault_plan(&self, plan: crate::fault::FaultPlan) {
        self.shared.core.install_fault_plan(plan);
    }

    /// Jobs currently queued (all classes plus pending retries).
    pub fn queue_depth(&self) -> usize {
        self.shared.inner.lock().queued()
    }

    /// The underlying pool, for running parallel regions on the same
    /// workers after (or between) service traffic.
    pub fn pool(&self) -> &TaskPool {
        &self.pool
    }

    /// Worker threads executing jobs.
    pub fn threads(&self) -> usize {
        self.cfg().threads
    }

    /// The service configuration.
    pub fn cfg(&self) -> &ServiceConfig {
        &self.shared.cfg
    }

    /// Stop admitting, shed everything still queued (counted as
    /// [`ShedReason::Shutdown`]), wait for in-flight jobs to resolve,
    /// and join the dispatcher. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        {
            let mut inner = self.shared.inner.lock();
            inner.shutdown = true;
        }
        self.shared.cond.notify_all();
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        // The dispatcher shed the queues on its way out; in-flight
        // bodies still resolve on workers.
        self.join();
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One-shot promise slot shared between the attempt closure and the
/// terminal resolver: whichever side fires first takes the promise.
type PromiseSlot<T> = Arc<Mutex<Option<Promise<(JobOutcome<T>, Instant)>>>>;

/// Build the type-erased single-attempt closure: runs the body under
/// the runtime's shared panic envelope, resolves the promise for
/// completed and cancelled outcomes, and reports transient panics for
/// the retry machinery. Stats are bumped *before* the promise resolves
/// so the accounting law holds the instant a waiter observes the
/// outcome.
fn make_run<T, F>(
    slot: PromiseSlot<T>,
    f: F,
    stats: Arc<ServiceStats>,
    class: usize,
    faults: crate::fault::FaultHook,
) -> RunFn
where
    T: Send + 'static,
    F: Fn(&CancelToken) -> T + Send + 'static,
{
    Box::new(move |token: &CancelToken| {
        let o = Ordering::Relaxed;
        // The fault hook fires inside the containment envelope (like the
        // pools do in their task bodies), so an injected panic takes the
        // same retry route as a real transient one.
        match contain(|| {
            faults.on_task();
            f(token)
        }) {
            Ok(v) => {
                if let Some(p) = slot.lock().take() {
                    stats.completed.fetch_add(1, o);
                    stats.class[class].completed.fetch_add(1, o);
                    p.set((JobOutcome::Completed(v), Instant::now()));
                }
                Attempt::Completed
            }
            Err(payload) => {
                if Cancelled::is_payload(&*payload) {
                    if let Some(p) = slot.lock().take() {
                        stats.cancelled.fetch_add(1, o);
                        stats.class[class].cancelled.fetch_add(1, o);
                        p.set((JobOutcome::Cancelled, Instant::now()));
                    }
                    Attempt::Cancelled
                } else {
                    // Transient fault: keep the promise pending; the
                    // service retries or resolves `Failed`.
                    Attempt::Panicked
                }
            }
        }
    })
}

/// Build the type-erased terminal resolver for outcomes decided outside
/// the body (shed, dispatch-time cancellation, retries exhausted).
fn make_finish<T>(slot: PromiseSlot<T>) -> FinishFn
where
    T: Send + 'static,
{
    Box::new(move |terminal: Terminal| {
        if let Some(p) = slot.lock().take() {
            let outcome = match terminal {
                Terminal::Shed(reason) => JobOutcome::Shed(reason),
                Terminal::Cancelled => JobOutcome::Cancelled,
                Terminal::Failed { attempts } => JobOutcome::Failed { attempts },
            };
            p.set((outcome, Instant::now()));
        }
    })
}

// ---------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------

/// The dispatcher thread: moves due retries back to their class queues,
/// sheds expired-in-queue jobs on a timer, drains the queues on
/// shutdown, and — as a fallback — starts pull tasks in free pull slots
/// for queued work the window has room for: after a slot frees outside
/// a pull loop (a caller-run job, say), or when a retry comes due. A
/// pull task busy with a body takes nothing until it ends, so it does
/// not stand in for one of these. Submission and completion go straight to the workers and
/// waiting callers; the dispatcher is not on that path.
fn dispatch_loop(shared: &Arc<Shared>, pool: &Arc<TaskPool>) {
    // Expired-in-queue jobs surface two ways: a cheap token check as
    // each job is popped for dispatch, and a periodic full sweep for
    // jobs parked deep in a backlogged queue. The full sweep is
    // O(queue) under the lock, so it runs on a timer rather than on
    // every wake.
    const SWEEP_PERIOD: Duration = Duration::from_millis(5);
    let mut next_sweep = Instant::now();
    loop {
        let mut sheds: Vec<QueuedJob> = Vec::new();
        let spawns;
        let shutting_down;
        {
            let mut inner = shared.inner.lock();
            shutting_down = inner.shutdown;

            // Due retries rejoin their class queue (at the back: a
            // retried job does not preempt fresher traffic of its own
            // class).
            let now = Instant::now();
            let Inner {
                classes, retries, ..
            } = &mut *inner;
            for entry in retries.extract_if(.., |r| shutting_down || r.due <= now) {
                classes[entry.job.priority.index()].push_back(entry.job);
            }

            // Shed expired-in-queue (or handle-cancelled) jobs before
            // they cost a dispatch slot; on shutdown, shed everything
            // still queued.
            if shutting_down || now >= next_sweep {
                next_sweep = now + SWEEP_PERIOD;
                for class in &mut inner.classes {
                    let (shed, kept): (VecDeque<_>, VecDeque<_>) = class
                        .drain(..)
                        .partition(|job| shutting_down || job.token.is_cancelled());
                    sheds.extend(shed);
                    *class = kept;
                }
            }

            // The fallback: the jobs stay queued for the pull tasks,
            // which take them under `pop_batch`'s rules.
            spawns = shared.pulls_wanted(&inner);
            inner.pulls += spawns;
        }

        // Outside the lock: resolve sheds and start the pull tasks.
        for job in sheds {
            let reason = if shutting_down {
                ShedReason::Shutdown
            } else {
                job.cancel_shed_reason()
            };
            shared.resolve_terminal(job, Terminal::Shed(reason));
        }
        for _ in 0..spawns {
            spawn_pull(shared, pool);
        }

        let mut inner = shared.inner.lock();
        if inner.shutdown && inner.queued() == 0 {
            return;
        }
        if shared.pulls_wanted(&inner) == 0 {
            // Nothing to start right now: the class queues are empty
            // (possibly with retries still backing off), the window or
            // the pull slots are full, or pull tasks will take the work.
            // Timed wait so retry due-times and queued deadlines make
            // progress without a notification, bounded by the earliest
            // retry so backoffs fire on time instead of the loop
            // rescanning at full speed until one comes due.
            let now = Instant::now();
            let base = if inner.is_drained() {
                Duration::from_millis(20)
            } else {
                Duration::from_millis(1)
            };
            let timeout = inner
                .retries
                .iter()
                .map(|r| r.due.saturating_duration_since(now))
                .min()
                .map_or(base, |due_in| due_in.min(base));
            shared.cond.wait_for(&mut inner, timeout);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> JobSpec {
        JobSpec::default().cost(Duration::from_micros(1))
    }

    /// Retries 10–100 µs apart, so retry tests run in microseconds.
    fn fast_retry(max_retries: u32, jitter_seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(100),
            jitter_seed,
        }
    }

    /// A flag that bodies and pool tasks spin on until it opens.
    #[derive(Clone, Default)]
    struct Gate(Arc<std::sync::atomic::AtomicBool>);

    impl Gate {
        fn open(&self) {
            self.0.store(true, Ordering::Release);
        }

        fn is_open(&self) -> bool {
            self.0.load(Ordering::Acquire)
        }

        fn wait(&self) {
            while !self.is_open() {
                std::thread::yield_now();
            }
        }

        /// A job body that holds its thread until the gate opens.
        fn hold(&self) -> impl Fn(&CancelToken) + Send + 'static {
            let g = self.clone();
            move |_| g.wait()
        }
    }

    /// Spin until the class queues hold exactly `n` jobs.
    fn until_depth(svc: &JobService, n: usize) {
        while svc.queue_depth() != n {
            std::thread::yield_now();
        }
    }

    /// Spin until exactly `n` pull tasks are pending or running.
    fn until_pulls(svc: &JobService, n: usize) {
        while svc.shared.inner.lock().pulls != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn submit_and_complete() {
        let svc = JobService::with_threads(2);
        let h = svc.submit(JobSpec::default(), |_| 6 * 7).unwrap();
        assert_eq!(h.wait().completed(), Some(42));
        svc.join();
        let s = svc.stats();
        assert_eq!(s.admitted, 1);
        assert_eq!(s.completed, 1);
        assert!(s.accounting_balanced());
    }

    #[test]
    fn many_jobs_from_many_tenants_complete() {
        let svc = JobService::with_threads(4);
        let handles: Vec<_> = (0..200u64)
            .map(|i| {
                svc.submit(
                    JobSpec::tenant(i % 7).cost(Duration::from_micros(1)),
                    move |_| i,
                )
                .unwrap()
            })
            .collect();
        let sum: u64 = handles
            .into_iter()
            .map(|h| h.wait().completed().unwrap())
            .sum();
        assert_eq!(sum, (0..200u64).sum());
        svc.join();
        let s = svc.stats();
        assert_eq!(s.admitted, 200);
        assert_eq!(s.completed, 200);
        assert!(s.accounting_balanced());
    }

    #[test]
    fn tenant_quota_rejects_typed() {
        let cfg = ServiceConfig::new(1).with_tenant_quota(2);
        let svc = JobService::new(cfg);
        // Park the single worker so submissions stay queued.
        let gate = Gate::default();
        let blocker = svc.submit(JobSpec::tenant(1), gate.hold()).unwrap();
        let _queued = svc.submit(JobSpec::tenant(1), |_| ()).unwrap();
        let refused = svc.submit::<(), _>(JobSpec::tenant(1), |_| ());
        assert_eq!(refused.unwrap_err(), Rejected::Quota);
        // A different tenant is unaffected.
        let other = svc.submit(JobSpec::tenant(2), |_| ()).unwrap();
        gate.open();
        blocker.wait();
        other.wait();
        svc.join();
        let s = svc.stats();
        assert_eq!(s.rejected_quota, 1);
        assert!(s.accounting_balanced());
    }

    #[test]
    fn queue_full_displaces_lower_class_first() {
        let cfg = ServiceConfig::new(1)
            .with_queue_cap(2)
            .with_shed_watermark(100) // keep shedding mode out of the way
            .with_dispatch_window(1);
        let svc = JobService::new(cfg);
        let gate = Gate::default();
        let blocker = svc
            .submit(JobSpec::default().priority(Priority::High), gate.hold())
            .unwrap();
        // Give the dispatcher a moment to move the blocker in-flight.
        until_depth(&svc, 0);
        let low = svc
            .submit(JobSpec::default().priority(Priority::Low), |_| ())
            .unwrap();
        let _norm = svc
            .submit(JobSpec::default().priority(Priority::Normal), |_| ())
            .unwrap();
        // Queue now at cap (2). A High submission displaces the Low job…
        let high = svc
            .submit(JobSpec::default().priority(Priority::High), |_| ())
            .unwrap();
        assert_eq!(low.wait(), JobOutcome::Shed(ShedReason::Overload));
        // …but a Low submission cannot displace anyone.
        let refused = svc.submit::<(), _>(JobSpec::default().priority(Priority::Low), |_| ());
        assert_eq!(refused.unwrap_err(), Rejected::QueueFull);
        gate.open();
        blocker.wait();
        assert!(high.wait().completed().is_some());
        svc.join();
        let s = svc.stats();
        assert_eq!(s.shed_overload, 1);
        assert_eq!(s.rejected_queue_full, 1);
        assert!(s.accounting_balanced());
        assert_eq!(s.per_class[Priority::High.index()].shed, 0);
    }

    #[test]
    fn shedding_mode_refuses_low_only() {
        let cfg = ServiceConfig::new(1)
            .with_queue_cap(100)
            .with_shed_watermark(1)
            .with_dispatch_window(1);
        let svc = JobService::new(cfg);
        let gate = Gate::default();
        let blocker = svc.submit(JobSpec::default(), gate.hold()).unwrap();
        until_depth(&svc, 0);
        let _queued = svc.submit(JobSpec::default(), |_| ()).unwrap();
        // Past the watermark: Low refused, Normal/High still admitted.
        let low = svc.submit::<(), _>(JobSpec::default().priority(Priority::Low), |_| ());
        assert_eq!(low.unwrap_err(), Rejected::Shedding);
        let high = svc
            .submit(JobSpec::default().priority(Priority::High), |_| 1)
            .unwrap();
        gate.open();
        blocker.wait();
        assert_eq!(high.wait().completed(), Some(1));
        svc.join();
        assert!(svc.stats().accounting_balanced());
    }

    #[test]
    fn deadline_expired_in_queue_is_shed_not_cancelled() {
        let cfg = ServiceConfig::new(1).with_dispatch_window(1);
        let svc = JobService::new(cfg);
        let gate = Gate::default();
        let blocker = svc.submit(JobSpec::default(), gate.hold()).unwrap();
        until_depth(&svc, 0);
        // 1ms deadline, stuck behind the blocker for ~30ms: must be
        // shed before execution.
        let doomed = svc
            .submit(
                JobSpec::default().deadline(Duration::from_millis(1)),
                |_| "ran",
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        gate.open();
        blocker.wait();
        assert_eq!(doomed.wait(), JobOutcome::Shed(ShedReason::DeadlineExpired));
        svc.join();
        let s = svc.stats();
        assert_eq!(s.shed_deadline, 1);
        assert_eq!(s.cancelled, 0);
        assert_eq!(s.shed_total(), 1);
        assert!(s.accounting_balanced());
    }

    #[test]
    fn body_bail_counts_as_cancelled() {
        let svc = JobService::with_threads(2);
        let h = svc
            .submit(JobSpec::default(), |token: &CancelToken| {
                token.cancel();
                token.bail();
            })
            .unwrap();
        assert_eq!(h.wait(), JobOutcome::Cancelled);
        svc.join();
        let s = svc.stats();
        assert_eq!(s.cancelled, 1);
        assert!(s.accounting_balanced());
    }

    #[test]
    fn transient_panics_retry_then_fail() {
        let cfg = ServiceConfig::new(2).with_retry(fast_retry(2, 7));
        let svc = JobService::new(cfg);
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        let h = svc
            .submit(JobSpec::default(), move |_| {
                c.fetch_add(1, Ordering::Relaxed);
                panic!("transient");
            })
            .unwrap();
        assert_eq!(h.wait(), JobOutcome::Failed { attempts: 3 });
        assert_eq!(calls.load(Ordering::Relaxed), 3, "1 try + 2 retries");
        svc.join();
        let s = svc.stats();
        assert_eq!(s.retries, 2);
        assert_eq!(s.failed, 1);
        assert!(s.accounting_balanced());
    }

    #[test]
    fn transient_panic_then_success_completes() {
        let cfg = ServiceConfig::new(2).with_retry(fast_retry(3, 7));
        let svc = JobService::new(cfg);
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        let h = svc
            .submit(JobSpec::default(), move |_| {
                if c.fetch_add(1, Ordering::Relaxed) < 2 {
                    panic!("transient");
                }
                "recovered"
            })
            .unwrap();
        assert_eq!(h.wait().completed(), Some("recovered"));
        svc.join();
        let s = svc.stats();
        assert_eq!(s.retries, 2);
        assert_eq!(s.completed, 1);
        assert_eq!(s.failed, 0);
        assert!(s.accounting_balanced());
    }

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let p = RetryPolicy {
            max_retries: 5,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(1),
            jitter_seed: 42,
        };
        assert_eq!(p.backoff(9, 1), p.backoff(9, 1), "deterministic");
        assert_ne!(p.backoff(9, 1), p.backoff(10, 1), "varies by job");
        assert_ne!(p.backoff(9, 1), p.backoff(9, 2), "varies by attempt");
        for a in 1..=5 {
            let b = p.backoff(3, a);
            assert!(b >= p.base, "at least base");
            assert!(b <= p.cap.mul_f64(1.5), "cap plus max jitter");
        }
        // Un-jittered growth: attempt 2 backs off at least as long as
        // attempt 1's un-jittered base.
        assert!(p.backoff(3, 3) >= p.base.mul_f64(1.0));
    }

    #[test]
    fn tiny_jobs_batch_into_fewer_pool_tasks() {
        let cfg = ServiceConfig::new(2)
            .with_dispatch_window(2)
            .with_batch(BatchPolicy {
                tiny_cost: Duration::from_micros(50),
                max_batch: 8,
            });
        let svc = JobService::new(cfg);
        // Two blockers (cost above tiny) occupy both workers and fill
        // the dispatch window, so the 32 tiny jobs all accumulate in
        // queue and batch formation is deterministic once the gate
        // opens.
        let gate = Gate::default();
        let blockers: Vec<_> = (0..2)
            .map(|_| {
                svc.submit(
                    JobSpec::default().cost(Duration::from_millis(1)),
                    gate.hold(),
                )
                .unwrap()
            })
            .collect();
        until_depth(&svc, 0);
        let handles: Vec<_> = (0..32)
            .map(|_| svc.submit(tiny_spec(), |_| ()).unwrap())
            .collect();
        gate.open();
        for b in blockers {
            b.wait();
        }
        for h in handles {
            assert!(h.wait().completed().is_some());
        }
        svc.join();
        // 32 tiny jobs in batches of up to 8 plus 2 blockers: at most
        // 2 + 32/8 = 6 pool tasks, far fewer than 34 unbatched ones.
        let tasks = svc.metrics().tasks_executed;
        assert!(
            tasks <= 6,
            "expected batched dispatch, got {tasks} pool tasks for 34 jobs"
        );
        assert!(svc.stats().accounting_balanced());
    }

    #[test]
    fn drop_sheds_queued_jobs_as_shutdown() {
        let cfg = ServiceConfig::new(1).with_dispatch_window(1);
        let svc = JobService::new(cfg);
        // The blocker ends only once shutdown is flagged, so its worker
        // cannot take the queued job before the flag is set.
        let shared = Arc::clone(&svc.shared);
        let blocker = svc
            .submit(JobSpec::default(), move |_| {
                while !shared.inner.lock().shutdown {
                    std::thread::yield_now();
                }
            })
            .unwrap();
        until_depth(&svc, 0);
        let queued = svc.submit(JobSpec::default(), |_| "never runs").unwrap();
        let stats;
        {
            let mut svc = svc;
            // shutdown() sheds the queued job and waits for the blocker.
            svc.shutdown();
            stats = svc.stats();
        }
        blocker.wait();
        assert_eq!(queued.wait(), JobOutcome::Shed(ShedReason::Shutdown));
        assert_eq!(stats.shed_shutdown, 1);
        assert!(stats.accounting_balanced());
    }

    #[test]
    fn pool_stays_usable_for_parallel_regions() {
        let svc = JobService::with_threads(2);
        let handles: Vec<_> = (0..50)
            .map(|i| svc.submit(tiny_spec(), move |_| i).unwrap())
            .collect();
        for h in handles {
            h.wait();
        }
        svc.join();
        // The same workers still run plain parallel regions.
        let hits = AtomicU64::new(0);
        use crate::Executor;
        svc.pool().run(100, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn handle_cancel_before_dispatch_sheds() {
        let cfg = ServiceConfig::new(1).with_dispatch_window(1);
        let svc = JobService::new(cfg);
        let gate = Gate::default();
        let blocker = svc.submit(JobSpec::default(), gate.hold()).unwrap();
        until_depth(&svc, 0);
        let h = svc.submit(JobSpec::default(), |_| "never").unwrap();
        h.token().cancel();
        // Dispatcher sheds it on its next sweep even while the worker
        // is blocked — as an explicit cancellation, not a deadline
        // expiry (the job has no deadline).
        std::thread::sleep(Duration::from_millis(10));
        gate.open();
        blocker.wait();
        assert_eq!(h.wait(), JobOutcome::Shed(ShedReason::Cancelled));
        svc.join();
        let s = svc.stats();
        assert_eq!(s.shed_cancelled, 1);
        assert_eq!(s.shed_total(), 1);
        assert_eq!(
            s.shed_deadline, 0,
            "explicit cancel must not count as expiry"
        );
        assert!(s.accounting_balanced());
    }

    #[test]
    fn shutdown_with_retryable_panic_in_flight_does_not_hang() {
        // Regression: a job that panics *after* shutdown is flagged
        // still has retry budget. Re-queuing it would strand the entry
        // in `retries` — the dispatcher exits once the queues drain,
        // so nothing would ever dispatch or shed it and shutdown()'s
        // drain wait (queued() > 0) would never return.
        let cfg = ServiceConfig::new(1).with_retry(RetryPolicy {
            max_retries: 5,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(5),
            jitter_seed: 1,
        });
        let mut svc = JobService::new(cfg);
        let shared = Arc::clone(&svc.shared);
        let started = Gate::default();
        let s = started.clone();
        let h = svc
            .submit(JobSpec::default(), move |_: &CancelToken| {
                s.open();
                // Hold the body until shutdown() has set the flag, so
                // the panic is deterministically processed post-flag.
                while !shared.inner.lock().shutdown {
                    std::thread::yield_now();
                }
                panic!("transient during shutdown");
            })
            .unwrap();
        // The body must be in flight before shutdown, or the dispatcher
        // sheds it from the queue and the retry path never runs.
        started.wait();
        svc.shutdown(); // must terminate, not wait on the orphan retry
        assert_eq!(h.wait(), JobOutcome::Failed { attempts: 1 });
        let s = svc.stats();
        assert_eq!(s.failed, 1);
        assert_eq!(s.retries, 0, "shutdown denies the retry budget");
        assert!(s.accounting_balanced());
    }

    /// Occupy the service pool's only worker with a raw pool task — not
    /// a job, so it holds no dispatch slot — until the returned gate
    /// opens. Pull tasks queue behind it, so a queued job can only run
    /// on its waiter's thread while the plug holds.
    fn plug_pool(svc: &JobService) -> (Gate, Future<()>) {
        let release = Gate::default();
        let r = release.clone();
        (release, svc.pool().spawn(move || r.wait()))
    }

    #[test]
    fn waiter_runs_its_own_queued_job_on_its_own_thread() {
        let svc = JobService::with_threads(1);
        let (release, plug) = plug_pool(&svc);
        let h = svc
            .submit(JobSpec::default(), |_| std::thread::current().id())
            .unwrap();
        assert_eq!(h.wait().completed(), Some(std::thread::current().id()));
        release.open();
        plug.wait();
        svc.join();
        let s = svc.stats();
        assert_eq!(s.caller_runs, 1);
        assert!(s.accounting_balanced());
    }

    /// Bodies that count how many of them execute at once.
    #[derive(Clone, Default)]
    struct Occupancy {
        running: Arc<std::sync::atomic::AtomicUsize>,
        peak: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Occupancy {
        fn enter(&self) {
            let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
        }

        fn exit(&self) {
            self.running.fetch_sub(1, Ordering::SeqCst);
        }

        fn peak(&self) -> usize {
            self.peak.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn waiter_with_a_full_window_runs_nothing() {
        let svc = Arc::new(JobService::new(
            ServiceConfig::new(1).with_dispatch_window(1),
        ));
        let occ = Occupancy::default();
        let (gate, plug_done) = (Gate::default(), Gate::default());
        let blocker = {
            let (occ, g, done) = (occ.clone(), gate.clone(), plug_done.clone());
            svc.submit(JobSpec::default(), move |_| {
                occ.enter();
                g.wait();
                done.open();
                occ.exit();
            })
            .unwrap()
        };
        until_depth(&svc, 0);
        // The blocker holds the only slot, so no waiter may take its
        // job — on its own thread or anywhere — until the blocker ends.
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let (svc, occ, done) = (Arc::clone(&svc), occ.clone(), plug_done.clone());
                std::thread::spawn(move || {
                    let h = svc
                        .submit(JobSpec::default(), move |_| {
                            occ.enter();
                            let after_plug = done.is_open();
                            occ.exit();
                            after_plug
                        })
                        .unwrap();
                    h.wait().completed().expect("completes after release")
                })
            })
            .collect();
        until_depth(&svc, 3);
        // Not needed for the assertions, which hold in any order: it
        // only makes it likely that every waiter has looked at the
        // queue, found the window full, and blocked before the release.
        std::thread::sleep(Duration::from_millis(20));
        gate.open();
        blocker.wait();
        for w in waiters {
            assert!(w.join().unwrap(), "a job started while the window was full");
        }
        svc.join();
        assert_eq!(occ.peak(), 1, "more bodies ran at once than the window");
        assert!(svc.stats().accounting_balanced());
    }

    #[test]
    fn dispatcher_starts_a_pull_for_work_left_behind_a_full_window() {
        let svc = Arc::new(JobService::new(
            ServiceConfig::new(1).with_dispatch_window(1),
        ));
        // Job A runs on its waiter's thread (the plug keeps the worker
        // away from it) and holds the only slot until `gate` opens.
        let (release, plug) = plug_pool(&svc);
        let gate = Gate::default();
        let a = svc.submit(JobSpec::default(), gate.hold()).unwrap();
        let waiter = std::thread::spawn(move || a.wait());
        until_depth(&svc, 0);
        release.open();
        plug.wait();
        until_pulls(&svc, 0);
        // B's pull task finds the window full and exits, so only the
        // dispatcher is left to start B once A frees the slot.
        let b = svc.submit(JobSpec::default(), |_| ()).unwrap();
        until_pulls(&svc, 0);
        assert_eq!(svc.queue_depth(), 1, "B ran while the window was full");
        gate.open();
        assert!(waiter.join().unwrap().completed().is_some());
        // Nobody waits on B's handle: it must run on a worker.
        let (tx, rx) = std::sync::mpsc::channel();
        let joiner = Arc::clone(&svc);
        std::thread::spawn(move || {
            joiner.join();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("queued job never started after the window freed");
        assert!(b.is_resolved());
        let s = svc.stats();
        assert_eq!((s.completed, s.caller_runs), (2, 1));
        assert!(s.accounting_balanced());
    }

    #[test]
    fn queued_job_starts_on_an_idle_worker_beside_a_long_body() {
        let svc = JobService::new(ServiceConfig::new(2).with_dispatch_window(2));
        // L holds a window slot and a pull slot on one worker.
        let long_gate = Gate::default();
        let long = svc.submit(JobSpec::default(), long_gate.hold()).unwrap();
        until_depth(&svc, 0);
        // J runs on its waiter's thread (the plug keeps the other
        // worker away from it) and holds the second window slot.
        let (release, plug) = plug_pool(&svc);
        let j_gate = Gate::default();
        let j = svc.submit(JobSpec::default(), j_gate.hold()).unwrap();
        let waiter = std::thread::spawn(move || j.wait());
        until_depth(&svc, 0);
        release.open();
        plug.wait();
        until_pulls(&svc, 1);
        // K's pull task finds the window full and exits; once J frees
        // its slot, K must start on the idle worker, not wait for L.
        let (tx, rx) = std::sync::mpsc::channel();
        let k = svc
            .submit(JobSpec::default(), move |_| tx.send(()).unwrap())
            .unwrap();
        until_pulls(&svc, 1);
        assert_eq!(svc.queue_depth(), 1, "K ran while the window was full");
        j_gate.open();
        assert!(waiter.join().unwrap().completed().is_some());
        let started = rx.recv_timeout(Duration::from_secs(5));
        long_gate.open();
        started.expect("queued job waited for an unrelated long body");
        assert!(long.wait().completed().is_some());
        assert!(k.wait().completed().is_some());
        svc.join();
        let s = svc.stats();
        assert_eq!((s.completed, s.caller_runs), (3, 1));
        assert!(s.accounting_balanced());
    }

    #[test]
    fn caller_runs_respect_the_dispatch_window() {
        let svc = Arc::new(JobService::new(
            ServiceConfig::new(1).with_dispatch_window(2),
        ));
        let occ = Occupancy::default();
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let (svc, occ) = (Arc::clone(&svc), occ.clone());
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let occ = occ.clone();
                        let h = svc
                            .submit(JobSpec::default(), move |_| {
                                occ.enter();
                                let t = Instant::now();
                                while t.elapsed() < Duration::from_micros(20) {
                                    std::hint::spin_loop();
                                }
                                occ.exit();
                            })
                            .unwrap();
                        assert!(h.wait().completed().is_some());
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        svc.join();
        assert!(
            occ.peak() <= 2,
            "{} bodies ran at once, window 2",
            occ.peak()
        );
        let s = svc.stats();
        assert_eq!(s.completed, 200);
        assert!(s.accounting_balanced());
    }

    #[test]
    fn waiter_never_jumps_a_higher_class() {
        let svc = JobService::new(ServiceConfig::new(1).with_dispatch_window(2));
        let gate = Gate::default();
        let blocker = svc.submit(JobSpec::default(), gate.hold()).unwrap();
        until_depth(&svc, 0);
        let high = svc
            .submit(JobSpec::default().priority(Priority::High), |_| {
                std::thread::current().id()
            })
            .unwrap();
        let shared = Arc::clone(&svc.shared);
        let low = svc
            .submit(JobSpec::default().priority(Priority::Low), move |_| {
                shared.inner.lock().classes[Priority::High.index()].is_empty()
            })
            .unwrap();
        let waiter = std::thread::spawn(move || {
            let me = std::thread::current().id();
            (me, low.wait().completed().expect("low completes"))
        });
        // Only makes it likely that the waiter looks while both jobs
        // are queued; the assertions hold in any order.
        std::thread::sleep(Duration::from_millis(20));
        gate.open();
        blocker.wait();
        let (me, high_first) = waiter.join().unwrap();
        let high_ran_on = high.wait().completed().expect("high completes");
        assert!(
            high_first,
            "the low job was taken while the high one still queued"
        );
        assert_ne!(high_ran_on, me, "the low waiter ran another client's job");
        svc.join();
        assert!(svc.stats().accounting_balanced());
    }

    #[test]
    fn panic_on_the_waiters_thread_retries_on_a_worker() {
        let cfg = ServiceConfig::new(1).with_retry(fast_retry(2, 3));
        let svc = JobService::new(cfg);
        let me = std::thread::current().id();
        let calls = Arc::new(AtomicU64::new(0));

        // Panics on the waiter only: the retry runs on the worker, which
        // the first attempt itself unplugs.
        let (release, plug) = plug_pool(&svc);
        let (c, r) = (Arc::clone(&calls), release.clone());
        let h = svc
            .submit(JobSpec::default(), move |_| {
                c.fetch_add(1, Ordering::Relaxed);
                r.open();
                let ran_on = std::thread::current().id();
                assert_ne!(ran_on, me, "transient fault on the waiter");
                ran_on
            })
            .unwrap();
        let ran_on = h.wait().completed().expect("the retry completes");
        assert_ne!(ran_on, me);
        plug.wait();
        // The retry's pull task may not have looped back yet; it would
        // take the next job from the worker ahead of its waiter.
        until_pulls(&svc, 0);

        // Panics everywhere: the caller-run attempt counts toward the
        // budget like any other.
        let (release, plug) = plug_pool(&svc);
        let c = Arc::clone(&calls);
        let h = svc
            .submit(JobSpec::default(), move |_| {
                c.fetch_add(1, Ordering::Relaxed);
                release.open();
                panic!("transient");
            })
            .unwrap();
        assert_eq!(h.wait(), JobOutcome::<()>::Failed { attempts: 3 });
        plug.wait();

        svc.join();
        let s = svc.stats();
        assert_eq!(s.caller_runs, 2, "each first attempt ran on the waiter");
        assert_eq!(s.retries, 1 + 2);
        assert_eq!(calls.load(Ordering::Relaxed), 2 + 3);
        assert_eq!((s.completed, s.failed), (1, 1));
        assert_eq!(
            s.admitted,
            s.completed + s.shed_total() + s.cancelled + s.failed
        );
        assert!(s.accounting_balanced());
    }

    #[test]
    fn nested_submit_and_wait_on_one_worker_completes() {
        // With one worker running the outer job, the inner job can only
        // run on the thread waiting for it. The scenario runs on its own
        // thread so a deadlock fails the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let svc = Arc::new(JobService::new(ServiceConfig::new(1)));
            // A weak handle, so the job never holds the last reference
            // and drops the service (and its pool) from a worker.
            let weak = Arc::downgrade(&svc);
            let outer = svc
                .submit(JobSpec::default(), move |_| {
                    let svc = weak.upgrade().expect("service outlives its jobs");
                    let inner = svc.submit(JobSpec::default(), |_| 21u32).unwrap();
                    inner.wait().completed().map(|v| v * 2)
                })
                .unwrap();
            let _ = tx.send(outer.wait());
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("submit + wait from inside a body deadlocked");
        assert_eq!(outcome, JobOutcome::Completed(Some(42)));
    }

    #[test]
    fn queue_wait_histogram_records_with_trace() {
        let svc = JobService::with_threads(2);
        let handles: Vec<_> = (0..20)
            .map(|_| svc.submit(tiny_spec(), |_| ()).unwrap())
            .collect();
        for h in handles {
            h.wait();
        }
        svc.join();
        let hists = svc.hist_snapshot();
        let qw = hists.get(HistKind::QueueWait);
        if pstl_trace::enabled() {
            assert_eq!(qw.count(), 20, "one queue-wait sample per dispatched job");
        } else {
            assert!(qw.is_empty());
        }
    }
}
