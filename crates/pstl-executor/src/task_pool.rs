//! Fine-grained task pool with futures (the HPX analog).
//!
//! Every task index of a run becomes an individually heap-allocated
//! closure routed through one central locked queue. This is deliberately
//! the most expensive dispatch of the three disciplines: the paper's
//! hardware-counter tables (Tables 3 and 4) show HPX executing up to 2.2×
//! (for_each) and 6× (reduce) the instructions of the TBB backends, which
//! it attributes to task management — the per-task allocation plus queue
//! traffic here models exactly that.
//!
//! The pool additionally exposes [`TaskPool::spawn`], returning a blocking
//! [`Future`], mirroring HPX's future-based async API surface: `spawn`
//! pushes onto the same central queue as `run`, so `async` plus waiting
//! on the futures is HPX's `async`/`when_all` over one task queue.
//!
//! The strategy here is only the central queue; lifecycle, parking,
//! panic containment and accounting are the [`runtime`](crate::runtime)'s.

use std::sync::Arc;

use pstl_trace::{EventKind, WorkerRecorder};

use crate::fault::FaultPlan;
use crate::futures::{future_promise, Future};
use crate::injector::Injector;
use crate::job::Job;
use crate::latch::WaitGroup;
use crate::runtime::{contain, PanicSlot, Runtime, RuntimeCore, WorkerCtx, WorkerStrategy};
use crate::topology::Topology;
use crate::{Discipline, Executor};

type BoxTask = Box<dyn FnOnce() + Send>;

/// The central-queue discipline: every participant drains one shared
/// FIFO. Locality-blind by design — that *is* the HPX-style cost this
/// pool models.
struct QueueStrategy {
    queue: Injector<BoxTask>,
}

impl QueueStrategy {
    /// Pop and execute one queued task inside the metrics envelope,
    /// tracing it on `rec` when given (`None` for unserialized callers
    /// like scopes, whose events have no single-producer track to go
    /// to). Returns whether a task ran.
    fn run_one(&self, core: &RuntimeCore, rec: Option<&WorkerRecorder>) -> bool {
        match self.queue.pop() {
            Some(task) => {
                let timer = core.metrics().task_timer(1);
                if let Some(rec) = rec {
                    rec.record(EventKind::TaskStart { size: 1 });
                    run_queued(task);
                    rec.record(EventKind::TaskFinish);
                } else {
                    run_queued(task);
                }
                timer.finish();
                true
            }
            None => false,
        }
    }
}

impl WorkerStrategy for QueueStrategy {
    type Local = ();

    fn make_local(&self, _worker: usize) {}

    fn try_work(&self, ctx: &WorkerCtx<'_>, _local: &mut ()) -> bool {
        self.run_one(ctx.core, Some(&ctx.rec))
    }
}

/// Central-queue task pool with one boxed task per index.
pub struct TaskPool {
    rt: Runtime<QueueStrategy>,
}

impl TaskPool {
    /// A pool where `threads` threads (including the caller during `run`)
    /// execute tasks.
    pub fn new(threads: usize) -> Self {
        TaskPool::with_topology(Topology::flat(threads))
    }

    /// A pool carrying an explicit worker → node [`Topology`] (reported,
    /// not scheduled on — the central queue is locality-blind).
    pub fn with_topology(topology: Topology) -> Self {
        Self::with_topology_faulted(topology, FaultPlan::none())
    }

    /// As [`with_topology`](Self::with_topology), with a fault plan
    /// active from construction onwards (spawn faults fire here; see
    /// [`Runtime::build`] for the fewer-workers fallback).
    pub fn with_topology_faulted(topology: Topology, plan: FaultPlan) -> Self {
        TaskPool {
            rt: Runtime::build("tp", topology, plan, |_| QueueStrategy {
                queue: Injector::new(),
            }),
        }
    }

    /// Submit an arbitrary closure; returns a future for its result.
    ///
    /// With `threads == 1` there are no workers, so the closure runs
    /// inline (the future is ready on return).
    pub fn spawn<T, F>(&self, f: F) -> Future<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (future, promise) = future_promise();
        let core = self.rt.core();
        if core.threads() == 1 {
            core.metrics().record_tasks(1);
            promise.set(f());
            return future;
        }
        let task: BoxTask = Box::new(move || promise.set(f()));
        self.rt.strategy().queue.push(task);
        core.notify();
        future
    }

    /// Pop and execute one queued task, tracing it on `rec` when given.
    /// Returns whether a task was run. Shared by the caller help-loops
    /// of `run` and `scope`.
    pub(crate) fn try_run_one(&self, rec: Option<&WorkerRecorder>) -> bool {
        self.rt.strategy().run_one(self.rt.core(), rec)
    }

    /// Owning handle on the core; see [`Runtime::core_arc`].
    pub(crate) fn core_arc(&self) -> std::sync::Arc<RuntimeCore> {
        self.rt.core_arc()
    }

    /// Structured-concurrency scope (rayon-style): closures spawned
    /// through the [`Scope`] may borrow from the enclosing stack frame
    /// and may spawn further tasks; `scope` returns only after every
    /// transitively spawned task has completed. Panics in spawned tasks
    /// are re-thrown here.
    ///
    /// ```
    /// use pstl_executor::TaskPool;
    ///
    /// let pool = TaskPool::new(4);
    /// let mut halves = vec![0u64; 2];
    /// let (lo, hi) = halves.split_at_mut(1);
    /// pool.scope(|s| {
    ///     s.spawn(|_| lo[0] = (0..500u64).sum());
    ///     s.spawn(|_| hi[0] = (500..1000u64).sum());
    /// });
    /// assert_eq!(halves[0] + halves[1], (0..1000u64).sum());
    /// ```
    pub fn scope<'scope, OP, R>(&'scope self, op: OP) -> R
    where
        OP: FnOnce(&Scope<'scope>) -> R,
    {
        let scope = Scope {
            pool: self,
            wg: Arc::new(WaitGroup::new()),
            panic: PanicSlot::new(),
        };
        // Contain a panicking `op`: tasks it already spawned hold
        // pointers into this stack frame, so the scope MUST drain before
        // the unwind continues past it — letting the panic through here
        // would free the frame under still-running tasks.
        let result = contain(|| op(&scope));
        // Help-drain the queue until every spawned task (including ones
        // spawned by tasks) has finished. No trace recorder here: scopes
        // are not serialized against each other, so the caller track's
        // single-producer contract would not hold.
        scope.wg.wait_while_helping(|| self.try_run_one(None));
        match result {
            // `op`'s own panic wins; a concurrent task panic is dropped
            // (re-throwing both is impossible).
            Err(op_payload) => std::panic::resume_unwind(op_payload),
            Ok(value) => {
                scope.panic.resume_if_panicked();
                value
            }
        }
    }
}

/// The spawn handle of [`TaskPool::scope`]. Tasks receive a reference to
/// the scope so they can spawn nested work.
pub struct Scope<'scope> {
    pool: &'scope TaskPool,
    /// Shared with every task: each task completes through its *own*
    /// `Arc` clone, so the final `done()` never touches the scope's
    /// stack frame after the owner may have observed zero and returned
    /// (the classic completion-latch use-after-free).
    wg: Arc<WaitGroup>,
    panic: PanicSlot,
}

/// A lifetime-erased pointer to the scope, valid because `scope` blocks
/// until the wait group drains — every spawned task finishes while the
/// `Scope` is still on the caller's stack.
struct ScopePtr<'scope>(*const Scope<'scope>);
unsafe impl Send for ScopePtr<'_> {}

impl<'scope> ScopePtr<'scope> {
    /// # Safety
    /// The scope must still be alive (guaranteed by the wait-group drain).
    unsafe fn get(&self) -> &Scope<'scope> {
        &*self.0
    }
}

impl<'scope> Scope<'scope> {
    /// Spawn a task that may borrow from the enclosing frame (`'scope`)
    /// and may itself spawn through the passed-in scope reference.
    ///
    /// With a single-threaded pool the task runs inline (depth-first),
    /// preserving the completion guarantee without workers.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.wg.add(1);
        let ptr = ScopePtr(self as *const Scope<'scope>);
        // The task completes through its own Arc so the wait group
        // outlives the last `done()` even if the owner returns the
        // instant the count hits zero.
        let wg = Arc::clone(&self.wg);
        let task = move || {
            // SAFETY: see ScopePtr — the scope stack frame is alive for
            // every access before `done()` (the count is still nonzero).
            let scope = unsafe { ptr.get() };
            scope.panic.run_contained(|| f(scope));
            wg.done();
        };
        if self.pool.rt.core().threads() == 1 {
            task();
            return;
        }
        let boxed: Box<dyn FnOnce() + Send + 'scope> = Box::new(task);
        // SAFETY: only erases the 'scope lifetime; the scope's wait-group
        // drain guarantees execution completes before 'scope ends.
        let boxed: BoxTask = unsafe { std::mem::transmute(boxed) };
        self.pool.rt.strategy().queue.push(boxed);
        self.pool.rt.core().notify();
    }
}

/// Execute a queued closure, containing any panic it lets escape.
///
/// `run`/`scope` tasks capture panics into their own slot
/// (first-panic-wins), so this outer envelope only fires for raw
/// [`TaskPool::spawn`] closures — without it, one panicking spawn would
/// unwind into the runtime. The payload is dropped: the task's promise
/// is dropped unfulfilled, which its waiter observes as a broken
/// promise.
fn run_queued(task: BoxTask) {
    let _ = contain(task);
}

impl Executor for TaskPool {
    fn num_threads(&self) -> usize {
        self.rt.core().threads()
    }

    fn run(&self, tasks: usize, body: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        let _guard = self.rt.lock_caller();
        let core = self.rt.core();
        if core.threads() == 1 {
            core.run_inline(tasks, body);
            return;
        }
        core.metrics().record_run();
        // Track 0 belongs to the `run` caller; the caller lock
        // serializes them.
        let ctx = self.rt.caller_ctx();
        ctx.rec.record(EventKind::RegionBegin {
            tasks: tasks as u64,
        });
        let job = Job::with_faults(body, tasks, core.faults().hook());
        // One boxed task per index: HPX-grade scheduling overhead, by
        // design. The batch push takes the queue lock once, but each task
        // still pays its own allocation and pop.
        self.rt.strategy().queue.push_batch((0..tasks).map(|i| {
            let job = Arc::clone(&job);
            // SAFETY: the caller below blocks on the job latch until
            // every index has executed, keeping the body borrow live.
            Box::new(move || unsafe { job.execute_index(i) }) as BoxTask
        }));
        core.notify();

        job.latch()
            .wait_while_helping(|| self.try_run_one(Some(&ctx.rec)));
        ctx.rec.record(EventKind::RegionEnd);
        job.resume_if_panicked();
    }

    fn discipline(&self) -> Discipline {
        Discipline::TaskPool
    }

    fn runtime_core(&self) -> Option<&RuntimeCore> {
        Some(self.rt.core())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_every_index_exactly_once() {
        let pool = TaskPool::new(4);
        let n = 5000;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, &|i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn spawn_returns_result_via_future() {
        let pool = TaskPool::new(2);
        let f = pool.spawn(|| 6 * 7);
        assert_eq!(f.wait(), 42);
    }

    #[test]
    fn spawn_inline_on_single_thread_pool() {
        let pool = TaskPool::new(1);
        let f = pool.spawn(|| "ready".to_string());
        assert!(f.is_ready());
        assert_eq!(f.wait(), "ready");
    }

    #[test]
    fn many_spawns_complete() {
        let pool = TaskPool::new(3);
        let futures: Vec<_> = (0..100).map(|i| pool.spawn(move || i * 2)).collect();
        let sum: usize = futures.into_iter().map(|f| f.wait()).sum();
        assert_eq!(sum, (0..100).map(|i| i * 2).sum());
    }

    #[test]
    fn run_and_spawn_interleave() {
        let pool = TaskPool::new(2);
        let hits = AtomicUsize::new(0);
        let f = pool.spawn(|| 1);
        pool.run(100, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(f.wait(), 1);
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn concurrent_callers_are_serialized_safely() {
        let pool = Arc::new(TaskPool::new(2));
        let total = Arc::new(AtomicUsize::new(0));
        let callers: Vec<_> = (0..3)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        pool.run(128, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for c in callers {
            c.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 3 * 10 * 128);
    }
}

#[cfg(test)]
mod scope_tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_borrows_stack_data() {
        let pool = TaskPool::new(3);
        let mut data = vec![0u64; 8];
        let chunks: Vec<&mut [u64]> = data.chunks_mut(2).collect();
        pool.scope(|s| {
            for (i, chunk) in chunks.into_iter().enumerate() {
                s.spawn(move |_| {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x = (i * 2 + j) as u64 * 10;
                    }
                });
            }
        });
        assert_eq!(data, (0..8).map(|i| i * 10).collect::<Vec<u64>>());
    }

    #[test]
    fn nested_spawns_complete() {
        // Recursive tree sum via nested scope spawns.
        let pool = TaskPool::new(4);
        let total = AtomicUsize::new(0);
        fn branch<'s>(s: &Scope<'s>, depth: usize, total: &'s AtomicUsize) {
            if depth == 0 {
                total.fetch_add(1, Ordering::Relaxed);
                return;
            }
            for _ in 0..2 {
                s.spawn(move |s| branch(s, depth - 1, total));
            }
        }
        pool.scope(|s| branch(s, 10, &total));
        assert_eq!(total.load(Ordering::Relaxed), 1 << 10);
    }

    #[test]
    fn scope_returns_op_result() {
        let pool = TaskPool::new(2);
        let r = pool.scope(|s| {
            s.spawn(|_| {});
            21 * 2
        });
        assert_eq!(r, 42);
    }

    #[test]
    fn scope_panic_propagates_and_pool_survives() {
        let pool = TaskPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|_| panic!("scoped boom"));
            });
        }));
        assert!(result.is_err());
        // Pool still functional.
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..10 {
                s.spawn(|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn single_thread_scope_runs_inline() {
        let pool = TaskPool::new(1);
        let mut log = Vec::new();
        // With one thread, spawns execute depth-first inline, so the
        // mutable borrow below is exclusive at each step.
        let log_cell = std::sync::Mutex::new(&mut log);
        pool.scope(|s| {
            for i in 0..5 {
                s.spawn(move |_| {
                    // inline execution; nothing concurrent here
                    let _ = i;
                });
            }
            log_cell.lock().unwrap().push("op done");
        });
        assert_eq!(log, vec!["op done"]);
    }

    #[test]
    fn empty_scope_is_fine() {
        let pool = TaskPool::new(2);
        let r = pool.scope(|_| "nothing spawned");
        assert_eq!(r, "nothing spawned");
    }
}
