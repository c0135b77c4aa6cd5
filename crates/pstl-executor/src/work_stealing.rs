//! Work-stealing pool (the TBB analog).
//!
//! Every participant owns a Chase–Lev [`deque`](crate::deque); a run seeds
//! a global injector with one contiguous index range per thread, and each
//! participant then splits ranges binarily — keeping the front half,
//! pushing the back half to its own deque — until single indices execute.
//! Idle participants pop their own deque (LIFO), then the injector, then
//! steal from random victims (FIFO), which is exactly TBB's
//! depth-first-work, breadth-first-steal shape. Victim selection is
//! two-tier when the pool is built on a multi-node
//! [`Topology`]: randomized same-node victims
//! are tried for the first rounds, and remote nodes are visited only
//! after local stealing fails — the locality-aware stealing that keeps
//! stolen chunks on the node whose DRAM holds their pages.
//!
//! Scheduling cost profile: one atomic splitting push/pop per ~`log2`
//! chunk plus steal traffic — slightly more expensive than static
//! fork-join at low intensity, but dynamically load-balanced.
//!
//! The strategy here is the deques, the injector and the two-tier victim
//! order; lifecycle, parking, panic containment and accounting are the
//! [`runtime`](crate::runtime)'s.

use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;
use pstl_trace::EventKind;

use crate::deque::{deque, Steal, Stealer, Worker};
use crate::fault::FaultPlan;
use crate::injector::Injector;
use crate::job::Job;
use crate::runtime::{Runtime, RuntimeCore, WorkerCtx, WorkerStrategy};
use crate::sync::XorShift64;
use crate::topology::Topology;
use crate::{Discipline, Executor};

type Task = (Arc<Job>, Range<usize>);

/// Per-participant scheduling state: the owned end of the Chase–Lev
/// deque and the victim-selection RNG.
pub struct WsLocal {
    deque: Worker<Task>,
    rng: XorShift64,
}

/// The stealing discipline: per-participant deques with binary range
/// splitting, a shared injector for run seeds, and two-tier
/// (local-node-first) randomized victim selection.
struct WsStrategy {
    /// Per-participant same-node victims (excluding the participant).
    local_victims: Vec<Vec<usize>>,
    /// Per-participant victims on other nodes.
    remote_victims: Vec<Vec<usize>>,
    injector: Injector<Task>,
    /// Stealer handles, index 0 is the caller's deque.
    stealers: Vec<Stealer<Task>>,
    /// Owned deque ends waiting to be claimed by [`make_local`]
    /// (`Worker` is single-owner; the strategy itself must stay `Sync`).
    seats: Mutex<Vec<Option<Worker<Task>>>>,
}

impl WsStrategy {
    fn new(topology: &Topology) -> Self {
        let threads = topology.threads();
        let mut seats = Vec::with_capacity(threads);
        let mut stealers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (w, s) = deque();
            seats.push(Some(w));
            stealers.push(s);
        }
        WsStrategy {
            local_victims: (0..threads).map(|w| topology.local_peers(w)).collect(),
            remote_victims: (0..threads).map(|w| topology.remote_peers(w)).collect(),
            injector: Injector::new(),
            stealers,
            seats: Mutex::new(seats),
        }
    }

    /// Split `range` down to a single index, pushing back halves onto the
    /// local deque, then execute that index.
    fn execute_task(
        &self,
        ctx: &WorkerCtx<'_>,
        local: &mut WsLocal,
        job: Arc<Job>,
        range: Range<usize>,
    ) {
        let mut range = range;
        ctx.task_scope(range.len() as u64, || {
            while range.len() > 1 {
                let mid = range.start + range.len() / 2;
                ctx.core.metrics().record_split();
                ctx.rec.record(EventKind::TaskSpawn {
                    size: (range.end - mid) as u64,
                });
                local.deque.push((Arc::clone(&job), mid..range.end));
                range.end = mid;
            }
            // SAFETY: the run's caller blocks on the job latch, keeping
            // the body borrow live; each index reaches exactly one leaf.
            unsafe { job.execute_index(range.start) };
        });
    }

    /// Find work for this participant: own deque, then injector, then two
    /// rounds of randomized stealing per victim tier — same-node victims
    /// first, remote nodes only after the local rounds fail.
    fn find_task(&self, ctx: &WorkerCtx<'_>, local: &mut WsLocal) -> Option<Task> {
        if let Some(task) = local.deque.pop() {
            return Some(task);
        }
        if let Some(task) = self.injector.pop() {
            return Some(task);
        }
        if self.stealers.len() <= 1 {
            return None;
        }
        let me = ctx.worker;
        // Fault hook: a planned steal-round delay makes `me` yield here,
        // modelling a slow or preempted worker entering its steal phase.
        ctx.core.faults().on_steal_round(me);
        let steal_timer = ctx.core.metrics().steal_timer();
        for (victims, is_local_tier) in [
            (&self.local_victims[me], true),
            (&self.remote_victims[me], false),
        ] {
            let n = victims.len();
            if n == 0 {
                continue;
            }
            for _round in 0..2 {
                let start = local.rng.next_below(n);
                for k in 0..n {
                    let victim = victims[(start + k) % n];
                    loop {
                        ctx.core.metrics().record_steal_attempt();
                        ctx.rec.record(EventKind::StealAttempt {
                            victim: victim as u64,
                        });
                        match self.stealers[victim].steal() {
                            Steal::Success(task) => {
                                steal_timer.success(is_local_tier);
                                ctx.rec.record(EventKind::StealSuccess {
                                    victim: victim as u64,
                                });
                                ctx.rec.record(if is_local_tier {
                                    EventKind::LocalSteal {
                                        victim: victim as u64,
                                    }
                                } else {
                                    EventKind::RemoteSteal {
                                        victim: victim as u64,
                                    }
                                });
                                return Some(task);
                            }
                            Steal::Retry => continue,
                            Steal::Empty => break,
                        }
                    }
                }
            }
        }
        None
    }
}

impl WorkerStrategy for WsStrategy {
    type Local = WsLocal;

    fn make_local(&self, worker: usize) -> WsLocal {
        let deque = self.seats.lock()[worker]
            .take()
            .expect("deque seat claimed twice");
        // Distinct odd seeds per participant; worker 0 keeps the seed the
        // caller has always used.
        let seed = if worker == 0 {
            0x9E37_79B9
        } else {
            0x5851_F42D ^ (worker as u64) << 17 | 1
        };
        WsLocal {
            deque,
            rng: XorShift64::new(seed),
        }
    }

    fn try_work(&self, ctx: &WorkerCtx<'_>, local: &mut WsLocal) -> bool {
        match self.find_task(ctx, local) {
            Some((job, range)) => {
                self.execute_task(ctx, local, job, range);
                true
            }
            None => false,
        }
    }
}

/// Work-stealing pool with binary range splitting.
pub struct WorkStealingPool {
    rt: Runtime<WsStrategy>,
}

impl WorkStealingPool {
    /// A pool where `threads` threads (including the caller) execute each
    /// run, all on one NUMA node.
    pub fn new(threads: usize) -> Self {
        WorkStealingPool::with_topology(Topology::flat(threads))
    }

    /// A pool whose participants are mapped onto NUMA nodes by
    /// `topology`; victim selection steals same-node first.
    pub fn with_topology(topology: Topology) -> Self {
        Self::with_topology_faulted(topology, FaultPlan::none())
    }

    /// As [`with_topology`](Self::with_topology), with a fault plan
    /// active from construction onwards (spawn faults fire here; see
    /// [`Runtime::build`] for the fewer-workers fallback).
    pub fn with_topology_faulted(topology: Topology, plan: FaultPlan) -> Self {
        WorkStealingPool {
            rt: Runtime::build("ws", topology, plan, WsStrategy::new),
        }
    }

    /// Shared run body: seed the injector from `seed_tasks`, wake the
    /// team, and participate until every index of `job` has executed.
    fn run_seeded(
        &self,
        tasks: usize,
        body: &(dyn Fn(usize) + Sync),
        seed: impl FnOnce(&WsStrategy, &Arc<Job>),
    ) {
        let mut guard = self.rt.lock_caller();
        let local = &mut *guard;
        let core = self.rt.core();
        if core.threads() == 1 {
            core.run_inline(tasks, body);
            return;
        }
        core.metrics().record_run();
        // Track 0 belongs to whichever thread holds the caller lock;
        // serialization preserves the single-producer ring contract.
        let ctx = self.rt.caller_ctx();
        ctx.rec.record(EventKind::RegionBegin {
            tasks: tasks as u64,
        });
        let job = Job::with_faults(body, tasks, core.faults().hook());
        seed(self.rt.strategy(), &job);
        core.notify();

        job.latch()
            .wait_while_helping(|| self.rt.strategy().try_work(&ctx, local));
        debug_assert!(
            local.deque.is_empty(),
            "run finished with caller-deque residue"
        );
        ctx.rec.record(EventKind::RegionEnd);
        job.resume_if_panicked();
    }
}

impl Executor for WorkStealingPool {
    fn num_threads(&self) -> usize {
        self.rt.core().threads()
    }

    fn run(&self, tasks: usize, body: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        let threads = self.rt.core().threads();
        self.run_seeded(tasks, body, |strategy, job| {
            // Seed the injector with one contiguous root range per thread.
            let roots = threads.min(tasks);
            strategy.injector.push_batch((0..roots).map(|w| {
                let lo = tasks * w / roots;
                let hi = tasks * (w + 1) / roots;
                (Arc::clone(job), lo..hi)
            }));
        });
    }

    fn run_dynamic(&self, initial: usize, body: &(dyn Fn(usize) + Sync)) {
        if initial == 0 {
            return;
        }
        self.run_seeded(initial, body, |strategy, job| {
            // One indivisible unit task per seed index: during a dynamic
            // region the partitioner owns granularity, so the pool must
            // not re-split the (already per-worker) seed ranges.
            strategy
                .injector
                .push_batch((0..initial).map(|i| (Arc::clone(job), i..i + 1)));
        });
    }

    fn discipline(&self) -> Discipline {
        Discipline::WorkStealing
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
        let pool = WorkStealingPool::new(4);
        let n = 10_000;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, &|i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "index {i} executed wrong count"
            );
        }
    }

    #[test]
    fn work_is_actually_distributed() {
        // With 4 threads and enough blocking-free work, more than one
        // thread should participate (statistically certain with 64k tasks,
        // though on a 1-core host stealing may be rare — assert only that
        // the run completes and at least the master worked).
        let pool = WorkStealingPool::new(4);
        let by_thread = Mutex::new(std::collections::HashMap::new());
        pool.run(65_536, &|_| {
            let id = std::thread::current().id();
            *by_thread.lock().entry(id).or_insert(0usize) += 1;
        });
        let map = by_thread.lock();
        let total: usize = map.values().sum();
        assert_eq!(total, 65_536);
        assert!(!map.is_empty());
    }

    #[test]
    fn many_small_runs() {
        let pool = WorkStealingPool::new(3);
        for n in 1..60 {
            let hits = AtomicUsize::new(0);
            pool.run(n, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), n);
        }
    }

    #[test]
    fn concurrent_callers_are_serialized_safely() {
        let pool = Arc::new(WorkStealingPool::new(2));
        let total = Arc::new(AtomicUsize::new(0));
        let callers: Vec<_> = (0..3)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        pool.run(256, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for c in callers {
            c.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 3 * 10 * 256);
    }

    #[test]
    fn steal_counters_partition_by_topology_tier() {
        // Single-node pool: every steal is local by construction.
        let flat = WorkStealingPool::new(4);
        for _ in 0..20 {
            flat.run(4096, &|_| {});
        }
        let m = flat.metrics().unwrap();
        assert_eq!(m.steals, m.local_steals + m.remote_steals);
        assert_eq!(m.remote_steals, 0, "flat topology cannot steal remotely");

        // Two-node pool: counters still partition exactly (whether any
        // remote steal happens depends on timing, so only the invariant
        // is asserted).
        let numa = WorkStealingPool::with_topology(Topology::grouped(4, 2));
        assert_eq!(numa.topology().nodes(), 2);
        for _ in 0..20 {
            numa.run(4096, &|_| {});
        }
        let m = numa.metrics().unwrap();
        assert_eq!(m.steals, m.local_steals + m.remote_steals);
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = WorkStealingPool::new(1);
        let hits = AtomicUsize::new(0);
        pool.run(100, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }
}
