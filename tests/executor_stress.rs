//! Stress and property tests of the executor substrate under real
//! concurrency: repeated runs, nested algorithm calls, deque storms,
//! futures fan-out.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use pstl_executor::deque::{deque, Steal};
use pstl_executor::{build_pool, build_pool_on, Discipline, FuturesPool, TaskPool, Topology};

#[test]
fn thousand_small_runs_per_discipline() {
    for discipline in Discipline::POOLS {
        let pool = build_pool(discipline, 4);
        let total = AtomicUsize::new(0);
        for round in 0..1000 {
            pool.run(round % 17, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        let expect: usize = (0..1000).map(|r| r % 17).sum();
        assert_eq!(total.load(Ordering::Relaxed), expect, "{:?}", discipline);
    }
}

#[test]
fn interleaved_algorithms_share_one_pool() {
    // Many different algorithms back-to-back on the same pool must not
    // deadlock or cross-contaminate runs.
    let pool = build_pool(Discipline::WorkStealing, 4);
    let policy = pstl::ExecutionPolicy::par(pool);
    for round in 0..50 {
        let n = 500 + round * 37;
        let mut v: Vec<u64> = (0..n as u64).rev().collect();
        pstl::sort(&policy, &mut v);
        let sum = pstl::reduce(&policy, &v, 0u64, |a, b| a + b);
        assert_eq!(sum, (n as u64 - 1) * n as u64 / 2);
        let idx = pstl::find(&policy, &v, &(n as u64 / 2));
        assert_eq!(idx, Some(n / 2));
    }
}

#[test]
fn deque_storm_many_thieves() {
    const ITEMS: usize = 50_000;
    const THIEVES: usize = 4;
    let (worker, stealer) = deque::<usize>();
    let taken = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicUsize::new(0));

    let thieves: Vec<_> = (0..THIEVES)
        .map(|_| {
            let s = stealer.clone();
            let taken = Arc::clone(&taken);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || loop {
                match s.steal() {
                    Steal::Success(_) => {
                        taken.fetch_add(1, Ordering::Relaxed);
                    }
                    Steal::Retry => {}
                    Steal::Empty => {
                        if stop.load(Ordering::Acquire) == 1 {
                            return;
                        }
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();

    let mut popped = 0usize;
    for i in 0..ITEMS {
        worker.push(i);
        if i % 2 == 0 && worker.pop().is_some() {
            popped += 1;
        }
    }
    // Drain the rest cooperatively with the thieves.
    while worker.pop().is_some() {
        popped += 1;
    }
    stop.store(1, Ordering::Release);
    for t in thieves {
        t.join().unwrap();
    }
    assert_eq!(popped + taken.load(Ordering::Relaxed), ITEMS);
}

#[test]
fn futures_fan_out_fan_in() {
    let pool = TaskPool::new(4);
    let futures: Vec<_> = (0..200)
        .map(|i| pool.spawn(move || (0..=i as u64).sum::<u64>()))
        .collect();
    for (i, f) in futures.into_iter().enumerate() {
        assert_eq!(f.wait(), (0..=i as u64).sum::<u64>());
    }
}

#[test]
fn futures_pool_storm_with_promise_handoff() {
    // The futures discipline under the same storm as the other pools,
    // plus a cross-thread promise handoff per round.
    use pstl_executor::{future_promise, Executor};
    let pool = FuturesPool::with_topology(Topology::grouped(4, 2));
    for round in 0..200 {
        let tasks = round % 23;
        let total = AtomicUsize::new(0);
        let (future, promise) = future_promise::<usize>();
        pool.run(tasks, &|i| {
            total.fetch_add(1, Ordering::Relaxed);
            std::hint::black_box(i);
        });
        std::thread::spawn(move || promise.set(tasks));
        assert_eq!(future.wait(), tasks);
        assert_eq!(total.load(Ordering::Relaxed), tasks, "round {round}");
    }
}

/// Uneven per-task work so idle workers actually go stealing.
fn provoke_steals(pool: &dyn pstl_executor::Executor) {
    for _ in 0..8 {
        pool.run(64, &|i| {
            if i % 8 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        });
    }
}

#[test]
fn two_tier_steal_counters_partition_total() {
    // Invariant from the topology refactor: every steal is classified as
    // exactly one of local/remote, so the two counters partition `steals`.
    let pool = build_pool_on(Discipline::WorkStealing, Topology::grouped(4, 2));
    provoke_steals(pool.as_ref());
    let m = pool.metrics().expect("work-stealing pool exposes metrics");
    assert_eq!(
        m.steals,
        m.local_steals + m.remote_steals,
        "steals {} != local {} + remote {}",
        m.steals,
        m.local_steals,
        m.remote_steals
    );
}

#[test]
fn flat_topology_never_steals_remotely() {
    // A single-node (flat) topology has no remote peers, so remote
    // steals are impossible no matter how contended the pool gets.
    let pool = build_pool(Discipline::WorkStealing, 4);
    assert_eq!(pool.topology().nodes(), 1);
    provoke_steals(pool.as_ref());
    let m = pool.metrics().expect("work-stealing pool exposes metrics");
    assert_eq!(m.remote_steals, 0, "flat topology recorded remote steals");
    assert_eq!(m.steals, m.local_steals);
}

#[test]
fn counter_invariants_hold_on_every_backend() {
    // The strategy matrix: one shared runtime core means one counter
    // contract. Every backend — stealing or not — must satisfy the same
    // partition invariants, and the cancellation bookkeeping must agree
    // exactly with the task count when the token is tripped up front.
    use pstl_executor::CancelToken;
    for discipline in Discipline::POOLS {
        let pool = build_pool_on(discipline, Topology::grouped(4, 2));
        provoke_steals(pool.as_ref());
        let token = CancelToken::new();
        token.cancel();
        let out = pool.run_cancellable(64, &|_| unreachable!("token is tripped"), &token);
        assert!(out.is_err(), "{discipline:?}: tripped token must cancel");
        let m = pool.metrics().expect("runtime-backed pools expose metrics");
        assert_eq!(
            m.steals,
            m.local_steals + m.remote_steals,
            "{discipline:?}: local/remote must partition steals"
        );
        assert!(
            m.steal_attempts >= m.steals,
            "{discipline:?}: {} attempts < {} successful steals",
            m.steal_attempts,
            m.steals
        );
        assert_eq!(m.cancel_checks, 64, "{discipline:?}");
        assert_eq!(m.cancelled_tasks, 64, "{discipline:?}");
        assert_eq!(m.runs, 9, "{discipline:?}: 8 provoke runs + 1 cancelled");
        assert!(m.tasks_executed > 0, "{discipline:?}");
        assert_eq!(m.spawn_failures, 0, "{discipline:?}: no faults were armed");
    }
}

#[test]
fn pools_survive_panicking_free_spawns() {
    // A panic inside a spawned task must not wedge the pool for later
    // runs. (Algorithm closures are expected not to panic; `spawn` is the
    // escape hatch where user code might.)
    use pstl_executor::Executor;
    let pool = TaskPool::new(2);
    let f = pool.spawn(|| 1u32);
    assert_eq!(f.wait(), 1);
    let hits = AtomicUsize::new(0);
    pool.run(100, &|_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 100);
}

#[test]
fn panic_storm_keeps_every_pool_alive() {
    // 60 consecutive panicking runs per discipline, panic site rotating
    // through the index space, each followed by a clean full-coverage
    // run: no wedged workers, no lost indices, no double panics.
    for discipline in Discipline::POOLS {
        let pool = build_pool(discipline, 4);
        for round in 0..60usize {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(32, &|i| {
                    if i == round % 32 {
                        panic!("storm {round}");
                    }
                });
            }));
            assert!(result.is_err(), "{discipline:?} round {round}");
            let hits = AtomicUsize::new(0);
            pool.run(97, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(
                hits.load(Ordering::Relaxed),
                97,
                "{discipline:?} round {round}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn run_covers_arbitrary_task_counts(tasks in 0usize..3000) {
        static POOL: std::sync::OnceLock<Arc<dyn pstl_executor::Executor>> =
            std::sync::OnceLock::new();
        let pool = POOL.get_or_init(|| build_pool(Discipline::WorkStealing, 3));
        let hits = AtomicUsize::new(0);
        pool.run(tasks, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        prop_assert_eq!(hits.load(Ordering::Relaxed), tasks);
    }

    #[test]
    fn deque_single_thread_semantics(ops in prop::collection::vec(0u8..3, 0..200)) {
        // Model-check push/pop/steal against a VecDeque reference.
        let (worker, stealer) = deque::<u32>();
        let mut model: std::collections::VecDeque<u32> = Default::default();
        let mut counter = 0u32;
        for op in ops {
            match op {
                0 => {
                    worker.push(counter);
                    model.push_back(counter);
                    counter += 1;
                }
                1 => {
                    prop_assert_eq!(worker.pop(), model.pop_back());
                }
                _ => {
                    let got = match stealer.steal() {
                        Steal::Success(v) => Some(v),
                        _ => None,
                    };
                    prop_assert_eq!(got, model.pop_front());
                }
            }
        }
        prop_assert_eq!(worker.len(), model.len());
    }
}
