//! Deterministic fault-injection tests. The whole file is compiled only
//! with the `fault` cargo feature (the CI chaos job); in default builds
//! every injection hook is a no-op and there is nothing to test here.
#![cfg(feature = "fault")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use pstl_executor::fault::INJECTED_PANIC;
use pstl_executor::{build_pool, build_pool_faulted, Discipline, FaultPlan, Topology};

fn injected_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .expect("injected panics carry a formatted String payload")
}

#[test]
fn installed_task_panic_fires_with_marker_on_every_pool() {
    for d in Discipline::POOLS {
        let pool = build_pool(d, 3);
        pool.install_fault_plan(FaultPlan::none().with_panic_at_task(10));
        let result = catch_unwind(AssertUnwindSafe(|| pool.run(64, &|_| {})));
        let payload = result.expect_err("injected fault must surface");
        let msg = injected_message(&*payload);
        assert!(
            msg.starts_with(INJECTED_PANIC),
            "{d:?}: unexpected panic message {msg:?}"
        );
        // Uninstall: the pool must be clean and fully usable again.
        pool.install_fault_plan(FaultPlan::none());
        let hits = AtomicUsize::new(0);
        pool.run(200, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 200, "{d:?}");
    }
}

#[test]
fn seeded_plans_fire_reproducibly() {
    // Same seed, same pool shape: both runs panic at the same injected
    // task index (the message embeds it).
    let msg_of = |seed: u64| {
        let pool = build_pool(Discipline::WorkStealing, 2);
        pool.install_fault_plan(FaultPlan::seeded(seed));
        let result = catch_unwind(AssertUnwindSafe(|| pool.run(128, &|_| {})));
        let payload = result.expect_err("seeded plan injects a panic within 97 tasks");
        injected_message(&*payload).to_string()
    };
    assert_eq!(msg_of(42), msg_of(42));
}

#[test]
fn spawn_failure_falls_back_to_fewer_workers() {
    for d in Discipline::POOLS {
        let pool = build_pool_faulted(
            d,
            Topology::flat(4),
            FaultPlan::none().with_spawn_failure(2),
        );
        // Worker 2's spawn fails, so the team is rebuilt truncated to
        // the caller plus worker 1.
        assert_eq!(pool.num_threads(), 2, "{d:?}");
        let m = pool.metrics().expect("real pools track metrics");
        assert!(m.spawn_failures >= 1, "{d:?}: fallback not counted");
        // The degraded pool still covers the whole index space.
        let hits = AtomicUsize::new(0);
        pool.run(1_000, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1_000, "{d:?}");
    }
}

#[test]
fn steal_delay_slows_but_never_wedges() {
    let pool = build_pool(Discipline::WorkStealing, 4);
    pool.install_fault_plan(FaultPlan::none().with_steal_delay(1, 500));
    // Uneven work forces the delayed worker into its steal loop.
    for _ in 0..4 {
        let hits = AtomicUsize::new(0);
        pool.run(256, &|i| {
            hits.fetch_add(1, Ordering::Relaxed);
            if i % 16 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 256);
    }
}

#[test]
fn futures_resolve_via_try_wait_under_spawn_truncation() {
    use pstl_executor::{Executor, FuturesPool, TaskPool};

    // Worker 1's spawn fails, truncating the team; every spawned future
    // must still resolve through `try_wait` (no `BrokenPromise`) — the
    // promise side is owned by queued jobs, and a smaller team must not
    // leak or drop them.
    let pool =
        TaskPool::with_topology_faulted(Topology::flat(4), FaultPlan::none().with_spawn_failure(1));
    assert!(pool.num_threads() < 4, "truncation did not shrink the team");
    let futures: Vec<_> = (0..64).map(|i| pool.spawn(move || i * 2)).collect();
    for (i, f) in futures.into_iter().enumerate() {
        assert_eq!(
            f.try_wait().expect("truncated pool must keep its promises"),
            i * 2
        );
    }

    // The block-futures backend rides the same machinery: a truncated
    // FuturesPool still covers the whole index space through its
    // internally awaited futures.
    let fp = FuturesPool::with_topology_faulted(
        Topology::flat(4),
        FaultPlan::none().with_spawn_failure(1),
    );
    let hits = AtomicUsize::new(0);
    fp.run(1_000, &|_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 1_000);
}

#[test]
fn injected_panic_composes_with_algorithm_layer() {
    // An injected executor-level fault must propagate through a pstl
    // algorithm like any body panic, leaving the pool reusable.
    let pool = build_pool(Discipline::TaskPool, 3);
    pool.install_fault_plan(FaultPlan::none().with_panic_at_task(3));
    let policy = pstl::ExecutionPolicy::par(std::sync::Arc::clone(&pool));
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut v: Vec<u64> = (0..50_000).rev().collect();
        pstl::sort(&policy, &mut v);
    }));
    assert!(result.is_err(), "fault must surface through the algorithm");
    pool.install_fault_plan(FaultPlan::none());
    let mut v: Vec<u64> = (0..10_000).rev().collect();
    pstl::sort(&policy, &mut v);
    assert!(v.windows(2).all(|w| w[0] <= w[1]));
}
