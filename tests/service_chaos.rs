//! Chaos tests for the job service: seeded fault plans driving
//! injected admission rejections and task-body panics through the
//! retry machinery, with the conservation law checked exactly after
//! every storm. Compiled only with the `fault` feature (the CI
//! overload-chaos job); in default builds the hooks are no-ops.
#![cfg(feature = "fault")]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstl_executor::{
    Executor, FaultPlan, JobOutcome, JobService, JobSpec, Priority, Rejected, RetryPolicy,
    ServiceConfig, ShedReason,
};

fn assert_pool_reusable(svc: &JobService) {
    let hits = AtomicUsize::new(0);
    svc.pool().run(500, &|_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 500, "pool wedged after chaos");
}

#[test]
fn injected_admission_rejection_fires_exactly_once() {
    let svc = JobService::with_threads(2);
    svc.install_fault_plan(FaultPlan::none().with_reject_admission(3));
    let mut outcomes = Vec::new();
    let mut rejections = 0;
    for i in 0..10u64 {
        match svc.submit(JobSpec::default(), move |_t| i) {
            Ok(h) => outcomes.push(h),
            Err(e) => {
                assert_eq!(
                    e,
                    Rejected::Shedding,
                    "injected refusals report as shedding"
                );
                assert_eq!(i, 3, "the plan targets exactly submission #3");
                rejections += 1;
            }
        }
    }
    assert_eq!(rejections, 1);
    for h in outcomes {
        assert!(h.wait().completed().is_some());
    }
    svc.join();
    let s = svc.stats();
    assert_eq!(s.admitted, 9);
    assert_eq!(s.rejected_shedding, 1);
    assert!(s.accounting_balanced());
}

/// A sustained injected panic rate under a stream of jobs: retries
/// absorb the faults, the accounting law holds exactly, retries stay
/// within the configured budget, and the pool survives.
#[test]
fn panic_storm_is_absorbed_by_retries_with_exact_accounting() {
    let max_retries = 3;
    let svc = JobService::new(ServiceConfig::new(2).with_retry(RetryPolicy {
        max_retries,
        base: Duration::from_micros(50),
        cap: Duration::from_millis(1),
        jitter_seed: 7,
    }));
    svc.install_fault_plan(FaultPlan::none().with_panic_every(7));

    let total = 200u64;
    let handles: Vec<_> = (0..total)
        .map(|i| {
            svc.submit(JobSpec::tenant(i % 4), move |_t| i)
                .expect("no admission faults planned")
        })
        .collect();
    let mut completed = 0u64;
    let mut failed = 0u64;
    for h in handles {
        match h.wait() {
            JobOutcome::Completed(_) => completed += 1,
            JobOutcome::Failed { attempts } => {
                assert_eq!(attempts, 1 + max_retries, "failures exhaust the budget");
                failed += 1;
            }
            other => panic!("unexpected terminal state {other:?}"),
        }
    }
    svc.join();

    let s = svc.stats();
    assert_eq!(s.admitted, total);
    assert_eq!(s.completed, completed);
    assert_eq!(s.failed, failed);
    assert_eq!(completed + failed, total, "every job resolved");
    assert!(
        s.retries > 0,
        "a 1-in-7 panic rate over 200 jobs must retry"
    );
    assert!(
        s.retries <= s.admitted * max_retries as u64,
        "retries exceed the configured budget"
    );
    assert!(s.accounting_balanced(), "conservation law violated: {s:?}");
    assert_eq!(svc.metrics().jobs_retried, s.retries);

    svc.install_fault_plan(FaultPlan::none());
    assert_pool_reusable(&svc);
}

/// The acceptance scenario with a seeded plan armed: 2× the queue's
/// worth of traffic against a plugged worker while the plan injects a
/// task panic and a steal delay. Only the lowest class is shed, the
/// high class loses nothing, accounting stays exact, and the service
/// and pool both keep working afterwards.
#[test]
fn seeded_overload_sheds_only_lowest_class() {
    let svc = JobService::new(
        ServiceConfig::new(1)
            .with_queue_cap(16)
            .with_dispatch_window(1)
            .with_tenant_quota(1_000),
    );
    // `seeded` plans inject a single task panic (within the first ~100
    // bodies) plus a steal delay — one retry absorbs the panic, so no
    // job can be *lost* to the plan and the class assertions below stay
    // deterministic.
    svc.install_fault_plan(FaultPlan::seeded(0xC0FFEE));

    let release = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicBool::new(false));
    let plug = {
        let started = Arc::clone(&started);
        let release = Arc::clone(&release);
        svc.submit(JobSpec::default().priority(Priority::High), move |_t| {
            started.store(true, Ordering::Release);
            while !release.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(50));
            }
        })
        .expect("plug admitted")
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while !started.load(Ordering::Acquire) {
        assert!(Instant::now() < deadline, "plug never reached a worker");
        std::thread::yield_now();
    }

    let submit = |p: Priority| svc.submit(JobSpec::default().priority(p), move |_t| ());
    let mut admitted = [0u64; 3];
    let mut refused = [0u64; 3];
    // Roughly 2× the queue capacity of mixed traffic, low first so the
    // higher classes always find lowest-class displacement victims
    // (shedding is lowest-first: highs only displace normals once the
    // lows run out, so the high count stays within the low backlog).
    for (class, count) in [
        (Priority::Low, 12),
        (Priority::Normal, 12),
        (Priority::High, 4),
    ] {
        for _ in 0..count {
            match submit(class) {
                Ok(_) => admitted[class.index()] += 1,
                Err(_) => refused[class.index()] += 1,
            }
        }
    }
    assert_eq!(
        refused[Priority::High.index()],
        0,
        "high class refused under overload"
    );
    assert_eq!(admitted[Priority::High.index()], 4);

    release.store(true, Ordering::Release);
    assert!(plug.wait().completed().is_some());
    svc.join();

    let s = svc.stats();
    assert!(s.accounting_balanced(), "conservation law violated: {s:?}");
    let high = s.per_class[Priority::High.index()];
    assert_eq!(
        (high.shed, high.cancelled, high.failed),
        (0, 0, 0),
        "high-class work was lost under seeded overload: {s:?}"
    );
    let normal = s.per_class[Priority::Normal.index()];
    assert_eq!(
        normal.shed, 0,
        "normal class shed while lows remained: {s:?}"
    );
    let low = s.per_class[Priority::Low.index()];
    assert!(low.shed > 0, "overload must displace low work: {s:?}");
    assert!(
        s.retries <= s.admitted * svc.cfg().retry.max_retries as u64,
        "retries exceed the configured budget"
    );

    // The service keeps serving after the storm …
    svc.install_fault_plan(FaultPlan::none());
    let after = svc
        .submit(JobSpec::default(), |_t| 99u8)
        .expect("admits again");
    assert_eq!(after.wait(), JobOutcome::Completed(99));
    // … and the pool still runs plain parallel regions.
    assert_pool_reusable(&svc);
}

/// Deadline shedding composes with injected panics: expired-in-queue
/// jobs are shed (never executed, never retried) while the panic plan
/// churns the jobs that do run.
#[test]
fn deadline_shed_jobs_never_consume_retries() {
    let svc = JobService::new(ServiceConfig::new(1).with_dispatch_window(1));
    svc.install_fault_plan(FaultPlan::none().with_panic_every(5));
    let release = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicBool::new(false));
    let plug = {
        let started = Arc::clone(&started);
        let release = Arc::clone(&release);
        svc.submit(JobSpec::default(), move |_t| {
            started.store(true, Ordering::Release);
            while !release.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(50));
            }
        })
        .expect("plug admitted")
    };
    while !started.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let doomed: Vec<_> = (0..4)
        .map(|_| {
            svc.submit::<(), _>(
                JobSpec::default().deadline(Duration::from_millis(5)),
                |_t| (),
            )
            .expect("admitted")
        })
        .collect();
    std::thread::sleep(Duration::from_millis(60));
    release.store(true, Ordering::Release);
    let _ = plug.wait();
    for h in doomed {
        assert_eq!(h.wait(), JobOutcome::Shed(ShedReason::DeadlineExpired));
    }
    svc.join();
    let s = svc.stats();
    assert_eq!(s.shed_deadline, 4);
    assert!(s.accounting_balanced());
}
