//! End-to-end tests of the multi-tenant [`JobService`]: deterministic
//! overload (a plugged worker and hand-counted traffic instead of
//! timing-dependent load), typed admission errors, deadline shedding,
//! mid-run cancellation, the retry budget, and — after all of it — the
//! underlying pool still running plain parallel regions.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstl_executor::{
    Executor, JobOutcome, JobService, JobSpec, Priority, Rejected, RetryPolicy, ServiceConfig,
    ShedReason,
};

/// Submit a job that parks on `release` and spin until a worker has
/// actually picked it up, so every later submission stays queued behind
/// a deterministically busy service (dispatch window permitting).
fn plug_worker(svc: &JobService, release: &Arc<AtomicBool>) -> pstl_executor::JobHandle<()> {
    let started = Arc::new(AtomicBool::new(false));
    let handle = {
        let started = Arc::clone(&started);
        let release = Arc::clone(release);
        svc.submit(JobSpec::default().priority(Priority::High), move |_t| {
            started.store(true, Ordering::Release);
            while !release.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(50));
            }
        })
        .expect("plug admitted on an empty service")
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while !started.load(Ordering::Acquire) {
        assert!(Instant::now() < deadline, "plug never reached a worker");
        std::thread::yield_now();
    }
    handle
}

fn assert_pool_reusable(svc: &JobService) {
    let hits = AtomicUsize::new(0);
    svc.pool().run(1_000, &|_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(
        hits.load(Ordering::Relaxed),
        1_000,
        "the service's pool must still run plain parallel regions"
    );
}

/// The acceptance scenario, made deterministic: with the single worker
/// plugged, traffic past queue capacity displaces only the lowest
/// class, the shedding watermark refuses new low work, the high class
/// loses nothing, and when the dust settles the conservation law holds
/// exactly against both the stats and the typed outcomes the callers
/// saw.
#[test]
fn overload_sheds_only_lowest_class_with_exact_accounting() {
    let cfg = ServiceConfig::new(1)
        .with_queue_cap(16) // watermark 12
        .with_dispatch_window(1)
        .with_tenant_quota(1_000);
    let svc = JobService::new(cfg);
    let release = Arc::new(AtomicBool::new(false));
    let plug = plug_worker(&svc, &release);

    let submit = |p: Priority| svc.submit(JobSpec::default().priority(p), move |_t| ());

    // 10 low jobs fit below the watermark.
    let lows: Vec<_> = (0..10)
        .map(|_| submit(Priority::Low).expect("low admitted"))
        .collect();
    // 10 normal jobs: 6 fill the queue to capacity, 4 displace lows.
    let normals: Vec<_> = (0..10)
        .map(|_| submit(Priority::Normal).expect("normal admitted"))
        .collect();
    // 5 high jobs displace 5 more lows.
    let highs: Vec<_> = (0..5)
        .map(|_| submit(Priority::High).expect("high admitted"))
        .collect();
    // New low work is refused outright: past the watermark.
    for _ in 0..3 {
        assert_eq!(submit(Priority::Low).unwrap_err(), Rejected::Shedding);
    }

    release.store(true, Ordering::Release);
    assert_eq!(plug.wait().completed(), Some(()));
    svc.join();

    let low_outcomes: Vec<_> = lows.into_iter().map(|h| h.wait()).collect();
    let shed_lows = low_outcomes
        .iter()
        .filter(|o| matches!(o, JobOutcome::Shed(ShedReason::Overload)))
        .count();
    let done_lows = low_outcomes
        .iter()
        .filter(|o| o.completed().is_some())
        .count();
    assert_eq!(shed_lows, 9, "9 lows displaced by 4 normals + 5 highs");
    assert_eq!(done_lows, 1, "the surviving low still runs");
    for h in normals {
        assert!(
            matches!(h.wait(), JobOutcome::Completed(())),
            "normal class untouched"
        );
    }
    for h in highs {
        assert!(
            matches!(h.wait(), JobOutcome::Completed(())),
            "high class untouched"
        );
    }

    let s = svc.stats();
    assert!(s.accounting_balanced(), "conservation law violated: {s:?}");
    assert_eq!(s.admitted, 1 + 10 + 10 + 5);
    assert_eq!(s.rejected_shedding, 3);
    assert_eq!(s.rejected_total(), 3);
    assert_eq!(s.shed_overload, 9);
    assert_eq!(s.shed_total(), 9);
    assert_eq!(s.failed, 0);
    assert_eq!(s.cancelled, 0);
    let high = s.per_class[Priority::High.index()];
    assert_eq!((high.shed, high.cancelled, high.failed), (0, 0, 0));

    assert_pool_reusable(&svc);
}

#[test]
fn queue_full_with_no_lower_victim_is_typed_rejection() {
    let svc = JobService::new(
        ServiceConfig::new(1)
            .with_queue_cap(4)
            .with_shed_watermark(100) // out of the way: isolate QueueFull
            .with_dispatch_window(1),
    );
    let release = Arc::new(AtomicBool::new(false));
    let _plug = plug_worker(&svc, &release);
    // Fill the queue with jobs of the same class: displacement needs a
    // strictly lower class, so the fifth submission must be refused.
    for _ in 0..4 {
        svc.submit::<(), _>(JobSpec::default(), |_t| ())
            .expect("fits in queue");
    }
    let err = svc
        .submit::<(), _>(JobSpec::default(), |_t| ())
        .unwrap_err();
    assert_eq!(err, Rejected::QueueFull);
    assert_eq!(svc.stats().rejected_queue_full, 1);
    release.store(true, Ordering::Release);
    svc.join();
    assert!(svc.stats().accounting_balanced());
}

#[test]
fn tenant_quota_rejects_only_the_saturated_tenant() {
    let svc = JobService::new(
        ServiceConfig::new(1)
            .with_tenant_quota(2)
            .with_dispatch_window(1),
    );
    let release = Arc::new(AtomicBool::new(false));
    let _plug = plug_worker(&svc, &release);
    for _ in 0..2 {
        svc.submit::<(), _>(JobSpec::tenant(7), |_t| ())
            .expect("within quota");
    }
    assert_eq!(
        svc.submit::<(), _>(JobSpec::tenant(7), |_t| ())
            .unwrap_err(),
        Rejected::Quota
    );
    // Another tenant is unaffected by tenant 7's saturation.
    svc.submit::<(), _>(JobSpec::tenant(8), |_t| ())
        .expect("other tenant admitted");
    assert_eq!(svc.stats().rejected_quota, 1);
    release.store(true, Ordering::Release);
    svc.join();
    let s = svc.stats();
    assert!(s.accounting_balanced());
    // Quota released on completion: tenant 7 can submit again.
    svc.submit::<(), _>(JobSpec::tenant(7), |_t| ())
        .expect("quota released after drain");
    svc.join();
}

/// A queued job whose deadline passes before dispatch is shed as
/// `DeadlineExpired` — its body never runs — and is counted separately
/// from jobs cancelled at or during execution.
#[test]
fn deadline_expiring_in_queue_sheds_without_executing() {
    let svc = JobService::new(ServiceConfig::new(1).with_dispatch_window(1));
    let release = Arc::new(AtomicBool::new(false));
    let plug = plug_worker(&svc, &release);

    let ran = Arc::new(AtomicBool::new(false));
    let handle = {
        let ran = Arc::clone(&ran);
        svc.submit(
            JobSpec::default().deadline(Duration::from_millis(5)),
            move |_t| ran.store(true, Ordering::Relaxed),
        )
        .expect("admitted")
    };
    // Hold the worker well past the deadline plus the sweep period.
    std::thread::sleep(Duration::from_millis(60));
    release.store(true, Ordering::Release);

    assert_eq!(handle.wait(), JobOutcome::Shed(ShedReason::DeadlineExpired));
    assert!(
        !ran.load(Ordering::Relaxed),
        "expired job must never execute"
    );
    let _ = plug.wait();
    svc.join();
    let s = svc.stats();
    assert_eq!(s.shed_deadline, 1);
    assert_eq!(s.cancelled, 0, "queue expiry is shedding, not cancellation");
    assert!(s.accounting_balanced());
}

/// Cancelling a running job's token resolves it `Cancelled` once the
/// body observes the trip — the executed-then-cancelled path, distinct
/// from expiry in queue.
#[test]
fn cancelling_a_running_job_counts_cancelled_not_shed() {
    let svc = JobService::new(ServiceConfig::new(1));
    let handle = svc
        .submit(JobSpec::default(), |t: &pstl_executor::CancelToken| {
            while !t.is_cancelled() {
                std::thread::sleep(Duration::from_micros(100));
            }
            t.bail();
        })
        .expect("admitted");
    // Let it reach a worker, then trip its token.
    std::thread::sleep(Duration::from_millis(10));
    handle.token().cancel();
    assert_eq!(handle.wait(), JobOutcome::Cancelled);
    svc.join();
    let s = svc.stats();
    assert_eq!(s.cancelled, 1);
    assert_eq!(s.shed_deadline, 0);
    assert!(s.accounting_balanced());
    assert_pool_reusable(&svc);
}

/// Transient panics consume the retry budget and no more: a body that
/// fails twice then succeeds completes with exactly two retries, and a
/// body that always fails resolves `Failed` after `1 + max_retries`
/// attempts.
#[test]
fn retry_budget_is_respected_exactly() {
    let cfg = ServiceConfig::new(2).with_retry(RetryPolicy {
        max_retries: 2,
        base: Duration::from_micros(100),
        cap: Duration::from_millis(1),
        jitter_seed: 11,
    });
    let svc = JobService::new(cfg);

    let calls = Arc::new(AtomicUsize::new(0));
    let flaky = {
        let calls = Arc::clone(&calls);
        svc.submit(JobSpec::default(), move |_t| {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            42u64
        })
        .expect("admitted")
    };
    assert_eq!(flaky.wait(), JobOutcome::Completed(42));
    assert_eq!(calls.load(Ordering::SeqCst), 3, "1 try + 2 retries");

    let hopeless = svc
        .submit::<(), _>(JobSpec::default(), |_t| panic!("permanent"))
        .expect("admitted");
    assert_eq!(hopeless.wait(), JobOutcome::Failed { attempts: 3 });

    svc.join();
    let s = svc.stats();
    assert_eq!(s.retries, 2 + 2);
    assert_eq!(s.failed, 1);
    assert!(s.accounting_balanced());
    assert_pool_reusable(&svc);
}

/// Shutdown sheds what is still queued, resolves everything, and the
/// pool remains usable for direct parallel regions afterwards.
#[test]
fn shutdown_sheds_queue_and_leaves_pool_usable() {
    let mut svc = JobService::new(ServiceConfig::new(1).with_dispatch_window(1));
    let release = Arc::new(AtomicBool::new(false));
    let plug = plug_worker(&svc, &release);
    let queued: Vec<_> = (0..8)
        .map(|_| {
            svc.submit::<(), _>(JobSpec::default(), |_t| ())
                .expect("admitted")
        })
        .collect();
    release.store(true, Ordering::Release);
    svc.shutdown();
    let _ = plug.wait();
    let shed = queued
        .into_iter()
        .map(|h| h.wait())
        .filter(|o| matches!(o, JobOutcome::Shed(ShedReason::Shutdown)))
        .count();
    assert!(shed > 0, "shutdown must shed still-queued jobs");
    assert_eq!(
        svc.submit::<(), _>(JobSpec::default(), |_t| ())
            .unwrap_err(),
        Rejected::Shedding,
        "a shut-down service admits nothing"
    );
    let s = svc.stats();
    assert!(s.accounting_balanced());
    assert_pool_reusable(&svc);
}
