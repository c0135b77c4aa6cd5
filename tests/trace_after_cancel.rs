//! Trace rings and histograms must drain cleanly after *abnormal* region
//! exits: cooperative cancellation (`run_cancellable` → `Err(Cancelled)`)
//! and injected task panics. Every pool catches body panics on the
//! worker before rethrowing, so `TaskFinish` events and duration samples
//! are recorded even for regions that die — these tests lock that in:
//! the next `take_trace` must return well-nested per-worker streams, and
//! the histogram snapshots must stay internally consistent.
//!
//! Companion to `tests/cancellation.rs` (which checks the counters and
//! reusability) and `tests/trace_events.rs` (the normal-path streams).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pstl_executor::{build_pool, CancelToken, Cancelled, Discipline, Executor, HistKind};
use pstl_trace::stats::validate_well_nested;

/// Drain the trace and check every worker stream is well nested (or,
/// without the `trace` feature, that the drain is structurally valid
/// and empty).
fn assert_clean_drain(pool: &Arc<dyn Executor>, context: &str) {
    let log = pool.take_trace().expect("real pools always trace");
    if pstl_trace::enabled() {
        for w in &log.workers {
            validate_well_nested(w)
                .unwrap_or_else(|e| panic!("{context}: worker {} stream broken: {e}", w.label));
        }
    } else {
        assert_eq!(log.event_count(), 0, "{context}: disabled trace not empty");
    }
}

/// The histogram snapshot after an abnormal exit must be internally
/// consistent: counts match bucket sums, quantiles are ordered, and a
/// since() against an earlier snapshot never underflows.
fn assert_hists_consistent(pool: &Arc<dyn Executor>, context: &str) {
    let set = pool.hist_snapshot().expect("real pools expose histograms");
    for kind in HistKind::ALL {
        let h = set.get(kind);
        let bucket_total: u64 = h.buckets.iter().sum();
        assert_eq!(
            bucket_total,
            h.count(),
            "{context}: {} bucket total disagrees with count",
            kind.name()
        );
        if !h.is_empty() {
            let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
            assert!(
                p50 <= p99,
                "{context}: {} quantiles out of order",
                kind.name()
            );
        }
    }
}

#[test]
fn trace_drains_well_nested_after_deadline_cancellation() {
    for d in Discipline::POOLS {
        let pool = build_pool(d, 4);
        let _ = pool.take_trace(); // discard pool-startup events
        let before = pool.hist_snapshot().expect("real pools expose histograms");
        let result = pool.run_with_deadline(
            20_000,
            &|_| std::thread::sleep(Duration::from_micros(200)),
            Duration::from_millis(5),
        );
        assert_eq!(result, Err(Cancelled), "{d:?}: deadline must trip");
        assert_clean_drain(&pool, &format!("{d:?} after deadline cancel"));
        assert_hists_consistent(&pool, &format!("{d:?} after deadline cancel"));
        let delta = pool
            .hist_snapshot()
            .expect("real pools expose histograms")
            .since(&before);
        if pstl_trace::enabled() {
            assert!(
                delta.get(HistKind::TaskDuration).count() > 0,
                "{d:?}: tasks that ran before the trip must record durations"
            );
        } else {
            assert!(delta.is_empty(), "{d:?}: histograms move only with trace");
        }
    }
}

#[test]
fn trace_drains_well_nested_after_pre_tripped_token() {
    for d in Discipline::POOLS {
        let pool = build_pool(d, 3);
        let _ = pool.take_trace();
        let token = CancelToken::new();
        token.cancel();
        let hits = AtomicUsize::new(0);
        let result = pool.run_cancellable(
            500,
            &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            },
            &token,
        );
        assert_eq!(result, Err(Cancelled), "{d:?}");
        assert_clean_drain(&pool, &format!("{d:?} after pre-tripped token"));
        assert_hists_consistent(&pool, &format!("{d:?} after pre-tripped token"));
    }
}

#[test]
fn trace_stays_clean_across_cancel_then_reuse() {
    for d in Discipline::POOLS {
        let pool = build_pool(d, 4);
        let _ = pool.take_trace();
        let _ = pool.run_with_deadline(
            10_000,
            &|_| std::thread::sleep(Duration::from_micros(100)),
            Duration::from_millis(3),
        );
        assert_clean_drain(&pool, &format!("{d:?} first drain"));
        // The pool must be reusable and the *next* capture must be a
        // fresh, well-nested stream unpolluted by the dead region.
        let hits = AtomicUsize::new(0);
        pool.run(333, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 333, "{d:?} must stay usable");
        let log = pool.take_trace().expect("real pools always trace");
        if pstl_trace::enabled() {
            assert!(
                log.event_count() > 0,
                "{d:?}: reused pool must keep recording"
            );
            for w in &log.workers {
                validate_well_nested(w)
                    .unwrap_or_else(|e| panic!("{d:?} reuse: worker {} broken: {e}", w.label));
            }
        }
    }
}

/// Injected mid-region panics (the chaos configuration) must not poison
/// the rings either: the panic is caught on the worker, `TaskFinish` is
/// recorded, and the next drain is well nested.
#[cfg(feature = "fault")]
#[test]
fn trace_drains_well_nested_after_injected_panic() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use pstl_executor::FaultPlan;

    for d in Discipline::POOLS {
        let pool = build_pool(d, 3);
        let _ = pool.take_trace();
        pool.install_fault_plan(FaultPlan::none().with_panic_at_task(10));
        let result = catch_unwind(AssertUnwindSafe(|| pool.run(64, &|_| {})));
        assert!(result.is_err(), "{d:?}: injected panic must surface");
        pool.install_fault_plan(FaultPlan::none());
        assert_clean_drain(&pool, &format!("{d:?} after injected panic"));
        assert_hists_consistent(&pool, &format!("{d:?} after injected panic"));
        let hits = AtomicUsize::new(0);
        pool.run(200, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 200, "{d:?}");
        assert_clean_drain(&pool, &format!("{d:?} reuse after injected panic"));
    }
}
