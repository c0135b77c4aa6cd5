//! Properties of the event-tracing subsystem across all scheduling
//! backends: every drained per-worker stream is well nested, region
//! begin/end events pair up on the caller track, and the disabled
//! recording path stays a cheap no-op.
//!
//! The tests are written to pass in both feature states. With
//! `--features trace` they check the recorded streams; without it they
//! check that every pool drains to an empty log.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use pstl_executor::{build_pool, Discipline, Executor};
use pstl_trace::stats;
use pstl_trace::EventKind;

/// Shared pools (spawning threads per proptest case would dominate).
fn pools() -> &'static [(Discipline, Arc<dyn Executor>)] {
    use std::sync::OnceLock;
    static POOLS: OnceLock<Vec<(Discipline, Arc<dyn Executor>)>> = OnceLock::new();
    POOLS.get_or_init(|| {
        Discipline::POOLS
            .iter()
            .map(|&d| (d, build_pool(d, 3)))
            .collect()
    })
}

fn busy_work(i: usize) -> u64 {
    let mut x = i as u64 + 1;
    for _ in 0..50 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After any sequence of parallel regions, every worker's drained
    /// event stream is well nested and the pool reports a trace.
    #[test]
    fn event_streams_are_well_nested_per_worker(
        task_counts in prop::collection::vec(1usize..200, 1..5),
    ) {
        for (discipline, pool) in pools() {
            let sink = AtomicU64::new(0);
            for &tasks in &task_counts {
                pool.run(tasks, &|i| {
                    sink.fetch_add(busy_work(i), Ordering::Relaxed);
                });
            }
            let log = pool
                .take_trace()
                .unwrap_or_else(|| panic!("{} pool must support tracing", discipline.name()));
            prop_assert_eq!(log.discipline, discipline.name());
            for w in &log.workers {
                if let Err(e) = stats::validate_well_nested(w) {
                    panic!("{} track {} not well nested: {e}", discipline.name(), w.label);
                }
            }
            if pstl_trace::enabled() {
                // Multi-thread pools record at least the caller's region
                // begin/end pair per run, and the pairs balance.
                let begins: usize = log.workers.iter().flat_map(|w| &w.events)
                    .filter(|e| matches!(e.kind, EventKind::RegionBegin { .. }))
                    .count();
                let ends: usize = log.workers.iter().flat_map(|w| &w.events)
                    .filter(|e| matches!(e.kind, EventKind::RegionEnd))
                    .count();
                prop_assert_eq!(begins, task_counts.len());
                prop_assert_eq!(begins, ends);
            } else {
                prop_assert_eq!(log.event_count(), 0);
            }
        }
    }
}

/// A drained trace does not replay: the second `take_trace` after a
/// single region only contains events recorded since the first drain.
#[test]
fn take_trace_drains() {
    for (discipline, pool) in pools() {
        pool.run(64, &|_| {});
        let first = pool.take_trace().unwrap();
        let second = pool.take_trace().unwrap();
        if pstl_trace::enabled() {
            assert!(
                first.event_count() >= 2,
                "{}: expected events from the traced region",
                discipline.name()
            );
        }
        // Nothing ran between the two drains, so only stragglers may
        // remain: workers winding down (failed steals, parking) or the
        // finish record of a task that was in flight at the first drain.
        // Regions and new tasks would mean the drain replayed events.
        for w in &second.workers {
            for e in &w.events {
                assert!(
                    matches!(
                        e.kind,
                        EventKind::Park
                            | EventKind::Unpark
                            | EventKind::StealAttempt { .. }
                            | EventKind::TaskFinish
                    ),
                    "{}: unexpected replayed event {:?}",
                    discipline.name(),
                    e.kind
                );
            }
        }
    }
}

/// Disabled-path overhead smoke test: recording through the no-op
/// recorder must be effectively free. The bound is deliberately loose
/// (it also passes with recording on — the ring write is two relaxed
/// atomic stores) so the test is not flaky; its point is to catch the
/// disabled path growing accidental work such as clock reads.
#[test]
fn record_call_overhead_smoke() {
    let tracer = pstl_trace::PoolTracer::new(1, false);
    let rec = tracer.recorder(0);
    let n = 1_000_000u64;
    let start = std::time::Instant::now();
    for i in 0..n {
        rec.record(EventKind::TaskStart { size: i });
        rec.record(EventKind::TaskFinish);
    }
    let elapsed = start.elapsed();
    let per_call_ns = elapsed.as_nanos() as f64 / (2 * n) as f64;
    assert!(
        per_call_ns < 1000.0,
        "record() costs {per_call_ns:.1} ns/call (enabled={})",
        pstl_trace::enabled()
    );
    if !pstl_trace::enabled() {
        let log = tracer.take("smoke", 1);
        assert_eq!(log.event_count(), 0);
    }
}
