//! Counter and trace invariants of the early-exit search engine:
//! `early_exits` / `wasted_chunks` must flow from the engine's drop
//! guard through `MetricsSink` into `SchedDelta` JSON, stay consistent
//! with the dispatched-chunk totals, and the `EarlyExit` trace event
//! must not break per-worker well-nestedness on any pool.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstl::chunk::chunk_range;
use pstl::search::POLL_BLOCK;
use pstl::{ExecutionPolicy, ParConfig, Partitioner};
use pstl_executor::{build_pool, Discipline};
use pstl_harness::{to_json, Bench, BenchConfig};
use pstl_trace::{stats, EventKind};

/// A haystack big enough that every partitioner dispatches several
/// chunks, with the match planted near the front.
fn front_haystack() -> (Vec<u32>, usize) {
    let n = 64 * POLL_BLOCK;
    let hit = POLL_BLOCK / 2;
    let mut data = vec![0u32; n];
    data[hit] = 1;
    (data, hit)
}

/// Longest a schedule point may hold a participant: a hold that lasts
/// longer fails the test loudly instead of hanging it.
const HOLD_LIMIT: Duration = Duration::from_secs(10);

/// A schedule point: spin (yielding) until `released`.
fn hold_until(what: &str, released: impl Fn() -> bool) {
    let start = Instant::now();
    while !released() {
        assert!(
            start.elapsed() < HOLD_LIMIT,
            "schedule point not released within {HOLD_LIMIT:?}: {what}"
        );
        std::thread::yield_now();
    }
}

/// `n` indices, each element equal to its index, so a `find_if`
/// predicate knows which position it is evaluating.
fn index_haystack() -> (Vec<usize>, usize) {
    let n = 64 * POLL_BLOCK;
    ((0..n).collect(), POLL_BLOCK / 2)
}

#[test]
fn early_exit_counters_reach_sched_delta_json() {
    let pool = build_pool(Discipline::WorkStealing, 3);
    let exec = Arc::clone(&pool);
    let (data, hit) = index_haystack();
    let policy = ExecutionPolicy::par_with(Arc::clone(&pool), ParConfig::with_grain(256));
    let iterations = 2u64;
    let m = Bench::new("early_exit_region")
        .config(BenchConfig {
            min_time: Duration::ZERO,
            warmup_iterations: 0,
            min_iterations: iterations,
            max_iterations: iterations,
        })
        .metrics_source(exec)
        .run(|| {
            // Explicit schedule: every index past the match waits until
            // the match has been evaluated. The chunks after the match
            // are then still unscanned when it is published, so every
            // run skips some of them. (Without the hold, a participant
            // holding the front chunk that is descheduled until the
            // others have scanned everything leaves nothing to skip.)
            // The chunk holding the match is the first one its
            // participant runs, and it runs before any hold applies.
            let match_seen = AtomicBool::new(false);
            let found = pstl::find_if(&policy, &data, |&i| {
                if i == hit {
                    match_seen.store(true, Ordering::SeqCst);
                    return true;
                }
                if i > hit {
                    hold_until("the front match evaluated", || {
                        match_seen.load(Ordering::SeqCst)
                    });
                }
                false
            });
            assert_eq!(found, Some(hit));
        });
    let sched = m.sched.expect("work-stealing pool reports metrics");

    // Counter invariants against the dispatched totals: one early exit
    // per front-match run, and a region can never waste more chunks
    // than the pool dispatched for it.
    assert_eq!(sched.early_exits, iterations, "one early exit per run");
    assert!(
        sched.wasted_chunks >= iterations,
        "front match must skip chunks"
    );
    assert!(
        sched.wasted_chunks <= sched.tasks_executed,
        "wasted {} exceeds dispatched {}",
        sched.wasted_chunks,
        sched.tasks_executed
    );
    assert!(sched.early_exits <= sched.runs);

    let v: serde_json::Value = serde_json::from_str(&to_json(&m)).unwrap();
    assert_eq!(v["sched"]["early_exits"].as_u64(), Some(iterations));
    assert!(v["sched"]["wasted_chunks"].as_u64().unwrap() >= iterations);
}

#[test]
fn late_front_match_skips_nothing_and_reports_no_early_exit() {
    let pool = build_pool(Discipline::WorkStealing, 3);
    let exec = Arc::clone(&pool);
    let (data, hit) = index_haystack();
    let n = data.len();
    let policy = ExecutionPolicy::par_with(Arc::clone(&pool), ParConfig::with_grain(256));
    let tasks = policy.tasks_for(n);
    let front = (0..tasks)
        .map(|t| chunk_range(n, tasks, t))
        .find(|r| r.contains(&hit))
        .expect("some chunk holds the match");
    let after = n - front.end;
    assert!(after > 0, "chunks follow the match");
    let m = Bench::new("late_match_region")
        .config(BenchConfig {
            min_time: Duration::ZERO,
            warmup_iterations: 0,
            min_iterations: 2,
            max_iterations: 2,
        })
        .metrics_source(exec)
        .run(|| {
            // Explicit schedule, the reverse of the test above: the
            // match is held until every index of every later chunk has
            // been evaluated, so nothing is left to skip when it is
            // published.
            let scanned_after = AtomicUsize::new(0);
            let found = pstl::find_if(&policy, &data, |&i| {
                if i >= front.end {
                    scanned_after.fetch_add(1, Ordering::SeqCst);
                } else if i == hit {
                    hold_until("every later chunk scanned", || {
                        scanned_after.load(Ordering::SeqCst) == after
                    });
                    return true;
                }
                false
            });
            assert_eq!(found, Some(hit));
        });
    let sched = m.sched.expect("work-stealing pool reports metrics");
    assert_eq!(
        (sched.early_exits, sched.wasted_chunks),
        (0, 0),
        "a match published after everything past it was scanned skips nothing"
    );
}

#[test]
fn full_drain_reports_no_early_exit_in_json() {
    let pool = build_pool(Discipline::WorkStealing, 3);
    let exec = Arc::clone(&pool);
    let data = vec![0u32; 16 * POLL_BLOCK];
    let policy = ExecutionPolicy::par_with(Arc::clone(&pool), ParConfig::with_grain(256));
    let m = Bench::new("absent_match_region")
        .config(BenchConfig {
            min_time: Duration::ZERO,
            warmup_iterations: 0,
            min_iterations: 2,
            max_iterations: 2,
        })
        .metrics_source(exec)
        .run(|| {
            assert_eq!(pstl::find(&policy, &data, &1u32), None);
        });
    let sched = m.sched.expect("work-stealing pool reports metrics");
    assert_eq!(
        (sched.early_exits, sched.wasted_chunks),
        (0, 0),
        "an absent match drains everything and must report nothing"
    );
}

#[test]
fn early_exit_event_keeps_traces_well_nested_on_every_pool() {
    let (data, hit) = front_haystack();
    for d in Discipline::POOLS {
        let pool = build_pool(d, 3);
        for mode in Partitioner::all() {
            let policy = ExecutionPolicy::par_with(
                Arc::clone(&pool),
                ParConfig::with_grain(256).partitioner(mode),
            );
            assert_eq!(
                pstl::find(&policy, &data, &1u32),
                Some(hit),
                "{d:?}/{mode:?}"
            );
        }
        let log = pool
            .take_trace()
            .unwrap_or_else(|| panic!("{d:?} pool must support tracing"));
        for w in &log.workers {
            if let Err(e) = stats::validate_well_nested(w) {
                panic!(
                    "{d:?} track {} not well nested with EarlyExit: {e}",
                    w.label
                );
            }
        }
        if pstl_trace::enabled() {
            let early: Vec<u64> = log
                .workers
                .iter()
                .flat_map(|w| &w.events)
                .filter_map(|e| match e.kind {
                    EventKind::EarlyExit { wasted } => Some(wasted),
                    _ => None,
                })
                .collect();
            assert!(
                !early.is_empty(),
                "{d:?}: front-match searches must record EarlyExit events"
            );
            assert!(
                early.iter().all(|&w| w > 0),
                "{d:?}: EarlyExit events carry the wasted-chunk count"
            );
        } else {
            assert_eq!(log.event_count(), 0, "{d:?}");
        }
    }
}
