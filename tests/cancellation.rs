//! Cooperative cancellation end-to-end: executor-level skip semantics
//! (`run_cancellable` / `run_with_deadline`), algorithm-level unwind
//! semantics (`ExecutionPolicy::with_cancel` + `Cancelled::catch`), the
//! cancel counters' trip through `SchedDelta` JSON, and — the part that
//! matters most — every pool staying fully reusable afterwards.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstl::{ExecutionPolicy, ParConfig, Partitioner};
use pstl_executor::{build_pool, CancelToken, Cancelled, Discipline, Executor};

fn assert_reusable(pool: &Arc<dyn Executor>) {
    let hits = AtomicUsize::new(0);
    pool.run(333, &|_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(
        hits.load(Ordering::Relaxed),
        333,
        "{:?} pool must drain cleanly and stay reusable after cancellation",
        pool.discipline()
    );
}

#[test]
fn run_with_deadline_cancels_promptly_on_every_pool() {
    // 20k tasks of ~200 us each would take seconds serially; the 10 ms
    // deadline must cut the region short. The post-trip latency bound is
    // one in-flight body per worker plus the (cheap, latched) polls for
    // the remaining indices, so a generous wall-clock ceiling still
    // proves the region did not run to completion.
    for d in Discipline::POOLS {
        let pool = build_pool(d, 4);
        let start = Instant::now();
        let result = pool.run_with_deadline(
            20_000,
            &|_| std::thread::sleep(Duration::from_micros(200)),
            Duration::from_millis(10),
        );
        let elapsed = start.elapsed();
        assert_eq!(result, Err(Cancelled), "{d:?}");
        assert!(
            elapsed < Duration::from_millis(2_000),
            "{d:?}: cancelled region took {elapsed:?}"
        );
        let m = pool.metrics().expect("real pools track metrics");
        assert!(m.cancel_checks > 0, "{d:?}: no cancel polls recorded");
        assert!(m.cancelled_tasks > 0, "{d:?}: no skipped tasks recorded");
        assert_reusable(&pool);
    }
}

#[test]
fn run_cancellable_is_exact_when_token_never_trips() {
    for d in Discipline::POOLS {
        let pool = build_pool(d, 3);
        let token = CancelToken::new();
        let hits = AtomicUsize::new(0);
        let result = pool.run_cancellable(
            1_000,
            &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            },
            &token,
        );
        assert_eq!(result, Ok(()), "{d:?}");
        assert_eq!(hits.load(Ordering::Relaxed), 1_000, "{d:?}");
    }
}

#[test]
fn pre_tripped_token_skips_every_body() {
    for d in Discipline::POOLS {
        let pool = build_pool(d, 3);
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
        assert_eq!(hits.load(Ordering::Relaxed), 0, "{d:?}: bodies ran");
        let m = pool.metrics().expect("real pools track metrics");
        assert_eq!(m.cancelled_tasks, 500, "{d:?}: all bodies were skipped");
        assert_reusable(&pool);
    }
}

#[test]
fn cancelled_tasks_reach_sched_delta_json() {
    use pstl_harness::{to_json, Bench, BenchConfig};

    for d in Discipline::POOLS {
        let pool = build_pool(d, 2);
        let exec = Arc::clone(&pool);
        let m = Bench::new("cancelled_region")
            .config(BenchConfig {
                min_time: Duration::ZERO,
                warmup_iterations: 0,
                min_iterations: 2,
                max_iterations: 2,
            })
            .metrics_source(Arc::clone(&pool))
            .run(|| {
                let token = CancelToken::new();
                token.cancel();
                let _ = exec.run_cancellable(64, &|_| {}, &token);
            });
        let sched = m.sched.expect("real pools report metrics");
        assert!(sched.cancel_checks > 0, "{d:?}");
        assert!(sched.cancelled_tasks > 0, "{d:?}");
        let v: serde_json::Value = serde_json::from_str(&to_json(&m)).unwrap();
        assert!(
            v["sched"]["cancelled_tasks"].as_u64().unwrap() > 0,
            "{d:?}: cancelled_tasks must surface in the measurement JSON"
        );
        assert!(v["sched"]["cancel_checks"].as_u64().unwrap() > 0, "{d:?}");
    }
}

fn cancellable_policies(pool: &Arc<dyn Executor>, token: &CancelToken) -> Vec<ExecutionPolicy> {
    [
        Partitioner::Static,
        Partitioner::Guided,
        Partitioner::Adaptive,
    ]
    .into_iter()
    .map(|p| {
        ExecutionPolicy::par_with(Arc::clone(pool), ParConfig::with_grain(64).partitioner(p))
            .with_cancel(token.clone())
    })
    .collect()
}

#[test]
fn algorithms_bail_with_typed_error_under_every_partitioner() {
    for d in Discipline::POOLS {
        let pool = build_pool(d, 3);
        let data: Vec<u64> = (0..50_000).collect();
        let token = CancelToken::new();
        token.cancel();
        for policy in cancellable_policies(&pool, &token) {
            let result = Cancelled::catch(|| {
                pstl::for_each(&policy, &data, |x| {
                    std::hint::black_box(x);
                })
            });
            assert_eq!(result, Err(Cancelled), "{d:?} / {policy:?}");
        }
        // Counters were reported between runs by the drop guard.
        let m = pool.metrics().expect("real pools track metrics");
        assert!(m.cancelled_tasks > 0, "{d:?}");
        assert_reusable(&pool);
    }
}

#[test]
fn mid_run_cancellation_stops_a_long_region() {
    // The region itself trips the token part-way through: later chunks
    // must bail instead of processing the rest of the index space.
    for d in Discipline::POOLS {
        let pool = build_pool(d, 4);
        let token = CancelToken::new();
        let policy = ExecutionPolicy::par_with(Arc::clone(&pool), ParConfig::with_grain(32))
            .with_cancel(token.clone());
        let data: Vec<u64> = (0..200_000).collect();
        let visited = AtomicUsize::new(0);
        let result = Cancelled::catch(|| {
            pstl::for_each(&policy, &data, |_| {
                if visited.fetch_add(1, Ordering::Relaxed) == 1_000 {
                    token.cancel();
                }
            })
        });
        assert_eq!(result, Err(Cancelled), "{d:?}");
        assert!(
            visited.load(Ordering::Relaxed) < data.len(),
            "{d:?}: cancellation must cut the region short"
        );
        assert_reusable(&pool);

        // The same pool without the tripped token still works: tokens
        // are per-policy state, not pool state.
        let clean = ExecutionPolicy::par(Arc::clone(&pool));
        let sum = pstl::reduce(&clean, &data[..1000], 0u64, |a, b| a + b);
        assert_eq!(sum, 999 * 1000 / 2, "{d:?}");
    }
}

#[test]
fn deadline_token_cancels_algorithm_level_region() {
    for d in Discipline::POOLS {
        let pool = build_pool(d, 3);
        let policy = ExecutionPolicy::par_with(Arc::clone(&pool), ParConfig::with_grain(8))
            .with_cancel(CancelToken::with_deadline(Duration::from_millis(5)));
        let data: Vec<u64> = (0..100_000).collect();
        let result = Cancelled::catch(|| {
            pstl::for_each(&policy, &data, |_| {
                std::thread::sleep(Duration::from_micros(50));
            })
        });
        assert_eq!(result, Err(Cancelled), "{d:?}");
        assert_reusable(&pool);
    }
}

#[test]
fn search_regions_bail_under_every_pool_and_partitioner() {
    // Matchless haystack: only the token can stop the scan, so the
    // early-exit engine must surface `Err(Cancelled)` from its poll
    // points rather than returning a bogus `None`.
    for d in Discipline::POOLS {
        let pool = build_pool(d, 3);
        let data: Vec<u64> = vec![0; 200_000];
        let token = CancelToken::new();
        token.cancel();
        for policy in cancellable_policies(&pool, &token) {
            let result = Cancelled::catch(|| pstl::find(&policy, &data, &1));
            assert_eq!(result, Err(Cancelled), "{d:?} / {policy:?}");
            let result = Cancelled::catch(|| pstl::any_of(&policy, &data, |&x| x == 1));
            assert_eq!(result, Err(Cancelled), "{d:?} / {policy:?}");
        }
        let m = pool.metrics().expect("real pools track metrics");
        assert!(m.cancel_checks > 0, "{d:?}: search polled no token");
        assert_reusable(&pool);
    }
}

#[test]
fn deadline_mid_search_cancels_and_pool_stays_reusable() {
    // The deadline trips while the search is scanning; in-flight poll
    // blocks finish and every later chunk bails at its entry check.
    for d in Discipline::POOLS {
        let pool = build_pool(d, 4);
        let policy = ExecutionPolicy::par_with(Arc::clone(&pool), ParConfig::with_grain(64))
            .with_cancel(CancelToken::with_deadline(Duration::from_millis(5)));
        let data: Vec<u64> = vec![0; 100_000];
        let result = Cancelled::catch(|| {
            pstl::find_if(&policy, &data, |_| {
                std::thread::sleep(Duration::from_micros(20));
                false
            })
        });
        assert_eq!(result, Err(Cancelled), "{d:?}");
        assert_reusable(&pool);

        // The same pool still searches correctly afterwards.
        let clean = ExecutionPolicy::par(Arc::clone(&pool));
        let mut v = vec![0u64; 50_000];
        v[31_337] = 1;
        assert_eq!(pstl::find(&clean, &v, &1), Some(31_337), "{d:?}");
    }
}

mod deadline_monotonicity {
    //! Property: a deadline token trips *monotonically* — once
    //! `is_cancelled` returns true it never returns false again, for
    //! any deadline, observation schedule, or number of observers, and
    //! a zero deadline is tripped from the first observation.
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn deadline_tokens_trip_once_and_stay_tripped(
            deadline_us in 0u64..3_000,
            polls in 2usize..40,
            gap_us in prop::collection::vec(0u64..300, 2..40),
        ) {
            let token = CancelToken::with_deadline(Duration::from_micros(deadline_us));
            let mut seen_tripped = false;
            for i in 0..polls {
                let now = token.is_cancelled();
                prop_assert!(
                    !seen_tripped || now,
                    "token untripped at poll {i}: deadline={deadline_us}us"
                );
                seen_tripped |= now;
                std::thread::sleep(Duration::from_micros(
                    gap_us[i % gap_us.len()],
                ));
            }
            // Any deadline is eventually tripped (bounded wait).
            let patience = Instant::now() + Duration::from_secs(2);
            while !token.is_cancelled() {
                prop_assert!(Instant::now() < patience, "deadline never fired");
                std::thread::yield_now();
            }
        }

        #[test]
        fn tripped_deadline_is_monotonic_across_threads(
            deadline_us in 0u64..1_500,
            observers in 2usize..6,
        ) {
            let token = CancelToken::with_deadline(Duration::from_micros(deadline_us));
            // Wait until one thread observes the trip, then every other
            // observer must agree, concurrently and forever after.
            while !token.is_cancelled() {
                std::thread::yield_now();
            }
            let violations = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..observers {
                    s.spawn(|| {
                        for _ in 0..200 {
                            if !token.is_cancelled() {
                                violations.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            prop_assert_eq!(violations.load(Ordering::Relaxed), 0);
        }
    }
}

#[test]
fn seq_policy_ignores_cancellation_builder() {
    // `with_cancel` documents itself as a no-op on sequential policies.
    let policy = ExecutionPolicy::seq().with_cancel(CancelToken::new());
    assert!(policy.cancel_token().is_none());
    let v: Vec<u64> = (0..100).collect();
    assert_eq!(pstl::reduce(&policy, &v, 0, |a, b| a + b), 99 * 100 / 2);
}
