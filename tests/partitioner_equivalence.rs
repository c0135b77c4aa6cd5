//! Property tests: the dynamic partitioners ([`Partitioner::Guided`],
//! [`Partitioner::Adaptive`]) are *observationally equivalent* to the
//! static plan for the core algorithms, on every pool discipline — the
//! partitioner only changes who computes which range, never the result.
//!
//! Plus the dispatch-economy guarantee the modes were built for: on
//! uniform work with no starvation, the adaptive partitioner puts no
//! more task fragments through the pool than the static decomposition
//! has tasks (TBB `auto_partitioner`'s promise).

use proptest::prelude::*;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;

use pstl::prelude::*;
use pstl_executor::{build_pool, Discipline, Executor};

/// One pool per discipline, shared across proptest cases.
fn pools() -> &'static [(Discipline, Arc<dyn Executor>)] {
    use std::sync::OnceLock;
    static POOLS: OnceLock<Vec<(Discipline, Arc<dyn Executor>)>> = OnceLock::new();
    POOLS.get_or_init(|| {
        Discipline::POOLS
            .into_iter()
            .map(|d| (d, build_pool(d, 3)))
            .collect()
    })
}

/// The (static, dynamic) policy pairs compared per case: every pool ×
/// every dynamic mode, with a small grain so short inputs still split.
fn policy_pairs() -> Vec<(ExecutionPolicy, ExecutionPolicy)> {
    let mut v = Vec::new();
    for (_, pool) in pools() {
        for mode in [Partitioner::Guided, Partitioner::Adaptive] {
            let cfg = ParConfig::with_grain(7).max_tasks_per_thread(4);
            v.push((
                ExecutionPolicy::par_with(Arc::clone(pool), cfg),
                ExecutionPolicy::par_with(Arc::clone(pool), cfg.partitioner(mode)),
            ));
        }
    }
    v
}

fn vec_i64() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-1000i64..1000, 0..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn for_each_touches_same_elements(data in vec_i64()) {
        for (stat, dynp) in policy_pairs() {
            let run = |p: &ExecutionPolicy| {
                let sum = AtomicI64::new(0);
                let count = AtomicUsize::new(0);
                pstl::for_each(p, &data, |&x| {
                    sum.fetch_add(x, Ordering::Relaxed);
                    count.fetch_add(1, Ordering::Relaxed);
                });
                (sum.into_inner(), count.into_inner())
            };
            prop_assert_eq!(run(&stat), run(&dynp));
        }
    }

    #[test]
    fn transform_is_identical(data in vec_i64()) {
        for (stat, dynp) in policy_pairs() {
            let mut a = vec![0i64; data.len()];
            let mut b = vec![0i64; data.len()];
            pstl::transform(&stat, &data, &mut a, |&x| x.wrapping_mul(3) ^ 7);
            pstl::transform(&dynp, &data, &mut b, |&x| x.wrapping_mul(3) ^ 7);
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn reduce_is_identical(data in vec_i64(), init in -100i64..100) {
        for (stat, dynp) in policy_pairs() {
            // Associative + commutative op, so any grouping agrees.
            let s = pstl::reduce(&stat, &data, init, |a, b| a.wrapping_add(b));
            let d = pstl::reduce(&dynp, &data, init, |a, b| a.wrapping_add(b));
            prop_assert_eq!(s, d);
        }
    }

    #[test]
    fn inclusive_scan_is_identical(data in vec_i64()) {
        for (stat, dynp) in policy_pairs() {
            let mut a = vec![0i64; data.len()];
            let mut b = vec![0i64; data.len()];
            pstl::inclusive_scan(&stat, &data, &mut a, |x, y| x.wrapping_add(*y));
            pstl::inclusive_scan(&dynp, &data, &mut b, |x, y| x.wrapping_add(*y));
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn exclusive_scan_is_identical(data in vec_i64(), init in -50i64..50) {
        for (stat, dynp) in policy_pairs() {
            let mut a = vec![0i64; data.len()];
            let mut b = vec![0i64; data.len()];
            pstl::exclusive_scan(&stat, &data, &mut a, init, |x, y| x.wrapping_add(*y));
            pstl::exclusive_scan(&dynp, &data, &mut b, init, |x, y| x.wrapping_add(*y));
            prop_assert_eq!(a, b);
        }
    }
}

/// Adaptive dispatches no more fragments than the static plan has tasks
/// on uniform work (measured through the pool's own counters).
#[test]
fn adaptive_dispatches_at_most_static_plan_on_uniform_work() {
    let pool = build_pool(Discipline::WorkStealing, 4);
    let n = 1usize << 16;
    let data = vec![0u8; n];
    let cfg = ParConfig::with_grain(512).max_tasks_per_thread(8);
    let stat = ExecutionPolicy::par_with(Arc::clone(&pool), cfg);
    let adapt =
        ExecutionPolicy::par_with(Arc::clone(&pool), cfg.partitioner(Partitioner::Adaptive));
    let planned = stat.tasks_for(n) as u64;

    let before = pool.metrics().unwrap_or_default();
    pstl::for_each(&adapt, &data, |b| {
        std::hint::black_box(b);
    });
    let executed = pool
        .metrics()
        .unwrap_or_default()
        .since(&before)
        .tasks_executed;
    assert!(
        executed <= planned,
        "adaptive executed {executed} fragments; static plan is {planned} tasks"
    );
}
