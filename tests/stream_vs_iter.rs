//! Differential conformance suite for the streaming layer: every
//! pipeline/farm topology over every real pool discipline must agree
//! with the sequential `Iterator` oracle —
//! exact sequence for order-preserving topologies (plain stages,
//! stateful stages, ordered farms), multiset for unordered farms. Edge
//! cases ride the same matrix: empty streams, single items, and
//! capacity-1 channels (full backpressure on every edge).

use proptest::prelude::*;
use std::sync::Arc;

use pstl::stream::Pipeline;
use pstl_executor::{build_pool, Discipline, Executor};

/// One pool per discipline, shared by all proptest cases.
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

fn items() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..1000, 0..400)
}

/// Channel capacities worth stressing: 1 forces backpressure on every
/// push, 2 exercises the ring's smallest real lap, 64 is the default.
/// (The vendored proptest shim has no `prop_oneof`, so tests draw an
/// index into this table.)
const CAPS: [usize; 3] = [1, 2, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Plain stage chain: exact sequence equality with `map`.
    #[test]
    fn stage_chain_equals_map_oracle(data in items(), cap_idx in 0usize..3) {
        let oracle: Vec<u64> = data.iter().map(|&x| (x + 3) * 2).collect();
        let cap = CAPS[cap_idx];
        for (d, pool) in pools() {
            let got = Pipeline::source(data.clone())
                .capacity(cap)
                .stage(|x: u64| x + 3)
                .stage(|x: u64| x * 2)
                .collect(&**pool)
                .unwrap();
            prop_assert_eq!(&got, &oracle, "{:?}/cap{}", d, cap);
        }
    }

    /// Ordered farm: parallel replicas, exact source order restored.
    #[test]
    fn ordered_farm_equals_map_oracle(
        data in items(),
        cap_idx in 0usize..3,
        replicas in 1usize..5,
    ) {
        let oracle: Vec<u64> = data.iter().map(|&x| x.wrapping_mul(2654435761) >> 7).collect();
        let cap = CAPS[cap_idx];
        for (d, pool) in pools() {
            let got = Pipeline::source(data.clone())
                .capacity(cap)
                .ordered_farm(replicas, |x: u64| x.wrapping_mul(2654435761) >> 7)
                .collect(&**pool)
                .unwrap();
            prop_assert_eq!(&got, &oracle, "{:?}/cap{}/r{}", d, cap, replicas);
        }
    }

    /// Unordered farm: multiset equality (sort both sides).
    #[test]
    fn unordered_farm_equals_multiset_oracle(
        data in items(),
        cap_idx in 0usize..3,
        replicas in 1usize..5,
    ) {
        let mut oracle: Vec<u64> = data.iter().map(|&x| x ^ 0xABCD).collect();
        oracle.sort_unstable();
        let cap = CAPS[cap_idx];
        for (d, pool) in pools() {
            let mut got = Pipeline::source(data.clone())
                .capacity(cap)
                .farm(replicas, |x: u64| x ^ 0xABCD)
                .collect(&**pool)
                .unwrap();
            got.sort_unstable();
            prop_assert_eq!(&got, &oracle, "{:?}/cap{}/r{}", d, cap, replicas);
        }
    }

    /// Stateful stage: a running (prefix) sum must see items in source
    /// order — exact sequence equality with the scan oracle.
    #[test]
    fn stateful_stage_equals_scan_oracle(data in items(), cap_idx in 0usize..3) {
        let oracle: Vec<u64> = data
            .iter()
            .scan(0u64, |acc, &x| {
                *acc = acc.wrapping_add(x);
                Some(*acc)
            })
            .collect();
        let cap = CAPS[cap_idx];
        for (d, pool) in pools() {
            let got = Pipeline::source(data.clone())
                .capacity(cap)
                .stage_stateful(0u64, |acc: &mut u64, x: u64| {
                    *acc = acc.wrapping_add(x);
                    *acc
                })
                .collect(&**pool)
                .unwrap();
            prop_assert_eq!(&got, &oracle, "{:?}/cap{}", d, cap);
        }
    }

    /// The composite topology of the module quickstart: stage →
    /// ordered farm → stateful stage, over a non-`Copy` item type.
    /// Exact sequence equality end to end.
    #[test]
    fn composite_pipeline_equals_chained_oracle(data in items(), cap_idx in 0usize..3) {
        let oracle: Vec<String> = data
            .iter()
            .map(|&x| x / 3)
            .map(|x| format!("{x:x}"))
            .scan(String::new(), |acc, s| {
                acc.push_str(&s);
                Some(format!("{}:{}", acc.len(), s))
            })
            .collect();
        let cap = CAPS[cap_idx];
        for (d, pool) in pools() {
            let got = Pipeline::source(data.clone())
                .capacity(cap)
                .stage(|x: u64| x / 3)
                .ordered_farm(3, |x: u64| format!("{x:x}"))
                .stage_stateful(String::new(), |acc: &mut String, s: String| {
                    acc.push_str(&s);
                    format!("{}:{}", acc.len(), s)
                })
                .collect(&**pool)
                .unwrap();
            prop_assert_eq!(&got, &oracle, "{:?}/cap{}", d, cap);
        }
    }
}

/// Deterministic edge cases across the whole matrix: empty stream and
/// a single item, through every topology shape.
#[test]
fn empty_and_single_item_streams() {
    for (d, pool) in pools() {
        for cap in [1usize, 64] {
            let empty = Pipeline::source(Vec::<u64>::new())
                .capacity(cap)
                .stage(|x: u64| x + 1)
                .ordered_farm(2, |x: u64| x)
                .collect(&**pool)
                .unwrap();
            assert!(empty.is_empty(), "{d:?}/cap{cap}");

            let single = Pipeline::source(vec![41u64])
                .capacity(cap)
                .farm(3, |x: u64| x + 1)
                .collect(&**pool)
                .unwrap();
            assert_eq!(single, vec![42], "{d:?}/cap{cap}");
        }
    }
}

/// The flow accounting must balance on clean completion: everything
/// produced is consumed, nothing dropped, on every matrix point.
#[test]
fn clean_runs_balance_flow_accounting() {
    for (d, pool) in pools() {
        let stats = Pipeline::source(0..5000u64)
            .capacity(8)
            .ordered_farm(2, |x| x + 1)
            .sink(|_| {})
            .run(&**pool)
            .unwrap();
        assert_eq!(stats.produced, 5000, "{d:?}");
        assert_eq!(stats.consumed, 5000, "{d:?}");
        assert_eq!(stats.dropped, 0, "{d:?}");
    }
}

/// The sequential executor is a valid backend too: one driver steps
/// every stage cooperatively inline.
#[test]
fn sequential_backend_matches_oracle() {
    let pool = build_pool(Discipline::Sequential, 1);
    let got = Pipeline::source(0..300u64)
        .capacity(4)
        .stage(|x| x * 3)
        .ordered_farm(2, |x| x + 1)
        .collect(&*pool)
        .unwrap();
    let oracle: Vec<u64> = (0..300u64).map(|x| x * 3 + 1).collect();
    assert_eq!(got, oracle);
}
