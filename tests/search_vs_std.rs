//! Differential conformance suite for the early-exit search family:
//! every algorithm that routes through the cooperative exit engine
//! (`find`, `find_if`, `find_first_of`, the quantifiers, `mismatch`,
//! `equal`, `adjacent_find`, `search`) must agree exactly with its
//! `std` iterator oracle, on every pool discipline under every
//! partitioner — including absent matches and duplicate matches, where
//! "first match wins by position" means the lowest index, not whichever
//! thread published first.

use proptest::prelude::*;
use std::sync::Arc;

use pstl::prelude::*;
use pstl_executor::{build_pool, Discipline, Executor};

/// One pool per real discipline, shared by all proptest cases.
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

/// Sequential + every pool × every partitioner, with a tiny grain so
/// even short inputs fan out into several chunks/claims.
fn policies() -> Vec<ExecutionPolicy> {
    let mut v = vec![ExecutionPolicy::seq()];
    for (_, pool) in pools() {
        for mode in Partitioner::all() {
            v.push(ExecutionPolicy::par_with(
                Arc::clone(pool),
                ParConfig::with_grain(7)
                    .max_tasks_per_thread(4)
                    .partitioner(mode),
            ));
        }
    }
    v
}

/// Narrow value range: short vectors still collide, so duplicate
/// matches and absent values both occur naturally.
fn vec_small() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-8i64..8, 0..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn find_matches_position(data in vec_small(), needle in -8i64..8) {
        let expect = data.iter().position(|&x| x == needle);
        for policy in policies() {
            prop_assert_eq!(pstl::find(&policy, &data, &needle), expect);
        }
    }

    #[test]
    fn find_if_and_not_match_position(data in vec_small(), cut in -8i64..8) {
        let expect_if = data.iter().position(|&x| x > cut);
        let expect_not = data.iter().position(|&x| x <= cut);
        for policy in policies() {
            prop_assert_eq!(pstl::find_if(&policy, &data, |&x| x > cut), expect_if);
            prop_assert_eq!(pstl::find_if_not(&policy, &data, |&x| x > cut), expect_not);
        }
    }

    #[test]
    fn find_first_of_matches_oracle(
        data in vec_small(),
        candidates in prop::collection::vec(-8i64..8, 0..4),
    ) {
        let expect = data.iter().position(|x| candidates.contains(x));
        for policy in policies() {
            prop_assert_eq!(pstl::find_first_of(&policy, &data, &candidates), expect);
        }
    }

    #[test]
    fn quantifiers_match_iterators(data in vec_small(), cut in -8i64..8) {
        let any = data.contains(&cut);
        let all = data.iter().all(|&x| x != cut);
        for policy in policies() {
            prop_assert_eq!(pstl::any_of(&policy, &data, |&x| x == cut), any);
            prop_assert_eq!(pstl::all_of(&policy, &data, |&x| x != cut), all);
            prop_assert_eq!(pstl::none_of(&policy, &data, |&x| x == cut), !any);
        }
    }

    #[test]
    fn mismatch_and_equal_match_zip_oracle(a in vec_small(), b in vec_small()) {
        // Independent lengths: the comparison must stop at the shorter
        // slice (the std two-iterator overload), never index past it.
        let expect = a.iter().zip(&b).position(|(x, y)| x != y);
        let expect_eq = a.len() == b.len() && expect.is_none();
        for policy in policies() {
            prop_assert_eq!(pstl::mismatch(&policy, &a, &b), expect);
            prop_assert_eq!(pstl::equal(&policy, &a, &b), expect_eq);
        }
    }

    #[test]
    fn adjacent_find_matches_windows(data in vec_small()) {
        let expect = data.windows(2).position(|w| w[0] == w[1]);
        for policy in policies() {
            prop_assert_eq!(pstl::adjacent_find(&policy, &data), expect);
        }
    }

    #[test]
    fn search_matches_windows(
        data in vec_small(),
        needle in prop::collection::vec(-8i64..8, 1..4),
    ) {
        let expect = if needle.len() > data.len() {
            None
        } else {
            data.windows(needle.len()).position(|w| w == needle)
        };
        for policy in policies() {
            prop_assert_eq!(pstl::search(&policy, &data, &needle), expect);
        }
    }

    #[test]
    fn duplicate_matches_lowest_index_wins(
        len in 64usize..2048,
        positions in prop::collection::vec(0usize..2048, 2..8),
    ) {
        // Plant the needle at several positions; every policy must
        // return the lowest planted index even when a later duplicate
        // sits in a chunk that finishes first.
        let mut positions: Vec<usize> = positions.into_iter().map(|p| p % len).collect();
        positions.sort_unstable();
        positions.dedup();
        let mut data = vec![0u8; len];
        for &p in &positions {
            data[p] = 1;
        }
        let lowest = Some(positions[0]);
        for policy in policies() {
            prop_assert_eq!(pstl::find(&policy, &data, &1u8), lowest);
            prop_assert_eq!(pstl::find_if(&policy, &data, |&x| x == 1), lowest);
        }
    }
}
