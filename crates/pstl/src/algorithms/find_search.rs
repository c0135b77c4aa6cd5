//! `find` family — the paper's linear-search benchmark (§5.3).
//!
//! All searches here dispatch through the cooperative early-exit engine
//! in [`crate::search`](mod@crate::search): partitioner-aware
//! chunks/claims scan left-to-right in poll blocks, the smallest
//! matching index is folded through a shared min-CAS, and work
//! positioned past a published match is skipped at claim points or
//! aborted at the next poll. This reproduces both C++ semantics (the
//! *first* match is returned, deterministically by position) and the
//! stop-early behaviour whose scalability the paper's Fig. 4 measures.

use std::ops::Range;

pub(crate) use crate::search::find_first_index;

use crate::policy::ExecutionPolicy;

/// Index of the first element equal to `value` (`std::find`).
/// # Examples
/// ```
/// use pstl::ExecutionPolicy;
///
/// let policy = ExecutionPolicy::seq();
/// let v = [10, 20, 30, 20];
/// assert_eq!(pstl::find(&policy, &v, &20), Some(1)); // first match, like C++
/// assert_eq!(pstl::find(&policy, &v, &99), None);
/// ```
pub fn find<T>(policy: &ExecutionPolicy, data: &[T], value: &T) -> Option<usize>
where
    T: PartialEq + Sync,
{
    find_first_index(policy, data.len(), |i| data[i] == *value)
}

/// Index of the first element satisfying `pred` (`std::find_if`).
pub fn find_if<T, F>(policy: &ExecutionPolicy, data: &[T], pred: F) -> Option<usize>
where
    T: Sync,
    F: Fn(&T) -> bool + Sync,
{
    find_first_index(policy, data.len(), |i| pred(&data[i]))
}

/// Index of the first element *not* satisfying `pred`
/// (`std::find_if_not`).
pub fn find_if_not<T, F>(policy: &ExecutionPolicy, data: &[T], pred: F) -> Option<usize>
where
    T: Sync,
    F: Fn(&T) -> bool + Sync,
{
    find_first_index(policy, data.len(), |i| !pred(&data[i]))
}

/// Index of the first element that equals any element of `candidates`
/// (`std::find_first_of`).
pub fn find_first_of<T>(policy: &ExecutionPolicy, data: &[T], candidates: &[T]) -> Option<usize>
where
    T: PartialEq + Sync,
{
    find_first_index(policy, data.len(), |i| candidates.contains(&data[i]))
}

/// Index of the first pair of adjacent elements for which
/// `pred(&data[i], &data[i+1])` holds (`std::adjacent_find` with
/// predicate lives in [`crate::algorithms::adjacent`]; this is the
/// index-space helper it shares).
pub(crate) fn find_adjacent<T, F>(policy: &ExecutionPolicy, data: &[T], pred: F) -> Option<usize>
where
    T: Sync,
    F: Fn(&T, &T) -> bool + Sync,
{
    if data.len() < 2 {
        return None;
    }
    find_first_index(policy, data.len() - 1, |i| pred(&data[i], &data[i + 1]))
}

/// Index of the first occurrence of the subsequence `needle` in
/// `haystack` (`std::search`). Empty needles match at index 0, like C++.
pub fn search<T>(policy: &ExecutionPolicy, haystack: &[T], needle: &[T]) -> Option<usize>
where
    T: PartialEq + Sync,
{
    if needle.is_empty() {
        return Some(0);
    }
    if needle.len() > haystack.len() {
        return None;
    }
    let starts = haystack.len() - needle.len() + 1;
    find_first_index(policy, starts, |i| haystack[i..i + needle.len()] == *needle)
}

/// Index of the first run of `count` consecutive elements equal to
/// `value` (`std::search_n`). `count == 0` matches at index 0.
pub fn search_n<T>(policy: &ExecutionPolicy, data: &[T], count: usize, value: &T) -> Option<usize>
where
    T: PartialEq + Sync,
{
    if count == 0 {
        return Some(0);
    }
    if count > data.len() {
        return None;
    }
    let starts = data.len() - count + 1;
    find_first_index(policy, starts, |i| {
        data[i..i + count].iter().all(|x| x == value)
    })
}

/// Index of the *last* occurrence of the subsequence `needle` in
/// `haystack` (`std::find_end`).
pub fn find_end<T>(policy: &ExecutionPolicy, haystack: &[T], needle: &[T]) -> Option<usize>
where
    T: PartialEq + Sync,
{
    if needle.is_empty() || needle.len() > haystack.len() {
        return None;
    }
    let starts = haystack.len() - needle.len() + 1;
    // Max-fold over matches; no early exit (the last match can be
    // anywhere), so this is a plain chunked reduction over reverse
    // block scans.
    let partials = crate::algorithms::map_chunks(policy, starts, &|r: Range<usize>| {
        crate::kernel::compare::find_last_in(r, &|i| haystack[i..i + needle.len()] == *needle)
    });
    partials.into_iter().flatten().max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstl_executor::{build_pool, Discipline};

    fn policies() -> Vec<ExecutionPolicy> {
        vec![
            ExecutionPolicy::seq(),
            ExecutionPolicy::par(build_pool(Discipline::ForkJoin, 3)),
            ExecutionPolicy::par(build_pool(Discipline::WorkStealing, 2)),
            ExecutionPolicy::par(build_pool(Discipline::TaskPool, 2)),
        ]
    }

    #[test]
    fn find_returns_first_match() {
        for policy in policies() {
            let mut data = vec![0u32; 50_000];
            data[123] = 7;
            data[40_000] = 7; // later duplicate must not win
            assert_eq!(find(&policy, &data, &7), Some(123));
        }
    }

    #[test]
    fn find_absent_value() {
        for policy in policies() {
            let data: Vec<u32> = (0..10_000).collect();
            assert_eq!(find(&policy, &data, &999_999), None);
        }
    }

    #[test]
    fn find_in_empty_and_single() {
        for policy in policies() {
            let empty: Vec<u32> = vec![];
            assert_eq!(find(&policy, &empty, &1), None);
            assert_eq!(find(&policy, &[5u32], &5), Some(0));
        }
    }

    #[test]
    fn find_if_and_if_not() {
        for policy in policies() {
            let data: Vec<i64> = (0..10_000).collect();
            assert_eq!(find_if(&policy, &data, |&x| x > 500), Some(501));
            assert_eq!(find_if_not(&policy, &data, |&x| x < 300), Some(300));
        }
    }

    #[test]
    fn find_first_of_candidates() {
        for policy in policies() {
            let data: Vec<u32> = (0..10_000).collect();
            assert_eq!(find_first_of(&policy, &data, &[5000, 100, 9000]), Some(100));
            assert_eq!(find_first_of(&policy, &data, &[]), None);
        }
    }

    #[test]
    fn search_finds_subsequence() {
        for policy in policies() {
            let mut hay: Vec<u8> = (0..200).map(|i| (i % 7) as u8).collect();
            hay.extend_from_slice(&[9, 8, 7]);
            hay.extend((0..200).map(|i| (i % 5) as u8));
            assert_eq!(search(&policy, &hay, &[9, 8, 7]), Some(200));
            assert_eq!(search(&policy, &hay, &[9, 9, 9]), None);
            assert_eq!(search(&policy, &hay, &[]), Some(0));
        }
    }

    #[test]
    fn search_needle_longer_than_hay() {
        let policy = ExecutionPolicy::seq();
        assert_eq!(search(&policy, &[1u8, 2], &[1, 2, 3]), None);
    }

    #[test]
    fn search_n_runs() {
        for policy in policies() {
            let mut data = vec![1u8; 100];
            data[50] = 2;
            data[51] = 2;
            data[52] = 2;
            assert_eq!(search_n(&policy, &data, 3, &2), Some(50));
            assert_eq!(search_n(&policy, &data, 4, &2), None);
            assert_eq!(search_n(&policy, &data, 0, &9), Some(0));
        }
    }

    #[test]
    fn find_end_returns_last_match() {
        for policy in policies() {
            let mut hay = vec![0u8; 10_000];
            for start in [10usize, 5_000, 9_000] {
                hay[start] = 1;
                hay[start + 1] = 2;
            }
            assert_eq!(find_end(&policy, &hay, &[1, 2]), Some(9_000));
            assert_eq!(find_end(&policy, &hay, &[3, 4]), None);
            assert_eq!(find_end(&policy, &hay, &[]), None);
        }
    }

    #[test]
    fn paper_workload_random_target() {
        // The paper's find kernel: v = [1..n], search a random element.
        for policy in policies() {
            let n = 1 << 16;
            let data: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let target = 777.0f64;
            assert_eq!(find(&policy, &data, &target), Some(776));
        }
    }
}
