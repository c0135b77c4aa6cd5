//! A C++17-parallel-STL analog for Rust slices.
//!
//! This crate is the "library under benchmark" of the pSTL-Bench
//! reproduction: a set of STL-shaped algorithms (`for_each`, `find`,
//! `reduce`, `inclusive_scan`, `sort`, and ~30 more) that accept an
//! [`ExecutionPolicy`] selecting *sequential* execution or *parallel*
//! execution on any [`pstl_executor::Executor`] — the same
//! policy-dispatch surface that `std::execution::seq` / `par` provide in
//! C++, with the backend (fork-join, work stealing, task pool) playing
//! the role of the compiler/TBB/HPX runtime choice the paper compares.
//!
//! # Example
//!
//! ```
//! use pstl::prelude::*;
//! use pstl_executor::{build_pool, Discipline};
//!
//! let pool = build_pool(Discipline::WorkStealing, 4);
//! let policy = ExecutionPolicy::par(pool);
//!
//! let mut v: Vec<u64> = (0..10_000).collect();
//! pstl::for_each_mut(&policy, &mut v, |x| *x *= 2);
//! let sum = pstl::reduce(&policy, &v, 0u64, |a, b| a + b);
//! assert_eq!(sum, 2 * (0..10_000u64).sum::<u64>());
//! ```
//!
//! # Semantics
//!
//! * Algorithms are drop-in equivalents of their sequential forms: for
//!   every input, the parallel result equals the sequential result
//!   (property-tested), **provided** user operations are associative where
//!   C++ requires it (`reduce`, scans) — the same contract as
//!   `std::reduce`.
//! * Early-exit searches (`find`, `any_of`, `mismatch`, …) return the
//!   *first* match, like C++, regardless of which thread finds a match
//!   first.
//! * Length-mismatch misuse panics, like slice indexing.

pub mod algorithms;
pub mod chunk;
mod guard;
pub mod kernel;
pub mod policy;
pub mod ptr;
pub mod search;
pub mod seq;
mod splitter;
pub mod stream;

pub use policy::{ExecutionPolicy, ParConfig, Partitioner, Plan};

pub use pstl_alloc::Placement;
// Cooperative cancellation: attach a token with
// `ExecutionPolicy::with_cancel` and wrap the algorithm call in
// `Cancelled::catch` to observe `Err(Cancelled)` instead of the unwind.
pub use pstl_executor::{CancelToken, Cancelled};

pub use algorithms::adjacent::{adjacent_difference, adjacent_find, adjacent_find_by};
pub use algorithms::copy_fill::{
    copy, copy_if, copy_n, fill, fill_n, generate, generate_index, generate_n,
};
pub use algorithms::find_search::{
    find, find_end, find_first_of, find_if, find_if_not, search, search_n,
};
pub use algorithms::for_each::{for_each, for_each_mut, for_each_n_mut};
pub use algorithms::heap::{is_heap, is_heap_until};
pub use algorithms::merge::{
    inplace_merge, inplace_merge_by, is_sorted, is_sorted_until, merge, merge_by,
};
pub use algorithms::minmax::{
    max_element, max_element_by, min_element, min_element_by, minmax_element,
};
pub use algorithms::partition::{is_partitioned, partition, partition_copy, stable_partition};
pub use algorithms::predicates::{
    all_of, any_of, count, count_if, equal, equal_by, lexicographical_compare, mismatch, none_of,
};
pub use algorithms::reduce::{reduce, transform_reduce, transform_reduce_binary};
pub use algorithms::reorder::{reverse, reverse_copy, rotate, rotate_copy, swap_ranges};
pub use algorithms::scan::{
    exclusive_scan, inclusive_scan, inclusive_scan_in_place, inclusive_scan_init,
    transform_exclusive_scan, transform_inclusive_scan,
};
pub use algorithms::set_ops::{
    includes, set_difference, set_intersection, set_symmetric_difference, set_union,
};
pub use algorithms::sort::{
    nth_element, partial_sort, partial_sort_copy, sort, sort_by, sort_by_key, sort_multiway,
    sort_multiway_by, stable_sort, stable_sort_by, stable_sort_by_key,
};
pub use algorithms::transform::{transform, transform_binary};
pub use algorithms::unique_remove::{remove_if, replace, replace_if, unique, unique_copy};
pub use stream::{Pipeline, PipelineError, PipelineErrorKind, StreamStats};

/// One-line import of the policy types and all algorithms.
pub mod prelude {
    pub use crate::policy::{ExecutionPolicy, ParConfig, Partitioner};
    pub use pstl_alloc::Placement;
    pub use pstl_executor::{CancelToken, Cancelled};

    pub use crate::algorithms::adjacent::*;
    pub use crate::algorithms::copy_fill::*;
    pub use crate::algorithms::find_search::*;
    pub use crate::algorithms::for_each::*;
    pub use crate::algorithms::heap::*;
    pub use crate::algorithms::merge::*;
    pub use crate::algorithms::minmax::*;
    pub use crate::algorithms::partition::*;
    pub use crate::algorithms::predicates::*;
    pub use crate::algorithms::reduce::*;
    pub use crate::algorithms::reorder::*;
    pub use crate::algorithms::scan::*;
    pub use crate::algorithms::set_ops::*;
    pub use crate::algorithms::sort::*;
    pub use crate::algorithms::transform::*;
    pub use crate::algorithms::unique_remove::*;
    pub use crate::stream::{Pipeline, PipelineError, PipelineErrorKind, StreamStats};
}
