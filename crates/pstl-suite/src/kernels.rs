//! The five studied benchmark kernels, driving the real `pstl` library
//! (paper §3.1; the `X::` notation below is the paper's).

use pstl::ExecutionPolicy;
use pstl_sim::Backend;

use crate::backends::BackendHost;

/// `X::for_each` — apply the paper's Listing 1 kernel to every element:
/// a loop of `k_it` accumulating iterations whose bound is hidden from
/// the optimizer (`volatile` in C++, [`std::hint::black_box`] here), the
/// result stored back into the element.
pub fn run_for_each(policy: &ExecutionPolicy, data: &mut [f64], k_it: usize) {
    pstl::for_each_mut(policy, data, |x| {
        let mut a = 0.0f64;
        for _ in 0..std::hint::black_box(k_it) {
            a += 1.0;
        }
        *x = a;
    });
}

/// `X::find` — linear search for `target`; returns its index.
pub fn run_find(policy: &ExecutionPolicy, data: &[f64], target: f64) -> Option<usize> {
    pstl::find(policy, data, &target)
}

/// `X::reduce` — sum of all elements.
pub fn run_reduce(policy: &ExecutionPolicy, data: &[f64]) -> f64 {
    pstl::reduce(policy, data, 0.0, |a, b| a + b)
}

/// `X::inclusive_scan` with `std::plus` (out-of-place, like the paper's
/// benchmark which scans into an output range).
pub fn run_inclusive_scan(policy: &ExecutionPolicy, src: &[f64], out: &mut [f64]) {
    pstl::inclusive_scan(policy, src, out, |a, b| a + b);
}

/// `X::sort` — ascending sort; GNU's backend uses multiway mergesort
/// (MCSTL), the others the in-place parallel quicksort that `pstl-sim`
/// assigns to TBB and NVC. HPX's binary mergesort is modelled in
/// `pstl-sim` only.
pub fn run_sort(policy: &ExecutionPolicy, backend: Backend, data: &mut [f64]) {
    if BackendHost::uses_multiway_sort(backend) {
        pstl::sort_multiway_by(policy, data, f64::total_cmp);
    } else {
        pstl::sort_by(policy, data, f64::total_cmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn hosts() -> Vec<(Backend, ExecutionPolicy)> {
        let host = BackendHost::new(2);
        BackendHost::real_mode_backends()
            .into_iter()
            .map(|b| (b, host.policy_for(b).unwrap()))
            .collect()
    }

    #[test]
    fn for_each_kernel_stores_kit() {
        for (_, policy) in hosts() {
            let mut data = workload::generate_increment(4096);
            run_for_each(&policy, &mut data, 10);
            assert!(data.iter().all(|&x| x == 10.0));
        }
    }

    #[test]
    fn find_locates_random_target() {
        let mut rng = workload::seeded_rng(3);
        for (_, policy) in hosts() {
            let n = 1 << 14;
            let data = workload::generate_increment(n);
            let target = workload::random_target(n, &mut rng);
            let idx = run_find(&policy, &data, target).expect("target must exist");
            assert_eq!(data[idx], target);
        }
    }

    #[test]
    fn reduce_sums_increment_array() {
        for (_, policy) in hosts() {
            let n = 1 << 15;
            let data = workload::generate_increment(n);
            let sum = run_reduce(&policy, &data);
            let exact = (n * (n + 1) / 2) as f64;
            assert!((sum - exact).abs() / exact < 1e-12);
        }
    }

    #[test]
    fn scan_prefix_sums_match() {
        for (_, policy) in hosts() {
            let n = 10_000;
            let src = workload::generate_increment(n);
            let mut out = vec![0.0; n];
            run_inclusive_scan(&policy, &src, &mut out);
            for i in (0..n).step_by(997) {
                let expect = ((i + 1) * (i + 2) / 2) as f64;
                assert!((out[i] - expect).abs() < 1e-6, "i={i}");
            }
        }
    }

    #[test]
    fn sort_restores_increment_order() {
        for (backend, policy) in hosts() {
            let n = 1 << 14;
            let mut data = workload::shuffled_permutation(n, 5);
            run_sort(&policy, backend, &mut data);
            assert_eq!(data, workload::generate_increment(n), "{:?}", backend);
        }
    }
}
