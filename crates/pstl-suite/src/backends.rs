//! Mapping paper backends onto real `pstl` execution policies.
//!
//! Each C++ compiler/backend combination the paper studies corresponds to
//! a scheduling discipline plus a chunking policy in our library:
//!
//! | paper backend | discipline | partitioner | policy quirks |
//! |---|---|---|---|
//! | GCC-SEQ | inline sequential | — | — |
//! | GCC-TBB / ICC-TBB | work stealing | adaptive (lazy splitting) | `auto_partitioner` analog |
//! | GCC-GNU | static fork-join | static | sequential below 2¹⁰ (§5.2/§5.3) |
//! | GCC-HPX | central task pool | guided | fine grains, self-scheduling |
//! | NVC-OMP | static fork-join | static | one chunk per thread, no fallback |
//! | NVC-CUDA | — (GPU; simulated only) | — | — |

use std::sync::Arc;

use pstl::{ExecutionPolicy, ParConfig, Partitioner};
use pstl_executor::{build_pool, Discipline, Executor};
use pstl_sim::Backend;

/// Owns one pool per discipline so repeated policy lookups reuse threads.
pub struct BackendHost {
    threads: usize,
    fork_join: Arc<dyn Executor>,
    work_stealing: Arc<dyn Executor>,
    task_pool: Arc<dyn Executor>,
}

impl BackendHost {
    /// Spin up the three pools with `threads` participants each.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        BackendHost {
            threads,
            fork_join: build_pool(Discipline::ForkJoin, threads),
            work_stealing: build_pool(Discipline::WorkStealing, threads),
            task_pool: build_pool(Discipline::TaskPool, threads),
        }
    }

    /// Threads per pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The execution policy modeling `backend`, or `None` for backends
    /// with no CPU execution (NVC-CUDA).
    pub fn policy_for(&self, backend: Backend) -> Option<ExecutionPolicy> {
        let policy = match backend {
            Backend::GccSeq => ExecutionPolicy::seq(),
            Backend::GccTbb | Backend::IccTbb => ExecutionPolicy::par_with(
                Arc::clone(&self.work_stealing),
                ParConfig::with_grain(2048)
                    .max_tasks_per_thread(8)
                    .partitioner(Partitioner::Adaptive),
            ),
            Backend::GccGnu => ExecutionPolicy::par_with(
                Arc::clone(&self.fork_join),
                ParConfig::with_grain(4096)
                    .max_tasks_per_thread(1)
                    .seq_threshold(1 << 10),
            ),
            Backend::GccHpx => ExecutionPolicy::par_with(
                Arc::clone(&self.task_pool),
                ParConfig::with_grain(512)
                    .max_tasks_per_thread(16)
                    .partitioner(Partitioner::Guided),
            ),
            Backend::NvcOmp => ExecutionPolicy::par_with(
                Arc::clone(&self.fork_join),
                ParConfig::with_grain(4096).max_tasks_per_thread(1),
            ),
            Backend::NvcCuda => return None,
        };
        Some(policy)
    }

    /// The CPU backends runnable in real mode, in paper order (GCC-SEQ
    /// first as the baseline).
    pub fn real_mode_backends() -> Vec<Backend> {
        let mut v = vec![Backend::GccSeq];
        v.extend(Backend::paper_cpu_set());
        v
    }

    /// Whether this backend's `sort` should use the multiway (GNU/MCSTL)
    /// algorithm rather than the default parallel quicksort (the TBB/NVC
    /// shape, which real mode also runs for HPX: its binary mergesort
    /// exists in `pstl-sim` only).
    pub fn uses_multiway_sort(backend: Backend) -> bool {
        matches!(backend, Backend::GccGnu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cpu_backends_have_policies() {
        let host = BackendHost::new(2);
        for b in BackendHost::real_mode_backends() {
            assert!(host.policy_for(b).is_some(), "{:?}", b);
        }
        assert!(host.policy_for(Backend::NvcCuda).is_none());
    }

    #[test]
    fn seq_backend_maps_to_seq_policy() {
        let host = BackendHost::new(4);
        assert!(host.policy_for(Backend::GccSeq).unwrap().is_seq());
        assert!(!host.policy_for(Backend::GccTbb).unwrap().is_seq());
    }

    #[test]
    fn gnu_policy_has_sequential_fallback() {
        let host = BackendHost::new(2);
        let gnu = host.policy_for(Backend::GccGnu).unwrap();
        assert!(matches!(gnu.plan(1 << 10), pstl::Plan::Sequential));
        assert!(matches!(gnu.plan(1 << 12), pstl::Plan::Parallel { .. }));
        let tbb = host.policy_for(Backend::GccTbb).unwrap();
        assert!(matches!(tbb.plan(8), pstl::Plan::Parallel { .. }));
    }

    #[test]
    fn disciplines_match_design_table() {
        let host = BackendHost::new(2);
        let disc = |b: Backend| match host.policy_for(b).unwrap() {
            ExecutionPolicy::Seq => None,
            ExecutionPolicy::Par { exec, .. } => Some(exec.discipline()),
        };
        assert_eq!(disc(Backend::GccTbb), Some(Discipline::WorkStealing));
        assert_eq!(disc(Backend::IccTbb), Some(Discipline::WorkStealing));
        assert_eq!(disc(Backend::GccGnu), Some(Discipline::ForkJoin));
        assert_eq!(disc(Backend::NvcOmp), Some(Discipline::ForkJoin));
        assert_eq!(disc(Backend::GccHpx), Some(Discipline::TaskPool));
        // Every pool earns its place: each backs some real-mode backend.
        let used: Vec<_> = BackendHost::real_mode_backends()
            .into_iter()
            .filter_map(disc)
            .collect();
        for d in Discipline::POOLS {
            assert!(used.contains(&d), "{} backs no real-mode backend", d.name());
        }
    }

    #[test]
    fn partitioners_match_design_table() {
        let host = BackendHost::new(2);
        let part = |b: Backend| match host.policy_for(b).unwrap() {
            ExecutionPolicy::Seq => None,
            ExecutionPolicy::Par { cfg, .. } => Some(cfg.partitioner),
        };
        assert_eq!(part(Backend::GccTbb), Some(Partitioner::Adaptive));
        assert_eq!(part(Backend::IccTbb), Some(Partitioner::Adaptive));
        assert_eq!(part(Backend::GccHpx), Some(Partitioner::Guided));
        assert_eq!(part(Backend::GccGnu), Some(Partitioner::Static));
        assert_eq!(part(Backend::NvcOmp), Some(Partitioner::Static));
    }

    #[test]
    fn multiway_sort_only_for_gnu() {
        assert!(BackendHost::uses_multiway_sort(Backend::GccGnu));
        assert!(!BackendHost::uses_multiway_sort(Backend::GccTbb));
        assert!(!BackendHost::uses_multiway_sort(Backend::GccHpx));
    }

    #[test]
    fn pools_are_shared_across_lookups() {
        let host = BackendHost::new(2);
        let a = host.policy_for(Backend::GccTbb).unwrap();
        let b = host.policy_for(Backend::IccTbb).unwrap();
        match (a, b) {
            (ExecutionPolicy::Par { exec: ea, .. }, ExecutionPolicy::Par { exec: eb, .. }) => {
                assert!(Arc::ptr_eq(&ea, &eb), "TBB flavors share the pool")
            }
            _ => panic!("expected parallel policies"),
        }
    }
}
