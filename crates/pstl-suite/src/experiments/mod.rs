//! One module per paper figure/table (see DESIGN.md §4 for the index).
//!
//! Every module exposes a `build()` returning a [`Figure`](crate::Figure)
//! or [`TableDoc`](crate::TableDoc); the matching binary in `src/bin/`
//! prints the rendering and saves the JSON. Keeping the construction in
//! the library makes every experiment unit-testable against the
//! calibration targets of DESIGN.md §5.

pub mod ablations;
pub mod crossover;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod find_position;
pub mod numa_real;
pub mod profile;
pub mod roofline;
pub mod service;
pub mod skew;
pub mod skew_real;
pub mod stream;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod weak_scaling;

use pstl_sim::kernels::Kernel;
use pstl_sim::machine::Machine;
use pstl_sim::{Backend, CpuSim, RunParams};

/// The paper's standard problem size for strong-scaling and summary
/// tables: 2^30 elements.
pub const N_LARGE: usize = 1 << 30;

/// Modeled speedup of `backend` at `threads` over the GCC-SEQ single
/// thread baseline (the paper's Table 5 definition).
pub fn speedup(
    machine: &Machine,
    backend: Backend,
    kernel: Kernel,
    n: usize,
    threads: usize,
) -> f64 {
    let sim = CpuSim::new(machine.clone(), backend);
    let baseline = CpuSim::new(machine.clone(), Backend::GccSeq);
    baseline.time(&RunParams::new(kernel, n, 1)) / sim.time(&RunParams::new(kernel, n, threads))
}

/// Modeled run time of one invocation.
pub fn time(machine: &Machine, backend: Backend, kernel: Kernel, n: usize, threads: usize) -> f64 {
    CpuSim::new(machine.clone(), backend).time(&RunParams::new(kernel, n, threads))
}

/// Turn-taking for the experiment tests that run real threads. They
/// measure wall time (closed-loop calibration, row-vs-row ratios,
/// makespans), so one running beside another on a small box skews both;
/// each holds this guard for its whole body instead. A test that panics
/// poisons nothing: the next one takes the lock anyway.
#[cfg(test)]
pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The size sweep of the problem-scaling figures: 2^3 … 2^30.
pub fn paper_size_sweep() -> Vec<usize> {
    (3..=30).map(|e| 1usize << e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstl_sim::machine::mach_a;

    #[test]
    fn speedup_of_seq_baseline_is_one() {
        let m = mach_a();
        let s = speedup(&m, Backend::GccSeq, Kernel::Reduce, 1 << 20, 1);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_covers_paper_range() {
        let s = paper_size_sweep();
        assert_eq!(s.first(), Some(&8));
        assert_eq!(s.last(), Some(&(1 << 30)));
        assert_eq!(s.len(), 28);
    }
}
