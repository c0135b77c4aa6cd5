//! One module per paper figure/table (see DESIGN.md §4 for the index).
//!
//! Every module exposes a `build()` returning a [`Figure`](crate::Figure)
//! or [`TableDoc`](crate::TableDoc). [`REGISTRY`] names each experiment
//! the `suite` binary runs: `suite <name>` prints the rendering and
//! writes the JSON, and for the measured extensions that commit a
//! `BENCH_*.json` baseline, `suite --check <name>` also holds the fresh
//! baseline to the module's `check`. Keeping the construction in the
//! library makes every experiment unit-testable against the calibration
//! targets of DESIGN.md §5.

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
pub mod kernel_calibrate;
pub mod numa_real;
pub mod overhead_ladder;
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

use pstl_harness::Stats;
use pstl_sim::kernels::Kernel;
use pstl_sim::machine::Machine;
use pstl_sim::{Backend, CpuSim, RunParams};
use serde_json::Value;

use crate::gate::Gates;
use crate::output::{Figure, Panel, Series};

/// One `suite` entry.
pub struct Experiment {
    /// Also the id of the first document it writes (`fig4_find.json`).
    pub name: &'static str,
    /// Build or measure, print, and write every document.
    pub run: fn() -> std::io::Result<()>,
    /// For the measured extensions: the baseline written and its gates.
    pub check: Option<Check>,
}

/// The gates `suite --check` holds an entry's fresh baseline to.
pub struct Check {
    /// The baseline document, e.g. `BENCH_find.json`.
    pub file: &'static str,
    /// Hold `doc` to every gate; `committed` is the repository's copy.
    pub gates: fn(doc: &Value, committed: &Value, g: &mut Gates),
}

const fn ungated(name: &'static str, run: fn() -> std::io::Result<()>) -> Experiment {
    Experiment {
        name,
        run,
        check: None,
    }
}

/// An entry that runs `$module::run` and holds the `$file` it writes
/// to `$module::check`.
macro_rules! gated {
    ($name:literal, $module:ident, $file:literal) => {
        Experiment {
            name: $name,
            run: $module::run,
            check: Some(Check {
                file: $file,
                gates: $module::check,
            }),
        }
    };
}

/// Every `suite` experiment, in DESIGN.md §4 order: the paper's tables
/// and figures, then the extensions.
pub static REGISTRY: &[Experiment] = &[
    ungated("table1_coverage", || table1::build().emit()),
    ungated("table2_machines", || table2::build().emit()),
    ungated("fig1_allocator", || fig1::build().emit()),
    ungated("fig2_foreach_problem", || fig2::build().emit()),
    ungated("fig3_foreach_strong", || fig3::build().emit()),
    ungated("table3_counters_foreach", || table3::build().emit()),
    ungated("fig4_find", || fig4::build().emit()),
    ungated("fig5_scan", || fig5::build().emit()),
    ungated("fig6_reduce", || fig6::build().emit()),
    ungated("table4_counters_reduce", || table4::build().emit()),
    ungated("fig7_sort", || fig7::build().emit()),
    ungated("table5_speedups", || table5::build().emit()),
    ungated("table5_model_vs_paper", || table5::build_ratio().emit()),
    ungated("table6_efficiency", || table6::build().emit()),
    ungated("table7_binsize", table7::run),
    ungated("fig8_gpu_foreach", || fig8::build().emit()),
    ungated("fig9_gpu_reduce", || fig9::build().emit()),
    ungated("ablations", ablations::run),
    ungated("rq1_crossover", || crossover::build().emit()),
    ungated("ext_weak_scaling", || weak_scaling::build().emit()),
    ungated("ext_skewed_workload", || skew::build().emit()),
    gated!("ext_skewed_real", skew_real, "BENCH_partitioner.json"),
    gated!("ext_find_position", find_position, "BENCH_find.json"),
    gated!("ext_numa_real", numa_real, "BENCH_numa.json"),
    ungated("ext_roofline", || roofline::build().emit()),
    gated!("ext_profile", profile, "BENCH_profile.json"),
    gated!("ext_service", service, "BENCH_service.json"),
    gated!("ext_stream", stream, "BENCH_stream.json"),
    gated!("kernel_calibrate", kernel_calibrate, "BENCH_kernels.json"),
    gated!("overhead_ladder", overhead_ladder, "BENCH_overhead.json"),
];

/// The registry entry called `name`.
pub fn lookup(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

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

/// Run `time(rep, side)` for sides 0 and 1 back to back, `pairs` times,
/// alternating which side goes first, after one warm-up pair: the median
/// of each side's times, and the median of the per-pair ratios side 0 /
/// side 1. A burst of host noise lands on one pair rather than on one
/// side, and the median does not chase either side's luck: best-of
/// timing of each side on its own moved the u64 sort-leaf ratio between
/// 0.85 and 1.10 from run to run on a shared 2-core host.
pub(crate) fn paired(pairs: usize, mut time: impl FnMut(usize, usize) -> f64) -> (f64, f64, f64) {
    let (mut zero, mut one, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..=pairs {
        let mut t = [0.0; 2];
        for side in [rep % 2, 1 - rep % 2] {
            t[side] = time(rep, side);
        }
        if rep > 0 {
            zero.push(t[0]);
            one.push(t[1]);
            ratios.push(t[0] / t[1]);
        }
    }
    let median = |v: &[f64]| Stats::from_samples(v).median;
    (median(&zero), median(&one), median(&ratios))
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

/// Problem scaling: modeled time of GCC-SEQ on one thread and of each
/// of `backends` on `threads`, over [`paper_size_sweep`].
pub fn problem_series(
    machine: &Machine,
    kernel: Kernel,
    backends: &[Backend],
    threads: usize,
) -> Vec<Series> {
    let sizes = paper_size_sweep();
    let xs: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
    let runs = std::iter::once((Backend::GccSeq, 1)).chain(backends.iter().map(|&b| (b, threads)));
    runs.map(|(backend, t)| {
        let ys = sizes.iter().map(|&n| time(machine, backend, kernel, n, t));
        Series::new(backend.name(), xs.clone(), ys.collect())
    })
    .collect()
}

/// Strong scaling: speedup of each of `backends` at [`N_LARGE`]
/// elements over the machine's thread sweep.
pub fn strong_series(machine: &Machine, kernel: Kernel, backends: &[Backend]) -> Vec<Series> {
    let threads = machine.thread_sweep();
    let xs: Vec<f64> = threads.iter().map(|&t| t as f64).collect();
    let series = backends.iter().map(|&backend| {
        let ys = threads
            .iter()
            .map(|&t| speedup(machine, backend, kernel, N_LARGE, t));
        Series::new(backend.name(), xs.clone(), ys.collect())
    });
    series.collect()
}

/// The two-panel layout of Figs. 4–7: (a) problem scaling with
/// `threads`, (b) strong scaling at 2^30 elements.
pub fn scaling_figure(
    (id, title): (&str, &str),
    machine: &Machine,
    kernel: Kernel,
    backends: &[Backend],
    threads: usize,
) -> Figure {
    Figure {
        id: id.into(),
        title: title.into(),
        x_label: "elements / threads".into(),
        y_label: "time [s] / speedup".into(),
        panels: vec![
            Panel {
                title: format!("(a) problem scaling, {threads} threads"),
                series: problem_series(machine, kernel, backends, threads),
            },
            Panel {
                title: "(b) strong scaling, 2^30 elements".into(),
                series: strong_series(machine, kernel, backends),
            },
        ],
    }
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
    fn registry_names_are_unique() {
        let mut names: Vec<_> = REGISTRY.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
        assert!(lookup("fig4_find").is_some_and(|e| e.check.is_none()));
    }

    #[test]
    fn sweep_covers_paper_range() {
        let s = paper_size_sweep();
        assert_eq!(s.first(), Some(&8));
        assert_eq!(s.last(), Some(&(1 << 30)));
        assert_eq!(s.len(), 28);
    }
}
