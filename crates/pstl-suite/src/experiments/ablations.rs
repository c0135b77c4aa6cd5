//! Ablation studies: the design-choice questions DESIGN.md calls out,
//! answered by recomputing Table 5 columns under modified backend
//! models. These go beyond the paper's measurements — they are the
//! "why" behind its findings, made testable by the model:
//!
//! 1. **Sort algorithm** — is GNU's sort lead the *runtime* or the
//!    *algorithm*? Give every backend GNU's multiway mergesort.
//! 2. **Scheduling cost** — how much of HPX's deficit is its per-task
//!    overhead vs its poor thread/data placement? Give HPX TBB's
//!    scheduling constants while keeping its placement behaviour.
//! 3. **Allocator at scale** — recompute the summary speedups with
//!    default (node-0) placement: the cost of *not* using the
//!    first-touch allocator on every kernel at once.
//! 4. **ARM prediction** (paper §6 future work) — the Table 5 row the
//!    paper would have measured on a single-NUMA-node ARM server, where
//!    placement effects vanish.

use pstl_sim::backend_model::SortFlavor;
use pstl_sim::kernels::Kernel;
use pstl_sim::machine::{mach_arm_hypothetical, mach_c};
use pstl_sim::memory::PagePlacement;
use pstl_sim::{Backend, CpuSim, RunParams};

use crate::experiments::N_LARGE;
use crate::output::{TableDoc, TableRow};

fn speedup_with(sim: &CpuSim, baseline: &CpuSim, kernel: Kernel, threads: usize) -> f64 {
    baseline.time(&RunParams::new(kernel, N_LARGE, 1))
        / sim.time(&RunParams::new(kernel, N_LARGE, threads))
}

/// Ablation 1: sort speedups on Mach C with every backend's sort flavor
/// forced to multiway mergesort.
pub fn build_sort_flavor() -> TableDoc {
    let machine = mach_c();
    let baseline = CpuSim::new(machine.clone(), Backend::GccSeq);
    let mut rows = Vec::new();
    for backend in Backend::paper_cpu_set() {
        let stock = CpuSim::new(machine.clone(), backend);
        let mut model = backend.model();
        model.sort_flavor = SortFlavor::Multiway;
        let multiway = CpuSim::with_model(machine.clone(), model);
        rows.push(TableRow {
            label: backend.name().to_string(),
            values: vec![
                Some(speedup_with(&stock, &baseline, Kernel::Sort, machine.cores)),
                Some(speedup_with(
                    &multiway,
                    &baseline,
                    Kernel::Sort,
                    machine.cores,
                )),
            ],
        });
    }
    TableDoc {
        id: "ablation_sort_flavor".into(),
        title: "Sort speedup on Mach C: stock algorithm vs multiway mergesort for everyone".into(),
        columns: vec!["stock".into(), "with_multiway".into()],
        rows,
    }
}

/// Ablation 2: HPX's for_each/reduce deficit decomposed — stock HPX,
/// HPX with TBB's scheduling constants (placement unchanged), and HPX
/// with TBB's placement behaviour (scheduling unchanged).
pub fn build_hpx_decomposition() -> TableDoc {
    let machine = mach_c();
    let baseline = CpuSim::new(machine.clone(), Backend::GccSeq);
    let tbb = Backend::GccTbb.model();

    let stock = CpuSim::new(machine.clone(), Backend::GccHpx);

    let mut sched_fixed = Backend::GccHpx.model();
    sched_fixed.dispatch_us = tbb.dispatch_us;
    sched_fixed.per_task_ns = tbb.per_task_ns;
    sched_fixed.tasks_per_thread = tbb.tasks_per_thread;
    sched_fixed.map_extra_cycles = tbb.map_extra_cycles;
    sched_fixed.reduce_extra_cycles = tbb.reduce_extra_cycles;
    let sched_fixed = CpuSim::with_model(machine.clone(), sched_fixed);

    let mut placement_fixed = Backend::GccHpx.model();
    placement_fixed.bw_efficiency = tbb.bw_efficiency;
    placement_fixed.numa_gamma = tbb.numa_gamma;
    placement_fixed.store_numa_gamma = tbb.store_numa_gamma;
    let placement_fixed = CpuSim::with_model(machine.clone(), placement_fixed);

    let kernels = [
        Kernel::ForEach { k_it: 1 },
        Kernel::Reduce,
        Kernel::InclusiveScan,
    ];
    let mut rows = Vec::new();
    for (label, sim) in [
        ("HPX stock", &stock),
        ("HPX + TBB scheduling", &sched_fixed),
        ("HPX + TBB placement", &placement_fixed),
        (
            "GCC-TBB (reference)",
            &CpuSim::new(machine.clone(), Backend::GccTbb),
        ),
    ] {
        rows.push(TableRow {
            label: label.to_string(),
            values: kernels
                .iter()
                .map(|&k| Some(speedup_with(sim, &baseline, k, machine.cores)))
                .collect(),
        });
    }
    TableDoc {
        id: "ablation_hpx_decomposition".into(),
        title: "HPX deficit decomposition on Mach C (speedup vs GCC-SEQ)".into(),
        columns: kernels.iter().map(|k| k.name()).collect(),
        rows,
    }
}

/// Ablation 3: the whole Table 5 row for GCC-TBB on Mach C under default
/// vs first-touch placement — the allocator's end-to-end value.
pub fn build_placement() -> TableDoc {
    let machine = mach_c();
    let baseline = CpuSim::new(machine.clone(), Backend::GccSeq);
    let sim = CpuSim::new(machine.clone(), Backend::GccTbb);
    let kernels = Kernel::paper_summary_set();
    let mut rows = Vec::new();
    for (label, placement) in [
        ("first_touch", PagePlacement::Spread),
        ("default", PagePlacement::Node0),
    ] {
        rows.push(TableRow {
            label: label.to_string(),
            values: kernels
                .iter()
                .map(|&k| {
                    let t = baseline.time(&RunParams::new(k, N_LARGE, 1));
                    let p = sim
                        .time(&RunParams::new(k, N_LARGE, machine.cores).with_placement(placement));
                    Some(t / p)
                })
                .collect(),
        });
    }
    TableDoc {
        id: "ablation_placement".into(),
        title: "GCC-TBB speedups on Mach C under first-touch vs default placement".into(),
        columns: kernels.iter().map(|k| k.name()).collect(),
        rows,
    }
}

/// Ablation 4 (future work): predicted Table 5 row on the hypothetical
/// single-NUMA-node ARM server.
pub fn build_arm_prediction() -> TableDoc {
    let machine = mach_arm_hypothetical();
    let baseline = CpuSim::new(machine.clone(), Backend::GccSeq);
    let kernels = Kernel::paper_summary_set();
    let mut rows = Vec::new();
    for backend in Backend::paper_cpu_set() {
        let sim = CpuSim::new(machine.clone(), backend);
        rows.push(TableRow {
            label: backend.name().to_string(),
            values: kernels
                .iter()
                .map(|&k| {
                    if backend == Backend::GccGnu && matches!(k, Kernel::InclusiveScan) {
                        None
                    } else {
                        Some(speedup_with(&sim, &baseline, k, machine.cores))
                    }
                })
                .collect(),
        });
    }
    TableDoc {
        id: "ablation_arm_prediction".into(),
        title: format!(
            "Predicted speedups on {} (64 cores, 1 NUMA node)",
            machine.name
        ),
        columns: kernels.iter().map(|k| k.name()).collect(),
        rows,
    }
}

/// `suite ablations`: print and write the four ablation tables.
pub fn run() -> std::io::Result<()> {
    for table in [
        build_sort_flavor(),
        build_hpx_decomposition(),
        build_placement(),
        build_arm_prediction(),
    ] {
        table.emit()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(t: &TableDoc, row: &str, col: usize) -> f64 {
        t.rows.iter().find(|r| r.label == row).unwrap().values[col].unwrap()
    }

    #[test]
    fn multiway_sort_rescues_every_backend() {
        // The sort gap is the algorithm, not the runtime: with multiway
        // merge, TBB/NVC/HPX close most of the distance to GNU.
        let t = build_sort_flavor();
        for row in &t.rows {
            let stock = row.values[0].unwrap();
            let multiway = row.values[1].unwrap();
            if row.label == "GCC-GNU" {
                assert!(
                    (multiway / stock - 1.0).abs() < 1e-9,
                    "GNU already multiway"
                );
            } else {
                assert!(
                    multiway > 2.0 * stock,
                    "{}: multiway {multiway} must dwarf stock {stock}",
                    row.label
                );
            }
        }
    }

    #[test]
    fn hpx_deficit_is_mostly_placement_for_memory_bound() {
        // Fixing HPX's placement recovers more of the for_each gap than
        // fixing its scheduling constants (the paper's bandwidth analysis
        // in Table 3 points the same way: HPX reaches only 75.6 GiB/s).
        let t = build_hpx_decomposition();
        let stock = cell(&t, "HPX stock", 0);
        let sched = cell(&t, "HPX + TBB scheduling", 0);
        let placed = cell(&t, "HPX + TBB placement", 0);
        assert!(
            placed > sched,
            "placement fix {placed} vs scheduling fix {sched}"
        );
        assert!(placed > 2.0 * stock);
    }

    #[test]
    fn placement_matters_only_for_bandwidth_bound_kernels() {
        let t = build_placement();
        let ft = &t.rows[0].values;
        let def = &t.rows[1].values;
        // for_each k1 (col 1) loses badly under default placement…
        assert!(ft[1].unwrap() > 1.25 * def[1].unwrap());
        // …while k1000 (col 2) is indifferent.
        let ratio = ft[2].unwrap() / def[2].unwrap();
        assert!((0.95..1.1).contains(&ratio), "k1000 ratio {ratio}");
    }

    #[test]
    fn arm_prediction_removes_numa_cliffs() {
        // On one NUMA node the Zen-machine collapses disappear: NVC find
        // and HPX reduce recover to useful speedups, and the allocator
        // mechanism is moot.
        let t = build_arm_prediction();
        let nvc_find = cell(&t, "NVC-OMP", 0);
        assert!(
            nvc_find > 3.0,
            "no placement decay on one node: NVC find {nvc_find}"
        );
        // Memory-bound ceiling ≈ bw_all/bw1 ≈ 10.7 still binds.
        let tbb_reduce = cell(&t, "GCC-TBB", 4);
        assert!((5.0..13.0).contains(&tbb_reduce), "reduce {tbb_reduce}");
        // Compute-bound still near-ideal.
        let tbb_k1000 = cell(&t, "GCC-TBB", 2);
        assert!(tbb_k1000 > 45.0, "k1000 {tbb_k1000}");
    }
}
