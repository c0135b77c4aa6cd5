//! Real-machine strong scaling: the direct counterpart of the paper's
//! Figure 3 on *this* host. Builds pools at 1, 2, 4, … threads up to the
//! available parallelism (or `--max-threads`), measures the studied
//! kernels per backend, and emits a speedup-vs-threads figure.
//!
//! On a large multi-core machine this regenerates the paper's
//! strong-scaling experiment for real; on a laptop it still validates
//! the ordering at small thread counts.
//!
//! ```text
//! real_strong_scaling [--max-threads N] [--size-exp E] [--min-time-ms M]
//! ```

use std::time::{Duration, Instant};

use pstl_harness::{Bench, BenchConfig};
use pstl_sim::Backend;
use pstl_suite::backends::BackendHost;
use pstl_suite::output::{Figure, Panel, Series};
use pstl_suite::{kernels, workload};

fn main() -> std::io::Result<()> {
    let mut max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let mut size_exp = 20u32;
    let mut min_time = Duration::from_millis(50);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().expect("missing value");
        match arg.as_str() {
            "--max-threads" => max_threads = value().parse().expect("--max-threads"),
            "--size-exp" => size_exp = value().parse().expect("--size-exp"),
            "--min-time-ms" => {
                min_time = Duration::from_millis(value().parse().expect("--min-time-ms"))
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    let n = 1usize << size_exp;
    let mut threads_sweep = Vec::new();
    let mut t = 1usize;
    while t <= max_threads {
        threads_sweep.push(t);
        t *= 2;
    }
    println!(
        "real strong scaling: 2^{size_exp} elements, threads {threads_sweep:?}, min_time {min_time:?}\n"
    );

    let config = BenchConfig {
        min_time,
        ..BenchConfig::default()
    };
    let measure = |f: &mut dyn FnMut() -> Duration| {
        Bench::new("k")
            .config(config.clone())
            .run_manual(f)
            .stats
            .median
    };

    /// A kernel driver: policy + backend in, measured duration out.
    type KernelRunner = Box<dyn Fn(&pstl::ExecutionPolicy, Backend) -> Duration>;

    // Sequential baselines per kernel (GCC-SEQ analog).
    let seq_host = BackendHost::new(1);
    let seq_policy = seq_host.policy_for(Backend::GccSeq).unwrap();
    let kernels_run: Vec<(&str, KernelRunner)> = {
        let data_ro = workload::generate_increment(n);
        let base_sorted = workload::shuffled_permutation(n, 99);
        vec![
            (
                "reduce",
                Box::new(move |p: &pstl::ExecutionPolicy, _b| {
                    let start = Instant::now();
                    std::hint::black_box(kernels::run_reduce(p, &data_ro));
                    start.elapsed()
                }),
            ),
            (
                "sort",
                Box::new(move |p: &pstl::ExecutionPolicy, b| {
                    let mut data = base_sorted.clone();
                    let start = Instant::now();
                    kernels::run_sort(p, b, &mut data);
                    start.elapsed()
                }),
            ),
        ]
    };
    // for_each needs its own mutable buffer per closure; build separately.
    let mut foreach_data = workload::generate_increment(n);

    let mut panels = Vec::new();
    for (kernel_name, runner) in &kernels_run {
        let mut per_backend: Vec<(String, Vec<f64>)> = Vec::new();
        // Baseline median.
        let mut f = || runner(&seq_policy, Backend::GccSeq);
        let baseline = measure(&mut f);
        for backend in Backend::paper_cpu_set() {
            let mut speedups = Vec::new();
            for &t in &threads_sweep {
                let host = BackendHost::new(t);
                let policy = host.policy_for(backend).unwrap();
                let mut f = || runner(&policy, backend);
                let median = measure(&mut f);
                speedups.push(baseline / median);
            }
            per_backend.push((backend.name().to_string(), speedups));
        }
        panels.push(Panel {
            title: kernel_name.to_string(),
            series: per_backend
                .into_iter()
                .map(|(label, y)| {
                    Series::new(label, threads_sweep.iter().map(|&t| t as f64).collect(), y)
                })
                .collect(),
        });
    }

    // for_each k1 panel (mutable data, reused buffer).
    {
        let mut f = || {
            let start = Instant::now();
            kernels::run_for_each(&seq_policy, &mut foreach_data, 1);
            start.elapsed()
        };
        let baseline = measure(&mut f);
        let mut series = Vec::new();
        for backend in Backend::paper_cpu_set() {
            let mut speedups = Vec::new();
            for &t in &threads_sweep {
                let host = BackendHost::new(t);
                let policy = host.policy_for(backend).unwrap();
                let mut f = || {
                    let start = Instant::now();
                    kernels::run_for_each(&policy, &mut foreach_data, 1);
                    start.elapsed()
                };
                speedups.push(baseline / measure(&mut f));
            }
            series.push(Series::new(
                backend.name(),
                threads_sweep.iter().map(|&t| t as f64).collect(),
                speedups,
            ));
        }
        panels.push(Panel {
            title: "for_each_k1".to_string(),
            series,
        });
    }

    let fig = Figure {
        id: "real_strong_scaling".into(),
        title: format!("Strong scaling on this host (2^{size_exp} elements)"),
        x_label: "threads".into(),
        y_label: "speedup vs GCC-SEQ".into(),
        panels,
    };
    fig.emit()
}
