//! Per-worker event timelines: run each studied kernel per backend with
//! event recording enabled, export one Chrome trace-event JSON per
//! (backend, kernel) pair, and print derived scheduler statistics
//! (worker utilization, steal latency, task-size histogram).
//!
//! The timelines visualize the scheduling behaviour the paper measures
//! indirectly through instruction counts: fork-join's one-block-per-
//! thread regions, work stealing's splits and steals, and the task
//! pool's per-chunk queue traffic. Open the emitted JSON files in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! ```text
//! trace_timelines [--threads N] [--size-exp E] [--kernels k1,k2]
//!
//!   --threads N    threads per pool (default: $PSTL_THREADS or 4)
//!   --size-exp E   problem size 2^E (default 18)
//!   --kernels LIST comma list: for_each,reduce,inclusive_scan,find,sort
//!                  (default: all)
//! ```
//!
//! Build with `--features pstl-suite/trace`; without it the pools record
//! nothing and every timeline comes back empty.

use std::time::Instant;

use pstl::ExecutionPolicy;
use pstl_sim::Backend;
use pstl_suite::backends::BackendHost;
use pstl_suite::output::{results_dir, TableDoc, TableRow};
use pstl_suite::{kernels, workload};
use pstl_trace::{analyze, chrome, stats};

fn main() -> std::io::Result<()> {
    let mut threads = std::env::var("PSTL_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let mut size_exp = 18u32;
    let mut kernel_names = vec![
        "for_each".to_string(),
        "reduce".to_string(),
        "inclusive_scan".to_string(),
        "find".to_string(),
        "sort".to_string(),
    ];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().expect("missing value");
        match arg.as_str() {
            "--threads" => threads = value().parse().expect("--threads"),
            "--size-exp" => size_exp = value().parse().expect("--size-exp"),
            "--kernels" => kernel_names = value().split(',').map(str::to_string).collect(),
            other => panic!("unknown argument: {other}"),
        }
    }
    if !pstl_trace::enabled() {
        eprintln!(
            "note: event recording is compiled out; rebuild with \
             `--features pstl-suite/trace` to capture timelines"
        );
    }
    let n = 1usize << size_exp;
    println!("trace timelines: 2^{size_exp} elements, {threads} threads\n");

    let trace_dir = results_dir().join("traces");
    let host = BackendHost::new(threads);
    let mut rows = Vec::new();
    for backend in Backend::paper_cpu_set() {
        let Some(policy) = host.policy_for(backend) else {
            continue;
        };
        let pool = match &policy {
            ExecutionPolicy::Par { exec, .. } => exec.clone(),
            ExecutionPolicy::Seq => continue,
        };
        for kernel in &kernel_names {
            // Warm the pool (thread spawn, first faults), then discard
            // everything recorded so far so the exported timeline holds
            // exactly one measured invocation.
            run_kernel(&policy, backend, kernel, n);
            let _ = pool.take_trace();
            let wall = run_kernel(&policy, backend, kernel, n);
            let Some(log) = pool.take_trace() else {
                continue;
            };

            for w in &log.workers {
                if let Err(e) = stats::validate_well_nested(w) {
                    eprintln!(
                        "warning: {}/{} track {} is not well nested: {e}",
                        backend.name(),
                        kernel,
                        w.label
                    );
                }
            }
            let a = analyze::analyze_log(&log);
            let steals: u64 = a.workers.iter().map(|w| w.steals).sum();
            let tasks: u64 = a.workers.iter().map(|w| w.tasks).sum();
            let mean_util = if a.workers.is_empty() {
                0.0
            } else {
                a.workers.iter().map(|w| w.utilization).sum::<f64>() / a.workers.len() as f64
            };
            rows.push(TableRow {
                label: format!("{}/{}", backend.name(), kernel),
                values: vec![
                    Some(log.event_count() as f64),
                    Some(tasks as f64),
                    Some(steals as f64),
                    Some(mean_util),
                    Some(wall.as_secs_f64() * 1e3),
                ],
            });

            if log.event_count() > 0 {
                let file = trace_dir.join(format!(
                    "{}_{}_2e{}.trace.json",
                    backend.name().to_lowercase().replace('-', "_"),
                    kernel,
                    size_exp
                ));
                std::fs::create_dir_all(&trace_dir)?;
                std::fs::write(&file, chrome::trace_json(&log))?;
                println!(
                    "{:>9}/{:<14} {:>7} events -> {}",
                    backend.name(),
                    kernel,
                    log.event_count(),
                    file.display()
                );
            }
        }
    }

    let table = TableDoc {
        id: "trace_timelines".into(),
        title: format!(
            "Event-trace summary per backend/kernel ({threads} threads, 2^{size_exp} elements)"
        ),
        columns: vec![
            "events".into(),
            "tasks".into(),
            "steals".into(),
            "mean_util".into(),
            "wall_ms".into(),
        ],
        rows,
    };
    println!();
    table.emit()
}

/// Run one invocation of `kernel` under `policy`, returning wall time.
fn run_kernel(
    policy: &ExecutionPolicy,
    backend: Backend,
    kernel: &str,
    n: usize,
) -> std::time::Duration {
    match kernel {
        "for_each" => {
            let mut data = workload::generate_increment(n);
            let start = Instant::now();
            kernels::run_for_each(policy, &mut data, 1);
            start.elapsed()
        }
        "reduce" => {
            let data = workload::generate_increment(n);
            let start = Instant::now();
            let sum = kernels::run_reduce(policy, &data);
            let d = start.elapsed();
            assert!(sum > 0.0);
            d
        }
        "inclusive_scan" => {
            let src = workload::generate_increment(n);
            let mut out = vec![0.0f64; n];
            let start = Instant::now();
            kernels::run_inclusive_scan(policy, &src, &mut out);
            start.elapsed()
        }
        "find" => {
            let data = workload::generate_increment(n);
            // Deep target: three quarters in, so the parallel search has
            // work to trace.
            let target = data[n / 4 * 3];
            let start = Instant::now();
            let found = kernels::run_find(policy, &data, target);
            let d = start.elapsed();
            assert!(found.is_some());
            d
        }
        "sort" => {
            let mut data = workload::shuffled_permutation(n, 0xC0FFEE);
            let start = Instant::now();
            kernels::run_sort(policy, backend, &mut data);
            start.elapsed()
        }
        other => panic!("unknown kernel: {other}"),
    }
}
