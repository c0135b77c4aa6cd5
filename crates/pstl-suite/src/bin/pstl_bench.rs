//! pSTL-Bench real mode: run the five studied kernels against the real
//! `pstl` library on this host, per backend, with the paper's
//! measurement protocol (first-touch allocation, untimed setup, manual
//! timing, bytes-processed throughput).
//!
//! ```text
//! pstl_bench [--threads N] [--min-time-ms M] [--max-exp E]
//!            [--kernels k1,k2] [--backends b1,b2] [--json PATH]
//!
//!   --threads N       threads per pool (default: $PSTL_THREADS or 4;
//!                     the paper's OMP_NUM_THREADS analog)
//!   --min-time-ms M   minimum measured time per benchmark (default 100;
//!                     the paper used 5000)
//!   --max-exp E       largest problem size 2^E (default 20)
//!   --kernels LIST    comma list: find,for_each_k1,for_each_k1000,
//!                     inclusive_scan,reduce,sort (default: all)
//!   --backends LIST   comma list: GCC-SEQ,GCC-TBB,GCC-GNU,GCC-HPX,
//!                     ICC-TBB,NVC-OMP (default: all CPU backends)
//!   --json PATH       also write a JSON report
//! ```

use std::time::{Duration, Instant};

use pstl_alloc::{alloc_init, Placement};
use pstl_harness::{print_table, Bench, BenchConfig, Measurement, Report};
use pstl_sim::Backend;
use pstl_suite::backends::BackendHost;
use pstl_suite::{kernels, workload};

struct Options {
    threads: usize,
    min_time: Duration,
    max_exp: u32,
    kernels: Vec<String>,
    backends: Vec<Backend>,
    json: Option<String>,
}

fn parse_args() -> Options {
    let default_threads = std::env::var("PSTL_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let mut opts = Options {
        threads: default_threads,
        min_time: Duration::from_millis(100),
        max_exp: 20,
        kernels: vec![
            "find".into(),
            "for_each_k1".into(),
            "for_each_k1000".into(),
            "inclusive_scan".into(),
            "reduce".into(),
            "sort".into(),
        ],
        backends: BackendHost::real_mode_backends(),
        json: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match arg.as_str() {
            "--threads" => opts.threads = value("--threads").parse().expect("--threads"),
            "--min-time-ms" => {
                opts.min_time = Duration::from_millis(value("--min-time-ms").parse().expect("ms"))
            }
            "--max-exp" => opts.max_exp = value("--max-exp").parse().expect("--max-exp"),
            "--kernels" => {
                opts.kernels = value("--kernels").split(',').map(str::to_string).collect()
            }
            "--backends" => {
                let names: Vec<String> =
                    value("--backends").split(',').map(str::to_string).collect();
                opts.backends = BackendHost::real_mode_backends()
                    .into_iter()
                    .filter(|b| names.iter().any(|n| n.eq_ignore_ascii_case(b.name())))
                    .collect();
            }
            "--json" => opts.json = Some(value("--json")),
            "--help" | "-h" => {
                println!("see the module docs at the top of pstl_bench.rs");
                std::process::exit(0);
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    let host = BackendHost::new(opts.threads);
    let sizes = workload::size_sweep(opts.max_exp);
    let sizes: Vec<usize> = sizes.into_iter().filter(|&n| n >= 1 << 10).collect();
    let config = BenchConfig {
        min_time: opts.min_time,
        ..BenchConfig::default()
    };

    println!(
        "pstl-bench real mode: {} threads, min_time {:?}, sizes up to 2^{}",
        opts.threads, opts.min_time, opts.max_exp
    );
    let mut all: Vec<Measurement> = Vec::new();
    let mut rng = workload::seeded_rng(0xB5EED);

    for backend in &opts.backends {
        let Some(policy) = host.policy_for(*backend) else {
            continue;
        };
        // The paper's allocator study: first-touch with the processing
        // policy (the sequential baseline allocates sequentially).
        let exec = pstl_executor::build_pool(
            pstl_executor::Discipline::ForkJoin,
            if backend == &Backend::GccSeq {
                1
            } else {
                opts.threads
            },
        );
        for &n in &sizes {
            for kernel in &opts.kernels {
                let name = format!("{}/{}/2^{}", backend.name(), kernel, n.trailing_zeros());
                let mut bench = Bench::new(&name)
                    .config(config.clone())
                    .bytes_per_iter((n * 8) as u64)
                    .items_per_iter(n as u64);
                // Attribute scheduler counter deltas (tasks, steals,
                // parks) to the measured iterations of this benchmark.
                if let pstl::ExecutionPolicy::Par { exec: pool, .. } = &policy {
                    bench = bench.metrics_source(std::sync::Arc::clone(pool));
                }
                let m = match kernel.as_str() {
                    "find" => {
                        let data =
                            pstl_alloc::generate_increment_f64(&exec, Placement::FirstTouch, n);
                        let target = workload::random_target(n, &mut rng);
                        bench.run_manual(|| {
                            let start = Instant::now();
                            let found = kernels::run_find(&policy, &data, target);
                            let d = start.elapsed();
                            assert!(found.is_some());
                            d
                        })
                    }
                    "for_each_k1" | "for_each_k1000" => {
                        let k_it = if kernel == "for_each_k1" { 1 } else { 1000 };
                        let mut data: Vec<f64> = alloc_init(&exec, n, |i| (i + 1) as f64);
                        bench.run_manual(|| {
                            let start = Instant::now();
                            kernels::run_for_each(&policy, &mut data, k_it);
                            start.elapsed()
                        })
                    }
                    "inclusive_scan" => {
                        let src =
                            pstl_alloc::generate_increment_f64(&exec, Placement::FirstTouch, n);
                        let mut out: Vec<f64> = alloc_init(&exec, n, |_| 0.0);
                        bench.run_manual(|| {
                            let start = Instant::now();
                            kernels::run_inclusive_scan(&policy, &src, &mut out);
                            start.elapsed()
                        })
                    }
                    "reduce" => {
                        let data =
                            pstl_alloc::generate_increment_f64(&exec, Placement::FirstTouch, n);
                        bench.run_manual(|| {
                            let start = Instant::now();
                            let sum = kernels::run_reduce(&policy, &data);
                            let d = start.elapsed();
                            assert!(sum > 0.0);
                            d
                        })
                    }
                    "sort" => {
                        let mut data = workload::shuffled_permutation(n, 0xC0FFEE);
                        let mut sort_rng = workload::seeded_rng(0xDEADBEEF);
                        bench.run_manual(|| {
                            // Untimed setup, as in the paper's Listing 3.
                            workload::reshuffle(&mut data, &mut sort_rng);
                            let start = Instant::now();
                            kernels::run_sort(&policy, *backend, &mut data);
                            start.elapsed()
                        })
                    }
                    other => panic!("unknown kernel: {other}"),
                };
                all.push(m);
            }
        }
    }

    print!("{}", print_table(&all));
    if let Some(path) = opts.json {
        let mut report = Report::new("pstl_bench_real_mode")
            .context("threads", opts.threads.to_string())
            .context("host_cores", num_threads_hint())
            .context("kernel_isa", pstl::kernel::isa::level().to_string());
        for m in all {
            report.push(m);
        }
        report
            .write_json(std::path::Path::new(&path))
            .expect("failed to write JSON report");
        println!("wrote {path}");
    }
}

fn num_threads_hint() -> String {
    std::thread::available_parallelism()
        .map(|n| n.to_string())
        .unwrap_or_else(|_| "unknown".into())
}
