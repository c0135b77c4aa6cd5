//! Measure the kernel layer's scalar vs. wide paths on this host and
//! write the `results/BENCH_kernels.json` baseline.
//!
//! Both dispatch paths of every `pstl::kernel` entry point are always
//! compiled (the `simd` feature only flips the *default* dispatch), so
//! a single build can time them head-to-head:
//!
//! * `reduce` — tree-fold vs. left-fold of an f64 sum,
//! * `find` — masked 32-lane block scan vs. per-element short-circuit
//!   on a matchless predicate (the worst case: every index evaluated),
//! * `scan` — the phase-1 range fold both scan engines share,
//! * `sort` — the comparison leaf every sort bottoms out in
//!   (`seq::introsort`) vs. `slice::sort_unstable` on 2^16 random u64,
//! * `digest` — the `jobs`/`ext_stream` farm body (a `fold_map` over 64
//!   `u32`, each mixed with the record's key) through the baseline-only
//!   `fold_map_scalar` vs. the dispatched `fold_map`, which runs the
//!   clone for this CPU's `kernel::isa::level()`.
//!
//! The emitted JSON carries three things: raw ns-per-element numbers
//! (machine-dependent, ignored by the perf gate), `speedup` ratios
//! (machine-independent, diffed by `bench-diff --ratios-only`), and a
//! [`pstl_sim::KernelCalibration`] block that `CpuSim::with_calibration`
//! consumes to replace the backend models' theoretical lane speedups
//! with these measured ones.
//!
//! With `--check`, exits non-zero unless the acceptance gates hold:
//! wide reduce/find ≤ 0.7× scalar time (speedup ≥ 1/0.7), the sort
//! leaf ≤ 1.5× the time of `slice::sort_unstable`, and, on a host at
//! `x86-64-v3` or above, the dispatched digest ≥ 1.5× the baseline one
//! (`n/a` on a baseline-only host).

use std::hint::black_box;
use std::time::Instant;

use pstl::kernel;
use pstl::kernel::isa::{self, Level};
use pstl_sim::{Backend, CpuSim, Kernel, KernelCalibration, RunParams};
use pstl_suite::experiments::stream::{self, mix, Record};
use pstl_suite::results_dir;
use serde::Serialize;

/// Wide reduce/find must be at least this much faster than scalar
/// (time ratio ≤ 0.7 ⇒ speedup ≥ 1/0.7).
const GATE_WIDE_SPEEDUP: f64 = 1.0 / 0.7;
/// The sort leaf may take at most 1.5× the time of `slice::sort_unstable`
/// (time ratio ≤ 1.5 ⇒ speedup ≥ 1/1.5).
const GATE_SORT_LEAF: f64 = 1.0 / 1.5;
/// On a host at `x86-64-v3` or above, the dispatched digest must be at
/// least this much faster than the baseline-compiled one.
const GATE_ISA_DIGEST: f64 = 1.5;
/// Sort-leaf row size: about one leaf segment of the `bulk` workload's
/// quicksort (2^20 elements over 16 tasks).
const SORT_LEAF_N: usize = 1 << 16;

#[derive(Serialize)]
struct KernelRow {
    /// Labels the row in `bench-diff`'s flattened paths.
    name: &'static str,
    /// What the two timed paths are.
    scalar_path: &'static str,
    wide_path: &'static str,
    scalar_ns_per_elem: f64,
    wide_ns_per_elem: f64,
    /// scalar / wide — the machine-independent number the perf gate
    /// diffs (`speedup` is both a ratio key and higher-is-better).
    speedup: f64,
}

#[derive(Serialize)]
struct Report {
    experiment: &'static str,
    context: Vec<(String, String)>,
    kernels: Vec<KernelRow>,
    /// Sim-consumable block, shaped for `CpuSim::with_calibration`.
    calibration: KernelCalibration,
}

/// Best-of-`reps` wall time of `f`, in ns per element.
fn time_ns_per_elem(n: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm up: faults pages, primes caches and branch predictors
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e9 / n as f64);
    }
    best
}

fn scrambled_u32(n: usize) -> Vec<u32> {
    (0..n as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect()
}

/// Best-of-`9 * reps` ns per element of `slice::sort_unstable` and of
/// `seq::introsort` on [`SORT_LEAF_N`] random u64. Every rep sorts a
/// fresh input (a repeated one would train the branch predictor), and
/// both sides sort the same input back to back, alternating which goes
/// first, so host noise hits them alike. A rep takes about 2 ms, so the
/// row affords more of them than the others: on a shared 2-core host, 27 reps
/// often found no quiet window and the ratio read up to 1.6× where 81
/// read 1.4×.
fn time_sort_leaf(reps: usize) -> (f64, f64) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut input = vec![0u64; SORT_LEAF_N];
    let mut buf = input.clone();
    let mut best = [f64::INFINITY; 2];
    for rep in 0..=9 * reps {
        for x in input.iter_mut() {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *x = state;
        }
        for side in [rep % 2, 1 - rep % 2] {
            buf.copy_from_slice(&input);
            let t = Instant::now();
            if side == 0 {
                black_box(&mut buf).sort_unstable();
            } else {
                pstl::seq::introsort(black_box(&mut buf), &|a: &u64, b: &u64| a.cmp(b));
            }
            let ns = t.elapsed().as_secs_f64() * 1e9 / SORT_LEAF_N as f64;
            // Rep 0 is the warm-up.
            if rep > 0 {
                best[side] = best[side].min(ns);
            }
        }
    }
    (best[0], best[1])
}

/// The digest with the same closures as [`stream::digest`], through the
/// baseline-compiled oracle instead of the dispatched entry point.
fn digest_baseline(r: &Record) -> u64 {
    kernel::reduce::fold_map_scalar(
        &r.payload,
        &|x: &u32| mix(u64::from(*x) ^ r.key),
        &|a: u64, b: u64| a.wrapping_add(b),
    )
    .unwrap_or(0)
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let n: usize = std::env::var("PSTL_CAL_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1 << 20);
    let reps: usize = std::env::var("PSTL_CAL_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(9);

    // --- reduce: f64 sum -------------------------------------------------
    let f64s: Vec<f64> = (0..n).map(|i| (i % 1021) as f64 * 0.5).collect();
    let reduce_scalar = time_ns_per_elem(n, reps, || {
        black_box(kernel::reduce::fold_map_scalar(
            black_box(&f64s),
            &|x: &f64| *x,
            &|a, b| a + b,
        ));
    });
    let reduce_wide = time_ns_per_elem(n, reps, || {
        black_box(kernel::reduce::fold_map_wide(
            black_box(&f64s),
            &|x: &f64| *x,
            &|a, b| a + b,
        ));
    });

    // --- reduce, u32 row: 8 lanes per 256-bit vector instead of 4. The
    // simulator picks this row for 4-byte dtypes. Wrapping add: the sum
    // of a scrambled u32 ramp overflows by design. -------------------------
    let u32s = scrambled_u32(n);
    let reduce_scalar_u32 = time_ns_per_elem(n, reps, || {
        black_box(kernel::reduce::fold_map_scalar(
            black_box(&u32s),
            &|x: &u32| *x,
            &|a: u32, b: u32| a.wrapping_add(b),
        ));
    });
    let reduce_wide_u32 = time_ns_per_elem(n, reps, || {
        black_box(kernel::reduce::fold_map_wide(
            black_box(&u32s),
            &|x: &u32| *x,
            &|a: u32, b: u32| a.wrapping_add(b),
        ));
    });

    // --- find: matchless scan (every index evaluated on both paths) ------
    let absent = &|i: usize| u32s[i] == u32::MAX; // never true: scramble is even
    let find_scalar = time_ns_per_elem(n, reps, || {
        black_box(kernel::compare::find_first_in_scalar(0..n, absent));
    });
    let find_wide = time_ns_per_elem(n, reps, || {
        black_box(kernel::compare::find_first_in_wide(0..n, absent));
    });

    // --- find, f64 row: the dtype the paper's CPU experiments scan. ------
    let absent_f64 = &|i: usize| f64s[i] < 0.0; // never true: ramp is >= 0
    let find_scalar_f64 = time_ns_per_elem(n, reps, || {
        black_box(kernel::compare::find_first_in_scalar(0..n, absent_f64));
    });
    let find_wide_f64 = time_ns_per_elem(n, reps, || {
        black_box(kernel::compare::find_first_in_wide(0..n, absent_f64));
    });

    // --- scan: the phase-1 fold both scan engines run per chunk. f64
    // like the paper's k1: integer folds autovectorize even unreassociated,
    // so floats are where the tree fold actually matters. ------------------
    let scan_scalar = time_ns_per_elem(n, reps, || {
        black_box(kernel::scan::fold_range_scalar(
            0..n,
            &|i| f64s[i],
            &|a: &f64, b: &f64| a + b,
        ));
    });
    let scan_wide = time_ns_per_elem(n, reps, || {
        black_box(kernel::scan::fold_range_wide(
            0..n,
            &|i| f64s[i],
            &|a: &f64, b: &f64| a + b,
        ));
    });

    // --- sort: the comparison leaf vs. std's unstable sort -------------
    let (sort_std, sort_leaf) = time_sort_leaf(reps);

    // --- digest: the `ext_stream` probe tile, baseline vs. dispatched.
    // A tile takes about 0.1 ms, so the row affords 9× the reps. --------
    let records = stream::probe_records();
    let words = records.len() * records[0].payload.len();
    let digest_all = |f: fn(&Record) -> u64| {
        records
            .iter()
            .fold(0u64, |acc, r| acc.wrapping_add(f(black_box(r))))
    };
    assert_eq!(
        digest_all(digest_baseline),
        digest_all(stream::digest),
        "the dispatched digest disagrees with the baseline one"
    );
    let digest_base = time_ns_per_elem(words, 9 * reps, || {
        black_box(digest_all(digest_baseline));
    });
    let digest_isa = time_ns_per_elem(words, 9 * reps, || {
        black_box(digest_all(stream::digest));
    });

    let calibration = KernelCalibration {
        reduce_scalar_ns: reduce_scalar,
        reduce_wide_ns: reduce_wide,
        reduce_scalar_ns_u32: reduce_scalar_u32,
        reduce_wide_ns_u32: reduce_wide_u32,
        find_scalar_ns: find_scalar,
        find_wide_ns: find_wide,
        find_scalar_ns_f64: find_scalar_f64,
        find_wide_ns_f64: find_wide_f64,
        scan_scalar_ns: scan_scalar,
        scan_wide_ns: scan_wide,
    };

    let rows = vec![
        KernelRow {
            name: "reduce_f64_sum",
            scalar_path: "fold_map_scalar",
            wide_path: "fold_map_wide",
            scalar_ns_per_elem: reduce_scalar,
            wide_ns_per_elem: reduce_wide,
            speedup: calibration.reduce_speedup(),
        },
        KernelRow {
            name: "reduce_u32_sum",
            scalar_path: "fold_map_scalar",
            wide_path: "fold_map_wide",
            scalar_ns_per_elem: reduce_scalar_u32,
            wide_ns_per_elem: reduce_wide_u32,
            speedup: calibration.reduce_speedup_for(pstl_sim::DType::I32),
        },
        KernelRow {
            name: "find_u32_absent",
            scalar_path: "find_first_in_scalar",
            wide_path: "find_first_in_wide",
            scalar_ns_per_elem: find_scalar,
            wide_ns_per_elem: find_wide,
            speedup: calibration.find_speedup(),
        },
        KernelRow {
            name: "find_f64_absent",
            scalar_path: "find_first_in_scalar",
            wide_path: "find_first_in_wide",
            scalar_ns_per_elem: find_scalar_f64,
            wide_ns_per_elem: find_wide_f64,
            speedup: calibration.find_speedup_for(pstl_sim::DType::F64),
        },
        KernelRow {
            name: "scan_fold_f64",
            scalar_path: "fold_range_scalar",
            wide_path: "fold_range_wide",
            scalar_ns_per_elem: scan_scalar,
            wide_ns_per_elem: scan_wide,
            speedup: calibration.scan_speedup(),
        },
        KernelRow {
            name: "sort_u64_leaf",
            scalar_path: "slice::sort_unstable",
            wide_path: "seq::introsort",
            scalar_ns_per_elem: sort_std,
            wide_ns_per_elem: sort_leaf,
            speedup: sort_std / sort_leaf,
        },
        KernelRow {
            name: "digest_u32x64",
            scalar_path: "fold_map_scalar",
            wide_path: "fold_map",
            scalar_ns_per_elem: digest_base,
            wide_ns_per_elem: digest_isa,
            speedup: digest_base / digest_isa,
        },
    ];

    println!(
        "kernel calibration (n = {n}, best of {reps}, simd default dispatch: {}, kernel isa: {})",
        if kernel::WIDE_DEFAULT {
            "wide"
        } else {
            "scalar"
        },
        isa::level()
    );
    println!(
        "  {:<16} {:>12} {:>12} {:>9}",
        "kernel", "scalar ns/el", "wide ns/el", "speedup"
    );
    for r in &rows {
        println!(
            "  {:<16} {:>12.4} {:>12.4} {:>8.2}x",
            r.name, r.scalar_ns_per_elem, r.wide_ns_per_elem, r.speedup
        );
    }

    // Show what the calibration does to the model: measured speedups
    // replace the theoretical 256-bit lane count for vectorizing
    // backends (reduce) and give Find a compute-path speedup.
    let machine = pstl_sim::machine::mach_a();
    let plain = CpuSim::new(machine.clone(), Backend::GccTbb);
    let cal = CpuSim::new(machine, Backend::GccTbb).with_calibration(calibration.clone());
    for kind in [Kernel::Reduce, Kernel::Find] {
        let p = RunParams::new(kind, 1 << 24, 4);
        println!(
            "  sim {:?} (n=2^24, t=4): {:.3} ms theoretical -> {:.3} ms calibrated",
            kind,
            plain.time(&p) * 1e3,
            cal.time(&p) * 1e3
        );
    }

    let report = Report {
        experiment: "kernel_calibrate",
        context: vec![
            ("n".into(), n.to_string()),
            ("reps".into(), reps.to_string()),
            ("simd_default_wide".into(), kernel::WIDE_DEFAULT.to_string()),
            ("kernel_isa".into(), isa::level().to_string()),
        ],
        kernels: rows,
        calibration,
    };

    let path = results_dir().join("BENCH_kernels.json");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match serde_json::to_string_pretty(&report) {
        Ok(json) => match std::fs::write(&path, json + "\n") {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        },
        Err(e) => eprintln!("could not serialize report: {e}"),
    }

    if check {
        let mut failed = false;
        let mut gate = |label: &str, got: f64, want: f64| {
            let ok = got >= want;
            println!(
                "  gate {label}: {got:.2}x (need >= {want:.2}x) {}",
                if ok { "ok" } else { "FAIL" }
            );
            failed |= !ok;
        };
        println!("acceptance gates (--check):");
        gate(
            "reduce wide<=0.7x scalar",
            report.calibration.reduce_speedup(),
            GATE_WIDE_SPEEDUP,
        );
        gate(
            "find   wide<=0.7x scalar",
            report.calibration.find_speedup(),
            GATE_WIDE_SPEEDUP,
        );
        gate(
            "sort   introsort<=1.5x sort_unstable",
            sort_std / sort_leaf,
            GATE_SORT_LEAF,
        );
        if isa::level() >= Level::V3 {
            gate(
                "digest dispatched>=1.5x baseline",
                digest_base / digest_isa,
                GATE_ISA_DIGEST,
            );
        } else {
            println!("  gate digest dispatched>=1.5x baseline: n/a (baseline-only host)");
        }
        if failed {
            std::process::exit(1);
        }
    }
}
