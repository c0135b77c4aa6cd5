//! `suite kernel_calibrate`: measure the kernel layer's dispatched
//! entry points against their scalar oracles on this host and write the
//! `results/BENCH_kernels.json` baseline.
//!
//! Every row times a dispatched `pstl::kernel` entry point, which runs
//! the clone for this CPU's `kernel::isa::level()`, against the
//! baseline-compiled `*_scalar` oracle on the same input:
//!
//! * `reduce` — `fold_map` of an f64 sum (the tree body) and of a u32
//!   wrapping sum (the left fold),
//! * `find` — `find_first_in`'s masked 32-lane block scan on a matchless
//!   predicate (the worst case: every index evaluated), on u32 and f64,
//! * `scan` — `fold_range`, the phase-1 range fold both scan engines
//!   share, on f64,
//! * `sort` — the comparison leaf every sort bottoms out in
//!   (`seq::introsort`) vs. `slice::sort_unstable` on 2^16 random u64,
//!   on 1024 random `(u64, u64)` (the `jobs` tail; both take the leaf's
//!   sorting networks) and on 4096 random `String`s (insertion sort),
//! * `digest` — the `jobs`/`ext_stream` farm body (a `fold_map` over 64
//!   `u32`, each mixed with the record's key) through `fold_map_scalar`
//!   vs. the dispatched `fold_map`.
//!
//! The emitted JSON carries three things: raw ns-per-element numbers
//! (machine-dependent, ignored by the perf gate), `speedup` ratios
//! (machine-independent, diffed by `bench-diff --ratios-only`), and a
//! [`pstl_sim::KernelCalibration`] block that `CpuSim::with_calibration`
//! consumes to replace the backend models' theoretical lane speedups
//! with these measured ones. Its `*_wide_ns` fields hold the dispatched
//! rows.
//!
//! `PSTL_CAL_N` (default 2^20) and `PSTL_CAL_REPS` (default 9) set the
//! input size and the repetitions. [`check`] holds the acceptance gates:
//! the dispatched f64 reduce and u32 find ≤ 0.7× their oracle's time
//! (speedup ≥ 1/0.7), every dispatched row ≤ 1.1× its oracle's time,
//! the u64 sort leaf ≤ 1.25× the time of `slice::sort_unstable`, and,
//! on a host at `x86-64-v3` or above, the dispatched digest ≥ 1.5× the
//! baseline one (`n/a` on a baseline-only host).

use std::hint::black_box;
use std::time::Instant;

use pstl::kernel::isa::{self, Level};
use pstl::kernel::{compare, reduce, scan};
use pstl_sim::{Backend, CpuSim, Kernel, KernelCalibration, RunParams};
use serde::Serialize;
use serde_json::Value;

use super::paired;
use super::stream::{self, mix, Record};
use crate::gate::{entry, items, Gates, Need};
use crate::output::write_json;

/// The dispatched f64 reduce and u32 find must be at least this much
/// faster than their oracles (time ratio ≤ 0.7 ⇒ speedup ≥ 1/0.7).
const GATE_DISPATCH_SPEEDUP: f64 = 1.0 / 0.7;
/// No dispatched row may take more than 1.1× its oracle's time.
const GATE_DISPATCH_FLOOR: f64 = 1.0 / 1.1;
/// The u64 sort leaf may take at most 1.25× the time of
/// `slice::sort_unstable` (time ratio ≤ 1.25 ⇒ speedup ≥ 1/1.25).
const GATE_SORT_LEAF: f64 = 1.0 / 1.25;
/// On a host at `x86-64-v3` or above, the dispatched digest must be at
/// least this much faster than the baseline-compiled one.
const GATE_ISA_DIGEST: f64 = 1.5;
/// Sort-leaf row size: about one leaf segment of the `bulk` workload's
/// quicksort (2^20 elements over 16 tasks).
const SORT_LEAF_N: usize = 1 << 16;
/// Pair-leaf row size: the `jobs` workload's sequential tail sorts the
/// 1024 `(u64, u64)` records its farm collected.
const SORT_PAIR_N: usize = 1024;
/// String-leaf row size.
const SORT_STRING_N: usize = 4096;

#[derive(Serialize)]
struct KernelRow {
    /// Labels the row in `bench-diff`'s flattened paths.
    name: &'static str,
    /// What the two timed paths are: the oracle (or std) and the
    /// dispatched entry point (or the sort leaf).
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

fn scrambled_u32(n: usize) -> Vec<u32> {
    (0..n as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect()
}

/// `slice::sort_unstable` (side 0) against `seq::introsort` (side 1) on
/// `n` elements from `gen`, over `9 * reps * SORT_LEAF_N / n` [`paired`]
/// inputs, in ns per element. Every pair sorts a fresh input (a repeated
/// one would train the branch predictor).
fn time_sort_leaf<T: Ord + Clone>(
    n: usize,
    reps: usize,
    mut gen: impl FnMut(&mut u64) -> T,
) -> (f64, f64, f64) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut input: Vec<T> = (0..n).map(|_| gen(&mut state)).collect();
    let mut buf = input.clone();
    paired(9 * reps * SORT_LEAF_N.div_ceil(n), |rep, side| {
        if side == rep % 2 {
            input.iter_mut().for_each(|x| *x = gen(&mut state));
        }
        buf.clone_from_slice(&input);
        let t = Instant::now();
        if side == 0 {
            black_box(&mut buf).sort_unstable();
        } else {
            pstl::seq::introsort(black_box(&mut buf), &|a: &T, b: &T| a.cmp(b));
        }
        t.elapsed().as_secs_f64() * 1e9 / n as f64
    })
}

/// xorshift64: the next pseudo-random word of `state`.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The digest with the same closures as [`stream::digest`], through the
/// baseline-compiled oracle instead of the dispatched entry point.
fn digest_baseline(r: &Record) -> u64 {
    reduce::fold_map_scalar(
        &r.payload,
        &|x: &u32| mix(u64::from(*x) ^ r.key),
        &|a: u64, b: u64| a.wrapping_add(b),
    )
    .unwrap_or(0)
}

/// `oracle` (side 0) against `dispatched` (side 1) over `pairs`
/// [`paired`] calls on `n` elements, in ns per element.
fn both<R>(
    n: usize,
    pairs: usize,
    oracle: impl Fn() -> R,
    dispatched: impl Fn() -> R,
) -> (f64, f64, f64) {
    paired(pairs, |_, side| {
        let t = Instant::now();
        if side == 0 {
            black_box(oracle());
        } else {
            black_box(dispatched());
        }
        t.elapsed().as_secs_f64() * 1e9 / n as f64
    })
}

/// The `(scalar_path, wide_path)` pairs of the rows.
const FOLD: (&str, &str) = ("fold_map_scalar", "fold_map");
const FIND: (&str, &str) = ("find_first_in_scalar", "find_first_in");
const SCAN: (&str, &str) = ("fold_range_scalar", "fold_range");
const SORT: (&str, &str) = ("slice::sort_unstable", "seq::introsort");

/// A row from the medians of each side and of the paired ratios.
fn row(
    name: &'static str,
    (scalar_path, wide_path): (&'static str, &'static str),
    (scalar_ns_per_elem, wide_ns_per_elem, speedup): (f64, f64, f64),
) -> KernelRow {
    KernelRow {
        name,
        scalar_path,
        wide_path,
        scalar_ns_per_elem,
        wide_ns_per_elem,
        speedup,
    }
}

pub fn run() -> std::io::Result<()> {
    let n: usize = std::env::var("PSTL_CAL_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1 << 20);
    let reps: usize = std::env::var("PSTL_CAL_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(9);

    let f64s: Vec<f64> = (0..n).map(|i| (i % 1021) as f64 * 0.5).collect();
    let u32s = scrambled_u32(n);
    // reduce: an f64 sum (dispatch takes the tree) and a u32 wrapping sum
    // (the left fold; the simulator picks this row for 4-byte dtypes).
    let (f64_id, f64_add) = (|x: &f64| *x, |a: f64, b: f64| a + b);
    let (u32_id, u32_add) = (|x: &u32| *x, |a: u32, b: u32| a.wrapping_add(b));
    let reduce_f64 = both(
        n,
        3 * reps,
        || reduce::fold_map_scalar(black_box(&f64s), &f64_id, &f64_add),
        || reduce::fold_map(black_box(&f64s), &f64_id, &f64_add),
    );
    let reduce_u32 = both(
        n,
        3 * reps,
        || reduce::fold_map_scalar(black_box(&u32s), &u32_id, &u32_add),
        || reduce::fold_map(black_box(&u32s), &u32_id, &u32_add),
    );
    // find: a matchless scan, so both evaluate every index; u32 and the
    // f64 the paper's CPU experiments scan.
    let absent = &|i: usize| u32s[i] == u32::MAX; // never true: scramble is even
    let absent_f64 = &|i: usize| f64s[i] < 0.0; // never true: ramp is >= 0
    let find_u32 = both(
        n,
        3 * reps,
        || compare::find_first_in_scalar(0..n, absent),
        || compare::find_first_in(0..n, absent),
    );
    let find_f64 = both(
        n,
        3 * reps,
        || compare::find_first_in_scalar(0..n, absent_f64),
        || compare::find_first_in(0..n, absent_f64),
    );
    // scan: the phase-1 fold both scan engines run per chunk, on f64 like
    // the paper's k1 (integer folds vectorize without the tree).
    let (get, add) = (|i: usize| f64s[i], |a: &f64, b: &f64| a + b);
    let scan_f64 = both(
        n,
        3 * reps,
        || scan::fold_range_scalar(0..n, &get, &add),
        || scan::fold_range(0..n, &get, &add),
    );

    // --- sort: the comparison leaf vs. std's unstable sort, on the
    // `bulk` leaf segment (u64), the `jobs` tail (1024 pairs), and owned
    // strings, which keep insertion sort for small partitions. ----------
    let sort_u64 = time_sort_leaf(SORT_LEAF_N, reps, xorshift);
    let sort_pair = time_sort_leaf(SORT_PAIR_N, reps, |s| (xorshift(s), xorshift(s)));
    let sort_string = time_sort_leaf(SORT_STRING_N, reps, |s| format!("{:x}", xorshift(s)));

    // --- digest: the `ext_stream` probe tile, baseline vs. dispatched.
    // A tile takes about 0.1 ms, so the row affords 3× the pairs. -------
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
    let digest = both(
        words,
        9 * reps,
        || digest_all(digest_baseline),
        || digest_all(stream::digest),
    );

    let calibration = KernelCalibration {
        reduce_scalar_ns: reduce_f64.0,
        reduce_wide_ns: reduce_f64.1,
        reduce_scalar_ns_u32: reduce_u32.0,
        reduce_wide_ns_u32: reduce_u32.1,
        find_scalar_ns: find_u32.0,
        find_wide_ns: find_u32.1,
        find_scalar_ns_f64: find_f64.0,
        find_wide_ns_f64: find_f64.1,
        scan_scalar_ns: scan_f64.0,
        scan_wide_ns: scan_f64.1,
    };

    // Every row but the sort leaf's is a dispatched entry point against
    // its oracle on the same input.
    let rows = vec![
        row("reduce_f64_sum", FOLD, reduce_f64),
        row("reduce_u32_sum", FOLD, reduce_u32),
        row("find_u32_absent", FIND, find_u32),
        row("find_f64_absent", FIND, find_f64),
        row("scan_fold_f64", SCAN, scan_f64),
        row("sort_u64_leaf", SORT, sort_u64),
        row("sort_pair_leaf", SORT, sort_pair),
        row("sort_string_leaf", SORT, sort_string),
        row("digest_u32x64", FOLD, digest),
    ];

    println!(
        "kernel calibration (n = {n}, medians of paired runs, reps = {reps}, kernel isa: {})",
        isa::level()
    );
    println!(
        "  {:<16} {:>12} {:>14} {:>9}",
        "kernel", "scalar ns/el", "dispatch ns/el", "speedup"
    );
    for r in &rows {
        println!(
            "  {:<16} {:>12.4} {:>14.4} {:>8.2}x",
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
            ("kernel_isa".into(), isa::level().to_string()),
        ],
        kernels: rows,
        calibration,
    };

    let path = write_json("BENCH_kernels", &report)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// The acceptance gates on `BENCH_kernels.json` (see the module docs).
/// The digest gate applies when the document's `kernel_isa` is
/// `x86-64-v3` or above.
pub fn check(doc: &Value, _committed: &Value, g: &mut Gates) {
    let speedup = |name: &str| entry(&doc["kernels"], "name", name)["speedup"].as_f64();
    let mut gates = vec![
        ("reduce_f64_sum", GATE_DISPATCH_SPEEDUP),
        ("find_u32_absent", GATE_DISPATCH_SPEEDUP),
        ("sort_u64_leaf", GATE_SORT_LEAF),
    ];
    // Every dispatched row against its oracle (the sort rows time std).
    let dispatched = items(&doc["kernels"])
        .iter()
        .filter(|r| r["wide_path"].as_str() != Some(SORT.1));
    gates.extend(dispatched.map(|r| (r["name"].as_str().unwrap_or("?"), GATE_DISPATCH_FLOOR)));
    let isa = items(&doc["context"])
        .iter()
        .find(|kv| kv[0].as_str() == Some("kernel_isa"));
    let isa = isa.and_then(|kv| kv[1].as_str()).unwrap_or("unknown");
    if [Level::V3, Level::V4].iter().any(|l| l.to_string() == isa) {
        gates.push(("digest_u32x64", GATE_ISA_DIGEST));
    } else {
        println!("  gate digest_u32x64 speedup >= {GATE_ISA_DIGEST}: n/a (kernel isa {isa})");
    }
    for (name, bound) in gates {
        let label = format!("{name} speedup");
        g.gate(&label, speedup(name), Need::AtLeast, bound);
    }
}
