//! **Extension experiment** (not in the paper): execution profiles of a
//! balanced and a deliberately skewed `for_each` on the real pools.
//!
//! The paper's tables report *averages* (run time, counter totals); this
//! experiment exercises the trace-analytics engine instead, attaching
//! the streaming histograms and the trace analyzer to each measurement:
//!
//! * per-task duration percentiles (p50/p99/p999) from the executor's
//!   lock-free log-bucketed histograms ([`pstl_harness::LatencyDelta`]);
//! * utilization, critical path, and bottleneck classification from the
//!   drained event trace ([`pstl_harness::ProfileSummary`]).
//!
//! The four measurements are chosen so the analytics have something to
//! disagree about: a uniform k1-style kernel (one fused multiply-add per
//! element) under static partitioning is balanced; a triangularly skewed
//! kernel under the same static plan is imbalanced; the same skew under
//! the guided partitioner self-schedules back toward balance (and feeds
//! the claim-size histogram from the shared cursor); and the fork-join
//! pool provides a second discipline on the uniform kernel.
//!
//! The committed baseline `results/BENCH_profile.json` is regenerated in
//! CI (with `--features trace`) and diffed against by the `bench-diff`
//! perf gate.

use std::sync::Arc;
use std::time::Duration;

use pstl::{for_each, ExecutionPolicy, ParConfig, Partitioner};
use pstl_executor::{build_pool, Discipline};
use pstl_harness::{Bench, BenchConfig, Measurement, Report};
use serde_json::Value;

use crate::gate::{items, labels, Gates, Need};
use crate::output::results_dir;

/// Elements per iteration: small enough for CI, large enough that the
/// pools split into hundreds of tasks per run.
pub const N: usize = 1 << 20;

/// Pool threads.
pub const THREADS: usize = 4;

/// Chunk grain: `N / GRAIN` = 256 planned tasks per run.
pub const GRAIN: usize = 4 * 1024;

/// Skew rounds: the heaviest element spins this many times more than
/// the lightest (a triangular ramp over the index space).
pub const SKEW: u32 = 32;

/// The measured (pool, workload) points, in report order.
pub const POINTS: [(&str, Discipline, &str, Partitioner, bool); 4] = [
    (
        "ws",
        Discipline::WorkStealing,
        "uniform_k1",
        Partitioner::Static,
        false,
    ),
    (
        "ws",
        Discipline::WorkStealing,
        "skewed",
        Partitioner::Static,
        true,
    ),
    (
        "ws",
        Discipline::WorkStealing,
        "skewed_guided",
        Partitioner::Guided,
        true,
    ),
    (
        "fj",
        Discipline::ForkJoin,
        "uniform_k1",
        Partitioner::Static,
        false,
    ),
];

/// Per-element spin weights: `1` everywhere for the uniform kernel, a
/// triangular ramp `1..=SKEW` for the skewed one, so under a static
/// plan the last-placed chunks carry ~`SKEW`× the work of the first.
pub fn weights(skewed: bool) -> Vec<u32> {
    (0..N)
        .map(|i| {
            if skewed {
                1 + (i as u64 * (SKEW as u64 - 1) / (N as u64 - 1)) as u32
            } else {
                1
            }
        })
        .collect()
}

/// The kernel: `w` rounds of an LCG step — k1-style arithmetic with the
/// iteration count carrying the skew.
#[inline]
fn spin(w: u32) {
    let mut acc = w;
    for _ in 0..w {
        acc = acc.wrapping_mul(1664525).wrapping_add(1013904223);
    }
    std::hint::black_box(acc);
}

/// CI-friendly default loop: enough iterations for stable percentiles
/// without a multi-second run per point.
pub fn default_config() -> BenchConfig {
    BenchConfig {
        min_time: Duration::from_millis(40),
        warmup_iterations: 1,
        min_iterations: 3,
        max_iterations: 200,
    }
}

/// Measure one (pool, workload) point with histograms and profile.
pub fn measure_point(
    pool_label: &str,
    discipline: Discipline,
    workload: &str,
    partitioner: Partitioner,
    skewed: bool,
    config: BenchConfig,
) -> Measurement {
    let pool = build_pool(discipline, THREADS);
    let policy = ExecutionPolicy::par_with(
        Arc::clone(&pool),
        ParConfig::with_grain(GRAIN).partitioner(partitioner),
    );
    let data = weights(skewed);
    Bench::new(format!("profile/{pool_label}/{workload}/threads={THREADS}"))
        .config(config)
        .items_per_iter(N as u64)
        .metrics_source(Arc::clone(&pool))
        .profile()
        .run(|| for_each(&policy, &data, |&w| spin(w)))
}

/// The full report with a custom loop config (tests use a quick one).
pub fn build_with(config: BenchConfig) -> Report {
    let mut report = Report::new("ext_profile")
        .context("threads", THREADS.to_string())
        .context("n", N.to_string())
        .context("grain", GRAIN.to_string())
        .context("skew", SKEW.to_string())
        .context("trace", pstl_trace::enabled().to_string())
        .context("kernel_isa", pstl::kernel::isa::level().to_string());
    for &(pool_label, discipline, workload, partitioner, skewed) in &POINTS {
        report.push(measure_point(
            pool_label,
            discipline,
            workload,
            partitioner,
            skewed,
            config.clone(),
        ));
    }
    report
}

/// The `BENCH_profile.json` report with the default loop config.
pub fn build() -> Report {
    build_with(default_config())
}

/// `suite ext_profile`: measure, print the table plus each point's
/// latency percentiles and trace profile, and write
/// `BENCH_profile.json`.
pub fn run() -> std::io::Result<()> {
    if !pstl_trace::enabled() {
        eprintln!(
            "warning: built without the `trace` feature — latency histograms and \
             profiles will be empty; rebuild with `--features trace`"
        );
    }
    let report = build();
    print!("{}", pstl_harness::print_table(&report.benchmarks));

    println!("\nlatency percentiles and trace profiles:");
    for m in &report.benchmarks {
        println!("  {}", m.name);
        if let Some(lat) = &m.latency {
            let hists = [
                ("task duration", &lat.task_duration_ns),
                ("steal latency", &lat.steal_latency_ns),
                ("claim size", &lat.claim_size),
            ];
            for (what, h) in hists.iter().filter_map(|(w, h)| Some((w, h.as_ref()?))) {
                let (p50, p99, count) = (h.p50, h.p99, h.count);
                println!("    {what:<14} p50 {p50:>8}, p99 {p99:>8} ({count} samples)");
            }
        }
        if let Some(p) = &m.profile {
            println!(
                "    profile: util {:.2} [{:.2}..{:.2}], critical path {:.3} ms \
                 ({:.0}% of span, {} tasks), serial {:.0}%, bottleneck: {}",
                p.utilization,
                p.util_min,
                p.util_max,
                p.critical_path_ns as f64 / 1e6,
                p.critical_path_fraction * 100.0,
                p.critical_path_tasks,
                p.serial_fraction * 100.0,
                p.bottleneck
            );
        }
        if m.latency.is_none() && m.profile.is_none() {
            println!("    (no trace data — build with `--features trace`)");
        }
    }
    let path = results_dir().join("BENCH_profile.json");
    report.write_json(&path)?;
    println!("\nwrote {}", path.display());
    Ok(())
}

const BOTTLENECKS: [&str; 4] = ["balanced", "imbalance", "scheduling_overhead", "serialized"];

/// The gates on `BENCH_profile.json`: the four points, one of them
/// skewed, each with ordered task-duration percentiles and a trace
/// profile whose utilization is a fraction and whose bottleneck is a
/// known class. Without the `trace` feature the latency and profile
/// sections are empty and these gates fail.
pub fn check(doc: &Value, _committed: &Value, g: &mut Gates) {
    use Need::*;
    g.text(doc, "/experiment", "ext_profile");
    let benchmarks = items(&doc["benchmarks"]);
    g.gate("/benchmarks length", Some(benchmarks.len()), Equal, 4);
    let names = labels(&doc["benchmarks"], "name");
    let skewed = names.iter().filter(|n| n.contains("skewed")).count();
    g.gate("skewed /benchmarks", Some(skewed), AtLeast, 1);
    for (i, m) in benchmarks.iter().enumerate() {
        let td = &m["latency"]["task_duration_ns"];
        let at = format!("/benchmarks/{i}/latency/task_duration_ns");
        g.int(doc, &format!("{at}/p50"), Above, 0);
        g.int(doc, &format!("{at}/p99"), AtLeast, td["p50"].as_u64());
        g.int(doc, &format!("{at}/p999"), AtLeast, td["p99"].as_u64());
        let at = format!("/benchmarks/{i}/profile");
        g.num(doc, &format!("{at}/utilization"), AtLeast, 0.0);
        g.num(doc, &format!("{at}/utilization"), AtMost, 1.0 + 1e-9);
        let bottleneck = m["profile"]["bottleneck"].as_str().unwrap_or("missing");
        let known = Some(BOTTLENECKS.contains(&bottleneck));
        g.gate(
            &format!("{at}/bottleneck `{bottleneck}` known"),
            known,
            Equal,
            true,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::serial;

    #[test]
    fn weights_are_uniform_or_triangular() {
        let u = weights(false);
        assert!(u.iter().all(|&w| w == 1));
        let s = weights(true);
        assert_eq!(s[0], 1);
        assert_eq!(s[N - 1], SKEW);
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "ramp is monotone");
    }

    #[test]
    fn report_has_expected_shape() {
        let _turn = serial();
        let report = build_with(BenchConfig::quick());
        assert_eq!(report.experiment, "ext_profile");
        assert_eq!(report.benchmarks.len(), POINTS.len());
        for (m, &(pool, _, workload, ..)) in report.benchmarks.iter().zip(&POINTS) {
            assert!(
                m.name.contains(pool) && m.name.contains(workload),
                "name {}",
                m.name
            );
            assert!(m.iterations >= 2);
            if pstl_trace::enabled() {
                let lat = m.latency.as_ref().expect("trace build records latencies");
                let td = lat
                    .task_duration_ns
                    .as_ref()
                    .expect("every pool times its tasks");
                assert!(td.count > 0 && td.p50 <= td.p99 && td.p99 <= td.p999);
                let prof = m.profile.as_ref().expect("trace build yields a profile");
                assert!(prof.tasks > 0 && prof.span_ns > 0);
            } else {
                assert!(m.latency.is_none() && m.profile.is_none());
            }
        }
    }

    #[test]
    fn guided_claims_feed_the_claim_size_histogram() {
        if !pstl_trace::enabled() {
            return; // nothing recorded without the trace feature
        }
        let _turn = serial();
        let m = measure_point(
            "ws",
            Discipline::WorkStealing,
            "skewed_guided",
            Partitioner::Guided,
            true,
            BenchConfig::quick(),
        );
        let lat = m.latency.expect("trace build records latencies");
        let cs = lat.claim_size.expect("guided cursor records claim sizes");
        assert!(cs.count > 0);
        assert!(
            cs.max <= N as u64,
            "a claim cannot exceed the range ({})",
            cs.max
        );
    }
}
