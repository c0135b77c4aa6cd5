//! Tracing-overhead smoke gate: bounds the cost of always-on tracing.
//!
//! Runs a k1-style uniform `for_each` on the work-stealing pool and
//! records the minimum iteration time to
//! `target/trace_overhead_{off,on}.json`, keyed on whether the binary
//! was built with the `trace` feature. CI runs it twice — plain first,
//! then with `--features trace` — and the second run compares the two
//! files, failing (exit 1) if tracing-on exceeds tracing-off by more
//! than the allowed factor (default 1.15, override with
//! `PSTL_TRACE_OVERHEAD_LIMIT`). Min-of-iterations is compared, not the
//! mean, so one descheduled worker does not fail the gate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pstl::{for_each, ExecutionPolicy, ParConfig};
use pstl_executor::{build_pool, Discipline};

/// Elements per iteration; grain 2048 → 2048 tasks per run, enough
/// that per-task tracing cost would show if it were significant.
const N: usize = 1 << 22;
const GRAIN: usize = 2048;
const THREADS: usize = 4;
const WARMUP: usize = 3;
const ITERS: usize = 15;

fn out_dir() -> std::path::PathBuf {
    std::env::var("PSTL_TRACE_OVERHEAD_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("target"))
}

fn limit() -> f64 {
    std::env::var("PSTL_TRACE_OVERHEAD_LIMIT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.15)
}

fn best_iteration() -> Duration {
    let pool = build_pool(Discipline::WorkStealing, THREADS);
    let policy = ExecutionPolicy::par_with(Arc::clone(&pool), ParConfig::with_grain(GRAIN));
    let data = vec![1u32; N];
    let run = || {
        let start = Instant::now();
        for_each(&policy, &data, |&w| {
            std::hint::black_box(w.wrapping_mul(1664525).wrapping_add(1013904223));
        });
        start.elapsed()
    };
    for _ in 0..WARMUP {
        run();
    }
    (0..ITERS).map(|_| run()).min().expect("ITERS > 0")
}

fn main() {
    let traced = pstl_trace::enabled();
    let key = if traced { "on" } else { "off" };
    let best = best_iteration();
    let best_ns = best.as_nanos() as u64;
    println!("tracing {key}: best of {ITERS} iterations = {best_ns} ns");

    let dir = out_dir();
    let mine = dir.join(format!("trace_overhead_{key}.json"));
    let body = format!("{{\n  \"tracing\": \"{key}\",\n  \"best_ns\": {best_ns}\n}}\n");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&mine, body)) {
        eprintln!("could not write {}: {e}", mine.display());
        std::process::exit(2);
    }
    println!("wrote {}", mine.display());

    if !traced {
        return; // baseline half; the trace-built run does the comparison
    }
    let off_path = dir.join("trace_overhead_off.json");
    let off = match std::fs::read_to_string(&off_path) {
        Ok(s) => s,
        Err(_) => {
            println!(
                "no {} — run the plain-built binary first for the comparison",
                off_path.display()
            );
            return;
        }
    };
    let off_ns = serde_json::from_str::<serde_json::Value>(&off)
        .ok()
        .and_then(|v| v["best_ns"].as_u64())
        .unwrap_or(0);
    if off_ns == 0 {
        eprintln!("malformed {}", off_path.display());
        std::process::exit(2);
    }
    let ratio = best_ns as f64 / off_ns as f64;
    let limit = limit();
    println!("tracing-on / tracing-off = {ratio:.3} (limit {limit:.2})");
    if ratio > limit {
        eprintln!("tracing overhead {ratio:.3}x exceeds the {limit:.2}x budget");
        std::process::exit(1);
    }
    println!("tracing overhead within budget");
}
