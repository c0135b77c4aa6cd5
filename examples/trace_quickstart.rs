//! Minimal end-to-end tracing walkthrough: build a work-stealing pool
//! and a fork-join pool, run a parallel reduction on each, and write one
//! Chrome trace-event JSON per pool.
//!
//! ```text
//! cargo run --release --features trace --example trace_quickstart
//! ```
//!
//! Open the files it prints in `chrome://tracing` or
//! <https://ui.perfetto.dev>: each worker appears as its own track, with
//! task spans nested inside the caller's region span, and steal markers
//! on the work-stealing timeline.

use std::sync::Arc;

use pstl::{reduce, ExecutionPolicy};
use pstl_executor::{build_pool, Discipline};
use pstl_trace::{analyze, chrome};

fn main() {
    if !pstl_trace::enabled() {
        eprintln!(
            "note: event recording is compiled out; rerun with \
             `--features trace` to capture a timeline"
        );
    }
    let threads = std::env::var("PSTL_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let n = 1usize << 20;
    let data: Vec<f64> = (0..n).map(|i| (i % 1024) as f64).collect();
    let expected: f64 = data.iter().sum();

    for discipline in [Discipline::WorkStealing, Discipline::ForkJoin] {
        let pool = build_pool(discipline, threads);
        let policy = ExecutionPolicy::par(Arc::clone(&pool));

        // Warm up (spawns the worker threads), then discard those events
        // so the exported timeline holds exactly one measured call.
        reduce(&policy, &data, 0.0, |a, b| a + b);
        let _ = pool.take_trace();

        let total = reduce(&policy, &data, 0.0, |a, b| a + b);
        assert_eq!(total, expected);

        let log = pool
            .take_trace()
            .expect("every pool discipline supports tracing");
        let a = analyze::analyze_log(&log);
        println!(
            "{}: {} events on {} tracks, span {:.2} ms",
            log.discipline,
            log.event_count(),
            log.workers.len(),
            a.span_ns as f64 / 1e6
        );
        for w in &a.workers {
            println!(
                "  {:<10} {:>5} events, {:>4} tasks, util {:>5.1}%",
                w.label,
                w.events,
                w.tasks,
                w.utilization * 100.0
            );
        }

        let path = format!("target/trace_quickstart_{}.trace.json", log.discipline);
        std::fs::write(&path, chrome::trace_json(&log)).expect("write trace JSON");
        println!("  wrote {path}");
    }
}
