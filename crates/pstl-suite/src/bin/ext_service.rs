//! Extension experiment: the multi-tenant job service under offered
//! load (see `experiments::service`). Calibrates service capacity with
//! a closed loop, sweeps an open loop at 0.25×/1×/2× of it with a mixed
//! priority population, measures tiny-job batching, and writes the
//! `BENCH_service.json` baseline consumed by the `bench-diff` perf
//! gate (`--ratios-only` compares the `gates` object).

use pstl_suite::experiments::service;
use pstl_suite::output::results_dir;

fn main() {
    if !pstl_executor::fault::enabled() {
        eprintln!(
            "note: built without the `fault` feature — the fault_1x retry row \
             is omitted (this is the committed-baseline shape)"
        );
    }
    let doc = service::build();

    println!(
        "service capacity (closed loop, {} threads): {:.0} jobs/s\n",
        doc.threads, doc.capacity_per_sec
    );
    println!(
        "{:<16} {:>7} {:>9} {:>9} {:>9} {:>7} {:>10} {:>12} {:>12}",
        "row",
        "load",
        "submitted",
        "completed",
        "refused",
        "retried",
        "caller-run",
        "high p99 ms",
        "goodput/s"
    );
    for row in &doc.rows {
        let refused =
            row.report.rejected + row.report.per_class.iter().map(|c| c.shed).sum::<u64>();
        let high_p99 = row
            .report
            .per_class
            .iter()
            .find(|c| c.class == "high")
            .and_then(|c| c.latency.as_ref())
            .map(|l| format!("{:.3}", l.p99_ns as f64 / 1e6))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<16} {:>6.2}x {:>9} {:>9} {:>9} {:>7} {:>10} {:>12} {:>12.0}",
            row.name,
            row.load_factor,
            row.report.submitted,
            row.stats.completed,
            refused,
            row.retried,
            row.stats.caller_runs,
            high_p99,
            row.report.completed_per_sec
        );
        assert!(
            row.accounting_balanced,
            "accounting law violated in row {}",
            row.name
        );
    }

    println!("\ngates (machine-independent, diffed by CI):");
    println!("  high_p99_ratio         {:.3}", doc.gates.high_p99_ratio);
    println!(
        "  low_refusal_fraction   {:.3}",
        doc.gates.low_refusal_fraction
    );
    println!(
        "  high_loss_fraction     {:.3}",
        doc.gates.high_loss_fraction
    );
    println!(
        "  batch_throughput_ratio {:.3}",
        doc.gates.batch_throughput_ratio
    );

    let path = results_dir().join("BENCH_service.json");
    match doc.write_json(&path) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
