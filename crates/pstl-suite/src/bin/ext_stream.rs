//! Extension experiment: streaming pipelines and farms on the shared
//! runtime (see `experiments::stream`). Streams ≥1M items through a
//! word-count farm and through an image
//! pipeline with ordered and unordered farms, times the `jobs` tile as
//! a sequential map and as farm(1) and farm(2), then writes the
//! `BENCH_stream.json` baseline consumed by the `bench-diff` perf gate
//! (`--ratios-only` compares the `gates` object).

use pstl_suite::experiments::stream;
use pstl_suite::output::results_dir;

fn main() {
    let doc = stream::build();

    println!(
        "streaming rows ({} items each, {} threads, farm x{}, capacity {}; \
         probe rows {} records, {} threads):\n",
        doc.items,
        doc.threads,
        doc.farm_replicas,
        doc.capacity,
        stream::PROBE_RECORDS,
        stream::PROBE_THREADS
    );
    println!(
        "{:<18} {:>8} {:>11} {:>12} {:>11} {:>18}",
        "row", "ordered", "elapsed us", "M items/s", "push waits", "checksum"
    );
    for row in &doc.rows {
        println!(
            "{:<18} {:>8} {:>11.1} {:>12.2} {:>11} {:>18x}",
            row.name,
            row.ordered,
            row.elapsed_ns as f64 / 1e3,
            row.throughput_items_per_sec / 1e6,
            row.push_waits,
            row.checksum
        );
        assert_eq!(row.produced, row.consumed, "flow imbalance in {}", row.name);
        assert_eq!(row.dropped, 0, "clean run dropped items in {}", row.name);
    }

    println!("\ngates (machine-independent, diffed by CI):");
    println!(
        "  ordered_farm_makespan_ratio {:.3}  (committed baseline <= 1.5)",
        doc.gates.ordered_farm_makespan_ratio
    );
    println!(
        "  farm2_over_seq_ratio        {:.3}  (committed baseline <= 1.5)",
        doc.gates.farm2_over_seq_ratio
    );

    let path = results_dir().join("BENCH_stream.json");
    match doc.write_json(&path) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
