//! **Extension experiment** (not in the paper): streaming pipelines and
//! farms on the shared runtime.
//!
//! The paper measures parallel algorithms over data already resident in
//! memory; this experiment applies the same scheduling lens to *data in
//! flight* through the `pstl::stream` layer. Two workloads, both
//! pushing ≥1M items end to end through bounded channels:
//!
//! * **word count** — lines of text stream through an unordered farm
//!   that splits and counts words, and a sink accumulates the total
//!   (checked against a sequential count of the same lines).
//! * **image pipeline** — fixed-size tiles stream through a farm that
//!   blurs and thresholds each one into a signature. The row pair runs
//!   the same farm unordered and ordered: the ordered variant adds the
//!   sequence-restoring reorder stage, and
//!   `gates.ordered_farm_makespan_ratio` (ordered elapsed over unordered
//!   elapsed) is held at ≤ 1.5 in the committed baseline — order
//!   restoration must stay a modest tax, not a serialization point.
//!
//! A third, small workload is the per-record overhead probe: the
//! 1024-record tile of the end-to-end `jobs` benchmark — each record a
//! key and 64 `u32` words, digested by a `kernel::reduce::fold_map` —
//! run as a sequential `map` and as `source → farm(r) → sink` for
//! `r = 1, 2` on a 2-thread work-stealing pool. It asks what a pipeline
//! costs next to the loop it replaces: `gates.farm2_over_seq_ratio`
//! (farm(2) elapsed over the sequential map) is held at ≤ 1.5 in the
//! committed baseline (≤ 2.0 by [`check`]).
//!
//! The gate is a time *ratio* between rows measured back-to-back on
//! one machine, so it is machine-independent: the committed
//! `results/BENCH_stream.json` is regenerated by `suite ext_stream`
//! and diffed by CI with `bench-diff --ratios-only`. Each row
//! keeps the best of [`Params::reps`] runs (min elapsed), so one noisy
//! sample cannot set a ratio.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pstl::kernel;
use pstl::stream::{Pipeline, StreamStats};
use pstl_executor::{build_pool, Discipline, Executor};
use serde::Serialize;
use serde_json::Value;

use crate::gate::{self, Need};
use crate::output::write_json;

/// Pool threads. The engine runs `min(threads, stages)` cooperative
/// drivers; three covers source + farm + sink with one to spare.
pub const THREADS: usize = 3;

/// Farm replicas in every row.
pub const FARM_REPLICAS: usize = 2;

/// Bounded capacity of every channel edge.
pub const CAPACITY: usize = 64;

/// Bytes per image-pipeline tile.
pub const TILE: usize = 64;

/// Deterministic generator seed: every run streams identical items, so
/// row checksums are comparable across reps, rows, and machines.
pub const SEED: u64 = 0x5EED_CAFE;

/// Records in the overhead probe (one `jobs` tile).
pub const PROBE_RECORDS: usize = 1024;

/// `u32` words in each probe record's payload.
pub const PROBE_WORDS: usize = 64;

/// Pool threads of the overhead probe (the `jobs` pool).
pub const PROBE_THREADS: usize = 2;

/// Workload sizes, parameterized so unit tests can run a quick version.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Items pushed through each pipeline row.
    pub items: u64,
    /// Runs per row; the row keeps the fastest (min elapsed).
    pub reps: u32,
    /// Runs per overhead-probe row (each is one 1024-record tile).
    pub probe_reps: u32,
}

/// The committed-baseline profile: ≥1M items per row.
pub fn default_params() -> Params {
    Params {
        items: 1_000_000,
        reps: 3,
        probe_reps: 500,
    }
}

/// Smallest profile that still exercises every path (for unit tests).
pub fn quick_params() -> Params {
    Params {
        items: 20_000,
        reps: 1,
        probe_reps: 3,
    }
}

/// One measured pipeline configuration.
#[derive(Debug, Clone, Serialize)]
pub struct StreamRow {
    /// Stable row label (the diff key).
    pub name: String,
    /// Whether the farm restores source order.
    pub ordered: bool,
    /// Items streamed end to end.
    pub items: u64,
    /// Best-of-reps wall time.
    pub elapsed_ns: u64,
    /// Items per second at the best rep.
    pub throughput_items_per_sec: f64,
    /// Backpressure stalls recorded by the best rep (full-channel
    /// pushes that had to retry).
    pub push_waits: u64,
    /// Flow accounting of the best rep: must equal `items`.
    pub produced: u64,
    /// Items the sink received: must equal `items`.
    pub consumed: u64,
    /// Items dropped in-flight: must be 0 on these clean runs.
    pub dropped: u64,
    /// Workload checksum — identical across reps (and across the
    /// ordered/unordered image rows), so a scheduling bug cannot hide
    /// behind a fast wrong answer.
    pub checksum: u64,
}

/// Machine-independent ratios consumed by the perf gate.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Gates {
    /// Image-pipeline ordered-farm elapsed over unordered elapsed.
    /// Committed baseline: ≤ 1.5.
    pub ordered_farm_makespan_ratio: f64,
    /// Overhead probe: farm(2) elapsed over the sequential map.
    /// Committed baseline: ≤ 1.5.
    pub farm2_over_seq_ratio: f64,
}

/// The `BENCH_stream.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct StreamDoc {
    /// Experiment id.
    pub experiment: &'static str,
    /// Pool threads.
    pub threads: usize,
    /// Farm replicas per row.
    pub farm_replicas: usize,
    /// Channel capacity per edge.
    pub capacity: usize,
    /// Items per row.
    pub items: u64,
    /// All measured rows.
    pub rows: Vec<StreamRow>,
    /// The perf-gate ratios.
    pub gates: Gates,
}

#[inline]
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// Deterministic text line `i`: 1–12 words drawn from a small lexicon.
fn line(i: u64) -> String {
    const WORDS: [&str; 8] = [
        "stream", "farm", "stage", "channel", "ring", "token", "worker", "tile",
    ];
    let mut x = lcg(i ^ SEED);
    let words = 1 + (x >> 33) % 12;
    let mut s = String::with_capacity(8 * words as usize);
    for w in 0..words {
        if w > 0 {
            s.push(' ');
        }
        x = lcg(x);
        s.push_str(WORDS[((x >> 33) % WORDS.len() as u64) as usize]);
    }
    s
}

/// Deterministic image tile `i`.
fn tile(i: u64) -> Vec<u8> {
    let mut x = lcg(i ^ SEED.rotate_left(17));
    (0..TILE)
        .map(|_| {
            x = lcg(x);
            (x >> 56) as u8
        })
        .collect()
}

/// Blur (3-tap box filter) + threshold a tile into a signature.
fn tile_signature(t: Vec<u8>) -> u64 {
    let mut sig = 0u64;
    for i in 0..t.len() {
        let l = t[i.saturating_sub(1)] as u32;
        let c = t[i] as u32;
        let r = t[(i + 1).min(t.len() - 1)] as u32;
        let blurred = (l + c + r) / 3;
        if blurred > 127 {
            sig = sig.rotate_left(1) ^ blurred as u64;
        }
    }
    sig
}

struct Measured {
    elapsed_ns: u64,
    stats: StreamStats,
    checksum: u64,
}

/// Run one pipeline rep and fold its sink values order-independently
/// (wrapping add), so ordered and unordered rows of the same workload
/// must produce the same checksum.
fn measure(run: impl Fn(&Arc<AtomicU64>) -> StreamStats) -> Measured {
    let acc = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let stats = run(&acc);
    Measured {
        elapsed_ns: start.elapsed().as_nanos() as u64,
        stats,
        checksum: acc.load(Ordering::Relaxed),
    }
}

fn finish_row(
    name: &str,
    ordered: bool,
    items: u64,
    reps: u32,
    run: impl Fn(&Arc<AtomicU64>) -> StreamStats,
) -> StreamRow {
    let mut best = measure(&run);
    for _ in 1..reps {
        let m = measure(&run);
        assert_eq!(m.checksum, best.checksum, "{name}: reps disagree");
        if m.elapsed_ns < best.elapsed_ns {
            best = m;
        }
    }
    StreamRow {
        name: name.to_string(),
        ordered,
        items,
        elapsed_ns: best.elapsed_ns,
        throughput_items_per_sec: items as f64 / (best.elapsed_ns.max(1) as f64 / 1e9),
        push_waits: best.stats.push_waits,
        produced: best.stats.produced,
        consumed: best.stats.consumed,
        dropped: best.stats.dropped,
        checksum: best.checksum,
    }
}

/// Word count: lines → unordered farm (split + count) → sink.
fn wordcount_row(params: Params, exec: &Arc<dyn Executor>) -> StreamRow {
    let items = params.items;
    finish_row("wordcount", false, items, params.reps, |acc| {
        let total = Arc::clone(acc);
        Pipeline::source((0..items).map(line))
            .capacity(CAPACITY)
            .farm(FARM_REPLICAS, |l: String| {
                l.split_whitespace().count() as u64
            })
            .sink(move |c| {
                total.fetch_add(c, Ordering::Relaxed);
            })
            .run(&**exec)
            .expect("clean word-count run")
    })
}

/// Image pipeline: tiles → farm (blur + threshold) → sink.
fn image_row(ordered: bool, params: Params, exec: &Arc<dyn Executor>) -> StreamRow {
    let items = params.items;
    let name = if ordered {
        "image_ordered"
    } else {
        "image_unordered"
    };
    finish_row(name, ordered, items, params.reps, |acc| {
        let total = Arc::clone(acc);
        let p = Pipeline::source((0..items).map(tile)).capacity(CAPACITY);
        let p = if ordered {
            p.ordered_farm(FARM_REPLICAS, tile_signature)
        } else {
            p.farm(FARM_REPLICAS, tile_signature)
        };
        p.sink(move |sig| {
            total.fetch_add(sig, Ordering::Relaxed);
        })
        .run(&**exec)
        .expect("clean image run")
    })
}

/// One overhead-probe record: a key and its payload words.
pub struct Record {
    /// The record's key, mixed into every payload word by [`digest`].
    pub key: u64,
    /// The words [`digest`] folds.
    pub payload: [u32; PROBE_WORDS],
}

/// SplitMix64's finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `jobs` farm body: fold the payload, each word mixed with the key.
pub fn digest(r: &Record) -> u64 {
    kernel::reduce::fold_map(
        &r.payload,
        &|x: &u32| mix(u64::from(*x) ^ r.key),
        &|a: u64, b: u64| a.wrapping_add(b),
    )
    .unwrap_or(0)
}

/// The probe's tile: [`PROBE_RECORDS`] records from [`SEED`].
pub fn probe_records() -> Arc<Vec<Record>> {
    let mut x = SEED;
    let mut next = move || {
        x = lcg(x);
        x
    };
    Arc::new(
        (0..PROBE_RECORDS)
            .map(|_| Record {
                key: next(),
                payload: std::array::from_fn(|_| (next() >> 32) as u32),
            })
            .collect(),
    )
}

/// The overhead probe: the sequential map, then `source → farm(r) →
/// sink` for `r = 1, 2`, each collecting the `(key, digest)` pairs.
fn probe_rows(params: Params) -> Vec<StreamRow> {
    let exec = build_pool(Discipline::WorkStealing, PROBE_THREADS);
    let records = probe_records();
    let items = PROBE_RECORDS as u64;
    let sum = |pairs: &[(u64, u64)]| pairs.iter().fold(0u64, |a, p| a.wrapping_add(p.1));
    let seq = finish_row("probe_seq_map", true, items, params.probe_reps, |acc| {
        let pairs: Vec<(u64, u64)> = records.iter().map(|r| (r.key, digest(r))).collect();
        acc.fetch_add(sum(&pairs), Ordering::Relaxed);
        StreamStats {
            produced: items,
            consumed: items,
            ..StreamStats::default()
        }
    });
    let farm = |replicas: usize| {
        let name = format!("probe_farm{replicas}");
        finish_row(&name, false, items, params.probe_reps, |acc| {
            let recs = Arc::clone(&records);
            let out = Arc::new(Mutex::new(Vec::with_capacity(PROBE_RECORDS)));
            let sink_out = Arc::clone(&out);
            let stats = Pipeline::source(0..PROBE_RECORDS)
                .farm(replicas, move |i: usize| (recs[i].key, digest(&recs[i])))
                .sink(move |p| sink_out.lock().expect("sink lock").push(p))
                .run(&*exec)
                .expect("clean probe run");
            acc.fetch_add(sum(&out.lock().expect("sink lock")), Ordering::Relaxed);
            stats
        })
    };
    vec![seq, farm(1), farm(2)]
}

/// Build the full document with explicit sizes (tests pass
/// [`quick_params`]).
pub fn build_with(params: Params) -> StreamDoc {
    let exec = build_pool(Discipline::WorkStealing, THREADS);

    let mut rows = vec![
        wordcount_row(params, &exec),
        image_row(false, params, &exec),
        image_row(true, params, &exec),
    ];
    rows.extend(probe_rows(params));
    let words: u64 = (0..params.items)
        .map(|i| line(i).split_whitespace().count() as u64)
        .sum();
    assert_eq!(
        rows[0].checksum, words,
        "word-count farm lost or duplicated lines"
    );
    assert_eq!(rows[1].checksum, rows[2].checksum, "image rows disagree");
    assert!(
        rows[3..].iter().all(|r| r.checksum == rows[3].checksum),
        "probe farms disagree with the sequential map"
    );

    let ratio =
        |num: &StreamRow, den: &StreamRow| num.elapsed_ns as f64 / den.elapsed_ns.max(1) as f64;
    let gates = Gates {
        ordered_farm_makespan_ratio: ratio(&rows[2], &rows[1]),
        farm2_over_seq_ratio: ratio(&rows[5], &rows[3]),
    };

    StreamDoc {
        experiment: "ext_stream",
        threads: THREADS,
        farm_replicas: FARM_REPLICAS,
        capacity: CAPACITY,
        items: params.items,
        rows,
        gates,
    }
}

/// The committed-baseline document.
pub fn build() -> StreamDoc {
    build_with(default_params())
}

/// `suite ext_stream`: measure every row, print one line per row and
/// the gate ratios, and write `BENCH_stream.json`.
pub fn run() -> std::io::Result<()> {
    let doc = build();

    println!(
        "streaming rows ({} items each, {} threads, farm x{}, capacity {}; \
         probe rows {} records, {} threads):\n",
        doc.items, doc.threads, doc.farm_replicas, doc.capacity, PROBE_RECORDS, PROBE_THREADS
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

    println!("\n{:?} (committed baseline: both <= 1.5)", doc.gates);
    let path = write_json("BENCH_stream", &doc)?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// The gates on `BENCH_stream.json`: the six rows in order with exact
/// flow accounting; the deterministic word count and probe digest equal
/// the `committed` baseline's, the ordered and unordered image farms
/// agree, and the probe farms agree with the sequential map; both
/// ratios ≤ 2.0 on a re-measurement.
pub fn check(doc: &Value, committed: &Value, g: &mut gate::Gates) {
    use Need::*;
    g.text(doc, "/experiment", "ext_stream");
    let names = [
        "wordcount",
        "image_unordered",
        "image_ordered",
        "probe_seq_map",
        "probe_farm1",
        "probe_farm2",
    ];
    g.list(doc, "/rows", "name", &names);
    let rows = gate::items(&doc["rows"]);
    for (i, row) in rows.iter().enumerate() {
        let items = row["items"].as_u64();
        g.int(doc, &format!("/rows/{i}/produced"), Equal, items);
        g.int(doc, &format!("/rows/{i}/consumed"), Equal, items);
        g.int(doc, &format!("/rows/{i}/dropped"), Equal, 0);
        if i < 3 {
            let at = format!("/rows/{i}/items");
            g.int(doc, &at, Equal, doc["items"].as_u64());
        }
    }
    let sum = |doc: &Value, i: usize| doc["rows"][i]["checksum"].as_u64();
    let mut pairs = vec![
        (0, "committed", sum(committed, 0)),
        (2, "/rows/1", sum(doc, 1)),
        (3, "committed", sum(committed, 3)),
    ];
    pairs.extend((4..rows.len()).map(|i| (i, "/rows/3", sum(doc, 3))));
    for (i, of, want) in pairs {
        let at = format!("/rows/{i}/checksum vs {of}");
        g.gate(&at, sum(doc, i), Equal, want);
    }
    g.num(doc, "/gates/ordered_farm_makespan_ratio", AtMost, 2.0);
    g.num(doc, "/gates/farm2_over_seq_ratio", AtMost, 2.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::serial;

    #[test]
    fn doc_has_expected_shape_and_flow_balances() {
        let _turn = serial();
        let params = quick_params();
        let doc = build_with(params);
        assert_eq!(doc.experiment, "ext_stream");
        let names: Vec<&str> = doc.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "wordcount",
                "image_unordered",
                "image_ordered",
                "probe_seq_map",
                "probe_farm1",
                "probe_farm2"
            ]
        );
        for row in &doc.rows {
            let items = if row.name.starts_with("probe") {
                PROBE_RECORDS as u64
            } else {
                params.items
            };
            assert_eq!(row.items, items, "row {}", row.name);
            assert_eq!(row.produced, items, "row {}", row.name);
            assert_eq!(row.consumed, items, "row {}", row.name);
            assert_eq!(row.dropped, 0, "row {}", row.name);
            assert!(row.throughput_items_per_sec > 0.0, "row {}", row.name);
        }
        // `build_with` itself checks the word count against a
        // sequential count, the image rows against each other and the
        // probe farms against the sequential map.
        assert!(doc.gates.ordered_farm_makespan_ratio > 0.0);
        assert!(doc.gates.farm2_over_seq_ratio > 0.0);
    }

    #[test]
    fn json_document_carries_the_gate_keys() {
        let _turn = serial();
        let doc = build_with(quick_params());
        let v: Value = serde_json::from_str(&serde_json::to_string(&doc).unwrap()).unwrap();
        for gate in ["ordered_farm_makespan_ratio", "farm2_over_seq_ratio"] {
            assert!(
                v["gates"][gate].as_f64().is_some(),
                "gates.{gate} missing from the document"
            );
        }
        assert_eq!(v["rows"][0]["name"].as_str(), Some("wordcount"));
        assert!(v["rows"][0]["throughput_items_per_sec"].as_f64().is_some());
        assert!(v["rows"][2]["ordered"].as_bool().unwrap());
    }

    #[test]
    fn workload_generators_are_deterministic() {
        assert_eq!(line(7), line(7));
        assert_eq!(tile(7), tile(7));
        assert_ne!(line(7), line(8));
        assert!(!line(3).is_empty());
        assert_eq!(tile(3).len(), TILE);
        // The signature does real work: not everything maps to zero.
        assert!((0..100).map(tile).map(tile_signature).any(|s| s != 0));
    }
}
