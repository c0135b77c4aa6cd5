//! **Extension experiment** (not in the paper): early-exit `find` as a
//! function of match position.
//!
//! The paper's Fig. 4 benchmarks `std::find` with a uniformly random
//! target, which averages over match positions and hides the defining
//! property of a parallel search: how much *less* work it does when the
//! match is early. This experiment pins the match at {front ≈ 1%,
//! middle = 50%, back ≈ 99%, absent} of the index space and measures,
//! on the real work-stealing pool under all three partitioners:
//!
//! * wall-clock time of [`pstl::find`], normalized to the absent-match
//!   (drain-everything) run of the same partitioner — the ISSUE's
//!   acceptance gate is front < 0.5× absent;
//! * the engine's `early_exits` / `wasted_chunks` counter deltas, which
//!   bound how much dispatched work the cooperative cancellation failed
//!   to cut off.
//!
//! Alongside the measurements, [`pstl_sim::SchedSim::search_cost`]
//! predicts the scanned-work and makespan fractions for the matching
//! [`SimDiscipline`]s, so the committed `BENCH_find.json` baseline
//! carries both the model and the machine it claims to describe.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pstl::search::POLL_BLOCK;
use pstl::{find, ExecutionPolicy, ParConfig, Partitioner};
use pstl_executor::{build_pool, Discipline, Executor};
use pstl_sim::{SchedSim, SimDiscipline};
use serde::Serialize;
use serde_json::Value;

use crate::gate::{items, labels, Gates, Need};
use crate::output::{write_json, Figure, Panel, Series};

/// Elements scanned; large enough that a full drain dwarfs dispatch
/// overhead, small enough for CI.
pub const N: usize = 1 << 22;

/// Pool threads.
pub const THREADS: usize = 4;

/// Grain of the search policies.
pub const GRAIN: usize = 8 * 1024;

/// Timed iterations per (mode, position) point; the minimum is reported.
const ITERS: usize = 5;

/// The match-position sweep: label and planted index (`None` = absent).
pub const POSITIONS: [(&str, Option<usize>); 4] = [
    ("front", Some(N / 100)),
    ("middle", Some(N / 2)),
    ("back", Some(N - N / 100)),
    ("absent", None),
];

/// The partitioner modes compared, in report order.
pub const MODES: [(&str, Partitioner); 3] = [
    ("static", Partitioner::Static),
    ("guided", Partitioner::Guided),
    ("adaptive", Partitioner::Adaptive),
];

fn policy_with(pool: &Arc<dyn Executor>, mode: Partitioner) -> ExecutionPolicy {
    ExecutionPolicy::par_with(
        Arc::clone(pool),
        ParConfig::with_grain(GRAIN).partitioner(mode),
    )
}

/// Plant the match (`1`) at `index` in a haystack of zeros; `None`
/// leaves the haystack matchless.
fn haystack(index: Option<usize>) -> Vec<u32> {
    let mut data = vec![0u32; N];
    if let Some(i) = index {
        data[i] = 1;
    }
    data
}

/// Minimum wall time of `ITERS` runs (plus one warmup) of a `find`,
/// asserting the result so a broken engine cannot publish a fast lie.
fn measure(policy: &ExecutionPolicy, data: &[u32], expect: Option<usize>) -> Duration {
    let run = || {
        let start = Instant::now();
        let got = find(policy, data, &1u32);
        let elapsed = start.elapsed();
        assert_eq!(got, expect, "find disagreed with the planted match");
        elapsed
    };
    run(); // warmup: fault in pages, wake workers
    (0..ITERS).map(|_| run()).min().unwrap()
}

/// One measured (mode, position) point of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct PositionPoint {
    pub position: String,
    /// Planted match index; `None` for the absent (drain) run.
    pub index: Option<usize>,
    pub time_ms: f64,
    /// `time / absent time` of the same partitioner mode.
    pub time_vs_absent: f64,
    /// `early_exits` counter delta of one run.
    pub early_exits: u64,
    /// `wasted_chunks` counter delta of one run.
    pub wasted_chunks: u64,
}

/// The position sweep of one partitioner mode.
#[derive(Debug, Clone, Serialize)]
pub struct ModeSweep {
    pub mode: String,
    pub points: Vec<PositionPoint>,
}

/// One model prediction from [`SchedSim::search_cost`].
#[derive(Debug, Clone, Serialize)]
pub struct SimPoint {
    pub discipline: String,
    pub position: String,
    /// Elements scanned / `n` — expected work vs match position.
    pub scanned_fraction: f64,
    /// Makespan / absent-match makespan of the same discipline.
    pub makespan_fraction: f64,
    pub wasted_chunks: u64,
}

/// The committed `BENCH_find.json` baseline.
#[derive(Debug, Clone, Serialize)]
pub struct BenchFind {
    pub threads: usize,
    pub n: usize,
    pub grain: usize,
    pub poll_block: usize,
    /// Static decomposition of the plan (`tasks_for`) — the bound on
    /// `wasted_chunks` under [`Partitioner::Static`].
    pub planned_tasks: u64,
    pub real: Vec<ModeSweep>,
    pub sim: Vec<SimPoint>,
}

/// Counter deltas (`early_exits`, `wasted_chunks`) of one `find`.
fn counter_delta(pool: &Arc<dyn Executor>, policy: &ExecutionPolicy, data: &[u32]) -> (u64, u64) {
    let before = pool.metrics().unwrap_or_default();
    let _ = find(policy, data, &1u32);
    let delta = pool.metrics().unwrap_or_default().since(&before);
    (delta.early_exits, delta.wasted_chunks)
}

/// Measure the full sweep on a fresh pool.
pub fn measure_real(pool: &Arc<dyn Executor>) -> Vec<ModeSweep> {
    MODES
        .iter()
        .map(|(mode_label, mode)| {
            let policy = policy_with(pool, *mode);
            let timed: Vec<(&str, Option<usize>, Duration, u64, u64)> = POSITIONS
                .iter()
                .map(|&(label, index)| {
                    let data = haystack(index);
                    let t = measure(&policy, &data, index);
                    let (early_exits, wasted) = counter_delta(pool, &policy, &data);
                    (label, index, t, early_exits, wasted)
                })
                .collect();
            let absent = timed
                .iter()
                .find(|(label, ..)| *label == "absent")
                .expect("sweep includes the absent position")
                .2
                .as_secs_f64();
            ModeSweep {
                mode: mode_label.to_string(),
                points: timed
                    .into_iter()
                    .map(
                        |(label, index, t, early_exits, wasted_chunks)| PositionPoint {
                            position: label.to_string(),
                            index,
                            time_ms: t.as_secs_f64() * 1e3,
                            time_vs_absent: t.as_secs_f64() / absent,
                            early_exits,
                            wasted_chunks,
                        },
                    )
                    .collect(),
            }
        })
        .collect()
}

/// The disciplines modeled, matching the real partitioners. Note the
/// "static" row: [`Partitioner::Static`] sizes its chunks statically
/// (`tasks_for` = `threads × max_tasks_per_thread` here) but the pool
/// dequeues them dynamically, so its cost shape is the sim's central
/// queue of fixed chunks, not the one-indivisible-range-per-worker
/// [`SimDiscipline::Static`].
fn sim_disciplines() -> Vec<(&'static str, SimDiscipline)> {
    vec![
        (
            "static",
            SimDiscipline::Dynamic {
                chunk: N / (THREADS * 8),
                overhead: POLL_BLOCK as f64 / 16.0,
            },
        ),
        (
            "guided",
            SimDiscipline::Guided {
                min_chunk: GRAIN,
                overhead: POLL_BLOCK as f64 / 16.0,
            },
        ),
        (
            "adaptive",
            SimDiscipline::AdaptiveSplit {
                grain: GRAIN,
                split_cost: POLL_BLOCK as f64 / 16.0,
            },
        ),
    ]
}

/// Model the sweep with [`SchedSim::search_cost`]. Cancellation
/// propagation is modeled as one poll block of latency.
pub fn model() -> Vec<SimPoint> {
    let sim = SchedSim::new(THREADS);
    let propagation = POLL_BLOCK as f64;
    sim_disciplines()
        .into_iter()
        .flat_map(|(name, d)| {
            let absent = sim.search_cost(N, None, POLL_BLOCK, propagation, d);
            POSITIONS
                .iter()
                .map(|&(label, index)| {
                    let cost = sim.search_cost(N, index, POLL_BLOCK, propagation, d);
                    SimPoint {
                        discipline: name.to_string(),
                        position: label.to_string(),
                        scanned_fraction: cost.scanned / N as f64,
                        makespan_fraction: cost.makespan / absent.makespan,
                        wasted_chunks: cost.wasted_chunks,
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Run both halves on a fresh work-stealing pool.
pub fn bench() -> BenchFind {
    let pool = build_pool(Discipline::WorkStealing, THREADS);
    let planned_tasks = policy_with(&pool, Partitioner::Static).tasks_for(N) as u64;
    BenchFind {
        threads: THREADS,
        n: N,
        grain: GRAIN,
        poll_block: POLL_BLOCK,
        planned_tasks,
        real: measure_real(&pool),
        sim: model(),
    }
}

/// Position fraction used as the x coordinate (absent plotted at 1.0,
/// past the back match).
fn x_of(label: &str, index: Option<usize>) -> f64 {
    match index {
        Some(i) => i as f64 / N as f64,
        None => {
            debug_assert_eq!(label, "absent");
            1.0
        }
    }
}

/// Figure view of [`bench`]: measured and modeled time fractions vs
/// match position.
pub fn build_figure(bench: &BenchFind) -> Figure {
    let real = bench
        .real
        .iter()
        .map(|sweep| {
            let (xs, ys) = sweep
                .points
                .iter()
                .map(|p| (x_of(&p.position, p.index), p.time_vs_absent))
                .unzip();
            Series::new(format!("real {}", sweep.mode), xs, ys)
        })
        .collect();
    let mut sim_series: Vec<Series> = Vec::new();
    for (name, _) in sim_disciplines() {
        let (xs, ys) = bench
            .sim
            .iter()
            .filter(|p| p.discipline == name)
            .map(|p| {
                let index = POSITIONS
                    .iter()
                    .find(|(label, _)| *label == p.position)
                    .and_then(|&(_, index)| index);
                (x_of(&p.position, index), p.makespan_fraction)
            })
            .unzip();
        sim_series.push(Series::new(format!("sim {name}"), xs, ys));
    }
    Figure {
        id: "ext_find_position".into(),
        title: format!(
            "Early-exit find vs match position (n = 2^22, {THREADS}-thread WS pool) — extension"
        ),
        x_label: "match position / n".into(),
        y_label: "time / absent-match time".into(),
        panels: vec![
            Panel {
                title: "measured (real pool)".into(),
                series: real,
            },
            Panel {
                title: "modeled (SchedSim::search_cost)".into(),
                series: sim_series,
            },
        ],
    }
}

/// `suite ext_find_position`: measure, print the figure and the counter
/// deltas, and write the figure plus `BENCH_find.json`.
pub fn run() -> std::io::Result<()> {
    let bench = bench();
    let fig = build_figure(&bench);
    fig.emit()?;

    println!("counter deltas per position:");
    for sweep in &bench.real {
        for p in &sweep.points {
            println!(
                "  {:<9} {:<7} {:>8.3} ms ({:.3}x absent), {} early exits, {:>3} wasted chunks",
                sweep.mode, p.position, p.time_ms, p.time_vs_absent, p.early_exits, p.wasted_chunks
            );
        }
    }
    let path = write_json("BENCH_find", &bench)?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// The set of `field` values of the array `v`, sorted.
fn set_of<'a>(v: &'a Value, field: &str) -> Option<Vec<&'a str>> {
    let mut set = labels(v, field);
    set.sort_unstable();
    set.dedup();
    Some(set)
}

/// The gates on `BENCH_find.json`. Per partitioner mode, a front (≈1%)
/// match finishes in under half the absent-match time with exactly one
/// early exit, some wasted chunks (never more than the static plan's
/// tasks), and an absent match exits nothing early; the model's front
/// match scans under half the input.
pub fn check(doc: &Value, _committed: &Value, g: &mut Gates) {
    use Need::*;
    g.list(doc, "/real", "mode", &["static", "guided", "adaptive"]);
    for (i, sweep) in items(&doc["real"]).iter().enumerate() {
        let at = format!("/real/{i}/points/*/position");
        let want = vec!["absent", "back", "front", "middle"];
        g.gate(&at, set_of(&sweep["points"], "position"), Equal, want);
        let point = |position: &str, key: &str| {
            let points = items(&sweep["points"]).iter();
            let j = points
                .take_while(|p| p["position"].as_str() != Some(position))
                .count();
            format!("/real/{i}/points/{j}/{key}")
        };
        g.num(doc, &point("front", "time_vs_absent"), Below, 0.5);
        g.int(doc, &point("front", "early_exits"), Equal, 1);
        g.int(doc, &point("front", "wasted_chunks"), AtLeast, 1);
        g.int(doc, &point("absent", "early_exits"), Equal, 0);
        g.int(doc, &point("absent", "wasted_chunks"), Equal, 0);
        if sweep["mode"].as_str() == Some("static") {
            let planned = doc["planned_tasks"].as_u64();
            g.int(doc, &point("front", "wasted_chunks"), AtMost, planned);
        }
    }
    let disciplines = set_of(&doc["sim"], "discipline");
    let want = vec!["adaptive", "guided", "static"];
    g.gate("/sim/*/discipline", disciplines, Equal, want);
    for (j, p) in items(&doc["sim"]).iter().enumerate() {
        if p["position"].as_str() == Some("front") {
            g.num(doc, &format!("/sim/{j}/scanned_fraction"), Below, 0.5);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::serial;

    #[test]
    fn sweep_shape() {
        assert_eq!(POSITIONS[0].1, Some(N / 100));
        assert_eq!(POSITIONS[3], ("absent", None));
        let data = haystack(Some(5));
        assert_eq!(data.len(), N);
        assert_eq!(data[5], 1);
        assert_eq!(haystack(None).iter().find(|&&x| x == 1), None);
    }

    #[test]
    fn model_front_match_is_cheap_on_every_discipline() {
        for p in model() {
            if p.position == "front" {
                assert!(
                    p.scanned_fraction < 0.5,
                    "{}: front scanned fraction {}",
                    p.discipline,
                    p.scanned_fraction
                );
                assert!(p.wasted_chunks >= 1, "{}: nothing cut short", p.discipline);
            }
            if p.position == "absent" {
                assert!(
                    (p.scanned_fraction - 1.0).abs() < 1e-9,
                    "{}: absent must drain everything",
                    p.discipline
                );
                assert_eq!(p.wasted_chunks, 0, "{}", p.discipline);
            }
        }
    }

    /// Sign-only timing guard (the 0.5× margin is checked against the
    /// committed BENCH_find.json baseline, not on noisy CI runners).
    #[test]
    fn front_match_is_faster_than_drain() {
        let _turn = serial();
        let pool = build_pool(Discipline::WorkStealing, THREADS);
        let policy = policy_with(&pool, Partitioner::Static);
        let front = measure(&policy, &haystack(Some(N / 100)), Some(N / 100));
        let absent = measure(&policy, &haystack(None), None);
        assert!(
            front < absent,
            "front match {front:?} must beat full drain {absent:?}"
        );
    }

    #[test]
    fn counters_flow_into_the_sweep() {
        let _turn = serial();
        let pool = build_pool(Discipline::WorkStealing, THREADS);
        let policy = policy_with(&pool, Partitioner::Static);
        let (early, wasted) = counter_delta(&pool, &policy, &haystack(Some(N / 100)));
        assert_eq!(early, 1, "front match must record one early exit");
        assert!(wasted >= 1, "front match must cut chunks short");
        assert!(
            wasted <= policy.tasks_for(N) as u64,
            "static wasted chunks {wasted} exceed the plan"
        );
        let (early, wasted) = counter_delta(&pool, &policy, &haystack(None));
        assert_eq!((early, wasted), (0, 0), "absent match wastes nothing");
    }
}
