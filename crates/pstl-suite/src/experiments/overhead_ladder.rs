//! `suite overhead_ladder`: the dispatch-cost ladder behind the paper's
//! small-size results (Fig. 2, §5.2) and the GNU flavor's sequential
//! fallback, measured on this host; writes `results/BENCH_overhead.json`.
//!
//! Each row times two sides with [`paired`]: `pool.run(tasks, …)` with
//! an atomic-add body on adjacent [`LADDER`] pools (2 threads each), or
//! `for_each` (k_it = 1) on 2^10 `u64` through [`BackendHost`]'s GCC-GNU
//! against GCC-SEQ and NVC-OMP against GCC-GNU. NVC-OMP runs on GCC-GNU's
//! fork-join pool without its `seq_threshold`, so that pair isolates the
//! threshold fallback.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pstl::ExecutionPolicy;
use pstl_executor::{build_pool, Discipline};
use pstl_sim::Backend;
use serde::Serialize;
use serde_json::Value;

use super::paired;
use crate::gate::{entry, Gates, Need};
use crate::output::write_json;
use crate::BackendHost;

const THREADS: usize = 2;
const TASKS: [usize; 3] = [1, 16, 256];
/// The paper's order, costliest dispatch first: task pool (HPX), work
/// stealing (TBB), fork-join (GNU/NVC OpenMP), sequential.
const LADDER: [Discipline; 4] = [
    Discipline::TaskPool,
    Discipline::WorkStealing,
    Discipline::ForkJoin,
    Discipline::Sequential,
];
/// The `for_each` size: GCC-GNU's `seq_threshold`, where it still runs
/// sequentially.
const N: usize = 1 << 10;
const PAIRS: usize = 101;
/// Target time of one [`paired`] sample, a batch of calls, on the upper
/// side.
const SAMPLE_US: f64 = 100.0;

/// Each gated row's ratio and its bound. The ratios swing with whether
/// a pool's worker gets a vCPU of its own (a caller that runs all 256
/// tasks alone is up to 3× faster than two threads sharing them). On a
/// 2-vCPU host, 50 quiet runs read 1.23–3.5, 1.91–20 and 1.87–8.0 for the
/// three ladder steps, and 65 runs beside a busy loop pinned to one vCPU
/// read 1.22–1.57, 1.70–5.3 and 1.94–7.2 (one more read task pool / work
/// stealing 1.05, hence its floor of 1). A fork-join task 1 µs slower
/// reads work stealing / fork-join 0.08–0.46. GCC-GNU / GCC-SEQ read
/// 0.97–1.02, and 6.0–18 with GNU's threshold at 2^9; NVC-OMP / GCC-GNU
/// read 4.2–19, and 0.99–1.06 with that threshold.
const GATES: [(&str, Need, f64); 5] = [
    ("task_pool/work_stealing@256", Need::AtLeast, 1.0),
    ("work_stealing/fork_join@256", Need::AtLeast, 1.1),
    ("fork_join/seq@256", Need::AtLeast, 1.2),
    ("GCC-GNU/GCC-SEQ@1024", Need::AtMost, 1.2),
    ("NVC-OMP/GCC-GNU@1024", Need::AtLeast, 1.3),
];

/// One task's counter, alone in a 128-byte block (x86 fetches cache
/// lines in pairs): one counter shared by all tasks would add line
/// transfers between the threads, which every parallel pool pays alike
/// and which are not dispatch.
#[derive(Default)]
#[repr(align(128))]
struct Slot(AtomicU64);

#[derive(Serialize)]
struct Row {
    /// `upper/lower@size`: the two sides and the tasks or elements.
    name: String,
    upper_us: f64,
    lower_us: f64,
    /// Median of the per-pair ratios upper / lower.
    ratio: f64,
}

#[derive(Serialize)]
struct Report {
    experiment: &'static str,
    threads: usize,
    pairs: usize,
    rows: Vec<Row>,
}

/// Mean µs per call of `f` over `calls` calls, after one untimed call.
fn per_call(calls: usize, f: &mut dyn FnMut()) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..calls {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// `upper` against `lower` in [`paired`] batches, sized by a warm-up.
fn row(name: String, mut upper: impl FnMut(), mut lower: impl FnMut()) -> Row {
    let calls = (SAMPLE_US / per_call(16, &mut upper)).clamp(1.0, 1e5) as usize;
    let (upper_us, lower_us, ratio) = paired(PAIRS, |_, side| match side {
        0 => per_call(calls, &mut upper),
        _ => per_call(calls, &mut lower),
    });
    Row {
        name,
        upper_us,
        lower_us,
        ratio,
    }
}

/// `for_each` (k_it = 1) over its own 2^10 `u64` through `policy`.
fn for_each(policy: ExecutionPolicy) -> impl FnMut() {
    let mut data = vec![0u64; N];
    move || pstl::for_each_mut(&policy, &mut data, |x| *x = black_box(*x).wrapping_add(1))
}

pub fn run() -> std::io::Result<()> {
    let slots: Vec<Slot> = (0..TASKS[2]).map(|_| Slot::default()).collect();
    let body = |i: usize| {
        slots[i].0.fetch_add(1, Ordering::Relaxed);
    };
    // Each row builds its two pools afresh. With all four alive for the
    // whole run, the OS at times left the task pool's worker on the
    // caller's vCPU, and task pool / work stealing read 0.4–0.6 in 8 of
    // 100 runs.
    let mut rows = Vec::new();
    for tasks in TASKS {
        for pair in LADDER.windows(2) {
            let [upper, lower] = [pair[0], pair[1]].map(|d| build_pool(d, THREADS));
            let name = format!("{}/{}@{tasks}", pair[0].name(), pair[1].name());
            let (upper, lower) = (|| upper.run(tasks, &body), || lower.run(tasks, &body));
            rows.push(row(name, upper, lower));
        }
    }
    let host = BackendHost::new(THREADS);
    let policy = |b: Backend| for_each(host.policy_for(b).expect("a CPU backend"));
    for (upper, lower) in [
        (Backend::GccGnu, Backend::GccSeq),
        (Backend::NvcOmp, Backend::GccGnu),
    ] {
        let name = format!("{}/{}@{N}", upper.name(), lower.name());
        rows.push(row(name, policy(upper), policy(lower)));
    }

    println!("overhead ladder ({THREADS} threads, medians of {PAIRS} alternating pairs)");
    println!("  upper/lower@size                 upper us   lower us    ratio");
    for r in &rows {
        let (name, up, low, ratio) = (&r.name, r.upper_us, r.lower_us, r.ratio);
        println!("  {name:<30} {up:>10.3} {low:>10.3} {ratio:>7.2}x");
    }
    let report = Report {
        experiment: "overhead_ladder",
        threads: THREADS,
        pairs: PAIRS,
        rows,
    };
    let path = write_json("BENCH_overhead", &report)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// The paper's order at 256 tasks and the GNU threshold fallback at
/// 2^10, each row's ratio against its [`GATES`] bound.
pub fn check(doc: &Value, _committed: &Value, g: &mut Gates) {
    for (name, need, bound) in GATES {
        let ratio = entry(&doc["rows"], "name", name)["ratio"].as_f64();
        g.gate(&format!("{name} ratio"), ratio, need, bound);
    }
}
