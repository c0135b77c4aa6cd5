//! `jobs`: a closed loop with one client and one job in flight. Each
//! job is admitted by `JobService::submit` (one worker), streams a tile
//! of 1024 records through a `Pipeline` (source → 2-replica farm →
//! sink) on the shared 2-thread work-stealing pool, then sorts, reduces
//! and searches the collected tile with `ExecutionPolicy::seq()`.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pstl::stream::{Pipeline, StreamStats};
use pstl::{kernel, ExecutionPolicy};
use pstl_executor::{
    build_pool, Discipline, Executor, HistKind, JobOutcome, JobService, JobSpec, MetricsSnapshot,
    ServiceConfig,
};

use crate::common::{
    checksum, e2e_metrics, kernel_probes, median, median_ns, mix, now_ns, steals_balanced,
    MetricList, OpLog, Outcome, Rng, RuntimeWindow, Samples,
};
use crate::span::{Layer, OpSpans, Tracer};
use crate::Args;

const TILE: usize = 1024;
const PAYLOAD: usize = 64;
/// Distinct tiles the client cycles over (2 MiB of records in all).
const TILES: usize = 8;
const WARMUP_JOBS: usize = 300;

#[derive(Clone, Copy)]
struct Record {
    key: u64,
    payload: [u32; PAYLOAD],
}

/// The farm's per-record work: a `kernel::reduce::fold_map` over the
/// payload.
fn digest(r: &Record) -> u64 {
    kernel::reduce::fold_map(
        &r.payload,
        &|x: &u32| mix(u64::from(*x) ^ r.key),
        &|a: u64, b: u64| a.wrapping_add(b),
    )
    .unwrap_or(0)
}

type Pair = (u64, u64);

/// The calls of the job's sequential tail, in order.
const TAIL: [&str; 3] = ["sort", "reduce", "find"];

fn combine(a: Pair, b: Pair) -> Pair {
    (a.0 ^ b.0, a.1.wrapping_add(b.1))
}

struct Oracle {
    sorted: u64,
    reduced: Pair,
    target: Pair,
    found: Option<usize>,
}

struct Tile {
    records: Arc<Vec<Record>>,
    oracle: Oracle,
}

/// The job's sequential tail: sort, reduce and find on the collected
/// tile. `stamp` marks the same boundaries as in `batch`.
fn tail(pairs: &mut [Pair], target: &Pair, mut stamp: impl FnMut(usize)) -> (Pair, Option<usize>) {
    let seq = ExecutionPolicy::seq();
    stamp(0);
    pstl::sort(&seq, pairs);
    stamp(1);
    stamp(2);
    let reduced = pstl::reduce(&seq, pairs, (0, 0), combine);
    stamp(3);
    stamp(4);
    let found = pstl::find(&seq, pairs, target);
    stamp(5);
    (reduced, found)
}

fn flat(pairs: &[Pair]) -> Vec<u64> {
    pairs.iter().flat_map(|p| [p.0, p.1]).collect()
}

impl Tile {
    fn new(rng: &mut Rng) -> Tile {
        let records: Vec<Record> = (0..TILE)
            .map(|_| {
                let mut payload = [0u32; PAYLOAD];
                payload.iter_mut().for_each(|x| *x = rng.next_u64() as u32);
                Record {
                    key: rng.next_u64(),
                    payload,
                }
            })
            .collect();
        let (pairs, reduced, found, target) = Tile::floor(&records);
        Tile {
            records: Arc::new(records),
            oracle: Oracle {
                sorted: checksum(&flat(&pairs)),
                reduced,
                target,
                found,
            },
        }
    }

    /// The whole job with no service, no stream and `seq()` throughout:
    /// the oracle, and the kernel floor of the traced run.
    fn floor(records: &[Record]) -> (Vec<Pair>, Pair, Option<usize>, Pair) {
        let mut pairs: Vec<Pair> = records.iter().map(|r| (r.key, digest(r))).collect();
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        let target = sorted[3 * TILE / 4];
        let (reduced, found) = tail(&mut pairs, &target, |_| {});
        (pairs, reduced, found, target)
    }
}

/// What a job body hands back to the client.
struct JobOut {
    pairs: Vec<Pair>,
    reduced: Pair,
    found: Option<usize>,
    stats: StreamStats,
    /// Body start, pipeline start/end, the tail's six stamps, body end.
    t: [u64; 10],
}

struct State {
    pool: Arc<dyn Executor>,
    service: JobService,
    tiles: Vec<Tile>,
    /// Start/end stamps of the farm closure, two per record, written by
    /// the replicas of a traced job and read by the client after `wait`.
    farm_spans: Arc<Vec<AtomicU64>>,
}

impl State {
    /// The body of job `k`. It may run more than once under the
    /// service's retry policy, and every run gives the same result.
    fn body(
        &self,
        k: usize,
        traced: bool,
    ) -> impl Fn(&pstl_executor::CancelToken) -> Result<JobOut, String> + Send + 'static {
        let tile = &self.tiles[k % TILES];
        let records = Arc::clone(&tile.records);
        let target = tile.oracle.target;
        let pool = Arc::clone(&self.pool);
        let farm_spans = Arc::clone(&self.farm_spans);
        move |_token| {
            let mut t = [0u64; 10];
            t[0] = now_ns();
            let out = Arc::new(Mutex::new(Vec::with_capacity(TILE)));
            let sink_out = Arc::clone(&out);
            let (recs, spans) = (Arc::clone(&records), Arc::clone(&farm_spans));
            t[1] = now_ns();
            let run = Pipeline::source(0..TILE)
                .farm(2, move |i: usize| {
                    let r = &recs[i];
                    if !traced {
                        return (r.key, digest(r));
                    }
                    let s = now_ns();
                    let d = digest(r);
                    spans[2 * i].store(s, Ordering::Relaxed);
                    spans[2 * i + 1].store(now_ns(), Ordering::Relaxed);
                    (r.key, d)
                })
                .sink(move |p| sink_out.lock().expect("sink lock poisoned").push(p))
                .run(&*pool);
            t[2] = now_ns();
            let stats = run.map_err(|e| e.to_string())?;
            let mut pairs = std::mem::take(&mut *out.lock().expect("sink lock poisoned"));
            let (reduced, found) = tail(&mut pairs, &target, |i| t[3 + i] = now_ns());
            t[9] = now_ns();
            Ok(JobOut {
                pairs,
                reduced,
                found,
                stats,
                t,
            })
        }
    }

    /// Compare job `k`'s result with the oracle and the stream's flow
    /// ledger with its conservation law; print what differs.
    fn verify(&self, k: usize, outcome: &JobOutcome<Result<JobOut, String>>) -> bool {
        let out = match outcome {
            JobOutcome::Completed(Ok(out)) => out,
            JobOutcome::Completed(Err(e)) => {
                eprintln!("job {k}: pipeline failed: {e}");
                return false;
            }
            JobOutcome::Shed(reason) => {
                eprintln!("job {k}: shed ({reason:?})");
                return false;
            }
            JobOutcome::Cancelled => {
                eprintln!("job {k}: cancelled");
                return false;
            }
            JobOutcome::Failed { attempts } => {
                eprintln!("job {k}: failed after {attempts} attempts");
                return false;
            }
        };
        let o = &self.tiles[k % TILES].oracle;
        let s = out.stats;
        let balanced = s.produced == TILE as u64 && s.consumed == s.produced && s.dropped == 0;
        if !balanced {
            eprintln!(
                "job {k}: stream ledger broken: produced {} consumed {} dropped {} (tile {TILE})",
                s.produced, s.consumed, s.dropped
            );
        }
        let right = checksum(&flat(&out.pairs)) == o.sorted
            && out.reduced == o.reduced
            && out.found == o.found;
        if !right {
            eprintln!("job {k}: wrong result (sort, reduce or find)");
        }
        balanced && right
    }
}

/// Generate the tiles and their oracles, build the pool and the
/// service, and warm up.
fn setup(seed: u64) -> Result<State, String> {
    let mut rng = Rng::new(seed);
    let tiles = (0..TILES).map(|_| Tile::new(&mut rng)).collect();
    let st = State {
        pool: build_pool(Discipline::WorkStealing, 2),
        service: JobService::new(ServiceConfig::new(1)),
        tiles,
        farm_spans: Arc::new((0..2 * TILE).map(|_| AtomicU64::new(0)).collect()),
    };
    for k in 0..WARMUP_JOBS {
        let h = st
            .service
            .submit(JobSpec::default(), st.body(k, false))
            .map_err(|e| e.to_string())?;
        black_box(h.wait());
    }
    Ok(st)
}

/// One op as the client sees it.
struct Op {
    submitting: u64,
    submitted: u64,
    start: u64,
    end: u64,
    outcome: Option<JobOutcome<Result<JobOut, String>>>,
}

fn one_job(st: &State, k: usize, traced: bool) -> Op {
    let start = now_ns();
    let body = st.body(k, traced);
    let submitting = now_ns();
    let handle = st.service.submit(JobSpec::default(), body);
    let submitted = now_ns();
    let outcome = handle.map(|h| h.wait());
    let end = now_ns();
    if let Err(e) = &outcome {
        eprintln!("job {k}: rejected at admission: {e}");
    }
    Op {
        submitting,
        submitted,
        start,
        end,
        outcome: outcome.ok(),
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..args.setups {
        drop(state.take());
        let t = Instant::now();
        match setup(args.seed) {
            Ok(st) => state = Some(st),
            Err(e) => {
                eprintln!("set-up failed: {e}");
                return Outcome {
                    attempted: 1,
                    failed: 1,
                    metrics: Vec::new(),
                };
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let st = state.expect("at least one set-up");

    let window = RuntimeWindow::open(&*st.pool);
    let queue_hist_before = st.service.hist_snapshot();
    let mut tracer = Tracer::default();
    let mut samples = Samples::default();
    let mut latencies = OpLog::new();
    let mut failed = 0u64;
    let budget = Duration::from_secs_f64(args.seconds);
    let begin = Instant::now();
    let mut k = 0usize;
    while begin.elapsed() < budget || k < crate::MIN_OPS {
        let op = one_job(&st, k, args.trace);
        latencies.record((op.end - op.start) as f64);
        let ok = op.outcome.as_ref().is_some_and(|o| st.verify(k, o));
        if !ok {
            failed += 1;
        } else if args.trace {
            record_spans(&st, k, &op, &mut tracer, &mut samples);
        }
        k += 1;
    }

    st.service.join();
    let stats = st.service.stats();
    if !stats.accounting_balanced()
        || stats.rejected_total() + stats.shed_total() + stats.failed > 0
    {
        eprintln!(
            "service ledger broken: admitted {} completed {} shed {} cancelled {} failed {} rejected {} retried {}",
            stats.admitted,
            stats.completed,
            stats.shed_total(),
            stats.cancelled,
            stats.failed,
            stats.rejected_total(),
            stats.retries
        );
        failed += 1;
    }
    if !steals_balanced("stream pool", &st.pool.metrics().unwrap_or_default())
        || !steals_balanced("service pool", &st.service.metrics())
    {
        failed += 1;
    }

    let metrics = if args.trace {
        let mut m = MetricList::default();
        let queue_wait = st.service.hist_snapshot().since(&queue_hist_before);
        traced_metrics(&st, &samples, &latencies, &window, &mut m);
        m.push(
            "service.queue_wait_p50_us",
            queue_wait.get(HistKind::QueueWait).quantile(0.5) as f64 / 1e3,
            "us",
        );
        m.push("service.rejected", stats.rejected_total() as f64, "count");
        m.push("service.shed", stats.shed_total() as f64, "count");
        m.push("service.retried", stats.retries as f64, "count");
        if !tracer.report(&mut m) {
            failed += 1;
        }
        if let Some(path) = &args.spans {
            if let Err(e) = tracer.write(path) {
                eprintln!("cannot write spans to {}: {e}", path.display());
            }
        }
        m
    } else {
        e2e_metrics(&setup_s, &latencies, TILE)
    };
    Outcome {
        attempted: k as u64,
        failed,
        metrics: metrics.0,
    }
}

/// Build job `k`'s span tree from the client's stamps, the body's stamps
/// and the farm replicas' stamps.
fn record_spans(st: &State, k: usize, op: &Op, tracer: &mut Tracer, samples: &mut Samples) {
    let Some(JobOutcome::Completed(Ok(out))) = &op.outcome else {
        return;
    };
    let t = &out.t;
    let mut spans = OpSpans::new(k as u64, op.start, op.end);
    spans.push(
        "service.submit",
        Layer::Service,
        0,
        op.submitting,
        op.submitted,
    );
    spans.push("service.queue", Layer::Service, 0, op.submitted, t[0]);
    let body = spans.push("service.body", Layer::Service, 0, t[0], t[9]);
    spans.push("service.complete", Layer::Service, 0, t[9], op.end);
    let run = spans.push("stream.run", Layer::Stream, body, t[1], t[2]);
    for i in 0..TILE {
        let s = st.farm_spans[2 * i].load(Ordering::Relaxed);
        let e = st.farm_spans[2 * i + 1].load(Ordering::Relaxed);
        spans.push("stream.stage_fn", Layer::Kernel, run, s, e);
    }
    for (i, name) in TAIL.iter().enumerate() {
        let (a, b) = (t[3 + 2 * i], t[4 + 2 * i]);
        spans.push(name, Layer::Algo, body, a, b);
        samples.add(name, (b - a) as f64 / 1e3);
    }
    let us = |a: u64, b: u64| b.saturating_sub(a) as f64 / 1e3;
    samples.add("service.submit_us", us(op.submitting, op.submitted));
    samples.add("service.queue_us", us(op.submitted, t[0]));
    samples.add("service.body_us", us(t[0], t[9]));
    samples.add("service.complete_us", us(t[9], op.end));
    samples.add("stream.run_us", us(t[1], t[2]));
    samples.add(
        "stream.push_waits_per_item",
        out.stats.push_waits as f64 / TILE as f64,
    );
    // The farm calls are the only kernel spans, so the op's kernel self
    // time is the wall time covered by at least one farm call.
    let stage_ns = tracer.finish_op(spans).self_ns[Layer::Kernel as usize];
    samples.add("stream.stage_fn_us", stage_ns as f64 / 1e3);
}

/// The per-layer metrics of a traced run. Runs the whole job without
/// service or stream for the kernel floor and the speed-ups.
fn traced_metrics(
    st: &State,
    samples: &Samples,
    latencies: &OpLog,
    window: &RuntimeWindow,
    m: &mut MetricList,
) {
    let reps = 200;
    let records = &st.tiles[0].records;
    let target = st.tiles[0].oracle.target;
    let floor_ns = median_ns(reps, || {
        black_box(Tile::floor(records));
    }) / TILE as f64;
    let mut seq_us: [Vec<f64>; 3] = Default::default();
    for _ in 0..reps {
        let mut pairs: Vec<Pair> = records.iter().map(|r| (r.key, digest(r))).collect();
        let mut t = [0u64; 6];
        black_box(tail(&mut pairs, &target, |i| t[i] = now_ns()));
        for (i, v) in seq_us.iter_mut().enumerate() {
            v.push((t[2 * i + 1] - t[2 * i]) as f64 / 1e3);
        }
    }
    // The source iterator alone, to take out of the per-item hop cost.
    let source_ns = median_ns(reps, || {
        black_box((0..TILE).map(black_box).sum::<usize>());
    });

    m.push("kernel.floor_ns_per_item", floor_ns, "ns/item");
    let payload: Vec<u64> = records
        .iter()
        .flat_map(|r| r.payload.iter().map(|&x| u64::from(x)))
        .collect();
    kernel_probes(&payload, m);
    for name in ["for_each", "inclusive_scan"] {
        m.push(&format!("algo.{name}_us"), 0.0, "us");
        m.push(&format!("algo.{name}_speedup"), 0.0, "ratio");
    }
    for (i, name) in TAIL.iter().enumerate() {
        let inside = samples.median(name);
        m.push(&format!("algo.{name}_us"), inside, "us");
        m.push(
            &format!("algo.{name}_speedup"),
            if inside > 0.0 {
                median(&seq_us[i]) / inside
            } else {
                0.0
            },
            "ratio",
        );
    }
    window.report(&*st.pool, latencies.len(), &MetricsSnapshot::default(), m);

    let run_us = samples.median("stream.run_us");
    let stage_us = samples.median("stream.stage_fn_us");
    m.push("stream.run_us", run_us, "us");
    m.push("stream.stage_fn_us", stage_us, "us");
    m.push(
        "stream.hop_ns_per_item",
        ((run_us - stage_us) * 1e3 - source_ns) / TILE as f64,
        "ns/item",
    );
    m.push(
        "stream.push_waits_per_item",
        samples.median("stream.push_waits_per_item"),
        "1/item",
    );
    for name in [
        "service.submit_us",
        "service.queue_us",
        "service.body_us",
        "service.complete_us",
    ] {
        m.push(name, samples.median(name), "us");
    }
    let op_p50 = latencies.p50_ns() / 1e3;
    m.push("e2e.traced_op_p50_us", op_p50, "us");
    m.push(
        "e2e.floor_ratio",
        op_p50 * 1e3 / (floor_ns * TILE as f64),
        "ratio",
    );
}
