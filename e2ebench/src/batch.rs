//! `bulk` and `fine`: each op is one batch of the paper's five
//! algorithms (`for_each`, `find`, `reduce`, `inclusive_scan`, `sort`)
//! through the parallel policy on a 2-thread work-stealing pool.
//!
//! `bulk` runs them on 2^20 `u64` (8 MiB per array, larger than the
//! 4 MiB of L2 and well inside the 300 MiB shared L3); `fine` runs them
//! on 2^12, cycling over eight input sets (1 MiB in all) so that each op
//! starts outside L1.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstl::ExecutionPolicy;
use pstl_executor::{build_pool, Discipline, Executor, MetricsSnapshot};

use crate::common::{
    checksum, e2e_metrics, kernel_probes, median, now_ns, steals_balanced, MetricList, OpLog,
    Outcome, Rng, RuntimeWindow, Samples, View,
};
use crate::span::{Layer, OpSpans, Tracer};
use crate::Args;

/// The five calls of one op, in order.
const ALGOS: [&str; 5] = ["for_each", "find", "reduce", "inclusive_scan", "sort"];
/// Find targets per input set; op `k` looks for target `k % TARGETS`.
const TARGETS: usize = 16;

pub struct Shape {
    pub n: usize,
    pub sets: usize,
    pub warmup_ops: usize,
}

/// Mandelbrot iteration cap of the `for_each` body.
const MAX_ITER: u32 = 32;

pub const BULK: Shape = Shape {
    n: 1 << 20,
    sets: 1,
    warmup_ops: 2,
};

pub const FINE: Shape = Shape {
    n: 1 << 12,
    sets: 8,
    warmup_ops: 200,
};

/// What a correct op returns, computed once per set with
/// `ExecutionPolicy::seq()` during set-up.
struct Oracle {
    pixels: u64,
    found: Vec<Option<usize>>,
    sum: u64,
    scan: u64,
    sorted: u64,
}

struct InputSet {
    view: View,
    src: Vec<u64>,
    targets: Vec<u64>,
    pix: Vec<u64>,
    scan: Vec<u64>,
    work: Vec<u64>,
    oracle: Oracle,
}

impl InputSet {
    fn new(rng: &mut Rng, shape: &Shape) -> InputSet {
        let n = shape.n;
        let side = (n as f64).sqrt() as usize;
        assert_eq!(side * side, n, "pixel grid must be square");
        let view = View::seeded(rng, side, MAX_ITER);
        let src: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        // Targets sit at fixed fractions of the array, so every seed
        // gives find the same amount of work; the seed sets the values.
        let targets = (0..TARGETS)
            .map(|j| src[(2 * j + 1) * n / (2 * TARGETS)])
            .collect();
        let mut set = InputSet {
            view,
            src,
            targets,
            pix: vec![0; n],
            scan: vec![0; n],
            work: vec![0; n],
            oracle: Oracle {
                pixels: 0,
                found: Vec::new(),
                sum: 0,
                scan: 0,
                sorted: 0,
            },
        };
        let seq = ExecutionPolicy::seq();
        set.reset();
        let (_, sum) = set.op(&seq, 0, |_| {});
        set.oracle = Oracle {
            pixels: checksum(&set.pix),
            found: set
                .targets
                .iter()
                .map(|t| pstl::find(&seq, &set.src, t))
                .collect(),
            sum,
            scan: checksum(&set.scan),
            sorted: checksum(&set.work),
        };
        set
    }

    /// Restore the inputs the previous op wrote over: the pixel indices,
    /// the scan output (to a sentinel, so an element the scan skips
    /// changes the checksum) and the sort input.
    fn reset(&mut self) {
        for (i, p) in self.pix.iter_mut().enumerate() {
            *p = i as u64;
        }
        self.scan.fill(!0);
        self.work.copy_from_slice(&self.src);
    }

    /// One op: the five calls on this set, after `reset`. `stamp(2 * i)`
    /// is called just before call `i` and `stamp(2 * i + 1)` just after.
    fn op(
        &mut self,
        policy: &ExecutionPolicy,
        k: usize,
        mut stamp: impl FnMut(usize),
    ) -> (Option<usize>, u64) {
        let view = self.view;
        stamp(0);
        pstl::for_each_mut(policy, &mut self.pix, |x| view.shade(x));
        stamp(1);
        stamp(2);
        let found = pstl::find(policy, &self.src, &self.targets[k % TARGETS]);
        stamp(3);
        stamp(4);
        let sum = pstl::reduce(policy, &self.src, 0u64, u64::wrapping_add);
        stamp(5);
        stamp(6);
        pstl::inclusive_scan(policy, &self.src, &mut self.scan, |a, b| a.wrapping_add(*b));
        stamp(7);
        stamp(8);
        pstl::sort(policy, &mut self.work);
        stamp(9);
        (found, sum)
    }

    /// Compare op `k`'s results with the oracle; print what differs.
    fn verify(&self, k: usize, found: Option<usize>, sum: u64) -> bool {
        let o = &self.oracle;
        let checks = [
            ("for_each", checksum(&self.pix) == o.pixels),
            ("find", found == o.found[k % TARGETS]),
            ("reduce", sum == o.sum),
            ("inclusive_scan", checksum(&self.scan) == o.scan),
            ("sort", checksum(&self.work) == o.sorted),
        ];
        let bad: Vec<&str> = checks.iter().filter(|c| !c.1).map(|c| c.0).collect();
        if !bad.is_empty() {
            eprintln!("op {k}: wrong result from {}", bad.join(", "));
        }
        bad.is_empty()
    }
}

struct State {
    pool: Arc<dyn Executor>,
    policy: ExecutionPolicy,
    sets: Vec<InputSet>,
}

/// Generate the inputs and their oracles, build the pool, and warm up.
fn setup(seed: u64, shape: &Shape) -> State {
    let mut rng = Rng::new(seed);
    let sets = (0..shape.sets)
        .map(|_| InputSet::new(&mut rng, shape))
        .collect();
    let pool = build_pool(Discipline::WorkStealing, 2);
    let policy = ExecutionPolicy::par(Arc::clone(&pool));
    let mut st = State { pool, policy, sets };
    for k in 0..shape.warmup_ops {
        let set = &mut st.sets[k % shape.sets];
        set.reset();
        black_box(set.op(&st.policy, k, |_| {}));
    }
    st
}

pub fn run(args: &Args, shape: &Shape) -> Outcome {
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..args.setups {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup(args.seed, shape));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut st = state.expect("at least one set-up");

    let window = RuntimeWindow::open(&*st.pool);
    let mut tracer = Tracer::default();
    let mut samples = Samples::default();
    let mut find_delta = MetricsSnapshot::default();
    let mut latencies = OpLog::new();
    let mut failed = 0u64;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed() < budget || k < crate::MIN_OPS {
        let set = &mut st.sets[k % shape.sets];
        set.reset();
        let (found, sum, elapsed) = if args.trace {
            let mut t = [0u64; 10];
            let mut before_find = MetricsSnapshot::default();
            let pool = &st.pool;
            let t0 = now_ns();
            let (found, sum) = set.op(&st.policy, k, |i| {
                // The find-only counter window closes and opens outside
                // the stamped calls, so its cost stays unattributed.
                if i == 2 {
                    before_find = pool.metrics().unwrap_or_default();
                }
                t[i] = now_ns();
                if i == 3 {
                    let d = pool.metrics().unwrap_or_default().since(&before_find);
                    find_delta.tasks_executed += d.tasks_executed;
                    find_delta.wasted_chunks += d.wasted_chunks;
                }
            });
            let t1 = now_ns();
            let mut spans = OpSpans::new(k as u64, t0, t1);
            for (i, name) in ALGOS.iter().enumerate() {
                let (a, b) = (t[2 * i], t[2 * i + 1]);
                spans.push(name, Layer::Algo, 0, a, b);
                samples.add(name, (b - a) as f64 / 1e3);
            }
            tracer.finish_op(spans);
            (found, sum, t1 - t0)
        } else {
            let t0 = Instant::now();
            let (found, sum) = set.op(&st.policy, k, |_| {});
            (found, sum, t0.elapsed().as_nanos() as u64)
        };
        latencies.record(elapsed as f64);
        if !set.verify(k, found, sum) {
            failed += 1;
        }
        k += 1;
    }

    if !steals_balanced("work-stealing pool", &st.pool.metrics().unwrap_or_default()) {
        failed += 1;
    }
    let metrics = if args.trace {
        let mut m = MetricList::default();
        traced_metrics(
            &mut st,
            shape,
            &samples,
            &latencies,
            &window,
            &find_delta,
            &mut m,
        );
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
        e2e_metrics(&setup_s, &latencies, shape.n)
    };
    Outcome {
        attempted: k as u64,
        failed,
        metrics: metrics.0,
    }
}

/// The per-layer metrics of a traced run. Runs the same batch through
/// `ExecutionPolicy::seq()` for the kernel floor and the speed-ups.
fn traced_metrics(
    st: &mut State,
    shape: &Shape,
    samples: &Samples,
    latencies: &OpLog,
    window: &RuntimeWindow,
    find: &MetricsSnapshot,
    m: &mut MetricList,
) {
    let seq = ExecutionPolicy::seq();
    let reps = ((1usize << 24) / shape.n).clamp(5, 400);
    let mut seq_us: [Vec<f64>; 5] = Default::default();
    for r in 0..reps {
        let set = &mut st.sets[r % shape.sets];
        set.reset();
        let mut t = [0u64; 10];
        black_box(set.op(&seq, r, |i| t[i] = now_ns()));
        for (i, v) in seq_us.iter_mut().enumerate() {
            v.push((t[2 * i + 1] - t[2 * i]) as f64 / 1e3);
        }
    }
    let seq_med: Vec<f64> = seq_us.iter().map(|v| median(v)).collect();
    let floor_ns = seq_med.iter().sum::<f64>() * 1e3 / shape.n as f64;
    m.push("kernel.floor_ns_per_item", floor_ns, "ns/item");
    kernel_probes(&st.sets[0].src, m);
    for (i, name) in ALGOS.iter().enumerate() {
        let par = samples.median(name);
        m.push(&format!("algo.{name}_us"), par, "us");
        m.push(
            &format!("algo.{name}_speedup"),
            if par > 0.0 { seq_med[i] / par } else { 0.0 },
            "ratio",
        );
    }
    window.report(&*st.pool, latencies.len(), find, m);
    let op_p50 = latencies.p50_ns() / 1e3;
    m.push("e2e.traced_op_p50_us", op_p50, "us");
    m.push(
        "e2e.floor_ratio",
        op_p50 * 1e3 / (floor_ns * shape.n as f64),
        "ratio",
    );
    crate::bypassed_stream_and_service(m);
}
