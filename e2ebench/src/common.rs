//! Pieces every workload shares: seeded inputs, checksums, the
//! Mandelbrot kernel, order statistics, and the per-layer probes that
//! call the library from outside (`pstl::kernel::*`, `Executor::run`,
//! `Executor::metrics`/`hist_snapshot`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use pstl::kernel;
use pstl_executor::{Executor, HistKind, HistSet, MetricsSnapshot};

/// Nanoseconds since the first call in this process; every span and
/// stamp uses this one monotonic clock, on every thread.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// SplitMix64: the only source of randomness, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005E_ED0F_E2EB_E4C4)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// SplitMix64 finaliser: a cheap, well-spread 64-bit hash.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive checksum: equal only if every element sits at the
/// same index (up to hash collisions).
pub fn checksum(v: &[u64]) -> u64 {
    v.iter().enumerate().fold(0u64, |h, (i, &x)| {
        h.wrapping_add(mix(x ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    })
}

/// A square Mandelbrot viewport sampled on a `side × side` grid; pixel
/// `i` is column `i % side`, row `i / side`.
#[derive(Clone, Copy, Debug)]
pub struct View {
    x0: f64,
    y0: f64,
    step: f64,
    side: u32,
    max_iter: u32,
}

impl View {
    /// The window centred on (-0.75, 0) of width 3, which holds the
    /// whole set, shifted by a seeded jitter of at most 0.5 % of its
    /// width per axis. The shift changes which pixels are costly, while
    /// the total iteration count stays within a few per cent across
    /// seeds.
    pub fn seeded(rng: &mut Rng, side: usize, max_iter: u32) -> View {
        let width = 3.0;
        let cx = -0.75 + (rng.unit() - 0.5) * 0.01 * width;
        let cy = (rng.unit() - 0.5) * 0.01 * width;
        View {
            x0: cx - width / 2.0,
            y0: cy - width / 2.0,
            step: width / side as f64,
            side: side as u32,
            max_iter,
        }
    }

    /// Escape count of pixel `idx`, bounded by `max_iter`.
    #[inline]
    pub fn escape(&self, idx: u32) -> u32 {
        let cre = self.x0 + (idx % self.side) as f64 * self.step;
        let cim = self.y0 + (idx / self.side) as f64 * self.step;
        let (mut x, mut y, mut n) = (0.0f64, 0.0f64, 0);
        while n < self.max_iter && x * x + y * y <= 4.0 {
            let xt = x * x - y * y + cre;
            y = 2.0 * x * y + cim;
            x = xt;
            n += 1;
        }
        n
    }

    /// The `for_each_mut` body: the low 32 bits of an element hold its
    /// pixel index, and the high 32 bits receive the escape count, which
    /// is at least 1, so a pixel the op skips keeps a count of 0.
    #[inline]
    pub fn shade(&self, x: &mut u64) {
        let idx = *x as u32;
        *x = (u64::from(self.escape(idx)) << 32) | u64::from(idx);
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `(0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; the mean of the middle two for an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Run `f` `reps` times and return the median wall time in ns.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = now_ns();
            f();
            (now_ns() - t) as f64
        })
        .collect();
    median(&times)
}

/// Named samples, one per op (or per call), reduced at the end of a run.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to `main` for printing.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

#[derive(Default)]
pub struct MetricList(pub Vec<Metric>);

impl MetricList {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-op latencies of a run, reduced block by block. A block is a run
/// of consecutive ops that spans at least one second of op time and at
/// least `BLOCK_OPS` ops, so its p90 has ten samples beyond it. The
/// run's figures are medians over its blocks: with many blocks, a burst
/// of host interference moves one block rather than the whole run. The
/// remainder after the last complete block joins that block, so every op
/// counts; a run with at most one complete block is one block. Only the
/// open block and the last complete one are kept unreduced, so memory
/// stays fixed and peak RSS does not grow with the op count.
pub struct OpLog {
    open: Vec<f64>,
    open_ns: f64,
    last: Vec<f64>,
    last_ns: f64,
    ops: usize,
    /// (p50 ns, p90 ns, ops per second) of each complete block before
    /// `last`.
    blocks: Vec<(f64, f64, f64)>,
}

const BLOCK_OPS: usize = 100;

impl OpLog {
    pub fn new() -> Self {
        OpLog {
            open: Vec::with_capacity(1 << 16),
            open_ns: 0.0,
            last: Vec::with_capacity(1 << 16),
            last_ns: 0.0,
            ops: 0,
            blocks: Vec::new(),
        }
    }

    pub fn record(&mut self, ns: f64) {
        self.open.push(ns);
        self.open_ns += ns;
        self.ops += 1;
        if self.open_ns >= 1e9 && self.open.len() >= BLOCK_OPS {
            if !self.last.is_empty() {
                let block = Self::reduce(&mut self.last, self.last_ns);
                self.blocks.push(block);
            }
            std::mem::swap(&mut self.open, &mut self.last);
            self.last_ns = self.open_ns;
            self.open.clear();
            self.open_ns = 0.0;
        }
    }

    fn reduce(lat: &mut [f64], ns: f64) -> (f64, f64, f64) {
        lat.sort_by(f64::total_cmp);
        (
            quantile(lat, 0.5),
            quantile(lat, 0.9),
            lat.len() as f64 / (ns / 1e9),
        )
    }

    /// The figures of every block, the last one holding the remainder.
    fn all_blocks(&self) -> Vec<(f64, f64, f64)> {
        let mut tail: Vec<f64> = self.last.iter().chain(&self.open).copied().collect();
        let mut all = self.blocks.clone();
        all.push(Self::reduce(&mut tail, self.last_ns + self.open_ns));
        all
    }

    pub fn len(&self) -> usize {
        self.ops
    }

    pub fn blocks(&self) -> usize {
        self.blocks.len() + 1
    }

    fn median_of(&self, f: impl Fn(&(f64, f64, f64)) -> f64) -> f64 {
        median(&self.all_blocks().iter().map(f).collect::<Vec<_>>())
    }

    pub fn p50_ns(&self) -> f64 {
        self.median_of(|b| b.0)
    }

    pub fn p90_ns(&self) -> f64 {
        self.median_of(|b| b.1)
    }

    pub fn ops_per_s(&self) -> f64 {
        self.median_of(|b| b.2)
    }
}

/// The end-to-end metrics every workload reports from an untraced run.
pub fn e2e_metrics(setup_s: &[f64], log: &OpLog, items_per_op: usize) -> MetricList {
    println!(
        "samples: {} ops in {} blocks; items_per_s, op_p50_us and op_p90_us are medians over blocks",
        log.len(),
        log.blocks()
    );
    let mut m = MetricList::default();
    m.push("setup_s", median(setup_s), "s");
    m.push("items_per_s", log.ops_per_s() * items_per_op as f64, "1/s");
    m.push("op_p50_us", log.p50_ns() / 1e3, "us");
    m.push("op_p90_us", log.p90_ns() / 1e3, "us");
    m.push("peak_rss_mib", peak_rss_mib(), "MiB");
    m
}

/// The `kernel.*_ns_per_item` probes: the three kernel entry points the
/// algorithms bottom out in, called directly on `data`.
pub fn kernel_probes(data: &[u64], m: &mut MetricList) {
    let n = data.len();
    let reps = ((1usize << 24) / n.max(1)).clamp(5, 2000);
    let absent = (0u64..)
        .find(|v| !data.contains(v))
        .expect("a u64 is absent");
    let per_item = |ns: f64| ns / n as f64;

    let fold = median_ns(reps, || {
        black_box(kernel::reduce::fold_map(
            black_box(data),
            &|x: &u64| *x,
            &|a: u64, b: u64| a.wrapping_add(b),
        ));
    });
    let find = median_ns(reps, || {
        black_box(kernel::compare::find_first_in(0..n, &|i| {
            data[i] == black_box(absent)
        }));
    });
    let mut out = vec![0u64; n];
    let scan = median_ns(reps, || {
        kernel::scan::scan_range_into(
            &mut out,
            0..n,
            &|i| data[i],
            &|a: &u64, b: &u64| a.wrapping_add(*b),
            None,
            false,
        );
        black_box(&out);
    });
    m.push("kernel.fold_ns_per_item", per_item(fold), "ns/item");
    m.push("kernel.find_ns_per_item", per_item(find), "ns/item");
    m.push("kernel.scan_ns_per_item", per_item(scan), "ns/item");
}

/// Scheduling counters and histograms of one pool over a measured
/// interval, read from outside through `Executor::metrics` and
/// `Executor::hist_snapshot`.
pub struct RuntimeWindow {
    metrics: MetricsSnapshot,
    hists: HistSet,
}

impl RuntimeWindow {
    pub fn open(pool: &dyn Executor) -> Self {
        RuntimeWindow {
            metrics: pool.metrics().unwrap_or_default(),
            hists: pool.hist_snapshot().unwrap_or_default(),
        }
    }

    /// The `runtime.*` metrics over `ops` ops. `find` holds the counter
    /// deltas of the `find` calls alone (for the wasted-work ratio).
    pub fn report(
        &self,
        pool: &dyn Executor,
        ops: usize,
        find: &MetricsSnapshot,
        m: &mut MetricList,
    ) {
        let d = pool.metrics().unwrap_or_default().since(&self.metrics);
        let hists = pool.hist_snapshot().unwrap_or_default().since(&self.hists);
        let per_op = |v: u64| v as f64 / ops.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        m.push("runtime.dispatch_us", dispatch_us(pool), "us");
        m.push("runtime.tasks_per_op", per_op(d.tasks_executed), "1/op");
        m.push("runtime.splits_per_op", per_op(d.splits), "1/op");
        m.push("runtime.steals_per_op", per_op(d.steals), "1/op");
        m.push("runtime.parks_per_op", per_op(d.parks), "1/op");
        m.push("runtime.wakeups_per_op", per_op(d.parked_wakeups), "1/op");
        m.push(
            "runtime.steal_success",
            ratio(d.steals, d.steal_attempts),
            "ratio",
        );
        m.push(
            "runtime.wasted_ratio",
            ratio(find.wasted_chunks, find.tasks_executed),
            "ratio",
        );
        m.push(
            "runtime.task_p50_ns",
            hists.get(HistKind::TaskDuration).quantile(0.5) as f64,
            "ns",
        );
    }
}

/// Median round trip of an empty two-task `Executor::run`.
fn dispatch_us(pool: &dyn Executor) -> f64 {
    median_ns(2000, || {
        pool.run(2, &|i| {
            black_box(i);
        })
    }) / 1e3
}

/// The conservation law of the runtime counters, checked from outside
/// after every run. Prints the ledger on a violation.
pub fn steals_balanced(what: &str, m: &MetricsSnapshot) -> bool {
    let ok = m.steals == m.local_steals + m.remote_steals;
    if !ok {
        eprintln!(
            "conservation violated ({what}): steals {} != local_steals {} + remote_steals {}",
            m.steals, m.local_steals, m.remote_steals
        );
    }
    ok
}
