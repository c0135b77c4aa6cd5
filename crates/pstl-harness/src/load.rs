//! Open- and closed-loop load generators for the job service.
//!
//! The harness's `Bench` loop measures throughput of one operation run
//! back-to-back; serving experiments instead need *latency under an
//! offered load*. This module drives a [`JobService`] the way a client
//! population would and reports exact (not histogram-bucketed)
//! p50/p99/p999 latencies from the full sorted sample set:
//!
//! - **Closed loop** ([`LoadMode::Closed`]): `concurrency` clients each
//!   submit, wait for the outcome, and immediately submit again. The
//!   offered rate self-limits to service capacity, so queues stay
//!   short; this measures best-case service latency.
//! - **Open loop** ([`LoadMode::Open`]): submissions arrive as a
//!   seeded Poisson process (`rate` per second on average, exponential
//!   inter-arrival gaps) regardless of completions — the arrival model
//!   behind tail-latency studies. Past saturation the queue grows and
//!   admission control — not the generator — decides what to shed.
//!
//! Latency is client-visible time: submission instant to terminal
//! instant (via [`JobHandle::wait_timed`]), including queue wait,
//! retries, and execution. Only completed jobs contribute samples;
//! shed/cancelled/failed jobs are counted per class instead.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use pstl_executor::{CancelToken, JobHandle, JobOutcome, JobService, JobSpec, Priority};
use serde::Serialize;

/// How submissions are paced.
#[derive(Debug, Clone, Copy)]
pub enum LoadMode {
    /// `concurrency` clients in a submit→wait→repeat loop.
    Closed {
        /// Number of concurrent client threads.
        concurrency: usize,
    },
    /// Submissions on a fixed schedule, independent of completions.
    Open {
        /// Target arrivals per second.
        rate: f64,
    },
}

/// Load-generator configuration. `spec` is the template for every
/// submission; the generator overrides its `priority` (drawn from
/// `mix`) and `tenant` (uniform over `0..tenants`).
#[derive(Debug, Clone)]
pub struct LoadGen {
    /// Pacing discipline.
    pub mode: LoadMode,
    /// Length of the submission window.
    pub duration: Duration,
    /// Relative weights for \[Low, Normal, High\] traffic. All-zero
    /// falls back to all-Normal.
    pub mix: [u32; 3],
    /// Number of distinct tenants to spread submissions over (min 1).
    pub tenants: u64,
    /// Seed for the deterministic class/tenant draw.
    pub seed: u64,
    /// Template for every submission.
    pub spec: JobSpec,
}

impl LoadGen {
    /// A closed-loop generator with `concurrency` clients.
    pub fn closed(concurrency: usize, duration: Duration) -> Self {
        LoadGen {
            mode: LoadMode::Closed {
                concurrency: concurrency.max(1),
            },
            duration,
            mix: [0, 1, 0],
            tenants: 1,
            seed: 0x10AD,
            spec: JobSpec::default(),
        }
    }

    /// An open-loop generator offering `rate` submissions per second.
    pub fn open(rate: f64, duration: Duration) -> Self {
        LoadGen {
            mode: LoadMode::Open {
                rate: rate.max(1.0),
            },
            duration,
            mix: [0, 1, 0],
            tenants: 1,
            seed: 0x10AD,
            spec: JobSpec::default(),
        }
    }

    /// Set the \[Low, Normal, High\] traffic weights.
    pub fn with_mix(mut self, mix: [u32; 3]) -> Self {
        self.mix = mix;
        self
    }

    /// Spread submissions over `tenants` distinct tenant ids.
    pub fn with_tenants(mut self, tenants: u64) -> Self {
        self.tenants = tenants.max(1);
        self
    }

    /// Set the RNG seed (two runs with equal config and seed draw the
    /// same class/tenant sequence).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the submission template.
    pub fn with_spec(mut self, spec: JobSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Drive `svc` with `body` for the configured window and harvest
    /// every outcome. Blocks until all submitted jobs are terminal.
    /// The body receives the job's priority class, so workloads can
    /// give different classes different cost profiles (e.g. heavyweight
    /// interactive queries over a stream of small bulk ops).
    pub fn run<F>(&self, svc: &JobService, body: F) -> LoadReport
    where
        F: Fn(&CancelToken, Priority) + Clone + Send + 'static,
    {
        match self.mode {
            LoadMode::Closed { concurrency } => self.run_closed(svc, body, concurrency),
            LoadMode::Open { rate } => self.run_open(svc, body, rate),
        }
    }

    fn run_open<F>(&self, svc: &JobService, body: F, rate: f64) -> LoadReport
    where
        F: Fn(&CancelToken, Priority) + Clone + Send + 'static,
    {
        let mut agg = ClassAgg::default();
        let mut pending: Vec<(usize, Instant, JobHandle<()>)> = Vec::new();
        let mut rng = self.seed | 1;
        let start = Instant::now();
        let deadline = start + self.duration;
        // Poisson arrivals: the k-th submission is scheduled at the
        // cumulative sum of exponential gaps. A deterministic 1/rate
        // pacer would never queue below saturation (D/D/1), making
        // "unloaded" latency an unreachable baseline; real open-loop
        // traffic is bursty and its tails include residual service
        // waits at every load factor.
        let mut next_arrival = 0.0f64;
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // A tight catch-up loop preserves the open-loop property
            // when the generator falls behind (submissions burst,
            // never drop).
            let target = start + Duration::from_secs_f64(next_arrival);
            if now < target {
                std::thread::sleep((target - now).min(Duration::from_micros(200)));
                continue;
            }
            next_arrival += exp_gap(&mut rng) / rate;
            let class = pick_class(&mut rng, self.mix);
            let spec = self.spec_for(&mut rng, class);
            let job = {
                let body = body.clone();
                let p = Priority::ALL[class];
                move |t: &CancelToken| body(t, p)
            };
            agg.submitted[class] += 1;
            // Stamped before `submit`, like the closed loop: a generator
            // descheduled inside `submit` must not start the clock after
            // the job has already run.
            let submitted = Instant::now();
            match svc.submit(spec, job) {
                Ok(handle) => pending.push((class, submitted, handle)),
                Err(_) => agg.rejected[class] += 1,
            }
        }
        let window = start.elapsed();
        for (class, submitted, handle) in pending {
            let (outcome, resolved) = handle.wait_timed();
            agg.record(
                class,
                &outcome,
                resolved.saturating_duration_since(submitted),
            );
        }
        self.report("open", rate, window, agg)
    }

    fn run_closed<F>(&self, svc: &JobService, body: F, concurrency: usize) -> LoadReport
    where
        F: Fn(&CancelToken, Priority) + Clone + Send + 'static,
    {
        let merged = Mutex::new(ClassAgg::default());
        let start = Instant::now();
        let deadline = start + self.duration;
        std::thread::scope(|scope| {
            for client in 0..concurrency {
                let body = body.clone();
                let merged = &merged;
                let gen = self;
                scope.spawn(move || {
                    // Distinct per-client stream; golden-ratio stride
                    // keeps streams decorrelated for nearby indices.
                    let mut rng =
                        (gen.seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
                    let mut local = ClassAgg::default();
                    while Instant::now() < deadline {
                        let class = pick_class(&mut rng, gen.mix);
                        let spec = gen.spec_for(&mut rng, class);
                        let job = {
                            let body = body.clone();
                            let p = Priority::ALL[class];
                            move |t: &CancelToken| body(t, p)
                        };
                        local.submitted[class] += 1;
                        let submitted = Instant::now();
                        match svc.submit(spec, job) {
                            Ok(handle) => {
                                let (outcome, resolved) = handle.wait_timed();
                                local.record(
                                    class,
                                    &outcome,
                                    resolved.saturating_duration_since(submitted),
                                );
                            }
                            Err(_) => {
                                local.rejected[class] += 1;
                                // Back off instead of hot-spinning the
                                // admission path while the queue drains.
                                std::thread::sleep(Duration::from_micros(50));
                            }
                        }
                    }
                    merged.lock().unwrap().merge(local);
                });
            }
        });
        let window = start.elapsed();
        let agg = merged.into_inner().unwrap();
        let achieved = agg.submitted.iter().sum::<u64>() as f64 / window.as_secs_f64().max(1e-9);
        self.report("closed", achieved, window, agg)
    }

    fn spec_for(&self, rng: &mut u64, class: usize) -> JobSpec {
        let mut spec = self.spec;
        spec.priority = Priority::ALL[class];
        spec.tenant = xorshift(rng) % self.tenants.max(1);
        spec
    }

    fn report(&self, mode: &str, offered: f64, window: Duration, mut agg: ClassAgg) -> LoadReport {
        let wall_s = window.as_secs_f64().max(1e-9);
        let completed: u64 = agg.completed.iter().sum();
        let per_class = std::array::from_fn(|i| ClassLoad {
            class: Priority::ALL[i].name().to_string(),
            submitted: agg.submitted[i],
            rejected: agg.rejected[i],
            completed: agg.completed[i],
            shed: agg.shed[i],
            cancelled: agg.cancelled[i],
            failed: agg.failed[i],
            latency: LatencySummary::from_samples(&mut agg.samples[i]),
        });
        LoadReport {
            mode: mode.to_string(),
            offered_per_sec: offered,
            completed_per_sec: completed as f64 / wall_s,
            wall_s,
            submitted: agg.submitted.iter().sum(),
            rejected: agg.rejected.iter().sum(),
            per_class,
        }
    }
}

/// Per-class outcome counts and latency samples, merged across clients.
#[derive(Debug, Default)]
struct ClassAgg {
    submitted: [u64; 3],
    rejected: [u64; 3],
    completed: [u64; 3],
    shed: [u64; 3],
    cancelled: [u64; 3],
    failed: [u64; 3],
    samples: [Vec<u64>; 3],
}

impl ClassAgg {
    fn record(&mut self, class: usize, outcome: &JobOutcome<()>, latency: Duration) {
        match outcome {
            JobOutcome::Completed(()) => {
                self.completed[class] += 1;
                self.samples[class].push(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
            }
            JobOutcome::Shed(_) => self.shed[class] += 1,
            JobOutcome::Cancelled => self.cancelled[class] += 1,
            JobOutcome::Failed { .. } => self.failed[class] += 1,
        }
    }

    fn merge(&mut self, other: ClassAgg) {
        for i in 0..3 {
            self.submitted[i] += other.submitted[i];
            self.rejected[i] += other.rejected[i];
            self.completed[i] += other.completed[i];
            self.shed[i] += other.shed[i];
            self.cancelled[i] += other.cancelled[i];
            self.failed[i] += other.failed[i];
        }
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
    }
}

/// Exact latency quantiles over the full sample set (nearest-rank on
/// the sorted samples — no histogram bucketing error).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean, nanoseconds.
    pub mean_ns: f64,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile, nanoseconds.
    pub p999_ns: u64,
    /// Largest sample, nanoseconds.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarize `samples` (sorted in place); `None` when empty.
    pub fn from_samples(samples: &mut [u64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let count = samples.len() as u64;
        let mean_ns = samples.iter().map(|&v| v as f64).sum::<f64>() / count as f64;
        Some(LatencySummary {
            count,
            mean_ns,
            p50_ns: nearest_rank(samples, 0.50),
            p99_ns: nearest_rank(samples, 0.99),
            p999_ns: nearest_rank(samples, 0.999),
            max_ns: *samples.last().unwrap(),
        })
    }
}

/// Nearest-rank quantile of a sorted slice: the smallest sample with at
/// least `q` of the distribution at or below it.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-class slice of a [`LoadReport`].
#[derive(Debug, Clone, Serialize)]
pub struct ClassLoad {
    /// Class name (`low` / `normal` / `high`).
    pub class: String,
    /// Submissions attempted for this class.
    pub submitted: u64,
    /// Refused at admission (queue full / quota / shedding).
    pub rejected: u64,
    /// Admitted and completed.
    pub completed: u64,
    /// Admitted then shed (overload, deadline, or shutdown).
    pub shed: u64,
    /// Admitted then cancelled.
    pub cancelled: u64,
    /// Admitted and failed after exhausting retries.
    pub failed: u64,
    /// Client-visible latency of completed jobs; `None` if none
    /// completed.
    pub latency: Option<LatencySummary>,
}

/// Everything one generator run observed. `completed_per_sec` divides
/// by the submission window, so for open-loop runs past saturation it
/// converges to service capacity while `offered_per_sec` stays at the
/// configured rate.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// `"open"` or `"closed"`.
    pub mode: String,
    /// Configured rate (open) or achieved submit rate (closed).
    pub offered_per_sec: f64,
    /// Completions divided by the submission window.
    pub completed_per_sec: f64,
    /// Submission-window length, seconds.
    pub wall_s: f64,
    /// Total submissions across classes.
    pub submitted: u64,
    /// Total admission rejections across classes.
    pub rejected: u64,
    /// Per-class outcomes, lowest class first.
    pub per_class: [ClassLoad; 3],
}

impl LoadReport {
    /// The per-class slice for `p`.
    pub fn class(&self, p: Priority) -> &ClassLoad {
        &self.per_class[p as usize]
    }

    /// Every submission reached a terminal account: rejected at
    /// admission or resolved as completed/shed/cancelled/failed.
    pub fn accounted(&self) -> bool {
        self.per_class
            .iter()
            .all(|c| c.submitted == c.rejected + c.completed + c.shed + c.cancelled + c.failed)
    }
}

/// A unit-mean exponential draw (an inter-arrival gap at rate 1).
fn exp_gap(rng: &mut u64) -> f64 {
    // 53 high bits → uniform in [0, 1); flip to (0, 1] so ln is finite.
    let u = 1.0 - (xorshift(rng) >> 11) as f64 / (1u64 << 53) as f64;
    -u.ln()
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Weighted class draw; all-zero weights fall back to Normal.
fn pick_class(rng: &mut u64, mix: [u32; 3]) -> usize {
    let total: u64 = mix.iter().map(|&w| u64::from(w)).sum();
    if total == 0 {
        return Priority::Normal as usize;
    }
    let mut r = xorshift(rng) % total;
    for (i, &w) in mix.iter().enumerate() {
        let w = u64::from(w);
        if r < w {
            return i;
        }
        r -= w;
    }
    Priority::Normal as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstl_executor::ServiceConfig;

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let mut samples: Vec<u64> = (1..=1000).collect();
        let s = LatencySummary::from_samples(&mut samples).unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50_ns, 500);
        assert_eq!(s.p99_ns, 990);
        assert_eq!(s.p999_ns, 999);
        assert_eq!(s.max_ns, 1000);
        assert!((s.mean_ns - 500.5).abs() < 1e-9);

        let mut one = vec![42];
        let s = LatencySummary::from_samples(&mut one).unwrap();
        assert_eq!((s.p50_ns, s.p99_ns, s.p999_ns, s.max_ns), (42, 42, 42, 42));

        let mut empty: Vec<u64> = Vec::new();
        assert!(LatencySummary::from_samples(&mut empty).is_none());
    }

    #[test]
    fn class_mix_is_deterministic_and_respects_weights() {
        let mut a = 7u64;
        let mut b = 7u64;
        for _ in 0..64 {
            assert_eq!(pick_class(&mut a, [1, 6, 3]), pick_class(&mut b, [1, 6, 3]));
        }
        let mut rng = 11u64;
        for _ in 0..64 {
            assert_eq!(pick_class(&mut rng, [0, 0, 5]), Priority::High as usize);
        }
        let mut rng = 13u64;
        for _ in 0..64 {
            assert_eq!(pick_class(&mut rng, [0, 0, 0]), Priority::Normal as usize);
        }
    }

    #[test]
    fn closed_loop_accounts_every_submission() {
        let svc = JobService::new(ServiceConfig::new(2));
        let report = LoadGen::closed(3, Duration::from_millis(60))
            .with_mix([1, 2, 1])
            .with_tenants(4)
            .run(&svc, |_t, _p| std::hint::black_box(()));
        assert_eq!(report.mode, "closed");
        assert!(report.submitted > 0);
        assert!(report.accounted(), "report: {report:?}");
        // Closed-loop clients wait for each job, so nothing is shed and
        // every admitted job completes.
        let completed: u64 = report.per_class.iter().map(|c| c.completed).sum();
        assert!(completed > 0);
        assert!(report.class(Priority::Normal).latency.is_some());
    }

    #[test]
    fn open_loop_offers_the_configured_rate() {
        let svc = JobService::new(ServiceConfig::new(2));
        let report = LoadGen::open(2_000.0, Duration::from_millis(100))
            .run(&svc, |_t, _p| std::hint::black_box(()));
        assert_eq!(report.mode, "open");
        assert!((report.offered_per_sec - 2_000.0).abs() < 1e-9);
        // ~200 arrivals scheduled; the catch-up loop may land a touch
        // over the window boundary but never doubles the schedule.
        assert!(report.submitted >= 100, "submitted {}", report.submitted);
        assert!(report.submitted <= 250, "submitted {}", report.submitted);
        assert!(report.accounted(), "report: {report:?}");
    }
}
