//! Trace analytics: per-worker totals, utilization timelines, critical
//! path, and bottleneck classification.
//!
//! The one reduction of a drained [`TraceLog`]: a single pass over every
//! track reconstructs its outermost task intervals and counts its
//! scheduler events, and the rest answers the paper's *why* questions:
//!
//! * **per-worker rows** ([`WorkerRow`]): busy time, utilization, task
//!   starts, steal attempts/successes by locality, parks and splits,
//!   plus the pool-wide **task-size distribution**;
//! * a binned **utilization timeline** (average fraction of the pool
//!   busy in each time slice) plus per-worker min/max utilization —
//!   the imbalance evidence;
//! * an approximate **critical path**: the longest chain of
//!   non-overlapping task intervals built by greedy backward chaining
//!   (from the last task end, repeatedly hop to the interval with the
//!   latest end not after the current chain start). Exact dependency
//!   edges are not recorded, so this is a lower-bound-flavoured
//!   estimate of the serial spine, good for comparing runs of the same
//!   workload;
//! * the **serial fraction**: share of the capture span with at most
//!   one task in flight anywhere in the pool;
//! * the **steal-latency distribution** as a mergeable
//!   [`HistSnapshot`];
//! * a **bottleneck classification** mirroring the paper's regimes
//!   (imbalance vs scheduling overhead vs serialized), with the
//!   thresholds spelled out in [`classify`].

use crate::hist::HistSnapshot;
use crate::{EventKind, TraceLog};

/// Number of slices in the utilization timeline.
pub const TIMELINE_BINS: usize = 64;

/// One closed outermost task interval on some track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskInterval {
    pub start_ns: u64,
    pub end_ns: u64,
}

impl TaskInterval {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The regime a capture is dominated by. Thresholds in [`classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Workers evenly busy; nothing dominates.
    Balanced,
    /// Busy time is concentrated on few workers (skew the partitioner
    /// failed to spread).
    Imbalance,
    /// Many scheduler events per executed task with low utilization —
    /// the HPX-style chunk-management overhead regime.
    SchedulingOverhead,
    /// Most of the span has at most one task in flight.
    Serialized,
}

impl Bottleneck {
    /// Stable lowercase name used in JSON reports.
    pub fn name(&self) -> &'static str {
        match self {
            Bottleneck::Balanced => "balanced",
            Bottleneck::Imbalance => "imbalance",
            Bottleneck::SchedulingOverhead => "scheduling_overhead",
            Bottleneck::Serialized => "serialized",
        }
    }
}

impl std::fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One track's totals.
#[derive(Debug, Clone, Default)]
pub struct WorkerRow {
    pub label: String,
    pub events: usize,
    /// Nanoseconds inside outermost task blocks (nested starts are
    /// already covered by their parent).
    pub busy_ns: u64,
    /// `busy_ns` over the capture span.
    pub utilization: f64,
    /// `TaskStart` events, nested ones included.
    pub tasks: u64,
    pub steal_attempts: u64,
    pub steals: u64,
    /// Successful steals from a victim on the thief's own NUMA node.
    pub local_steals: u64,
    /// Successful steals that crossed NUMA nodes.
    pub remote_steals: u64,
    pub parks: u64,
    /// Lazy range splits published from this track (the adaptive
    /// partitioner's shared `splitter` track carries all of them).
    pub splits: u64,
}

/// Full analysis of one capture.
#[derive(Debug, Clone)]
pub struct Analysis {
    pub discipline: &'static str,
    pub threads: usize,
    /// Wall span of the capture (first to last event timestamp).
    pub span_ns: u64,
    /// One row per track, in [`TraceLog`] order.
    pub workers: Vec<WorkerRow>,
    /// Total busy nanoseconds summed over all tracks.
    pub total_busy_ns: u64,
    /// Average pool utilization: `total_busy / (span * threads)`.
    pub utilization: f64,
    /// Utilization of the least/most busy track that started tasks.
    pub util_min: f64,
    pub util_max: f64,
    /// [`TIMELINE_BINS`] slices: average fraction of the pool's threads
    /// busy during each slice of the span.
    pub timeline: Vec<f64>,
    /// Greedy backward-chained critical path through task intervals.
    pub critical_path_ns: u64,
    /// Number of intervals on the chained path.
    pub critical_path_tasks: usize,
    /// `critical_path_ns / span_ns` — 1.0 means the span is a single
    /// serial spine.
    pub critical_path_fraction: f64,
    /// Fraction of the span with ≤ 1 task in flight pool-wide.
    pub serial_fraction: f64,
    /// Attempt→success steal latencies.
    pub steal_latency: HistSnapshot,
    /// Sizes (indices) of every started task block.
    pub task_sizes: HistSnapshot,
    /// Outermost task intervals executed.
    pub tasks: u64,
    /// Non-task scheduler events (spawns, steals, parks, splits, ...).
    pub sched_events: u64,
    /// `sched_events / tasks` (0 when no tasks ran).
    pub sched_events_per_task: f64,
    pub bottleneck: Bottleneck,
}

/// Greedy backward chain: repeatedly take the interval with the latest
/// end that does not extend past the current chain start.
fn critical_path(mut intervals: Vec<TaskInterval>) -> (u64, usize) {
    intervals.sort_unstable_by_key(|iv| std::cmp::Reverse(iv.end_ns));
    let mut cursor = u64::MAX;
    let mut total = 0u64;
    let mut count = 0usize;
    for iv in intervals {
        if iv.end_ns <= cursor && iv.duration() > 0 {
            total += iv.duration();
            count += 1;
            cursor = iv.start_ns;
        }
    }
    (total, count)
}

/// Fraction of `[t_min, t_max]` during which at most one interval is
/// active, via an endpoint sweep.
fn serial_fraction(intervals: &[TaskInterval], t_min: u64, t_max: u64) -> f64 {
    let span = t_max.saturating_sub(t_min);
    if span == 0 {
        return 1.0;
    }
    let mut edges: Vec<(u64, i64)> = Vec::with_capacity(intervals.len() * 2);
    for iv in intervals {
        edges.push((iv.start_ns, 1));
        edges.push((iv.end_ns, -1));
    }
    edges.sort_unstable();
    let mut active = 0i64;
    let mut prev = t_min;
    let mut serial_ns = 0u64;
    for (t, d) in edges {
        let t = t.clamp(t_min, t_max);
        if active <= 1 {
            serial_ns += t.saturating_sub(prev);
        }
        prev = t;
        active += d;
    }
    if active <= 1 {
        serial_ns += t_max.saturating_sub(prev);
    }
    serial_ns as f64 / span as f64
}

/// Classification thresholds, in priority order:
///
/// 1. `serial_fraction > 0.6` on a multi-threaded pool → `Serialized`;
/// 2. `sched_events_per_task > 8` with `utilization < 0.5` →
///    `SchedulingOverhead`;
/// 3. `util_max - util_min > 0.4` with `utilization < 0.75` →
///    `Imbalance`;
/// 4. otherwise `Balanced`.
pub fn classify(a: &Analysis) -> Bottleneck {
    if a.tasks == 0 || a.span_ns == 0 {
        return Bottleneck::Balanced;
    }
    if a.threads > 1 && a.serial_fraction > 0.6 {
        return Bottleneck::Serialized;
    }
    if a.sched_events_per_task > 8.0 && a.utilization < 0.5 {
        return Bottleneck::SchedulingOverhead;
    }
    if a.util_max - a.util_min > 0.4 && a.utilization < 0.75 {
        return Bottleneck::Imbalance;
    }
    Bottleneck::Balanced
}

/// Analyze a drained capture. Deterministic: the same `TraceLog`
/// always produces the same `Analysis`.
pub fn analyze_log(log: &TraceLog) -> Analysis {
    let all_times = log
        .workers
        .iter()
        .flat_map(|w| w.events.iter().map(|e| e.t_ns));
    let t_min = all_times.clone().min().unwrap_or(0);
    let t_max = all_times.max().unwrap_or(0);
    let span_ns = t_max - t_min;
    let threads = log.threads.max(1);

    let mut all_intervals: Vec<TaskInterval> = Vec::new();
    let mut steal_latency = HistSnapshot::new();
    let mut task_sizes = HistSnapshot::new();
    let mut sched_events = 0u64;
    let mut workers = Vec::with_capacity(log.workers.len());
    for w in &log.workers {
        let mut row = WorkerRow {
            label: w.label.clone(),
            events: w.events.len(),
            ..WorkerRow::default()
        };
        // Open task starts; a leading orphan finish (its start drained
        // by an earlier take) pops nothing, and a trailing open start
        // never closes — the drain-boundary states the validator allows.
        let mut open: Vec<u64> = Vec::new();
        let mut last_attempt: Option<u64> = None;
        for e in &w.events {
            match e.kind {
                EventKind::TaskStart { size } => {
                    row.tasks += 1;
                    task_sizes.record(size);
                    open.push(e.t_ns);
                    continue;
                }
                EventKind::TaskFinish => {
                    match open.pop() {
                        Some(start_ns) if open.is_empty() => {
                            let iv = TaskInterval {
                                start_ns,
                                end_ns: e.t_ns,
                            };
                            row.busy_ns += iv.duration();
                            all_intervals.push(iv);
                        }
                        _ => {}
                    }
                    continue;
                }
                EventKind::StealAttempt { .. } => {
                    row.steal_attempts += 1;
                    last_attempt = Some(e.t_ns);
                }
                EventKind::StealSuccess { .. } => {
                    row.steals += 1;
                    if let Some(t) = last_attempt.take() {
                        steal_latency.record(e.t_ns.saturating_sub(t));
                    }
                }
                EventKind::LocalSteal { .. } => row.local_steals += 1,
                EventKind::RemoteSteal { .. } => row.remote_steals += 1,
                EventKind::Park => row.parks += 1,
                EventKind::RangeSplit { .. } => row.splits += 1,
                _ => {}
            }
            sched_events += 1;
        }
        if span_ns > 0 {
            row.utilization = row.busy_ns as f64 / span_ns as f64;
        }
        workers.push(row);
    }

    let total_busy_ns: u64 = workers.iter().map(|r| r.busy_ns).sum();
    let tasks = all_intervals.len() as u64;
    let denom = span_ns.saturating_mul(threads as u64);
    let utilization = if denom > 0 {
        total_busy_ns as f64 / denom as f64
    } else {
        0.0
    };
    let task_utils = workers
        .iter()
        .filter(|r| r.tasks > 0)
        .map(|r| r.utilization);
    let util_min = task_utils.clone().reduce(f64::min).unwrap_or(0.0);
    let util_max = task_utils.reduce(f64::max).unwrap_or(0.0);

    // Timeline: distribute each interval's overlap over the bins.
    let mut timeline = vec![0.0f64; TIMELINE_BINS];
    if span_ns > 0 {
        let bin_w = span_ns as f64 / TIMELINE_BINS as f64;
        for iv in &all_intervals {
            let s = (iv.start_ns - t_min) as f64;
            let e = (iv.end_ns - t_min) as f64;
            let first = ((s / bin_w) as usize).min(TIMELINE_BINS - 1);
            let last = ((e / bin_w) as usize).min(TIMELINE_BINS - 1);
            for (b, slot) in timeline.iter_mut().enumerate().take(last + 1).skip(first) {
                let lo = (b as f64 * bin_w).max(s);
                let hi = ((b + 1) as f64 * bin_w).min(e);
                if hi > lo {
                    *slot += (hi - lo) / (bin_w * threads as f64);
                }
            }
        }
    }

    let (critical_path_ns, critical_path_tasks) = critical_path(all_intervals.clone());
    let critical_path_fraction = if span_ns > 0 {
        critical_path_ns as f64 / span_ns as f64
    } else {
        0.0
    };
    let serial = serial_fraction(&all_intervals, t_min, t_max);
    let sched_events_per_task = if tasks > 0 {
        sched_events as f64 / tasks as f64
    } else {
        0.0
    };

    let mut analysis = Analysis {
        discipline: log.discipline,
        threads: log.threads,
        span_ns,
        workers,
        total_busy_ns,
        utilization,
        util_min,
        util_max,
        timeline,
        critical_path_ns,
        critical_path_tasks,
        critical_path_fraction,
        serial_fraction: serial,
        steal_latency,
        task_sizes,
        tasks,
        sched_events,
        sched_events_per_task,
        bottleneck: Bottleneck::Balanced,
    };
    analysis.bottleneck = classify(&analysis);
    analysis
}

impl std::fmt::Display for Analysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "analysis: {} (threads={}, span={:.3} ms, bottleneck={})",
            self.discipline,
            self.threads,
            self.span_ns as f64 / 1e6,
            self.bottleneck
        )?;
        writeln!(
            f,
            "  utilization avg {:.1}% (min {:.1}%, max {:.1}%), serial {:.1}%",
            self.utilization * 100.0,
            self.util_min * 100.0,
            self.util_max * 100.0,
            self.serial_fraction * 100.0
        )?;
        writeln!(
            f,
            "  critical path {:.3} ms over {} task(s) ({:.1}% of span)",
            self.critical_path_ns as f64 / 1e6,
            self.critical_path_tasks,
            self.critical_path_fraction * 100.0
        )?;
        writeln!(
            f,
            "  {} tasks, {} sched events ({:.2}/task)",
            self.tasks, self.sched_events, self.sched_events_per_task
        )?;
        if !self.steal_latency.is_empty() {
            writeln!(
                f,
                "  steal latency: n={} p50<={}ns p99<={}ns max={}ns",
                self.steal_latency.count(),
                self.steal_latency.quantile(0.50),
                self.steal_latency.quantile(0.99),
                self.steal_latency.max
            )?;
        }
        if !self.task_sizes.is_empty() {
            writeln!(
                f,
                "  task sizes: n={} p50<={} p99<={} max={}",
                self.task_sizes.count(),
                self.task_sizes.quantile(0.50),
                self.task_sizes.quantile(0.99),
                self.task_sizes.max
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, WorkerTrace};

    fn ev(t_ns: u64, kind: EventKind) -> Event {
        Event { t_ns, kind }
    }

    fn track(label: &str, events: Vec<Event>) -> WorkerTrace {
        WorkerTrace {
            label: label.into(),
            events,
            dropped: 0,
        }
    }

    fn log(threads: usize, workers: Vec<WorkerTrace>) -> TraceLog {
        TraceLog {
            discipline: "test",
            threads,
            workers,
        }
    }

    #[test]
    fn empty_log_is_balanced_zeroes() {
        let a = analyze_log(&log(4, vec![]));
        assert_eq!(a.span_ns, 0);
        assert_eq!(a.tasks, 0);
        assert_eq!(a.bottleneck, Bottleneck::Balanced);
    }

    #[test]
    fn utilization_and_timeline_cover_parallel_work() {
        // Two workers each busy the full span: utilization = 1.
        let a = analyze_log(&log(
            2,
            vec![
                track(
                    "worker-0",
                    vec![
                        ev(0, EventKind::TaskStart { size: 8 }),
                        ev(1000, EventKind::TaskFinish),
                    ],
                ),
                track(
                    "worker-1",
                    vec![
                        ev(0, EventKind::TaskStart { size: 8 }),
                        ev(1000, EventKind::TaskFinish),
                    ],
                ),
            ],
        ));
        assert!((a.utilization - 1.0).abs() < 1e-9, "{}", a.utilization);
        assert_eq!(a.tasks, 2);
        assert!(a.timeline.iter().all(|&b| (b - 1.0).abs() < 1e-6));
        // Fully parallel: critical path is one task, half the total busy.
        assert_eq!(a.critical_path_ns, 1000);
        assert_eq!(a.critical_path_tasks, 1);
        assert!(a.serial_fraction < 1e-9);
        assert_eq!(a.bottleneck, Bottleneck::Balanced);
    }

    #[test]
    fn critical_path_chains_sequential_intervals() {
        // worker-0: [0,400]; worker-1: [500,1000] — a serial chain with
        // a gap; the chain must include both.
        let a = analyze_log(&log(
            2,
            vec![
                track(
                    "worker-0",
                    vec![
                        ev(0, EventKind::TaskStart { size: 4 }),
                        ev(400, EventKind::TaskFinish),
                    ],
                ),
                track(
                    "worker-1",
                    vec![
                        ev(500, EventKind::TaskStart { size: 4 }),
                        ev(1000, EventKind::TaskFinish),
                    ],
                ),
            ],
        ));
        assert_eq!(a.critical_path_ns, 900);
        assert_eq!(a.critical_path_tasks, 2);
        // Never more than one task in flight → fully serial.
        assert!((a.serial_fraction - 1.0).abs() < 1e-9);
        assert_eq!(a.bottleneck, Bottleneck::Serialized);
    }

    #[test]
    fn imbalance_is_detected() {
        // One worker busy all span, three idle ones with token tasks.
        let mut workers = vec![track(
            "worker-0",
            vec![
                ev(0, EventKind::TaskStart { size: 64 }),
                ev(10_000, EventKind::TaskFinish),
            ],
        )];
        for i in 1..4 {
            workers.push(track(
                &format!("worker-{i}"),
                vec![
                    ev(0, EventKind::TaskStart { size: 1 }),
                    ev(500, EventKind::TaskFinish),
                ],
            ));
        }
        let a = analyze_log(&log(4, workers));
        assert!(a.util_max > 0.9 && a.util_min < 0.1);
        assert!(a.utilization < 0.5);
        // Not serialized: the head of the span has 4 tasks in flight.
        assert!(a.serial_fraction > 0.6, "{}", a.serial_fraction);
        // With serial > 0.6 this classifies Serialized (the long tail
        // really is one worker running alone); drop a steady drumbeat of
        // overlapping tasks on another worker to isolate imbalance.
        let mut workers2 = vec![track(
            "worker-0",
            vec![
                ev(0, EventKind::TaskStart { size: 64 }),
                ev(10_000, EventKind::TaskFinish),
            ],
        )];
        for i in 1..4 {
            let mut evs = Vec::new();
            // Busy only 30% of the span, in slices spread across it.
            for k in 0..10u64 {
                evs.push(ev(k * 1000, EventKind::TaskStart { size: 1 }));
                evs.push(ev(k * 1000 + 300, EventKind::TaskFinish));
            }
            workers2.push(track(&format!("worker-{i}"), evs));
        }
        let a2 = analyze_log(&log(4, workers2));
        assert!(a2.serial_fraction <= 0.6 + 0.2, "{}", a2.serial_fraction);
        assert!(a2.util_max - a2.util_min > 0.4);
        assert!(matches!(
            a2.bottleneck,
            Bottleneck::Imbalance | Bottleneck::Serialized
        ));
    }

    #[test]
    fn scheduling_overhead_is_detected() {
        // Tiny tasks drowned in steal chatter.
        let mut evs = Vec::new();
        let mut t = 0;
        for _ in 0..10 {
            for v in 0..12 {
                evs.push(ev(t, EventKind::StealAttempt { victim: v }));
                t += 10;
            }
            evs.push(ev(t, EventKind::TaskStart { size: 1 }));
            t += 5;
            evs.push(ev(t, EventKind::TaskFinish));
            t += 100;
        }
        let a = analyze_log(&log(1, vec![track("worker-0", evs)]));
        assert!(a.sched_events_per_task > 8.0);
        assert!(a.utilization < 0.5);
        assert_eq!(a.bottleneck, Bottleneck::SchedulingOverhead);
    }

    #[test]
    fn steal_latencies_are_recorded_pairwise() {
        let a = analyze_log(&log(
            2,
            vec![track(
                "worker-1",
                vec![
                    ev(100, EventKind::StealAttempt { victim: 0 }),
                    ev(250, EventKind::StealSuccess { victim: 0 }),
                    ev(300, EventKind::StealAttempt { victim: 0 }),
                ],
            )],
        ));
        assert_eq!(a.steal_latency.count(), 1);
        let (lo, hi) = a.steal_latency.quantile_bounds(0.5);
        assert!(lo <= 150 && 150 <= hi);
    }

    #[test]
    fn nested_tasks_count_once() {
        let a = analyze_log(&log(
            1,
            vec![track(
                "worker-0",
                vec![
                    ev(0, EventKind::TaskStart { size: 4 }),
                    ev(100, EventKind::TaskStart { size: 2 }),
                    ev(200, EventKind::TaskFinish),
                    ev(400, EventKind::TaskFinish),
                ],
            )],
        ));
        assert_eq!(a.tasks, 1);
        assert_eq!(a.total_busy_ns, 400);
    }

    #[test]
    fn analyze_computes_busy_and_latency() {
        let a = analyze_log(&TraceLog {
            discipline: "work_stealing",
            threads: 2,
            workers: vec![
                track(
                    "worker-0",
                    vec![
                        ev(0, EventKind::TaskStart { size: 8 }),
                        ev(600, EventKind::TaskFinish),
                    ],
                ),
                track(
                    "worker-1",
                    vec![
                        ev(100, EventKind::StealAttempt { victim: 0 }),
                        ev(250, EventKind::StealSuccess { victim: 0 }),
                        ev(300, EventKind::TaskStart { size: 4 }),
                        ev(1000, EventKind::TaskFinish),
                    ],
                ),
            ],
        });
        assert_eq!(a.span_ns, 1000);
        assert_eq!(a.workers[0].busy_ns, 600);
        assert!((a.workers[0].utilization - 0.6).abs() < 1e-9);
        assert_eq!(a.workers[1].steals, 1);
        assert_eq!(a.steal_latency.count(), 1);
        assert_eq!(a.steal_latency.max, 150);
        let (lo, hi) = a.steal_latency.quantile_bounds(0.5);
        assert!(lo <= 150 && 150 <= hi, "p50 bucket ({lo}, {hi})");
        // util_min/util_max are the rows' extremes.
        assert!((a.util_min - 0.6).abs() < 1e-9);
        assert!((a.util_max - 0.7).abs() < 1e-9);
        // One task of size 4 and one of size 8.
        assert_eq!(a.task_sizes.count(), 2);
        assert_eq!(a.task_sizes.buckets[crate::hist::bucket_of(4)], 1);
        assert_eq!(a.task_sizes.buckets[crate::hist::bucket_of(8)], 1);
        // Display renders without panicking and mentions the backend.
        assert!(format!("{a}").contains("work_stealing"));
    }

    #[test]
    fn nested_tasks_count_outer_busy_once() {
        let a = analyze_log(&log(
            1,
            vec![track(
                "worker-0",
                vec![
                    ev(0, EventKind::TaskStart { size: 4 }),
                    ev(100, EventKind::TaskStart { size: 2 }),
                    ev(200, EventKind::TaskFinish),
                    ev(400, EventKind::TaskFinish),
                ],
            )],
        ));
        assert_eq!(a.workers[0].busy_ns, 400);
        assert_eq!(a.workers[0].tasks, 2);
    }

    #[test]
    fn display_renders() {
        let a = analyze_log(&log(
            2,
            vec![track(
                "worker-0",
                vec![
                    ev(0, EventKind::TaskStart { size: 8 }),
                    ev(1000, EventKind::TaskFinish),
                ],
            )],
        ));
        let s = format!("{a}");
        assert!(s.contains("critical path"));
        assert!(s.contains("task sizes: n=1"));
        assert!(s.contains("bottleneck"));
    }
}
