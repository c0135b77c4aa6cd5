//! Streaming execution: pipeline and farm skeletons on the shared
//! runtime (DESIGN §16).
//!
//! The paper benchmarks one-shot parallel-STL calls; a production
//! system serves *streams*. This module adds the classic skeleton layer
//! — `source → stage(s) → sink`, with single-replica (optionally
//! stateful) stages and multi-replica farms in ordered and unordered
//! flavors — scheduled onto the existing executors through the plain
//! [`Executor`] surface: no new worker machinery, no blocking, and the
//! same cancellation and panic-containment semantics as the one-shot
//! algorithms.
//!
//! # Quickstart: streaming word count
//!
//! ```
//! use pstl::stream::Pipeline;
//! use pstl_executor::{build_pool, Discipline};
//!
//! let pool = build_pool(Discipline::WorkStealing, 4);
//! let lines = vec!["a b c".to_string(), "b c".to_string(), "c".to_string()];
//!
//! let counts = Pipeline::source(lines.into_iter())
//!     .farm(2, |line: String| line.split_whitespace().count())
//!     .collect(&*pool)
//!     .unwrap();
//! assert_eq!(counts.iter().sum::<usize>(), 6);
//! ```
//!
//! # Semantics
//!
//! * **Ordering** — sources stamp every item with a sequence number.
//!   Plain stages and [`ordered_farm`](PipelineBuilder::ordered_farm)
//!   preserve source order end to end; [`farm`](PipelineBuilder::farm)
//!   trades order for throughput (multiset semantics — same items, any
//!   order).
//! * **Backpressure** — every edge is bounded at exactly
//!   [`capacity`](PipelineBuilder::capacity) items. Items cross an
//!   edge in batches of up to `min(capacity, 32)` on a [`RingChannel`],
//!   so a hop is paid once per batch; see [`channel`] for how the
//!   item bound stays exact. A batch that does not fit stalls the
//!   producing stage cooperatively and counts one `stage_push_waits`
//!   metric tick per failed *batch* push, and with `trace` on each
//!   `StageBurst` event carries the items a stage moved in one claim —
//!   whole batches.
//! * **Cancellation** — attach a [`CancelToken`]
//!   ([`with_cancel`](PipelineBuilder::with_cancel)); once it trips
//!   (manually or by deadline), drivers stop within one bounded burst,
//!   in-flight items are dropped *exactly once* (counted in
//!   `items_dropped` and [`StreamStats::dropped`]), and
//!   [`run`](SinkedPipeline::run) reports
//!   [`PipelineErrorKind::Cancelled`].
//! * **Panics** — a panic in any source/stage/sink closure is contained
//!   by the §14 runtime envelope, poisons the run (first panic wins),
//!   tears the pipeline down with the same exactly-once drop
//!   accounting, and surfaces as
//!   [`PipelineErrorKind::StagePanicked`] with the stage index. The
//!   pool stays reusable.
//! * **Accounting** — on every exit path,
//!   `produced == consumed + dropped` over the whole pipeline, with one
//!   caveat: items a panicking closure had *in hand* count as dropped.

pub mod channel;
mod engine;

use std::sync::Arc;

use parking_lot::Mutex;
use pstl_executor::{CancelToken, Executor};

pub use channel::RingChannel;

/// Default bound of every inter-stage channel.
pub const DEFAULT_CAPACITY: usize = 64;

/// Flow accounting for one pipeline run, returned on success and
/// attached to every [`PipelineError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Items the source pulled from its iterator.
    pub produced: u64,
    /// Items the sink consumed.
    pub consumed: u64,
    /// In-flight items discarded during teardown (cancel/panic), each
    /// counted exactly once. `produced == consumed + dropped` on every
    /// exit path.
    pub dropped: u64,
    /// Backpressure stalls: failed *batch* pushes into an edge without
    /// room for the whole batch (one tick per failed push, however many
    /// items the batch held).
    pub push_waits: u64,
}

/// Why a pipeline run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineErrorKind {
    /// The attached [`CancelToken`] tripped (manual cancel or deadline
    /// expiry — inspect the token's `deadline()` to tell them apart).
    Cancelled,
    /// A user closure panicked. `stage` is 0 for the source, `1..` for
    /// stages/farms in builder order, and the sink is the last stage
    /// index; first panic wins, like the pools.
    StagePanicked {
        /// Index of the first panicking stage.
        stage: usize,
        /// The panic payload, stringified when it was a `&str`/`String`.
        message: String,
    },
}

/// A failed pipeline run: the reason plus the flow accounting at
/// teardown (the drop-balance invariant holds on errors too).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineError {
    /// What went wrong.
    pub kind: PipelineErrorKind,
    /// Flow accounting at teardown.
    pub stats: StreamStats,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            PipelineErrorKind::Cancelled => write!(
                f,
                "pipeline cancelled ({} consumed, {} dropped of {} produced)",
                self.stats.consumed, self.stats.dropped, self.stats.produced
            ),
            PipelineErrorKind::StagePanicked { stage, message } => {
                write!(f, "pipeline stage {stage} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

type StageMaker = Box<dyn FnOnce(&mut engine::Build, engine::AnyEdge) -> engine::AnyEdge + Send>;
type SourceMaker = Box<dyn FnOnce(&mut engine::Build) -> engine::AnyEdge + Send>;
type SinkMaker = Box<dyn FnOnce(&mut engine::Build, engine::AnyEdge) + Send>;

/// Entry point of the builder; see the module docs for the quickstart.
pub struct Pipeline;

impl Pipeline {
    /// Start a pipeline from any iterator. The source runs as stage 0
    /// on the pool like every other stage (or, when a farm of two or
    /// more replicas follows it on a pool with fewer threads than the
    /// pipeline has nodes, those replicas pull from it directly); it is
    /// pulled lazily under backpressure, so an unbounded iterator with a
    /// cancel token is a valid continuous-traffic setup.
    pub fn source<I>(into_iter: I) -> PipelineBuilder<I::Item>
    where
        I: IntoIterator,
        I::IntoIter: Send + 'static,
        I::Item: Send + 'static,
    {
        let iter = into_iter.into_iter();
        PipelineBuilder {
            source: Box::new(move |build| engine::make_source(build, iter)),
            stages: Vec::new(),
            next_stage: 1,
            nodes: 1,
            capacity: DEFAULT_CAPACITY,
            cancel: None,
            _marker: std::marker::PhantomData,
        }
    }
}

/// A pipeline under construction whose current item type is `T`.
/// Finish it with [`sink`](Self::sink) + [`run`](SinkedPipeline::run),
/// or [`collect`](Self::collect).
pub struct PipelineBuilder<T> {
    source: SourceMaker,
    stages: Vec<StageMaker>,
    next_stage: usize,
    /// Schedulable nodes so far: the source, one per plain stage, one
    /// per farm replica, one per reorder node.
    nodes: usize,
    capacity: usize,
    cancel: Option<CancelToken>,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Send + 'static> PipelineBuilder<T> {
    /// Bound every edge at exactly `capacity` items (default
    /// [`DEFAULT_CAPACITY`]). Capacity 1 is valid and fully
    /// backpressured.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Attach a cancellation token: once it trips, the whole pipeline
    /// tears down promptly (see the module docs for the semantics).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Append a single-replica stage. The closure is `FnMut` with
    /// exclusive access, so captured state *is* stage state — this is
    /// also the stateful-stage primitive
    /// ([`stage_stateful`](Self::stage_stateful) is sugar over it).
    /// Order-preserving.
    pub fn stage<U, F>(mut self, f: F) -> PipelineBuilder<U>
    where
        U: Send + 'static,
        F: FnMut(T) -> U + Send + 'static,
    {
        let stage = self.next_stage;
        self.stages.push(Box::new(move |build, input| {
            engine::make_stage::<T, U, F>(build, stage, f, input)
        }));
        self.advance(1)
    }

    /// Append a stateful single-replica stage: `state` is owned by the
    /// stage and passed `&mut` to every invocation, in source order.
    pub fn stage_stateful<S, U, F>(self, mut state: S, mut f: F) -> PipelineBuilder<U>
    where
        S: Send + 'static,
        U: Send + 'static,
        F: FnMut(&mut S, T) -> U + Send + 'static,
    {
        self.stage(move |item| f(&mut state, item))
    }

    /// Append an **unordered** farm: `replicas` copies of `f` consume
    /// from the same edge concurrently. Highest throughput, multiset
    /// semantics (items may overtake each other).
    pub fn farm<U, F>(mut self, replicas: usize, f: F) -> PipelineBuilder<U>
    where
        U: Send + 'static,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        let stage = self.next_stage;
        self.stages.push(Box::new(move |build, input| {
            engine::make_farm::<T, U, F>(build, stage, replicas, false, f, input)
        }));
        self.advance(replicas.max(1))
    }

    /// Append an **ordered** farm: same parallelism as
    /// [`farm`](Self::farm), plus an implicit reorder node that
    /// restores source order downstream (the overhead the `ext_stream`
    /// experiment measures).
    pub fn ordered_farm<U, F>(mut self, replicas: usize, f: F) -> PipelineBuilder<U>
    where
        U: Send + 'static,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        let stage = self.next_stage;
        self.stages.push(Box::new(move |build, input| {
            engine::make_farm::<T, U, F>(build, stage, replicas, true, f, input)
        }));
        self.advance(replicas.max(1) + 1)
    }

    /// Terminate with a sink closure (single replica, exclusive `FnMut`
    /// like [`stage`](Self::stage)). Returns the runnable pipeline.
    pub fn sink<F>(self, f: F) -> SinkedPipeline
    where
        F: FnMut(T) + Send + 'static,
    {
        let stage = self.next_stage;
        SinkedPipeline {
            source: self.source,
            stages: self.stages,
            sink: Box::new(move |build, input| engine::make_sink::<T, F>(build, stage, f, input)),
            nodes: self.nodes + 1,
            capacity: self.capacity,
            cancel: self.cancel,
        }
    }

    /// Run on `exec` collecting every output item into a `Vec` (in
    /// arrival order — source order unless an unordered farm is in the
    /// chain).
    pub fn collect(self, exec: &dyn Executor) -> Result<Vec<T>, PipelineError> {
        let out = Arc::new(Mutex::new(Vec::new()));
        let push = Arc::clone(&out);
        self.sink(move |item| push.lock().push(item)).run(exec)?;
        Ok(Arc::try_unwrap(out)
            .unwrap_or_else(|arc| panic!("sink closure leaked: {} owners", Arc::strong_count(&arc)))
            .into_inner())
    }

    fn advance<U: Send + 'static>(self, nodes: usize) -> PipelineBuilder<U> {
        PipelineBuilder {
            source: self.source,
            stages: self.stages,
            next_stage: self.next_stage + 1,
            nodes: self.nodes + nodes,
            capacity: self.capacity,
            cancel: self.cancel,
            _marker: std::marker::PhantomData,
        }
    }
}

/// A fully composed pipeline, ready to [`run`](Self::run).
pub struct SinkedPipeline {
    source: SourceMaker,
    stages: Vec<StageMaker>,
    sink: SinkMaker,
    /// Schedulable nodes, the sink included.
    nodes: usize,
    capacity: usize,
    cancel: Option<CancelToken>,
}

impl SinkedPipeline {
    /// Execute the pipeline to completion on `exec`, blocking until the
    /// stream is fully drained, cancelled, or poisoned by a panic.
    /// Works on every discipline, including `Sequential`
    /// (`threads == 1` cooperatively steps all stages inline).
    pub fn run(self, exec: &dyn Executor) -> Result<StreamStats, PipelineError> {
        let mut build = engine::Build::new(self.capacity, exec.num_threads(), self.nodes);
        let mut edge = (self.source)(&mut build);
        for stage in self.stages {
            edge = stage(&mut build, edge);
        }
        (self.sink)(&mut build, edge);
        engine::run_graph(build, self.cancel, exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstl_executor::{build_pool, Discipline};
    use std::time::Duration;

    #[test]
    fn identity_pipeline_preserves_order() {
        let pool = build_pool(Discipline::WorkStealing, 3);
        let got = Pipeline::source(0..100u32)
            .stage(|x| x * 2)
            .collect(&*pool)
            .unwrap();
        let want: Vec<u32> = (0..100).map(|x| x * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn ordered_farm_preserves_order_unordered_preserves_multiset() {
        let pool = build_pool(Discipline::TaskPool, 4);
        let want: Vec<u32> = (0..500).map(|x| x + 1).collect();

        let ordered = Pipeline::source(0..500u32)
            .ordered_farm(3, |x| x + 1)
            .collect(&*pool)
            .unwrap();
        assert_eq!(ordered, want);

        let mut unordered = Pipeline::source(0..500u32)
            .farm(3, |x| x + 1)
            .collect(&*pool)
            .unwrap();
        unordered.sort_unstable();
        assert_eq!(unordered, want);
    }

    #[test]
    fn stateful_stage_sees_items_in_source_order() {
        let pool = build_pool(Discipline::ForkJoin, 2);
        let got = Pipeline::source(1..=50u64)
            .stage_stateful(0u64, |acc, x| {
                *acc += x;
                *acc
            })
            .collect(&*pool)
            .unwrap();
        let mut acc = 0;
        let want: Vec<u64> = (1..=50)
            .map(|x| {
                acc += x;
                acc
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_stream_and_capacity_one_work() {
        let pool = build_pool(Discipline::TaskPool, 2);
        let got = Pipeline::source(std::iter::empty::<u8>())
            .stage(|x| x)
            .collect(&*pool)
            .unwrap();
        assert!(got.is_empty());

        let got = Pipeline::source(0..40u32)
            .capacity(1)
            .ordered_farm(2, |x| x)
            .collect(&*pool)
            .unwrap();
        assert_eq!(got, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn run_reports_flow_stats() {
        let pool = build_pool(Discipline::TaskPool, 2);
        let stats = Pipeline::source(0..1000u32)
            .farm(2, |x| x)
            .sink(|_| {})
            .run(&*pool)
            .unwrap();
        assert_eq!(stats.produced, 1000);
        assert_eq!(stats.consumed, 1000);
        assert_eq!(stats.dropped, 0);
        let m = pool.metrics().unwrap();
        assert_eq!(m.items_dropped, 0);
        assert_eq!(m.stage_push_waits, stats.push_waits);
    }

    #[test]
    fn stage_panic_surfaces_with_stage_index_and_balanced_drops() {
        let pool = build_pool(Discipline::WorkStealing, 3);
        let err = Pipeline::source(0..10_000u32)
            .stage(|x| x)
            .farm(2, |x| {
                if x == 777 {
                    panic!("boom in farm");
                }
                x
            })
            .sink(|_| {})
            .run(&*pool)
            .unwrap_err();
        match &err.kind {
            PipelineErrorKind::StagePanicked { stage, message } => {
                assert_eq!(*stage, 2, "farm is stage 2 (source 0, stage 1)");
                assert!(message.contains("boom in farm"), "{message}");
            }
            other => panic!("expected panic error, got {other:?}"),
        }
        let s = err.stats;
        assert_eq!(
            s.produced,
            s.consumed + s.dropped,
            "every produced item consumed or counted dropped (the in-hand item the closure \
             panicked on is part of `dropped`)"
        );
        // Pool must stay reusable after the poisoned run.
        let again = Pipeline::source(0..100u32)
            .stage(|x| x)
            .collect(&*pool)
            .unwrap();
        assert_eq!(again.len(), 100);
    }

    #[test]
    fn manual_cancel_tears_down_promptly_with_drop_balance() {
        let pool = build_pool(Discipline::TaskPool, 2);
        let token = CancelToken::new();
        let cancel_at = 500u32;
        let observer = token.clone();
        let err = Pipeline::source(0..u32::MAX)
            .with_cancel(token.clone())
            .stage(move |x| {
                if x == cancel_at {
                    observer.cancel();
                }
                x
            })
            .sink(|_| {})
            .run(&*pool)
            .unwrap_err();
        assert_eq!(err.kind, PipelineErrorKind::Cancelled);
        let s = err.stats;
        assert_eq!(s.produced, s.consumed + s.dropped, "drop balance on cancel");
        assert!(
            s.produced < 10_000_000,
            "teardown was prompt, produced only {}",
            s.produced
        );
    }

    #[test]
    fn deadline_cancel_works_on_an_unbounded_source() {
        let pool = build_pool(Discipline::ForkJoin, 2);
        let err = Pipeline::source((0u64..).inspect(|_| {
            std::thread::sleep(Duration::from_micros(50));
        }))
        .with_cancel(CancelToken::with_deadline(Duration::from_millis(30)))
        .stage(|x| x)
        .sink(|_| {})
        .run(&*pool)
        .unwrap_err();
        assert_eq!(err.kind, PipelineErrorKind::Cancelled);
        assert_eq!(err.stats.produced, err.stats.consumed + err.stats.dropped);
    }

    #[test]
    fn sequential_executor_drives_the_whole_pipeline_inline() {
        let pool = build_pool(Discipline::Sequential, 1);
        let got = Pipeline::source(0..200u32)
            .stage(|x| x + 1)
            .ordered_farm(4, |x| x * 2)
            .collect(&*pool)
            .unwrap();
        let want: Vec<u32> = (0..200).map(|x| (x + 1) * 2).collect();
        assert_eq!(got, want);
    }
}
