//! The pipeline execution engine: node graph + cooperative drivers.
//!
//! A built pipeline is a linear chain of *node replicas* (one source,
//! one per plain stage, `R` per farm, one implicit reorder node behind
//! an ordered farm, one sink) connected by bounded [`Edge`]s.
//! Execution maps the replicas onto an existing [`Executor`] without
//! any new worker machinery: `run(M, driver)` is called once with
//! `M = min(threads, replicas)` *driver* bodies, and each driver loops
//! over every replica round-robin, claiming one at a time with a
//! `try_lock` and stepping it for a bounded burst.
//!
//! Items move in *batches* of up to `min(capacity, BURST)`: the source
//! fills a batch, a plain stage or farm replica maps a popped batch in
//! order into one output batch, the reorder node releases whole
//! in-order batches, and the sink consumes a batch per pop. A hop is
//! paid once per batch. The edge still bounds its queue at exactly
//! `capacity` *items* (see [`super::channel`]); on top of that each
//! node holds at most one batch (popped, in hand, or mapped and
//! waiting to be pushed), except the reorder node, which buffers early
//! batches.
//!
//! The load-bearing invariant is that **any single driver can finish
//! the whole pipeline alone**: a step never blocks (edges are
//! try-only; a full downstream edge stalls the batch inside the node
//! and the driver moves on), so the engine cannot deadlock even when
//! the executor runs the `M` bodies sequentially (fork-join with more
//! tasks than threads, a task pool whose caller drains everything
//! inline). Extra drivers only add parallelism.
//!
//! Termination and teardown:
//!
//! * normal end-of-stream propagates by producer counting — the last
//!   finishing producer of an edge closes it, consumers treat *closed
//!   observed before an empty pop* as final (see the close protocol on
//!   [`RingChannel`](super::RingChannel));
//! * a panic in any user closure is contained through
//!   [`runtime::contain`] (the §14 envelope — this module adds no
//!   containment machinery of its own), poisons the run, and surfaces as
//!   [`PipelineError`](super::PipelineError) with the first-panicking
//!   stage's index (first panic wins, like the pools);
//! * a tripped [`CancelToken`] poisons the run the same way with skip
//!   semantics — drivers notice within one burst-bounded pass.
//!
//! After `run` returns, the *caller* (which now has exclusive access)
//! drains every node (the unmapped rest of a batch, the item in hand,
//! mapped but unpushed output, the reorder buffer) and every edge's
//! queue exactly once, so `produced == consumed + dropped` holds on
//! every exit path — the drop-balance contract the chaos suite checks.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pstl_executor::runtime;
use pstl_executor::{CancelToken, Executor};

use super::channel::{Edge, PopResult};
use super::{PipelineError, PipelineErrorKind, StreamStats};

/// Items per batch (when the capacity allows) and items moved per node
/// claim before the driver moves on — bounds both cancellation latency
/// and per-stage monopolization.
const BURST: usize = 32;

/// Every item carries the sequence number its source stamped; ordered
/// farms restore this order, unordered farms ignore it.
type Seq<V> = (u64, V);

/// Cross-driver run state.
pub(super) struct Shared {
    pub(super) produced: AtomicU64,
    pub(super) consumed: AtomicU64,
    pub(super) push_waits: AtomicU64,
    finished_nodes: AtomicUsize,
    poisoned: AtomicBool,
    cancelled: AtomicBool,
    /// First panicking stage (index, payload message); first wins.
    panic: Mutex<Option<(usize, String)>>,
}

impl Shared {
    fn new() -> Arc<Self> {
        Arc::new(Shared {
            produced: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
            push_waits: AtomicU64::new(0),
            finished_nodes: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            panic: Mutex::new(None),
        })
    }

    fn poison_panic(&self, stage: usize, payload: runtime::PanicPayload) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some((stage, payload_message(&payload)));
        }
        drop(slot);
        self.poisoned.store(true, Ordering::Release);
    }

    fn poison_cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
        self.poisoned.store(true, Ordering::Release);
    }
}

fn payload_message(payload: &runtime::PanicPayload) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// What one bounded step of a node reports back to its driver.
struct StepOut {
    /// Items this step moved (drives the `StageBurst` trace event).
    items: u64,
    /// Whether anything at all happened (stall cleared counts too).
    progress: bool,
    /// The node reached its terminal state during this step. Latched
    /// internally — stepping a finished node again reports an idle
    /// no-op, so a racing second driver cannot double-finish it.
    finished: bool,
}

impl StepOut {
    fn idle() -> Self {
        StepOut {
            items: 0,
            progress: false,
            finished: false,
        }
    }

    fn moved(&mut self, items: u64) {
        self.items += items;
        self.progress |= items > 0;
    }
}

/// One schedulable replica. Implementations own typed handles on their
/// edges; the graph stores them type-erased.
trait Node: Send {
    fn step(&mut self, shared: &Shared) -> StepOut;

    /// Teardown: drop whatever the node still holds (the unmapped rest
    /// of a popped batch, the item in hand when a closure panicked,
    /// mapped but unpushed output, the reorder buffer), report how many
    /// items that was, and publish the node's own flow total (items
    /// pulled by the source, consumed by the sink) to `shared`. Called
    /// exactly once, after the run.
    fn drain(&mut self, shared: &Shared) -> u64;
}

/// A replica slot in the graph: stage index for attribution plus the
/// claimable node.
struct NodeSlot {
    stage: usize,
    done: AtomicBool,
    node: Mutex<Box<dyn Node>>,
}

/// The Sync half of a built pipeline, shared by reference with every
/// driver body.
pub(super) struct Graph {
    nodes: Vec<NodeSlot>,
    shared: Arc<Shared>,
    cancel: Option<CancelToken>,
}

/// Accumulates the graph while the type-erased stage makers run.
pub(super) struct Build {
    capacity: usize,
    /// Items per batch: `min(capacity, BURST)`.
    batch: usize,
    nodes: Vec<NodeSlot>,
    edge_drains: Vec<Box<dyn FnMut() -> u64 + Send>>,
    shared: Arc<Shared>,
}

impl Build {
    pub(super) fn new(capacity: usize) -> Self {
        Build {
            capacity,
            batch: capacity.clamp(1, BURST),
            nodes: Vec::new(),
            edge_drains: Vec::new(),
            shared: Shared::new(),
        }
    }

    fn new_edge<V: Send + 'static>(&mut self, producers: usize) -> Arc<Edge<Seq<V>>> {
        let edge = Arc::new(Edge::new(self.capacity, producers));
        let drain = Arc::clone(&edge);
        self.edge_drains.push(Box::new(move || drain.drain()));
        edge
    }

    fn outbox<V: Send>(&self, edge: &Arc<Edge<Seq<V>>>) -> Outbox<V> {
        Outbox::new(Arc::clone(edge), self.batch)
    }

    fn push_node(&mut self, stage: usize, node: Box<dyn Node>) {
        self.nodes.push(NodeSlot {
            stage,
            done: AtomicBool::new(false),
            node: Mutex::new(node),
        });
    }
}

/// Type-erased edge handle passed between stage makers; each maker
/// downcasts it back to the `Arc<Edge<T>>` its typed builder context
/// guarantees.
pub(super) type AnyEdge = Box<dyn Any>;

fn downcast_edge<V: Send + 'static>(any: AnyEdge) -> Arc<Edge<Seq<V>>> {
    *any.downcast::<Arc<Edge<Seq<V>>>>()
        .expect("stage maker chain preserves the item type")
}

// ---------------------------------------------------------------------
// Stage makers: called at run() time by the builder, in pipeline order.
// ---------------------------------------------------------------------

pub(super) fn make_source<I>(build: &mut Build, iter: I) -> AnyEdge
where
    I: Iterator + Send + 'static,
    I::Item: Send + 'static,
{
    let out = build.new_edge::<I::Item>(1);
    let node = SourceNode {
        iter: Some(iter),
        next_seq: 0,
        out: build.outbox(&out),
        finished: false,
    };
    build.push_node(0, Box::new(node));
    Box::new(out)
}

pub(super) fn make_stage<T, U, F>(build: &mut Build, stage: usize, f: F, input: AnyEdge) -> AnyEdge
where
    T: Send + 'static,
    U: Send + 'static,
    F: FnMut(T) -> U + Send + 'static,
{
    let input = downcast_edge::<T>(input);
    let out = build.new_edge::<U>(1);
    let node = WorkNode::new(StageFn::Exclusive(Box::new(f)), input, build.outbox(&out));
    build.push_node(stage, Box::new(node));
    Box::new(out)
}

pub(super) fn make_farm<T, U, F>(
    build: &mut Build,
    stage: usize,
    replicas: usize,
    ordered: bool,
    f: F,
    input: AnyEdge,
) -> AnyEdge
where
    T: Send + 'static,
    U: Send + 'static,
    F: Fn(T) -> U + Send + Sync + 'static,
{
    let replicas = replicas.max(1);
    let input = downcast_edge::<T>(input);
    let mid = build.new_edge::<U>(replicas);
    let f: Arc<dyn Fn(T) -> U + Send + Sync> = Arc::new(f);
    for _ in 0..replicas {
        let node = WorkNode::new(
            StageFn::Shared(Arc::clone(&f)),
            Arc::clone(&input),
            build.outbox(&mid),
        );
        build.push_node(stage, Box::new(node));
    }
    if !ordered {
        return Box::new(mid);
    }
    let out = build.new_edge::<U>(1);
    let node = ReorderNode {
        input: mid,
        out: build.outbox(&out),
        buf: BTreeMap::new(),
        next_seq: 0,
        flushing: false,
        finished: false,
    };
    build.push_node(stage, Box::new(node));
    Box::new(out)
}

pub(super) fn make_sink<T, F>(build: &mut Build, stage: usize, f: F, input: AnyEdge)
where
    T: Send + 'static,
    F: FnMut(T) + Send + 'static,
{
    let input = downcast_edge::<T>(input);
    build.push_node(
        stage,
        Box::new(SinkNode {
            f,
            input,
            pending: Vec::new().into_iter(),
            in_hand: 0,
            consumed: 0,
            finished: false,
        }),
    );
}

// ---------------------------------------------------------------------
// Nodes
// ---------------------------------------------------------------------

/// Output a node has produced but not yet pushed: one batch of at most
/// `limit` items, pushed downstream whole.
struct Outbox<V> {
    edge: Arc<Edge<Seq<V>>>,
    batch: Vec<Seq<V>>,
    limit: usize,
}

/// What [`Outbox::flush`] did.
enum Flush {
    /// The outbox is empty now; this many items went downstream.
    Pushed(u64),
    /// The edge had no room; the batch stays in the outbox.
    Stalled,
}

impl<V: Send> Outbox<V> {
    fn new(edge: Arc<Edge<Seq<V>>>, limit: usize) -> Self {
        Outbox {
            edge,
            batch: Vec::new(),
            limit,
        }
    }

    /// The (empty) batch to fill, with room for `limit` items.
    fn open(&mut self) -> &mut Vec<Seq<V>> {
        if self.batch.capacity() == 0 {
            self.batch.reserve_exact(self.limit);
        }
        &mut self.batch
    }

    /// Push the held batch, if any. A failed push counts one push wait.
    fn flush(&mut self, shared: &Shared) -> Flush {
        if self.batch.is_empty() {
            return Flush::Pushed(0);
        }
        let n = self.batch.len() as u64;
        match self.edge.try_push(std::mem::take(&mut self.batch)) {
            Ok(()) => Flush::Pushed(n),
            Err(batch) => {
                self.batch = batch;
                shared.push_waits.fetch_add(1, Ordering::Relaxed);
                Flush::Stalled
            }
        }
    }

    fn drain(&mut self) -> u64 {
        let n = self.batch.len() as u64;
        self.batch.clear();
        n
    }
}

struct SourceNode<I: Iterator> {
    iter: Option<I>,
    /// Sequence number of the next item, so also the items pulled.
    next_seq: u64,
    out: Outbox<I::Item>,
    finished: bool,
}

impl<I> Node for SourceNode<I>
where
    I: Iterator + Send + 'static,
    I::Item: Send + 'static,
{
    fn step(&mut self, shared: &Shared) -> StepOut {
        if self.finished {
            return StepOut::idle();
        }
        let mut out = StepOut::idle();
        loop {
            match self.out.flush(shared) {
                Flush::Pushed(n) => out.moved(n),
                Flush::Stalled => return out,
            }
            if out.items >= BURST as u64 {
                return out;
            }
            let Some(iter) = self.iter.as_mut() else {
                break;
            };
            // Fill one batch. `next` may panic (chaos: faulty source);
            // the items pulled before it are in the outbox and counted
            // by `next_seq`, so teardown drops and counts them.
            let limit = self.out.limit;
            let batch = self.out.open();
            while batch.len() < limit {
                match iter.next() {
                    Some(v) => {
                        batch.push((self.next_seq, v));
                        self.next_seq += 1;
                    }
                    None => {
                        self.iter = None;
                        break;
                    }
                }
            }
        }
        self.finished = true;
        self.out.edge.producer_done();
        out.progress = true;
        out.finished = true;
        out
    }

    fn drain(&mut self, shared: &Shared) -> u64 {
        shared.produced.store(self.next_seq, Ordering::Relaxed);
        self.out.drain()
    }
}

/// A plain stage's exclusive closure or a farm replica's shared one.
enum StageFn<T, U> {
    Exclusive(Box<dyn FnMut(T) -> U + Send>),
    Shared(Arc<dyn Fn(T) -> U + Send + Sync>),
}

impl<T, U> StageFn<T, U> {
    fn call(&mut self, v: T) -> U {
        match self {
            StageFn::Exclusive(f) => f(v),
            StageFn::Shared(f) => f(v),
        }
    }
}

/// A plain stage or one farm replica: pops a batch, maps it in order
/// into one output batch, pushes that.
struct WorkNode<T, U> {
    f: StageFn<T, U>,
    input: Arc<Edge<Seq<T>>>,
    /// The popped batch's items not yet mapped.
    pending: std::vec::IntoIter<Seq<T>>,
    /// 1 while the user closure holds an item — so a panic mid-item
    /// still balances the drop accounting (`drain` counts it).
    in_hand: u64,
    out: Outbox<U>,
    finished: bool,
}

impl<T: Send, U: Send> WorkNode<T, U> {
    fn new(f: StageFn<T, U>, input: Arc<Edge<Seq<T>>>, out: Outbox<U>) -> Self {
        WorkNode {
            f,
            input,
            pending: Vec::new().into_iter(),
            in_hand: 0,
            out,
            finished: false,
        }
    }
}

impl<T, U> Node for WorkNode<T, U>
where
    T: Send + 'static,
    U: Send + 'static,
{
    fn step(&mut self, shared: &Shared) -> StepOut {
        if self.finished {
            return StepOut::idle();
        }
        let mut out = StepOut::idle();
        loop {
            match self.out.flush(shared) {
                Flush::Pushed(n) => out.moved(n),
                Flush::Stalled => return out,
            }
            if out.items >= BURST as u64 {
                return out;
            }
            match self.input.pop_or_eos() {
                PopResult::Batch(batch) => {
                    out.progress = true;
                    // Batches never exceed the capacity every edge
                    // shares, so one input batch fills at most one
                    // output batch.
                    self.pending = batch.into_iter();
                    let mapped = self.out.open();
                    for (seq, v) in self.pending.by_ref() {
                        self.in_hand = 1;
                        let u = self.f.call(v); // may panic: in_hand covers v
                        self.in_hand = 0;
                        mapped.push((seq, u));
                    }
                }
                PopResult::EndOfStream => {
                    self.finished = true;
                    self.out.edge.producer_done();
                    out.progress = true;
                    out.finished = true;
                    return out;
                }
                PopResult::Empty => return out,
            }
        }
    }

    fn drain(&mut self, _shared: &Shared) -> u64 {
        let unmapped = self.pending.len() as u64;
        self.pending = Vec::new().into_iter();
        unmapped + self.in_hand + self.out.drain()
    }
}

/// The implicit node behind an ordered farm: buffers out-of-order
/// batches by source sequence number and releases them in order. Every
/// batch is a run of consecutive sequence numbers (the source stamps a
/// batch in order and every node maps a batch 1:1, in order), so whole
/// batches are buffered and released.
struct ReorderNode<V> {
    input: Arc<Edge<Seq<V>>>,
    out: Outbox<V>,
    /// Early batches keyed by their first sequence number.
    buf: BTreeMap<u64, Vec<Seq<V>>>,
    next_seq: u64,
    /// Input closed: emit whatever is buffered (skipping gaps, which
    /// only a poisoned run can produce) instead of waiting forever.
    flushing: bool,
    finished: bool,
}

impl<V: Send + 'static> ReorderNode<V> {
    /// Queue `batch` (a run starting at `next_seq` or, when flushing,
    /// past a gap) for release.
    fn release(&mut self, batch: Vec<Seq<V>>) {
        self.next_seq = batch.last().map_or(self.next_seq, |(seq, _)| seq + 1);
        self.out.batch = batch;
    }
}

impl<V: Send + 'static> Node for ReorderNode<V> {
    fn step(&mut self, shared: &Shared) -> StepOut {
        if self.finished {
            return StepOut::idle();
        }
        let mut out = StepOut::idle();
        loop {
            match self.out.flush(shared) {
                Flush::Pushed(n) => out.moved(n),
                Flush::Stalled => return out,
            }
            if out.items >= BURST as u64 {
                return out;
            }
            if let Some(batch) = self.buf.remove(&self.next_seq) {
                self.release(batch);
                continue;
            }
            if self.flushing {
                // Gaps cannot fill any more: jump to the next buffered
                // run, or finish when the buffer is dry.
                if let Some((_, batch)) = self.buf.pop_first() {
                    self.release(batch);
                    continue;
                }
                self.finished = true;
                self.out.edge.producer_done();
                out.progress = true;
                out.finished = true;
                return out;
            }
            match self.input.pop_or_eos() {
                PopResult::Batch(batch) => {
                    out.progress = true;
                    let first = batch[0].0;
                    if first == self.next_seq {
                        self.release(batch);
                    } else {
                        self.buf.insert(first, batch);
                    }
                }
                PopResult::EndOfStream => {
                    self.flushing = true;
                    out.progress = true;
                }
                PopResult::Empty => return out,
            }
        }
    }

    fn drain(&mut self, _shared: &Shared) -> u64 {
        let buffered: usize = self.buf.values().map(Vec::len).sum();
        self.buf.clear();
        buffered as u64 + self.out.drain()
    }
}

struct SinkNode<T, F> {
    f: F,
    input: Arc<Edge<Seq<T>>>,
    /// The popped batch's items not yet consumed.
    pending: std::vec::IntoIter<Seq<T>>,
    in_hand: u64,
    consumed: u64,
    finished: bool,
}

impl<T, F> Node for SinkNode<T, F>
where
    T: Send + 'static,
    F: FnMut(T) + Send + 'static,
{
    fn step(&mut self, _shared: &Shared) -> StepOut {
        if self.finished {
            return StepOut::idle();
        }
        let mut out = StepOut::idle();
        while out.items < BURST as u64 {
            match self.input.pop_or_eos() {
                PopResult::Batch(batch) => {
                    out.moved(batch.len() as u64);
                    self.pending = batch.into_iter();
                    for (_seq, v) in self.pending.by_ref() {
                        self.in_hand = 1;
                        (self.f)(v); // may panic: in_hand covers v
                        self.in_hand = 0;
                        self.consumed += 1;
                    }
                }
                PopResult::EndOfStream => {
                    self.finished = true;
                    out.progress = true;
                    out.finished = true;
                    return out;
                }
                PopResult::Empty => break,
            }
        }
        out
    }

    fn drain(&mut self, shared: &Shared) -> u64 {
        shared.consumed.store(self.consumed, Ordering::Relaxed);
        let unconsumed = self.pending.len() as u64;
        self.pending = Vec::new().into_iter();
        unconsumed + self.in_hand
    }
}

// ---------------------------------------------------------------------
// Drivers + run
// ---------------------------------------------------------------------

fn drive(graph: &Graph, origin: usize, exec: &dyn Executor) {
    let n = graph.nodes.len();
    let shared = &*graph.shared;
    loop {
        if shared.poisoned.load(Ordering::Acquire)
            || shared.finished_nodes.load(Ordering::Acquire) == n
        {
            return;
        }
        if let Some(token) = &graph.cancel {
            if token.is_cancelled() {
                shared.poison_cancel();
                return;
            }
        }
        let mut progress = false;
        for k in 0..n {
            let slot = &graph.nodes[(origin + k) % n];
            if slot.done.load(Ordering::Relaxed) {
                continue;
            }
            let Some(mut node) = slot.node.try_lock() else {
                continue;
            };
            // Re-check under the lock: the flag may have been set by the
            // driver that just released this node (a panicked node must
            // never be stepped again, nor its user closure re-called).
            // Relaxed suffices: that driver stored it before the
            // releasing unlock this `try_lock` acquired.
            if slot.done.load(Ordering::Relaxed) {
                continue;
            }
            match runtime::contain(|| node.step(shared)) {
                Ok(step) => {
                    drop(node);
                    progress |= step.progress;
                    if pstl_trace::enabled() && step.items > 0 {
                        exec.record_stage_burst(slot.stage as u64, step.items);
                    }
                    if step.finished {
                        slot.done.store(true, Ordering::Relaxed);
                        shared.finished_nodes.fetch_add(1, Ordering::AcqRel);
                    }
                }
                Err(payload) => {
                    // Quarantine the panicked node *before* releasing
                    // its lock, so no other driver can claim and
                    // re-step it; teardown still drains it (the lock is
                    // parking_lot, so no poisoning semantics to undo).
                    slot.done.store(true, Ordering::Relaxed);
                    shared.poison_panic(slot.stage, payload);
                    drop(node);
                    return;
                }
            }
            if shared.poisoned.load(Ordering::Acquire) {
                return;
            }
        }
        if !progress {
            std::thread::yield_now();
        }
    }
}

pub(super) fn run_graph(
    build: Build,
    cancel: Option<CancelToken>,
    exec: &dyn Executor,
) -> Result<StreamStats, PipelineError> {
    let Build {
        nodes,
        mut edge_drains,
        shared,
        ..
    } = build;
    let graph = Graph {
        nodes,
        shared: Arc::clone(&shared),
        cancel,
    };
    let drivers = exec.num_threads().max(1).min(graph.nodes.len().max(1));
    exec.run(drivers, &|origin| drive(&graph, origin, exec));

    // Exclusive teardown: every driver has returned, so plain locks
    // cannot contend. Each node and each edge is drained exactly once.
    let mut dropped = 0u64;
    for slot in &graph.nodes {
        dropped += slot.node.lock().drain(&shared);
    }
    for drain in &mut edge_drains {
        dropped += drain();
    }

    let push_waits = shared.push_waits.load(Ordering::Relaxed);
    exec.record_stream(push_waits, dropped);
    let stats = StreamStats {
        produced: shared.produced.load(Ordering::Relaxed),
        consumed: shared.consumed.load(Ordering::Relaxed),
        dropped,
        push_waits,
    };
    let panic = shared.panic.lock().take();
    if let Some((stage, message)) = panic {
        return Err(PipelineError {
            kind: PipelineErrorKind::StagePanicked { stage, message },
            stats,
        });
    }
    if shared.cancelled.load(Ordering::Acquire) {
        return Err(PipelineError {
            kind: PipelineErrorKind::Cancelled,
            stats,
        });
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::BURST;
    use crate::stream::{Pipeline, PipelineError, PipelineErrorKind};
    use pstl_executor::{build_pool, Discipline, Executor};
    use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn item_capacity_is_exact_under_batching() {
        // source → stage → farm(2) → sink: three edges and five nodes.
        // Each edge queues at most `cap` items and each node holds at
        // most one batch, so that bounds the items pulled but not yet
        // consumed. A slow sink keeps every edge backed up.
        for d in [Discipline::WorkStealing, Discipline::TaskPool] {
            let pool = build_pool(d, 3);
            for cap in [1usize, 3, 33, 64] {
                let bound = 3 * cap as u64 + 5 * cap.min(BURST) as u64;
                let pulled = Arc::new(AtomicU64::new(0));
                let consumed = Arc::new(AtomicU64::new(0));
                let worst = Arc::new(AtomicU64::new(0));
                let (p, c, w) = (
                    Arc::clone(&pulled),
                    Arc::clone(&consumed),
                    Arc::clone(&worst),
                );
                let source = (0..3_000u64).inspect(move |_| {
                    let in_flight = p.fetch_add(1, Ordering::SeqCst) + 1 - c.load(Ordering::SeqCst);
                    w.fetch_max(in_flight, Ordering::SeqCst);
                });
                let c = Arc::clone(&consumed);
                let stats = Pipeline::source(source)
                    .capacity(cap)
                    .stage(|x| x + 1)
                    .farm(2, |x| x * 2)
                    .sink(move |_| {
                        c.fetch_add(1, Ordering::SeqCst);
                        for _ in 0..50 {
                            std::hint::spin_loop();
                        }
                    })
                    .run(&*pool)
                    .unwrap();
                assert_eq!((stats.produced, stats.consumed), (3_000, 3_000));
                let worst = worst.load(Ordering::SeqCst);
                assert!(
                    worst <= bound,
                    "{d:?} cap {cap}: {worst} items in flight, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn capacity_one_output_matches_the_sequential_oracle() {
        let pool = build_pool(Discipline::WorkStealing, 3);
        let want: Vec<u64> = (0..500u64).map(|x| (x + 1) * 3).collect();
        let ordered = Pipeline::source(0..500u64)
            .capacity(1)
            .stage(|x| x + 1)
            .ordered_farm(2, |x| x * 3)
            .collect(&*pool)
            .unwrap();
        assert_eq!(ordered, want);
        let mut unordered = Pipeline::source(0..500u64)
            .capacity(1)
            .stage(|x| x + 1)
            .farm(2, |x| x * 3)
            .collect(&*pool)
            .unwrap();
        unordered.sort_unstable();
        assert_eq!(unordered, want);
    }

    /// An item that counts how many of its kind are alive.
    struct Elem(u64, Arc<AtomicIsize>);

    impl Elem {
        fn new(v: u64, live: &Arc<AtomicIsize>) -> Elem {
            live.fetch_add(1, Ordering::SeqCst);
            Elem(v, Arc::clone(live))
        }
    }

    impl Drop for Elem {
        fn drop(&mut self) {
            self.1.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Where the mid-batch panic is injected.
    #[derive(Debug, Clone, Copy)]
    enum At {
        Stage,
        Farm,
        OrderedFarm,
        Sink,
    }

    /// `source → X → sink`, panicking on item `trip`, where X is an
    /// identity stage or farm and the panic is in X or in the sink.
    fn run_tripping(
        at: At,
        trip: u64,
        pool: &dyn Executor,
        live: &Arc<AtomicIsize>,
    ) -> PipelineError {
        let made = Arc::clone(live);
        let source = Pipeline::source((0..2_000u64).map(move |v| Elem::new(v, &made)));
        let check = move |e: Elem| {
            if e.0 == trip {
                panic!("trip at {trip}");
            }
            e
        };
        let built = match at {
            At::Stage => source.stage(check),
            At::Farm => source.farm(2, check),
            At::OrderedFarm => source.ordered_farm(2, check),
            At::Sink => source.stage(|e: Elem| e),
        };
        let sinked = match at {
            At::Sink => built.sink(move |e: Elem| drop(check(e))),
            _ => built.sink(drop),
        };
        sinked.run(pool).unwrap_err()
    }

    #[test]
    fn mid_batch_panics_report_the_stage_and_balance() {
        let live = Arc::new(AtomicIsize::new(0));
        for d in [Discipline::WorkStealing, Discipline::ForkJoin] {
            let pool = build_pool(d, 3);
            for at in [At::Stage, At::Farm, At::OrderedFarm, At::Sink] {
                for trip in [0, 1, BURST as u64 - 1, BURST as u64] {
                    let label = format!("{d:?}/{at:?}/item {trip}");
                    let err = run_tripping(at, trip, &*pool, &live);
                    let want_stage = if matches!(at, At::Sink) { 2 } else { 1 };
                    match &err.kind {
                        PipelineErrorKind::StagePanicked { stage, message } => {
                            assert_eq!(*stage, want_stage, "{label}");
                            assert!(message.contains("trip at"), "{label}: {message}");
                        }
                        other => panic!("{label}: expected StagePanicked, got {other:?}"),
                    }
                    let s = err.stats;
                    assert_eq!(s.produced, s.consumed + s.dropped, "{label}: {s:?}");
                    assert_eq!(
                        live.load(Ordering::SeqCst),
                        0,
                        "{label}: leak or double drop"
                    );
                }
            }
            let again = Pipeline::source(0..300u64)
                .ordered_farm(2, |x| x + 1)
                .collect(&*pool)
                .unwrap();
            assert_eq!(again, (1..=300).collect::<Vec<_>>(), "{d:?}: pool reusable");
        }
    }
}
