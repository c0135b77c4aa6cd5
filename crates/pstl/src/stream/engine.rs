//! The pipeline execution engine: node graph + cooperative drivers.
//!
//! A built pipeline is a linear chain of *node replicas* (one source,
//! one per plain stage, `R` per farm, one implicit reorder node behind
//! an ordered farm, one sink) connected by bounded [`Edge`]s, minus
//! what fusion (below) folds away.
//! Execution maps the replicas onto an existing [`Executor`] without
//! any new worker machinery: `run(M, driver)` is called once with
//! `M = min(threads, replicas)` *driver* bodies, and each driver loops
//! over every replica round-robin, claiming one at a time with a
//! `try_lock` and stepping it for a bounded claim (up to `CLAIM` items).
//!
//! Items move in *batches* of up to `min(capacity, BURST)`: the source
//! fills a batch, a plain stage or farm replica maps a popped batch in
//! order into one output batch, the reorder node releases whole
//! in-order batches, and the sink consumes a batch per pop. A hop, a
//! sequence stamp and every piece of drop bookkeeping are paid once per
//! batch; per item the engine only moves the item and calls the user's
//! closures, a stage's map statically dispatched inside the batch loop. The
//! edge still bounds its queue at exactly `capacity` *items* (see
//! [`super::channel`]); on top of that each node holds at most one batch
//! (popped, in hand, or mapped and waiting to be pushed), except the
//! reorder node, which buffers early batches.
//!
//! *Fusion.* When the pool has fewer threads than the pipeline has
//! nodes, some driver steps several nodes in turn anyway, so a farm of
//! two or more replicas takes over its neighbors' work and saves their
//! hops: its replicas pull batches straight from the source iterator
//! (no source node, no edge in front of the farm), and the replicas of
//! an unordered farm right before the sink map each batch straight into
//! the sink whenever they can claim it, and push the mapped batch onto
//! the edge otherwise. A replica that holds the sink feeds it, after
//! each item of its own, one item that another replica queued on the
//! edge, so the sink's closure (often a lock and a push) runs beside a
//! map instead of back to back. The source iterator and the sink closure
//! still run on one thread at a time: each lives in a core behind a
//! lock, held by whoever pulls or consumes. With a thread
//! for every node nothing is fused, so each node keeps its own driver;
//! a lone replica keeps its neighbors too, since fusing would serialize
//! them.
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
//!   semantics — drivers notice within one claim-bounded pass.
//!
//! After `run` returns, the *caller* (which now has exclusive access)
//! drains every node (the unmapped rest of a batch, the item in hand,
//! mapped but unpushed output, the reorder buffer) and every edge's
//! queue exactly once, so `produced == consumed + dropped` holds on
//! every exit path — the drop-balance contract the chaos suite checks.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use pstl_executor::runtime;
use pstl_executor::{CancelToken, Executor};

use super::channel::{Batch, Edge, PopResult};
use super::{PipelineError, PipelineErrorKind, StreamStats};

/// Items per batch (when the capacity allows): one source pull, one
/// hop and one sink hand-off each.
const BURST: usize = 128;

/// Items a node moves per claim before its driver moves on — bounds
/// both cancellation latency and per-stage monopolization. A few
/// batches, so a driver pays the round over the other nodes (a lock
/// attempt each) once per few batches, not once per batch.
const CLAIM: u64 = 4 * BURST as u64;

/// The source's stage index.
const SOURCE_STAGE: usize = 0;

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
    /// Items a farm replica pulled straight from the source (a
    /// `StageBurst` event attributed to the source).
    pulled: u64,
    /// Items a farm replica mapped straight into the sink, and the
    /// sink's stage (a `StageBurst` event attributed to the sink).
    delivered: (usize, u64),
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
            pulled: 0,
            delivered: (0, 0),
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
    /// items that was, and publish the sink's consumed count to
    /// `shared` (the source's count comes from a teardown hook, since
    /// farm replicas may pull it). Called exactly once, after the run.
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
    /// Fewer drivers than nodes: fold the source and the sink into the
    /// replicas of a farm between them (see [`make_farm`]).
    fuse: bool,
    nodes: Vec<NodeSlot>,
    /// Run once after the drivers return: drain an edge or publish the
    /// source's count, returning the items dropped.
    teardown: Vec<Box<dyn FnMut() -> u64 + Send>>,
    shared: Arc<Shared>,
}

impl Build {
    /// A graph of edges bounded at `capacity` items, built for `drivers`
    /// drivers over `nodes` nodes (counting a source and a sink node).
    pub(super) fn new(capacity: usize, drivers: usize, nodes: usize) -> Self {
        Build {
            capacity,
            batch: capacity.clamp(1, BURST),
            fuse: drivers < nodes,
            nodes: Vec::new(),
            teardown: Vec::new(),
            shared: Shared::new(),
        }
    }

    fn new_edge<V: Send + 'static>(&mut self, producers: usize) -> Arc<Edge<V>> {
        let edge = Arc::new(Edge::new(self.capacity, producers));
        let drain = Arc::clone(&edge);
        self.teardown.push(Box::new(move || drain.drain()));
        edge
    }

    fn outbox<V: Send>(&self, edge: &Arc<Edge<V>>) -> Outbox<V> {
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

/// Type-erased [`Link`] passed between stage makers; each maker
/// downcasts it back to the `Link<T>` its typed builder context
/// guarantees.
pub(super) type AnyEdge = Box<dyn Any>;

/// A maker's output as the next maker sees it.
struct Link<V> {
    input: Input<V>,
    /// Set by a fused unordered farm: how its replicas reach the sink,
    /// if the sink comes next.
    direct: Option<DirectSink<V>>,
}

/// Filled by [`make_sink`] when the sink follows an unordered farm.
type DirectSink<V> = Arc<OnceLock<Arc<Mutex<SinkCore<V>>>>>;

/// The source iterator as the nodes that pull from it see it.
type SharedSource<T> = Arc<Mutex<dyn Pull<T>>>;

fn link<V: 'static>(input: Input<V>, direct: Option<DirectSink<V>>) -> AnyEdge {
    Box::new(Link { input, direct })
}

fn downcast_link<V: 'static>(any: AnyEdge) -> Link<V> {
    *any.downcast::<Link<V>>()
        .expect("stage maker chain preserves the item type")
}

/// Where a node takes its items from.
enum Input<T> {
    /// Batches popped from the edge behind the previous node.
    Edge(Arc<Edge<T>>),
    /// Batches pulled straight from the source iterator: a farm right
    /// behind the source has no edge and no source node in between.
    Source(SharedSource<T>),
}

impl<T: Send + 'static> Input<T> {
    /// An edge to pop from, putting a source node in front of a
    /// source-fed input: every node but a fused farm's replicas pops
    /// from an edge.
    fn into_edge(self, build: &mut Build) -> Arc<Edge<T>> {
        match self {
            Input::Edge(edge) => edge,
            Input::Source(core) => {
                let edge = build.new_edge::<T>(1);
                let node = SourceNode {
                    core,
                    out: build.outbox(&edge),
                    finished: false,
                };
                build.push_node(SOURCE_STAGE, Box::new(node));
                edge
            }
        }
    }
}

// ---------------------------------------------------------------------
// Stage makers: called at run() time by the builder, in pipeline order.
// ---------------------------------------------------------------------

pub(super) fn make_source<I>(build: &mut Build, iter: I) -> AnyEdge
where
    I: Iterator + Send + 'static,
    I::Item: Send + 'static,
{
    let core: SharedSource<I::Item> = Arc::new(Mutex::new(SourceCore {
        iter: Some(iter),
        pulled: 0,
        pulling: false,
    }));
    let (count, shared) = (Arc::clone(&core), Arc::clone(&build.shared));
    build.teardown.push(Box::new(move || {
        let pulled = count.lock().pulled();
        shared.produced.store(pulled, Ordering::Relaxed);
        0
    }));
    link(Input::Source(core), None)
}

pub(super) fn make_stage<T, U, F>(build: &mut Build, stage: usize, f: F, input: AnyEdge) -> AnyEdge
where
    T: Send + 'static,
    U: Send + 'static,
    F: FnMut(T) -> U + Send + 'static,
{
    let input = downcast_link::<T>(input).input.into_edge(build);
    let out = build.new_edge::<U>(1);
    let node = WorkNode::new(f, Input::Edge(input), build.outbox(&out), None);
    build.push_node(stage, Box::new(node));
    link(Input::Edge(out), None)
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
    // With fewer drivers than nodes some driver steps several nodes in
    // turn anyway; two or more replicas then also do the source's and
    // the sink's work between their maps, which saves a hop on each side
    // and loses no parallelism. A lone replica keeps its neighbors: it
    // would serialize them.
    let fuse = build.fuse && replicas >= 2;
    let input = match downcast_link::<T>(input).input {
        Input::Source(core) if fuse => Input::Source(core),
        input => Input::Edge(input.into_edge(build)),
    };
    let mid = build.new_edge::<U>(replicas);
    let f = Arc::new(f);
    let direct = (fuse && !ordered).then(DirectSink::default);
    for _ in 0..replicas {
        let input = match &input {
            Input::Edge(edge) => Input::Edge(Arc::clone(edge)),
            Input::Source(core) => Input::Source(Arc::clone(core)),
        };
        let f = Arc::clone(&f);
        let node = WorkNode::new(move |v| f(v), input, build.outbox(&mid), direct.clone());
        build.push_node(stage, Box::new(node));
    }
    if !ordered {
        return link(Input::Edge(mid), direct);
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
    link(Input::Edge(out), None)
}

pub(super) fn make_sink<T, F>(build: &mut Build, stage: usize, f: F, input: AnyEdge)
where
    T: Send + 'static,
    F: FnMut(T) + Send + 'static,
{
    let Link { input, direct } = downcast_link::<T>(input);
    let input = input.into_edge(build);
    let core = Arc::new(Mutex::new(SinkCore {
        f: Box::new(f),
        stage,
        consumed: 0,
        until: 0,
    }));
    if let Some(direct) = direct {
        // Only this maker fills the slot, once.
        let _ = direct.set(Arc::clone(&core));
    }
    build.push_node(
        stage,
        Box::new(SinkNode {
            core,
            input,
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
    edge: Arc<Edge<V>>,
    batch: Vec<V>,
    /// The batch's sequence number.
    seq: u64,
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
    fn new(edge: Arc<Edge<V>>, limit: usize) -> Self {
        Outbox {
            edge,
            batch: Vec::new(),
            seq: 0,
            limit,
        }
    }

    /// The (empty) batch to fill, with room for `limit` items.
    fn open(&mut self) -> &mut Vec<V> {
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
        let batch = Batch {
            seq: self.seq,
            items: std::mem::take(&mut self.batch),
        };
        match self.edge.try_push(batch) {
            Ok(()) => Flush::Pushed(n),
            Err(batch) => {
                self.batch = batch.items;
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

/// The source iterator and its item count, shared by whatever pulls
/// from it: the replicas of a farm right behind it, or a
/// [`SourceNode`].
struct SourceCore<I> {
    iter: Option<I>,
    /// Items pulled so far, so also the sequence number of the next.
    pulled: u64,
    /// Set while `next` runs; left set by a panic, which marks the
    /// core broken so the iterator is never called again.
    pulling: bool,
}

/// A batch at a time from the source: one dynamic call per batch, the
/// iterator itself called directly.
trait Pull<T>: Send {
    /// Fill the empty `batch` until it holds `limit` items or the
    /// iterator runs dry, and return the sequence number of its first
    /// item. `next` may panic (chaos: faulty source); the items pulled
    /// before it are in `batch` and counted, so teardown drops and
    /// counts them.
    fn pull(&mut self, batch: &mut Vec<T>, limit: usize) -> u64;
    fn exhausted(&self) -> bool;
    /// A pull panicked: the iterator must not be called again.
    fn broken(&self) -> bool;
    /// Items pulled so far.
    fn pulled(&self) -> u64;
}

impl<I> Pull<I::Item> for SourceCore<I>
where
    I: Iterator + Send,
{
    fn pull(&mut self, batch: &mut Vec<I::Item>, limit: usize) -> u64 {
        debug_assert!(batch.is_empty());
        let seq = self.pulled;
        let Some(iter) = self.iter.as_mut() else {
            return seq;
        };
        self.pulling = true;
        let mut dry = false;
        while batch.len() < limit {
            match iter.next() {
                Some(v) => {
                    batch.push(v);
                    self.pulled += 1;
                }
                None => {
                    dry = true;
                    break;
                }
            }
        }
        self.pulling = false;
        if dry {
            self.iter = None;
        }
        seq
    }

    fn exhausted(&self) -> bool {
        self.iter.is_none()
    }

    fn broken(&self) -> bool {
        self.pulling
    }

    fn pulled(&self) -> u64 {
        self.pulled
    }
}

/// Stage 0's node whenever no fused farm pulls from the source itself:
/// a plain stage, a lone replica or the sink comes next, or the pool has
/// a thread for every node.
struct SourceNode<T> {
    core: SharedSource<T>,
    out: Outbox<T>,
    finished: bool,
}

impl<T: Send + 'static> Node for SourceNode<T> {
    fn step(&mut self, shared: &Shared) -> StepOut {
        if self.finished {
            return StepOut::idle();
        }
        let mut core = self.core.lock();
        let mut out = StepOut::idle();
        loop {
            match self.out.flush(shared) {
                Flush::Pushed(n) => out.moved(n),
                Flush::Stalled => return out,
            }
            if out.items >= CLAIM || core.broken() {
                return out;
            }
            if core.exhausted() {
                break;
            }
            let limit = self.out.limit;
            self.out.seq = core.pull(self.out.open(), limit);
        }
        self.finished = true;
        self.out.edge.producer_done();
        out.progress = true;
        out.finished = true;
        out
    }

    fn drain(&mut self, _shared: &Shared) -> u64 {
        self.out.drain()
    }
}

/// A plain stage or one farm replica: takes a batch, maps it in order
/// into one output batch, and pushes that — or, as a replica of a fused
/// unordered farm that can claim the sink, hands it to the sink.
///
/// `F` is the stage's own closure (a farm replica's calls the shared
/// one), so the per-item call in [`map`](Self::map) is static.
struct WorkNode<T, U, F> {
    f: F,
    input: Input<T>,
    /// Items pulled from the source for the next batch (here, not in a
    /// local, so a panicking pull still leaves them counted); the
    /// buffer is reused from pull to pull.
    held: Vec<T>,
    /// The length of the batch being mapped while `f` runs, 0 at rest.
    /// A panicking map leaves it set, so teardown counts that whole
    /// batch as dropped: its mapped part (in `out`), the item in hand
    /// and the unmapped rest (dropped by the unwind).
    mapping: u64,
    out: Outbox<U>,
    direct: Option<DirectSink<U>>,
    finished: bool,
}

impl<T: Send, U: Send, F: FnMut(T) -> U + Send> WorkNode<T, U, F> {
    fn new(f: F, input: Input<T>, out: Outbox<U>, direct: Option<DirectSink<U>>) -> Self {
        WorkNode {
            f,
            input,
            held: Vec::new(),
            mapping: 0,
            out,
            direct,
            finished: false,
        }
    }

    /// The next input batch: popped from the edge, or pulled from the
    /// source if no other replica is pulling right now.
    fn take(&mut self, shared: &Shared) -> PopResult<T> {
        let core = match &self.input {
            Input::Edge(edge) => return edge.pop_or_eos(),
            Input::Source(core) => core,
        };
        let Some(mut core) = core.try_lock() else {
            return PopResult::Empty;
        };
        if core.broken() {
            return PopResult::Empty;
        }
        if core.exhausted() {
            return PopResult::EndOfStream;
        }
        let limit = self.out.limit;
        if self.held.capacity() == 0 {
            self.held.reserve_exact(limit);
        }
        match runtime::contain(|| core.pull(&mut self.held, limit)) {
            Err(payload) => {
                shared.poison_panic(SOURCE_STAGE, payload);
                PopResult::Empty
            }
            Ok(_) if self.held.is_empty() => PopResult::EndOfStream,
            Ok(seq) => PopResult::Batch(Batch {
                seq,
                items: std::mem::take(&mut self.held),
            }),
        }
    }

    /// Map `items` in order into the output batch, which takes their
    /// sequence number, and keep the emptied buffer for the next pull.
    /// Batches never exceed the capacity every edge shares, so one input
    /// batch fills at most one output batch.
    fn map(&mut self, Batch { seq, mut items }: Batch<T>) {
        self.mapping = items.len() as u64;
        self.out.seq = seq;
        let mapped = self.out.open();
        for v in items.drain(..) {
            mapped.push((self.f)(v)); // may panic: `mapping` covers the batch
        }
        self.mapping = 0;
        self.held = items;
    }

    /// Map `batch` straight into the sink if this replica feeds it (a
    /// fused unordered farm right before the sink) and can claim it now,
    /// and hand the batch back otherwise. After each item of its own the
    /// sink also takes one item queued on the edge (mapped by another
    /// replica while the sink was busy), so the sink's closure runs
    /// beside a map rather than back to back; what it popped and has
    /// not taken yet follows at the end. Returns the sink's stage and
    /// the items it consumed.
    ///
    /// A panic in the sink poisons the run with the sink's stage; one in
    /// the map unwinds to the driver, which blames this stage. Either
    /// way the sink core counts what it was handed and did not consume
    /// as dropped.
    fn deliver(&mut self, shared: &Shared, batch: Batch<T>) -> Result<(usize, u64), Batch<T>> {
        let Some(mut sink) = self.direct.as_ref().and_then(|d| d.get()?.try_lock()) else {
            return Err(batch);
        };
        if sink.broken() {
            return Err(batch);
        }
        let before = sink.consumed;
        let mut items = batch.items;
        sink.until += items.len() as u64;
        let mut queue = Queue {
            edge: &self.out.edge,
            items: Vec::new().into_iter(),
            budget: CLAIM,
        };
        // `fed` turns false when the sink panics: stop feeding it.
        let mut fed = true;
        for v in items.drain(..) {
            let u = (self.f)(v); // may panic: the sink core counts the rest
            fed =
                sink.feed(u, shared) && queue.next(&mut sink).is_none_or(|q| sink.feed(q, shared));
            if !fed {
                break;
            }
        }
        while fed {
            let Some(q) = queue.next(&mut sink) else {
                break;
            };
            fed = sink.feed(q, shared);
        }
        self.held = items;
        Ok((sink.stage, sink.consumed - before))
    }

    /// Hand the mapped batch in `out` to the sink if this replica feeds
    /// it and can claim it now, after whatever is queued on the edge.
    /// Returns the sink's stage and the items it consumed. A panic in
    /// the sink poisons the run with the sink's stage.
    fn deliver_mapped(&mut self, shared: &Shared) -> Option<(usize, u64)> {
        let mut sink = self.direct.as_ref()?.get()?.try_lock()?;
        if sink.broken() {
            return None;
        }
        let (queue, batch) = (&self.out.edge, &mut self.out.batch);
        let before = sink.consumed;
        let run = runtime::contain(|| {
            while let PopResult::Batch(queued) = queue.pop_or_eos() {
                sink.consume(queued.items);
            }
            sink.consume(std::mem::take(batch));
        });
        if let Err(payload) = run {
            shared.poison_panic(sink.stage, payload);
        }
        Some((sink.stage, sink.consumed - before))
    }
}

/// The items queued on a fused farm's edge, as [`WorkNode::deliver`]
/// feeds them to the sink it holds: a popped batch at a time.
struct Queue<'a, U> {
    edge: &'a Edge<U>,
    /// The popped batch's items not yet fed.
    items: std::vec::IntoIter<U>,
    /// Items it may still pop in this delivery: at most [`CLAIM`], so
    /// replicas that keep mapping cannot hold the deliverer for ever,
    /// and none once the edge was found empty (it is looked at again
    /// on the next delivery, not after every item).
    budget: u64,
}

impl<U: Send> Queue<'_, U> {
    /// The next queued item, popping a batch when the last one is used
    /// up; `sink` counts each popped batch as handed to it.
    fn next(&mut self, sink: &mut SinkCore<U>) -> Option<U> {
        if self.items.len() == 0 && self.budget > 0 {
            match self.edge.pop_or_eos() {
                PopResult::Batch(batch) => {
                    let n = batch.items.len() as u64;
                    self.budget = self.budget.saturating_sub(n);
                    sink.until += n;
                    self.items = batch.items.into_iter();
                }
                _ => self.budget = 0,
            }
        }
        self.items.next()
    }
}

impl<T, U, F> Node for WorkNode<T, U, F>
where
    T: Send + 'static,
    U: Send + 'static,
    F: FnMut(T) -> U + Send + 'static,
{
    fn step(&mut self, shared: &Shared) -> StepOut {
        if self.finished {
            return StepOut::idle();
        }
        let mut out = StepOut::idle();
        loop {
            // Hand on a batch the edge had no room for: to the sink if this
            // replica can claim it now, else downstream.
            if !self.out.batch.is_empty() {
                if let Some((stage, consumed)) = self.deliver_mapped(shared) {
                    out.delivered = (stage, out.delivered.1 + consumed);
                    out.progress = true;
                    if shared.poisoned.load(Ordering::Acquire) {
                        return out;
                    }
                } else {
                    match self.out.flush(shared) {
                        Flush::Pushed(_) => out.progress = true,
                        Flush::Stalled => return out,
                    }
                }
            }
            if out.items >= CLAIM {
                return out;
            }
            match self.take(shared) {
                PopResult::Batch(batch) => {
                    let n = batch.items.len() as u64;
                    if matches!(self.input, Input::Source(_)) {
                        out.pulled += n;
                    }
                    out.moved(n);
                    match self.deliver(shared, batch) {
                        Ok((stage, consumed)) => {
                            out.delivered = (stage, out.delivered.1 + consumed);
                            if shared.poisoned.load(Ordering::Acquire) {
                                return out;
                            }
                        }
                        Err(batch) => self.map(batch),
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
        let pulled = self.held.len() as u64;
        self.held.clear();
        let unpushed = self.out.drain();
        // A panicking map's batch is partly in `out`: count it once.
        let in_map = if self.mapping > 0 {
            self.mapping
        } else {
            unpushed
        };
        pulled + in_map
    }
}

/// The implicit node behind an ordered farm: buffers out-of-order
/// batches by sequence number and releases them in order. Every batch
/// is a run of consecutive sequence numbers (see [`Batch`]), so whole
/// batches are buffered and released.
struct ReorderNode<V> {
    input: Arc<Edge<V>>,
    out: Outbox<V>,
    /// Early batches keyed by their sequence number.
    buf: BTreeMap<u64, Vec<V>>,
    next_seq: u64,
    /// Input closed: emit whatever is buffered (skipping gaps, which
    /// only a poisoned run can produce) instead of waiting forever.
    flushing: bool,
    finished: bool,
}

impl<V: Send + 'static> ReorderNode<V> {
    /// Queue the batch `seq` (the run starting at `next_seq` or, when
    /// flushing, past a gap) for release.
    fn release(&mut self, seq: u64, items: Vec<V>) {
        self.next_seq = seq + items.len() as u64;
        self.out.seq = seq;
        self.out.batch = items;
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
            if out.items >= CLAIM {
                return out;
            }
            if let Some(items) = self.buf.remove(&self.next_seq) {
                self.release(self.next_seq, items);
                continue;
            }
            if self.flushing {
                // Gaps cannot fill any more: jump to the next buffered
                // run, or finish when the buffer is dry.
                if let Some((seq, items)) = self.buf.pop_first() {
                    self.release(seq, items);
                    continue;
                }
                self.finished = true;
                self.out.edge.producer_done();
                out.progress = true;
                out.finished = true;
                return out;
            }
            match self.input.pop_or_eos() {
                PopResult::Batch(Batch { seq, items }) => {
                    out.progress = true;
                    if seq == self.next_seq {
                        self.release(seq, items);
                    } else {
                        self.buf.insert(seq, items);
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

/// The sink's closure and counters, shared by the sink node and, when
/// fused, the replicas of the unordered farm right before it: whoever
/// holds the lock is the sink, so the closure still runs on one thread
/// at a time.
struct SinkCore<T> {
    f: Box<dyn FnMut(T) + Send>,
    stage: usize,
    /// Items the closure took and returned from.
    consumed: u64,
    /// What `consumed` reaches once the closure has taken every item
    /// handed to the core: a popped batch, or a replica's own batch and
    /// the queued items it popped. A panic (in the closure, or in the
    /// map of a replica feeding it) leaves it ahead, which marks the
    /// core broken so the closure is never called again, and teardown
    /// counts the difference, the item in hand included, as dropped.
    until: u64,
}

impl<T> SinkCore<T> {
    fn broken(&self) -> bool {
        self.until != self.consumed
    }

    /// Feed a popped batch to the closure. A panic drops the rest of
    /// the batch and unwinds to the driver; `until` counts it.
    fn consume(&mut self, items: Vec<T>) {
        self.until = self.consumed + items.len() as u64;
        for v in items {
            (self.f)(v);
            self.consumed += 1;
        }
    }

    /// Feed one item that `until` already counts to the closure. A
    /// panic poisons the run with the sink's stage and returns false.
    fn feed(&mut self, item: T, shared: &Shared) -> bool {
        match runtime::contain(|| (self.f)(item)) {
            Ok(()) => {
                self.consumed += 1;
                true
            }
            Err(payload) => {
                shared.poison_panic(self.stage, payload);
                false
            }
        }
    }
}

struct SinkNode<T> {
    core: Arc<Mutex<SinkCore<T>>>,
    input: Arc<Edge<T>>,
    finished: bool,
}

impl<T: Send + 'static> Node for SinkNode<T> {
    fn step(&mut self, _shared: &Shared) -> StepOut {
        if self.finished {
            return StepOut::idle();
        }
        // A replica holding the core is consuming for the sink.
        let Some(mut core) = self.core.try_lock() else {
            return StepOut::idle();
        };
        if core.broken() {
            return StepOut::idle();
        }
        let mut out = StepOut::idle();
        while out.items < CLAIM {
            match self.input.pop_or_eos() {
                PopResult::Batch(batch) => {
                    out.moved(batch.items.len() as u64);
                    core.consume(batch.items);
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
        let core = self.core.lock();
        shared.consumed.store(core.consumed, Ordering::Relaxed);
        core.until - core.consumed
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
                    if pstl_trace::enabled() {
                        let (sink_stage, delivered) = step.delivered;
                        for (stage, items) in [(SOURCE_STAGE, step.pulled), (sink_stage, delivered)]
                        {
                            if items > 0 {
                                exec.record_stage_burst(stage as u64, items);
                            }
                        }
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
        mut teardown,
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
    for drain in &mut teardown {
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

    /// `source → farm(2) → sink` on `pool`, panicking in the source
    /// iterator (`in_source`) or in the sink on item `trip`.
    fn run_fused_tripping(
        in_source: bool,
        trip: u64,
        pool: &dyn Executor,
        live: &Arc<AtomicIsize>,
    ) -> PipelineError {
        let made = Arc::clone(live);
        let source = Pipeline::source((0..2_000u64).map(move |v| {
            if in_source && v == trip {
                panic!("trip at {trip}");
            }
            Elem::new(v, &made)
        }));
        source
            .farm(2, |e: Elem| e)
            .sink(move |e: Elem| {
                if !in_source && e.0 == trip {
                    panic!("trip at {trip}");
                }
            })
            .run(pool)
            .unwrap_err()
    }

    #[test]
    fn fused_farm_blames_the_source_and_the_sink_for_their_panics() {
        // Fewer threads than the four nodes: the replicas pull from the
        // source and call the sink themselves, yet a panic in either is
        // still attributed to its own stage and the drops balance.
        let live = Arc::new(AtomicIsize::new(0));
        for (d, threads) in [
            (Discipline::WorkStealing, 2),
            (Discipline::ForkJoin, 3),
            (Discipline::TaskPool, 1),
        ] {
            let pool = build_pool(d, threads);
            for in_source in [true, false] {
                for trip in [0, 1, BURST as u64 - 1, BURST as u64, 777] {
                    let label = format!("{d:?}/{threads}/source {in_source}/item {trip}");
                    let err = run_fused_tripping(in_source, trip, &*pool, &live);
                    let want_stage = if in_source { 0 } else { 2 };
                    match &err.kind {
                        PipelineErrorKind::StagePanicked { stage, message } => {
                            assert_eq!(*stage, want_stage, "{label}");
                            assert!(message.contains("trip at"), "{label}: {message}");
                        }
                        other => panic!("{label}: expected StagePanicked, got {other:?}"),
                    }
                    let s = err.stats;
                    assert_eq!(s.produced, s.consumed + s.dropped, "{label}: {s:?}");
                    if in_source {
                        assert_eq!(s.produced, trip, "{label}: items before the panic");
                    }
                    assert_eq!(
                        live.load(Ordering::SeqCst),
                        0,
                        "{label}: leak or double drop"
                    );
                }
            }
            let again = Pipeline::source(0..300u64)
                .farm(2, |x| x + 1)
                .collect(&*pool)
                .unwrap();
            assert_eq!(again.len(), 300, "{d:?}: pool reusable");
        }
    }

    #[test]
    fn fused_and_unfused_farms_agree_and_the_sink_runs_alone() {
        // 1–3 threads fuse `source → farm(3) → sink` (five nodes), 5
        // and 6 do not; every run must see the same items, in source
        // order behind an ordered farm, with the sink never entered
        // twice at once.
        let want: Vec<u64> = (0..5_000u64).map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 5, 6] {
            let pool = build_pool(Discipline::WorkStealing, threads);
            for cap in [1usize, 7, 64] {
                let busy = Arc::new(AtomicIsize::new(0));
                let got = Arc::new(parking_lot::Mutex::new(Vec::new()));
                let (b, g) = (Arc::clone(&busy), Arc::clone(&got));
                let stats = Pipeline::source(0..5_000u64)
                    .capacity(cap)
                    .farm(3, |x| x * 3 + 1)
                    .sink(move |x| {
                        assert_eq!(b.fetch_add(1, Ordering::SeqCst), 0, "sink re-entered");
                        g.lock().push(x);
                        b.fetch_sub(1, Ordering::SeqCst);
                    })
                    .run(&*pool)
                    .unwrap();
                assert_eq!((stats.produced, stats.consumed), (5_000, 5_000));
                let mut got = std::mem::take(&mut *got.lock());
                got.sort_unstable();
                assert_eq!(got, want, "{threads} threads, capacity {cap}: unordered");
                let ordered = Pipeline::source(0..5_000u64)
                    .capacity(cap)
                    .ordered_farm(3, |x| x * 3 + 1)
                    .collect(&*pool)
                    .unwrap();
                assert_eq!(ordered, want, "{threads} threads, capacity {cap}: ordered");
            }
        }
    }
}
