//! Per-worker scheduling event tracing for the pstl executors.
//!
//! The paper's explanatory evidence for backend gaps is scheduling
//! observability (hardware counters in Tables 3–4 attributing HPX's
//! instruction blow-up to chunk management); this crate is the
//! reproduction's equivalent instrument. Executors record timestamped
//! lifecycle events ([`EventKind`]) into per-worker lock-free ring
//! buffers ([`PoolTracer`]), and the captured [`TraceLog`] exports two
//! ways:
//!
//! * [`chrome::trace_json`] — Chrome trace-event JSON (open in
//!   `chrome://tracing` or Perfetto), one track per worker;
//! * [`analyze::analyze_log`] — derived scheduler statistics: per-worker
//!   utilization, steal-latency and task-size distributions, critical
//!   path and bottleneck class.
//!
//! Recording is gated behind the `record` cargo feature. Without it,
//! [`PoolTracer`]/[`WorkerRecorder`] are zero-sized and
//! [`WorkerRecorder::record`] is an empty `#[inline(always)]` function,
//! so instrumentation call sites cost nothing in normal builds — the
//! types, exporters, and [`TraceLog`] remain available either way so
//! downstream code needs no `cfg` at call sites.

pub mod analyze;
pub mod chrome;
pub mod hist;
mod recorder;
pub mod stats;

pub use recorder::{PoolTracer, WorkerRecorder, DEFAULT_CAPACITY};

/// Whether this build records events (`record` cargo feature).
pub const fn enabled() -> bool {
    cfg!(feature = "record")
}

/// A scheduling lifecycle event. Payloads are capped at 56 bits by the
/// ring encoding; sizes/victims beyond that saturate (never observed in
/// practice — they are task counts and worker indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A parallel region (one `Executor::run`) began on this worker;
    /// `tasks` is the region's task count.
    RegionBegin { tasks: u64 },
    /// The region finished.
    RegionEnd,
    /// This worker made a task (or block of tasks) runnable elsewhere;
    /// `size` is the number of indices in the block.
    TaskSpawn { size: u64 },
    /// This worker started executing a block of `size` indices.
    TaskStart { size: u64 },
    /// The block finished.
    TaskFinish,
    /// A steal was attempted from `victim`'s deque.
    StealAttempt { victim: u64 },
    /// The steal from `victim` succeeded.
    StealSuccess { victim: u64 },
    /// The successful steal took work from a victim on the thief's own
    /// NUMA node (always follows a [`EventKind::StealSuccess`]).
    LocalSteal { victim: u64 },
    /// The successful steal crossed NUMA nodes.
    RemoteSteal { victim: u64 },
    /// The worker went to sleep waiting for work.
    Park,
    /// The worker woke up.
    Unpark,
    /// A running range was split in response to steal pressure (lazy
    /// binary splitting); `size` is the number of elements handed off.
    RangeSplit { size: u64 },
    /// A cancellable region observed its token cancelled; `tasks` is the
    /// number of task bodies skipped because of it.
    Cancel { tasks: u64 },
    /// A search region returned before draining its range because a
    /// match was published; `wasted` is the number of chunks/claims that
    /// were dispatched but skipped or aborted past the match.
    EarlyExit { wasted: u64 },
    /// A streaming pipeline stage processed a burst of `items` items on
    /// this worker; `stage` is the stage index within the pipeline.
    /// Stage indices saturate at 16 bits and burst sizes at 40 bits in
    /// the ring encoding (both far beyond observed values).
    StageBurst { stage: u64, items: u64 },
}

// The packed encoding is exercised only by the ring recorder, which the
// `record` feature swaps in; keep it compiled (and unit-tested) either way.
#[cfg_attr(not(feature = "record"), allow(dead_code))]
mod encoding {
    use super::EventKind;

    const TAG_REGION_BEGIN: u64 = 0;
    const TAG_REGION_END: u64 = 1;
    const TAG_TASK_SPAWN: u64 = 2;
    const TAG_TASK_START: u64 = 3;
    const TAG_TASK_FINISH: u64 = 4;
    const TAG_STEAL_ATTEMPT: u64 = 5;
    const TAG_STEAL_SUCCESS: u64 = 6;
    const TAG_PARK: u64 = 7;
    const TAG_UNPARK: u64 = 8;
    const TAG_RANGE_SPLIT: u64 = 9;
    const TAG_LOCAL_STEAL: u64 = 10;
    const TAG_REMOTE_STEAL: u64 = 11;
    const TAG_CANCEL: u64 = 12;
    const TAG_EARLY_EXIT: u64 = 13;
    const TAG_STAGE_BURST: u64 = 14;

    const PAYLOAD_BITS: u32 = 56;
    const PAYLOAD_MASK: u64 = (1 << PAYLOAD_BITS) - 1;

    // StageBurst packs two fields into the 56-bit payload: the stage
    // index in the top 16 bits, the burst size in the low 40.
    const STAGE_ITEM_BITS: u32 = 40;
    const STAGE_ITEM_MASK: u64 = (1 << STAGE_ITEM_BITS) - 1;
    const STAGE_MAX: u64 = (1 << (PAYLOAD_BITS - STAGE_ITEM_BITS)) - 1;

    impl EventKind {
        /// Pack into one ring word: `tag << 56 | payload`.
        pub(crate) fn encode(self) -> u64 {
            let (tag, payload) = match self {
                EventKind::RegionBegin { tasks } => (TAG_REGION_BEGIN, tasks),
                EventKind::RegionEnd => (TAG_REGION_END, 0),
                EventKind::TaskSpawn { size } => (TAG_TASK_SPAWN, size),
                EventKind::TaskStart { size } => (TAG_TASK_START, size),
                EventKind::TaskFinish => (TAG_TASK_FINISH, 0),
                EventKind::StealAttempt { victim } => (TAG_STEAL_ATTEMPT, victim),
                EventKind::StealSuccess { victim } => (TAG_STEAL_SUCCESS, victim),
                EventKind::Park => (TAG_PARK, 0),
                EventKind::Unpark => (TAG_UNPARK, 0),
                EventKind::RangeSplit { size } => (TAG_RANGE_SPLIT, size),
                EventKind::LocalSteal { victim } => (TAG_LOCAL_STEAL, victim),
                EventKind::RemoteSteal { victim } => (TAG_REMOTE_STEAL, victim),
                EventKind::Cancel { tasks } => (TAG_CANCEL, tasks),
                EventKind::EarlyExit { wasted } => (TAG_EARLY_EXIT, wasted),
                EventKind::StageBurst { stage, items } => (
                    TAG_STAGE_BURST,
                    (stage.min(STAGE_MAX) << STAGE_ITEM_BITS) | items.min(STAGE_ITEM_MASK),
                ),
            };
            (tag << PAYLOAD_BITS) | (payload & PAYLOAD_MASK)
        }

        pub(crate) fn decode(word: u64) -> EventKind {
            let payload = word & PAYLOAD_MASK;
            match word >> PAYLOAD_BITS {
                TAG_REGION_BEGIN => EventKind::RegionBegin { tasks: payload },
                TAG_REGION_END => EventKind::RegionEnd,
                TAG_TASK_SPAWN => EventKind::TaskSpawn { size: payload },
                TAG_TASK_START => EventKind::TaskStart { size: payload },
                TAG_TASK_FINISH => EventKind::TaskFinish,
                TAG_STEAL_ATTEMPT => EventKind::StealAttempt { victim: payload },
                TAG_STEAL_SUCCESS => EventKind::StealSuccess { victim: payload },
                TAG_PARK => EventKind::Park,
                TAG_RANGE_SPLIT => EventKind::RangeSplit { size: payload },
                TAG_LOCAL_STEAL => EventKind::LocalSteal { victim: payload },
                TAG_REMOTE_STEAL => EventKind::RemoteSteal { victim: payload },
                TAG_CANCEL => EventKind::Cancel { tasks: payload },
                TAG_EARLY_EXIT => EventKind::EarlyExit { wasted: payload },
                TAG_STAGE_BURST => EventKind::StageBurst {
                    stage: payload >> STAGE_ITEM_BITS,
                    items: payload & STAGE_ITEM_MASK,
                },
                _ => EventKind::Unpark,
            }
        }
    }
}

/// One recorded event: nanoseconds since the process trace epoch plus
/// the event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub t_ns: u64,
    pub kind: EventKind,
}

/// The event stream of one worker track, oldest first.
#[derive(Debug, Clone)]
pub struct WorkerTrace {
    /// Track label (`worker-N`, or `caller` for the master-participates
    /// track of helping executors).
    pub label: String,
    /// Events in recording order.
    pub events: Vec<Event>,
    /// Events overwritten before they could be drained (ring overflow).
    pub dropped: u64,
}

/// A drained capture: every worker track of one pool, plus identity.
#[derive(Debug, Clone)]
pub struct TraceLog {
    /// Scheduling discipline name (`fork_join`, `work_stealing`, ...).
    pub discipline: &'static str,
    /// Pool thread count.
    pub threads: usize,
    /// One entry per track.
    pub workers: Vec<WorkerTrace>,
}

impl TraceLog {
    /// Total recorded events across tracks.
    pub fn event_count(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// An empty log (what disabled builds produce).
    pub fn empty(discipline: &'static str, threads: usize) -> Self {
        TraceLog {
            discipline,
            threads,
            workers: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        for kind in [
            EventKind::RegionBegin { tasks: 500 },
            EventKind::RegionEnd,
            EventKind::TaskSpawn { size: 1 << 40 },
            EventKind::TaskStart { size: 0 },
            EventKind::TaskFinish,
            EventKind::StealAttempt { victim: 31 },
            EventKind::StealSuccess { victim: 0 },
            EventKind::Park,
            EventKind::Unpark,
            EventKind::RangeSplit { size: 4096 },
            EventKind::LocalSteal { victim: 7 },
            EventKind::RemoteSteal { victim: 63 },
            EventKind::Cancel { tasks: 12 },
            EventKind::EarlyExit { wasted: 17 },
            EventKind::StageBurst {
                stage: 3,
                items: 1 << 20,
            },
        ] {
            assert_eq!(EventKind::decode(kind.encode()), kind);
        }
    }

    #[test]
    fn stage_burst_fields_saturate_independently() {
        let kind = EventKind::StageBurst {
            stage: u64::MAX,
            items: u64::MAX,
        };
        match EventKind::decode(kind.encode()) {
            EventKind::StageBurst { stage, items } => {
                assert_eq!(stage, (1 << 16) - 1);
                assert_eq!(items, (1 << 40) - 1);
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn payload_saturates_at_56_bits() {
        let kind = EventKind::TaskSpawn { size: u64::MAX };
        match EventKind::decode(kind.encode()) {
            EventKind::TaskSpawn { size } => assert_eq!(size, (1 << 56) - 1),
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn empty_log_counts_zero() {
        assert_eq!(TraceLog::empty("seq", 1).event_count(), 0);
    }
}
