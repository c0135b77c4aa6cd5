//! The bounded inter-stage channel of the streaming layer.
//!
//! Every edge of a pipeline is one `Edge`: a [`RingChannel`] whose
//! slots carry *batches* of items (each stamped once with the source
//! sequence number of its first item), plus an item count that makes
//! the edge's capacity exact in items. Capacity is the backpressure
//! mechanism (a full edge stalls the producing stage, never blocks it
//! — the engine is cooperative, so "waiting" means the stage worker
//! moves on to other stages and retries on its next visit). The ring
//! is a homegrown bounded MPMC queue in the style of Vyukov's array
//! queue: one sequence number per slot, producers and consumers claim
//! positions by CAS, no locks anywhere on the push/pop paths.
//!
//! # The exact item bound
//!
//! A batch of `n` items reserves `n` on the edge's item count *before*
//! its push and releases them just *after* the pop that takes it, so
//! the items queued on an edge never exceed its capacity, whatever the
//! batch sizes. A push whose reservation would exceed the capacity
//! fails (a push wait). The ring itself is sized to the capacity in
//! *batches*, so after a successful reservation it is never truly full
//! — but it can still refuse a push spuriously (a stale position read
//! wraps its distance check, or a consumer is mid-pop on the slot), and
//! then `Edge::try_push` hands the reservation back and reports the
//! push as failed. A hop costs one reservation, one ring CAS on each
//! side and one release per *batch*, not per item.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// One ring slot: the sequence number encodes whose turn the slot is
/// (Vyukov's scheme — `seq == pos` means free for the producer claiming
/// `pos`, `seq == pos + 1` means filled for the consumer claiming
/// `pos`), the cell holds the value while filled.
struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Bounded MPMC ring buffer (Vyukov-style array queue). The physical
/// slot count is a power of two (so position-to-slot mapping is a mask)
/// of at least 2 — the sequence scheme conflates "filled at `pos`" with
/// "free for `pos + size`" when `size == 1` — while the *logical*
/// capacity bound is exact, enforced by a position-distance check
/// before the claim (a stale `dequeue` read can only make the channel
/// look fuller than it is, so the bound is never exceeded and a
/// spurious full is just one extra cooperative retry). Push and pop are
/// lock-free: claim a position with CAS, then publish via the slot's
/// sequence number.
///
/// Both endpoints are non-blocking: [`try_push`](Self::try_push) on a
/// full ring hands the item back, [`try_pop`](Self::try_pop) on an
/// empty one returns `None`. A single producer feeding a single
/// consumer is observed in push order.
///
/// # Close protocol
///
/// [`close`](Self::close) is called exactly once, by the last finishing
/// producer of the edge, strictly *after* its final `try_push`.
/// Consumers must read [`is_closed`](Self::is_closed) *before*
/// [`try_pop`](Self::try_pop): if the flag was already set when the pop
/// came back empty, the emptiness is final (all pushes happened before
/// the close); an empty pop alone is not a termination signal.
pub struct RingChannel<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    capacity: usize,
    enqueue: AtomicUsize,
    dequeue: AtomicUsize,
    closed: AtomicBool,
}

// The UnsafeCell contents are only touched by the position's unique
// claimant (CAS winner) between the seq checks, so cross-thread moves
// of T are the only requirement.
unsafe impl<T: Send> Send for RingChannel<T> {}
unsafe impl<T: Send> Sync for RingChannel<T> {}

impl<T> RingChannel<T> {
    /// A ring bounded at exactly `capacity` items (`0` is bumped to 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let physical = capacity.next_power_of_two().max(2);
        let slots = (0..physical)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        RingChannel {
            slots,
            mask: physical - 1,
            capacity,
            enqueue: AtomicUsize::new(0),
            dequeue: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        }
    }
}

impl<T: Send> RingChannel<T> {
    /// Push `item`, or hand it back if the ring is full.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut pos = self.enqueue.load(Ordering::Relaxed);
        loop {
            // Exact logical bound (the slot count may be larger).
            if pos.wrapping_sub(self.dequeue.load(Ordering::Acquire)) >= self.capacity {
                return Err(item);
            }
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                // Slot free for this position: claim it.
                match self.enqueue.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        unsafe { (*slot.value.get()).write(item) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                // Slot still holds an unconsumed lap: full.
                return Err(item);
            } else {
                pos = self.enqueue.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop the oldest available item, or `None` if empty right now.
    pub fn try_pop(&self) -> Option<T> {
        let mut pos = self.dequeue.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos.wrapping_add(1) as isize;
            if diff == 0 {
                // Slot filled for this position: claim it.
                match self.dequeue.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let item = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq.store(
                            pos.wrapping_add(self.mask).wrapping_add(1),
                            Ordering::Release,
                        );
                        return Some(item);
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                // Slot not yet filled this lap: empty.
                return None;
            } else {
                pos = self.dequeue.load(Ordering::Relaxed);
            }
        }
    }

    /// Latch the end-of-stream flag. Items already queued remain
    /// poppable; pushing after close is a caller bug the ring does not
    /// police (the engine's producer counting makes it impossible).
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Whether [`close`](Self::close) has been called. See the type
    /// docs for the read-before-pop termination protocol.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// The exact item bound this ring was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<T> Drop for RingChannel<T> {
    fn drop(&mut self) {
        // Drop any items still queued. `&mut self` gives exclusive
        // access, so plain loads are enough to walk the live range.
        let mut pos = *self.dequeue.get_mut();
        let end = *self.enqueue.get_mut();
        while pos != end {
            let slot = &mut self.slots[pos & self.mask];
            // Only fully published slots hold a value (a claimed but
            // unpublished slot cannot outlive its pushing thread).
            if *slot.seq.get_mut() == pos.wrapping_add(1) {
                unsafe { slot.value.get_mut().assume_init_drop() };
            }
            pos = pos.wrapping_add(1);
        }
    }
}

/// Items that cross an edge together. The source numbers its items
/// consecutively and every node maps a batch 1:1 and in order, so a
/// batch is a run of consecutive sequence numbers and one stamp, the
/// first item's, orders it.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct Batch<T> {
    pub(super) seq: u64,
    pub(super) items: Vec<T>,
}

/// What a consumer's pop on an [`Edge`] found.
pub(super) enum PopResult<T> {
    Batch(Batch<T>),
    Empty,
    EndOfStream,
}

/// One pipeline edge: a [`RingChannel`] of batches, bounded at exactly
/// `capacity` *items* (see the module docs), plus the number of
/// still-active producers feeding it. The last producer to finish
/// closes the ring.
pub(super) struct Edge<T> {
    ring: RingChannel<Batch<T>>,
    /// Items reserved on this edge: from just before the push of their
    /// batch until just after the pop that takes it.
    items: AtomicUsize,
    capacity: usize,
    producers: AtomicUsize,
}

impl<T: Send> Edge<T> {
    /// An edge bounded at `capacity` items (at least 1), fed by
    /// `producers` nodes. Batches pushed into it must not be longer
    /// than the capacity.
    pub(super) fn new(capacity: usize, producers: usize) -> Self {
        let capacity = capacity.max(1);
        Edge {
            ring: RingChannel::new(capacity),
            items: AtomicUsize::new(0),
            capacity,
            producers: AtomicUsize::new(producers),
        }
    }

    /// Push a non-empty batch of at most `capacity` items, or hand it
    /// back if the edge has no room for all of them.
    pub(super) fn try_push(&self, batch: Batch<T>) -> Result<(), Batch<T>> {
        let n = batch.items.len();
        debug_assert!(n > 0 && n <= self.capacity, "batch of {n} items");
        if !self.reserve(n) {
            return Err(batch);
        }
        self.ring.try_push(batch).inspect_err(|_| {
            // A spurious full: the reservation held, the ring refused.
            self.items.fetch_sub(n, Ordering::Relaxed);
        })
    }

    fn reserve(&self, n: usize) -> bool {
        let mut queued = self.items.load(Ordering::Relaxed);
        loop {
            if queued + n > self.capacity {
                return false;
            }
            match self.items.compare_exchange_weak(
                queued,
                queued + n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => queued = actual,
            }
        }
    }

    /// Pop the oldest batch, with the closed-before-empty end-of-stream
    /// check of the ring's close protocol (the flag is read *before*
    /// the failed pop, so it is conclusive).
    pub(super) fn pop_or_eos(&self) -> PopResult<T> {
        let closed = self.ring.is_closed();
        match self.ring.try_pop() {
            Some(batch) => {
                self.items.fetch_sub(batch.items.len(), Ordering::Relaxed);
                PopResult::Batch(batch)
            }
            None if closed => PopResult::EndOfStream,
            None => PopResult::Empty,
        }
    }

    /// One producer is done pushing; the last one closes the edge.
    pub(super) fn producer_done(&self) {
        if self.producers.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.ring.close();
        }
    }

    /// Teardown: pop every queued batch and return how many items they
    /// held.
    pub(super) fn drain(&self) -> u64 {
        let mut n = 0;
        while let Some(batch) = self.ring.try_pop() {
            self.items.fetch_sub(batch.items.len(), Ordering::Relaxed);
            n += batch.items.len() as u64;
        }
        n
    }

    /// Items currently reserved on the edge (never above the capacity).
    #[cfg(test)]
    pub(super) fn queued(&self) -> usize {
        self.items.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn fifo_and_bounds(chan: &RingChannel<u32>) {
        let cap = chan.capacity();
        for i in 0..cap as u32 {
            assert_eq!(chan.try_push(i), Ok(()));
        }
        assert_eq!(chan.try_push(99), Err(99), "full channel hands back");
        for i in 0..cap as u32 {
            assert_eq!(chan.try_pop(), Some(i), "FIFO order");
        }
        assert_eq!(chan.try_pop(), None);
        // Reusable after wrap-around.
        assert_eq!(chan.try_push(7), Ok(()));
        assert_eq!(chan.try_pop(), Some(7));
    }

    #[test]
    fn ring_fifo_and_bounds() {
        for cap in [1usize, 2, 3, 8] {
            fifo_and_bounds(&RingChannel::new(cap));
        }
    }

    #[test]
    fn capacity_bound_is_exact() {
        assert_eq!(RingChannel::<u8>::new(3).capacity(), 3);
        assert_eq!(RingChannel::<u8>::new(1).capacity(), 1);
        assert_eq!(RingChannel::<u8>::new(0).capacity(), 1);
    }

    #[test]
    fn close_latches_and_items_survive_close() {
        let chan = RingChannel::<u32>::new(4);
        assert!(!chan.is_closed());
        chan.try_push(1).unwrap();
        chan.close();
        assert!(chan.is_closed());
        assert_eq!(chan.try_pop(), Some(1), "queued item poppable after close");
        assert_eq!(chan.try_pop(), None);
    }

    #[test]
    fn ring_drop_releases_queued_items() {
        let counted = Arc::new(());
        let chan = RingChannel::new(4);
        for _ in 0..3 {
            chan.try_push(Arc::clone(&counted)).unwrap();
        }
        let _ = chan.try_pop();
        drop(chan);
        assert_eq!(Arc::strong_count(&counted), 1, "no queued item leaked");
    }

    #[test]
    fn concurrent_producers_consumers_preserve_multiset() {
        // Small enough to run under miri; exercises the CAS paths
        // under real contention.
        let chan = &RingChannel::<u32>::new(4);
        let n = 200u32;
        let seen = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for p in 0..2u32 {
                s.spawn(move || {
                    for i in 0..n {
                        let mut v = p * n + i;
                        loop {
                            match chan.try_push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                });
            }
            for _ in 0..2 {
                let seen = Arc::clone(&seen);
                s.spawn(move || {
                    let mut got = Vec::new();
                    while got.len() < n as usize {
                        match chan.try_pop() {
                            Some(v) => got.push(v),
                            None => std::thread::yield_now(),
                        }
                    }
                    seen.lock().extend(got);
                });
            }
        });
        let mut all = seen.lock().clone();
        all.sort_unstable();
        let expect: Vec<u32> = (0..2 * n).collect();
        assert_eq!(all, expect, "lost or duplicated items");
    }
    /// A batch of `items` stamped with sequence number 0.
    fn batch(items: Vec<u32>) -> Batch<u32> {
        Batch { seq: 0, items }
    }

    #[test]
    fn edge_hands_back_the_reservation_when_the_ring_refuses() {
        let edge = Edge::<u32>::new(3, 1);
        // Fill the ring behind the item count, so a push whose
        // reservation holds meets a full ring (what a spurious full
        // looks like to the pusher).
        for _ in 0..3 {
            edge.ring.try_push(batch(Vec::new())).unwrap();
        }
        assert_eq!(edge.try_push(batch(vec![7])), Err(batch(vec![7])));
        assert_eq!(edge.queued(), 0, "reservation handed back");
        assert_eq!(edge.drain(), 0);
        assert_eq!(edge.try_push(batch(vec![1, 2, 3])), Ok(()));
        assert_eq!(
            edge.try_push(batch(vec![4])),
            Err(batch(vec![4])),
            "items, not batches, are bounded"
        );
        assert_eq!(edge.queued(), 3);
        assert_eq!(edge.drain(), 3);
        assert_eq!(edge.queued(), 0);
    }

    #[test]
    fn edge_close_after_last_producer_ends_the_stream() {
        let edge = Edge::<u32>::new(4, 2);
        edge.try_push(Batch {
            seq: 5,
            items: vec![1, 2],
        })
        .unwrap();
        edge.producer_done();
        assert!(matches!(
            edge.pop_or_eos(),
            PopResult::Batch(Batch { seq: 5, items }) if items == [1, 2]
        ));
        assert!(
            matches!(edge.pop_or_eos(), PopResult::Empty),
            "one producer left"
        );
        edge.producer_done();
        assert!(matches!(edge.pop_or_eos(), PopResult::EndOfStream));
    }

    #[test]
    fn concurrent_batched_edge_keeps_the_multiset_and_the_item_bound() {
        // Two producers push batches of 1–2 items into one edge of
        // capacity 3 while two consumers pop: the producers race on
        // the ring's enqueue position, which is where a spurious full
        // after a successful reservation comes from. Small enough to
        // run under miri.
        const CAP: usize = 3;
        let edge = &Edge::<u32>::new(CAP, 2);
        let n = if cfg!(miri) { 40u32 } else { 2_000 };
        let seen = Mutex::new(Vec::new());
        let seen = &seen;
        std::thread::scope(|s| {
            for p in 0..2u32 {
                s.spawn(move || {
                    let mut next = 0;
                    while next < n {
                        let len = (1 + next % 2).min(n - next);
                        let mut pushed = batch((next..next + len).map(|i| p * n + i).collect());
                        loop {
                            match edge.try_push(pushed) {
                                Ok(()) => break,
                                Err(back) => {
                                    pushed = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                        assert!(edge.queued() <= CAP, "{} items queued", edge.queued());
                        next += len;
                    }
                    edge.producer_done();
                });
            }
            for _ in 0..2 {
                s.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match edge.pop_or_eos() {
                            PopResult::Batch(b) => {
                                assert!(!b.items.is_empty() && b.items.len() <= 2);
                                got.extend(b.items);
                            }
                            PopResult::Empty => std::thread::yield_now(),
                            PopResult::EndOfStream => break,
                        }
                        assert!(edge.queued() <= CAP, "{} items queued", edge.queued());
                    }
                    seen.lock().extend(got);
                });
            }
        });
        let mut all = seen.lock().clone();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..2 * n).collect::<Vec<_>>(),
            "lost or duplicated items"
        );
        assert_eq!(edge.queued(), 0, "every reservation released");
    }
}
