//! A blocking one-shot future/promise pair.
//!
//! HPX exposes its parallel algorithms on top of futures; our
//! [`TaskPool`] does the same through [`TaskPool::spawn`], which returns
//! a [`Future`]. This is a deliberately simple synchronous future (no
//! `async`): `wait` blocks the calling thread until the promise is
//! fulfilled. HPX's `async`/`when_all` idiom is spawning several
//! closures and waiting on each future in turn; the job service's
//! per-job handles are built on the same pair.
//!
//! [`TaskPool`]: crate::TaskPool
//! [`TaskPool::spawn`]: crate::TaskPool::spawn

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// The producer of a one-shot future went away without fulfilling it —
/// typically because the closure backing the promise panicked and the
/// promise was dropped during its unwind. Returned by
/// [`Future::try_wait`]; [`Future::wait`] turns it into a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokenPromise;

impl std::fmt::Display for BrokenPromise {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("promise dropped without fulfilling the future")
    }
}

impl std::error::Error for BrokenPromise {}

struct Oneshot<T> {
    ready: AtomicBool,
    slot: Mutex<Option<T>>,
    cond: Condvar,
}

/// The producing half: fulfil it exactly once with [`Promise::set`].
pub struct Promise<T> {
    shared: Arc<Oneshot<T>>,
}

/// The consuming half: block on [`Future::wait`] or poll with
/// [`Future::try_take`].
pub struct Future<T> {
    shared: Arc<Oneshot<T>>,
}

/// Create a connected future/promise pair.
pub fn future_promise<T>() -> (Future<T>, Promise<T>) {
    let shared = Arc::new(Oneshot {
        ready: AtomicBool::new(false),
        slot: Mutex::new(None),
        cond: Condvar::new(),
    });
    (
        Future {
            shared: Arc::clone(&shared),
        },
        Promise { shared },
    )
}

impl<T> Promise<T> {
    /// Fulfil the promise, waking any waiter.
    ///
    /// # Panics
    /// Panics if the promise was already fulfilled.
    pub fn set(self, value: T) {
        let mut slot = self.shared.slot.lock();
        assert!(slot.is_none(), "promise fulfilled twice");
        *slot = Some(value);
        self.shared.ready.store(true, Ordering::Release);
        self.shared.cond.notify_all();
    }
}

impl<T> Future<T> {
    /// Whether the value has been produced.
    pub fn is_ready(&self) -> bool {
        self.shared.ready.load(Ordering::Acquire)
    }

    /// Take the value if it is already available.
    pub fn try_take(&self) -> Option<T> {
        if !self.is_ready() {
            return None;
        }
        self.shared.slot.lock().take()
    }

    /// Block until the value is available and take it.
    ///
    /// # Panics
    /// Panics if the value was already taken by a previous `wait`/`try_take`
    /// (one-shot semantics) or if the promise was dropped unfulfilled.
    pub fn wait(self) -> T {
        match self.try_wait() {
            Ok(v) => v,
            Err(broken) => panic!("{broken}"),
        }
    }

    /// Block until the value is available and take it, reporting a
    /// producer that disappeared without fulfilling the promise as
    /// [`BrokenPromise`] instead of panicking. This is how a pool
    /// surfaces a spawned closure that panicked: the worker contains the
    /// panic and drops the promise, and the waiter gets `Err` here.
    ///
    /// # Panics
    /// Panics if the value was already taken by a previous
    /// `wait`/`try_take` (one-shot semantics — a caller bug, not a
    /// runtime fault).
    pub fn try_wait(self) -> Result<T, BrokenPromise> {
        // Bounded spin first — pool tasks are typically short.
        for _ in 0..128 {
            if self.is_ready() {
                return Ok(self
                    .shared
                    .slot
                    .lock()
                    .take()
                    .expect("one-shot future value already taken"));
            }
            std::hint::spin_loop();
        }
        let mut slot = self.shared.slot.lock();
        loop {
            if let Some(v) = slot.take() {
                return Ok(v);
            }
            if self.is_ready() {
                panic!("one-shot future value already taken");
            }
            if Arc::strong_count(&self.shared) == 1 {
                return Err(BrokenPromise);
            }
            self.shared
                .cond
                .wait_for(&mut slot, std::time::Duration::from_millis(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskPool;

    #[test]
    fn set_then_wait() {
        let (f, p) = future_promise();
        p.set(42);
        assert!(f.is_ready());
        assert_eq!(f.wait(), 42);
    }

    #[test]
    fn wait_blocks_until_set() {
        let (f, p) = future_promise();
        let t = std::thread::spawn(move || f.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        p.set("done");
        assert_eq!(t.join().unwrap(), "done");
    }

    #[test]
    fn try_take_before_ready_is_none() {
        let (f, p) = future_promise::<u32>();
        assert!(f.try_take().is_none());
        p.set(7);
        assert_eq!(f.try_take(), Some(7));
        assert!(f.try_take().is_none());
    }

    #[test]
    #[should_panic(expected = "promise dropped")]
    fn dropped_promise_panics_waiter() {
        let (f, p) = future_promise::<u32>();
        drop(p);
        f.wait();
    }

    #[test]
    fn dropped_promise_is_a_typed_error_via_try_wait() {
        let (f, p) = future_promise::<u32>();
        drop(p);
        assert_eq!(f.try_wait(), Err(BrokenPromise));
    }

    #[test]
    fn try_wait_returns_value_when_fulfilled() {
        let (f, p) = future_promise();
        let t = std::thread::spawn(move || f.try_wait());
        std::thread::sleep(std::time::Duration::from_millis(5));
        p.set(9);
        assert_eq!(t.join().unwrap(), Ok(9));
    }

    #[test]
    fn panicking_spawn_breaks_promise_without_killing_worker() {
        let pool = TaskPool::new(2);
        let f = pool.spawn(|| -> u32 { panic!("spawn boom") });
        // The worker contains the panic and drops the promise; the
        // waiter sees the typed error instead of a hang.
        assert_eq!(f.try_wait(), Err(BrokenPromise));
        // The worker thread survived and still executes tasks.
        let g = pool.spawn(|| 7);
        assert_eq!(g.wait(), 7);
    }
}
