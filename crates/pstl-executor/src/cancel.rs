//! Cooperative cancellation.
//!
//! A [`CancelToken`] is a cheap shared flag (optionally armed with a
//! deadline) that long-running parallel regions poll at natural
//! boundaries — chunk starts, partitioner claim points — and bail out of
//! early. Cancellation is *cooperative*: nothing preempts a running
//! body, so the latency from `cancel()` to the region returning is
//! bounded by the longest in-flight chunk, never by the whole region.
//!
//! Two bail-out styles are supported:
//!
//! * **skip** — the executor-level default used by
//!   [`Executor::run_with_deadline`](crate::Executor::run_with_deadline):
//!   once the token trips, remaining task bodies return immediately
//!   without doing work, so `run` completes normally, the pool drains,
//!   and stays reusable by construction;
//! * **unwind** — the algorithm-level style: [`CancelToken::bail`]
//!   panics with a [`Cancelled`] payload that rides the pools' existing
//!   first-panic-wins propagation and is re-caught at the API boundary
//!   by [`Cancelled::catch`]. Scratch buffers are protected by the same
//!   drop guards that make any panic safe.

use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The error a cancelled region reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("parallel region cancelled")
    }
}

impl std::error::Error for Cancelled {}

impl Cancelled {
    /// Run `f`, converting an unwind carrying a [`Cancelled`] payload
    /// (from [`CancelToken::bail`]) into `Err(Cancelled)`. Any other
    /// panic resumes unchanged.
    pub fn catch<R>(f: impl FnOnce() -> R) -> Result<R, Cancelled> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(v) => Ok(v),
            Err(payload) => {
                // `&*payload`, not `&payload`: the latter would unsize
                // the Box itself into the `dyn Any` and never match.
                if Self::is_payload(&*payload) {
                    Err(Cancelled)
                } else {
                    std::panic::resume_unwind(payload)
                }
            }
        }
    }

    /// Whether a caught panic payload is a cancellation bail-out.
    pub fn is_payload(payload: &(dyn Any + Send)) -> bool {
        payload.downcast_ref::<Cancelled>().is_some()
    }
}

struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation flag, optionally armed with a deadline.
///
/// Checking is a single relaxed atomic load on the fast path; once a
/// deadline token first observes its deadline passed it latches the
/// flag, so later checks stay cheap.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.inner.deadline)
            .finish()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A token that only trips when [`cancel`](Self::cancel) is called.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that additionally trips once `timeout` has elapsed from
    /// construction.
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + timeout),
            }),
        }
    }

    /// Trip the token. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// The absolute deadline this token was armed with, if any.
    ///
    /// Lets observers that see a tripped token tell a genuine expiry
    /// (deadline set and passed) from an explicit
    /// [`cancel`](Self::cancel) — the flag itself latches identically
    /// for both.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Whether the token has tripped (by [`cancel`](Self::cancel) or by
    /// its deadline passing).
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                // Latch so subsequent checks skip the clock read.
                self.inner.cancelled.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// Unwind-style cancellation point: panic with a [`Cancelled`]
    /// payload if the token has tripped. The unwind propagates through
    /// the pool like any body panic and is converted back to
    /// `Err(Cancelled)` by [`Cancelled::catch`].
    #[inline]
    pub fn bail(&self) {
        if self.is_cancelled() {
            std::panic::panic_any(Cancelled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_cancel_is_visible_to_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn deadline_trips_and_latches() {
        let t = CancelToken::with_deadline(Duration::from_millis(5));
        assert!(!t.is_cancelled());
        std::thread::sleep(Duration::from_millis(20));
        assert!(t.is_cancelled());
        assert!(t.is_cancelled(), "latched after first observation");
    }

    #[test]
    fn bail_unwinds_with_typed_payload() {
        let t = CancelToken::new();
        t.cancel();
        assert_eq!(Cancelled::catch(|| t.bail()), Err(Cancelled));
    }

    #[test]
    fn catch_passes_through_clean_results_and_foreign_panics() {
        assert_eq!(Cancelled::catch(|| 7), Ok(7));
        let foreign = std::panic::catch_unwind(|| {
            let _ = Cancelled::catch(|| panic!("not a cancellation"));
        });
        assert!(foreign.is_err(), "foreign panics must resume");
    }
}
