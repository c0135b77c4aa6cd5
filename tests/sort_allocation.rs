//! Allocation guard for `pstl::sort`: the in-place parallel quicksort
//! allocates O(tasks) bytes of bookkeeping, never a buffer proportional
//! to the input. A counting global allocator tracks the peak of live
//! heap bytes above the level at the start of the call, on every thread.
//!
//! This binary holds a single test, so no other test's allocations can
//! land inside a measured call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pstl::ExecutionPolicy;
use pstl_executor::{build_pool, Discipline};

/// Live heap bytes, and the most there have been since the last reset.
struct Counting {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl Counting {
    fn add(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::SeqCst) + bytes;
        self.peak.fetch_max(live, Ordering::SeqCst);
    }

    fn sub(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::SeqCst);
    }

    /// Run `f`; return the peak of live bytes above the level at its
    /// start.
    fn peak_during(&self, f: impl FnOnce()) -> usize {
        let base = self.live.load(Ordering::SeqCst);
        self.peak.store(base, Ordering::SeqCst);
        f();
        self.peak.load(Ordering::SeqCst).saturating_sub(base)
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.add(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            self.add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.sub(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            self.add(new_size);
            self.sub(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

/// 2^16 `u64` are 512 KiB; a sort that copies its input cannot stay
/// under an eighth of that.
const N: usize = 1 << 16;
const BUDGET: usize = 64 << 10;

fn input() -> Vec<u64> {
    (0..N as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7)
        .collect()
}

#[test]
fn sort_allocates_no_buffer_proportional_to_the_input() {
    let mut expect = input();
    expect.sort_unstable();
    let policies = std::iter::once(("seq", ExecutionPolicy::seq())).chain(
        Discipline::POOLS
            .into_iter()
            .map(|d| (d.name(), ExecutionPolicy::par(build_pool(d, 2)))),
    );
    for (name, policy) in policies {
        // One unmeasured call first: a pool's first run may set up
        // per-worker state that outlives the call.
        pstl::sort(&policy, &mut input());
        let mut v = input();
        let peak = ALLOC.peak_during(|| pstl::sort(&policy, &mut v));
        assert_eq!(v, expect, "{name}: not sorted");
        assert!(
            peak < BUDGET,
            "{name}: pstl::sort of {N} u64 peaked at {peak} live heap bytes, budget {BUDGET}"
        );
    }
}
