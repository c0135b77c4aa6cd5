//! Chaos suite for the streaming layer, mirroring `chaos_unwind.rs`:
//! inject panics into the source, a stage, a farm replica, and the
//! sink; cancel mid-stream manually and by deadline; and verify on
//! every pool discipline that
//!
//! - the failure surfaces as a *typed* [`PipelineError`] (never an
//!   unwind out of `run`),
//! - the flow accounting balances (`produced == consumed + dropped`),
//! - by exact live-object counting, no item leaks or double-drops, and
//! - the pool is immediately reusable for clean work afterwards.

use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pstl::stream::{Pipeline, PipelineErrorKind, StreamStats};
use pstl_executor::{build_pool, CancelToken, Discipline};

/// Net count of live [`Elem`] values made by one test; an unchanged
/// count across a pipeline run means perfect drop balance. Each
/// `#[test]` owns its counter, so tests running in parallel never see
/// each other's items.
#[derive(Clone, Default)]
struct Live(Arc<AtomicIsize>);

impl Live {
    fn count(&self) -> isize {
        self.0.load(Ordering::SeqCst)
    }

    /// An `Elem` constructor counted on this tracker.
    fn elem(&self) -> impl Fn(u64) -> Elem + Send + 'static {
        let live = Arc::clone(&self.0);
        move |v| {
            live.fetch_add(1, Ordering::SeqCst);
            Elem(v, Arc::clone(&live))
        }
    }
}

#[derive(Debug)]
struct Elem(u64, Arc<AtomicIsize>);

impl Drop for Elem {
    fn drop(&mut self) {
        self.1.fetch_sub(1, Ordering::SeqCst);
    }
}

fn assert_balanced(label: &str, stats: &StreamStats, live: &Live, live_before: isize) {
    assert_eq!(
        stats.produced,
        stats.consumed + stats.dropped,
        "{label}: flow accounting must balance"
    );
    assert_eq!(
        live.count(),
        live_before,
        "{label}: drop imbalance (leak or double drop)"
    );
}

/// After any chaotic run the same pool must still do clean work.
fn assert_reusable(label: &str, pool: &std::sync::Arc<dyn pstl_executor::Executor>) {
    let again = Pipeline::source(0..200u64)
        .ordered_farm(2, |x| x + 1)
        .collect(&**pool)
        .unwrap();
    assert_eq!(again.len(), 200, "{label}: pool wedged after chaos");
    assert_eq!(again[199], 200, "{label}: pool wedged after chaos");
}

#[test]
fn panics_in_source_stage_farm_and_sink_surface_typed_and_balanced() {
    let live = Live::default();
    for d in Discipline::POOLS {
        let pool = build_pool(d, 3);
        let label = format!("{d:?}");

        // Panic in the source iterator itself (stage 0).
        let before = live.count();
        let elem = live.elem();
        let err = Pipeline::source((0u64..).map(move |i| {
            if i == 321 {
                panic!("source boom");
            }
            elem(i)
        }))
        .stage(|e: Elem| e)
        .sink(drop)
        .run(&*pool)
        .unwrap_err();
        match &err.kind {
            PipelineErrorKind::StagePanicked { stage, message } => {
                assert_eq!(*stage, 0, "{label}: source is stage 0");
                assert!(message.contains("source boom"), "{label}: {message}");
            }
            other => panic!("{label}: expected StagePanicked, got {other:?}"),
        }
        assert_balanced(&format!("{label}/source"), &err.stats, &live, before);

        // Panic in a plain stage (stage 1), mid-stream.
        let before = live.count();
        let err = Pipeline::source((0..5_000u64).map(live.elem()))
            .stage(|e: Elem| {
                if e.0 == 1_234 {
                    panic!("stage boom");
                }
                e
            })
            .sink(drop)
            .run(&*pool)
            .unwrap_err();
        match &err.kind {
            PipelineErrorKind::StagePanicked { stage, message } => {
                assert_eq!(*stage, 1, "{label}: first stage is 1");
                assert!(message.contains("stage boom"), "{label}: {message}");
            }
            other => panic!("{label}: expected StagePanicked, got {other:?}"),
        }
        assert_balanced(&format!("{label}/stage"), &err.stats, &live, before);

        // Panic inside one replica of an unordered farm (stage 1):
        // the other replicas must drain and stop, not hang.
        let before = live.count();
        let err = Pipeline::source((0..5_000u64).map(live.elem()))
            .farm(3, |e: Elem| {
                if e.0 == 777 {
                    panic!("farm boom");
                }
                e
            })
            .sink(drop)
            .run(&*pool)
            .unwrap_err();
        match &err.kind {
            PipelineErrorKind::StagePanicked { stage, message } => {
                assert_eq!(*stage, 1, "{label}: farm is stage 1");
                assert!(message.contains("farm boom"), "{label}: {message}");
            }
            other => panic!("{label}: expected StagePanicked, got {other:?}"),
        }
        assert_balanced(&format!("{label}/farm"), &err.stats, &live, before);

        // Panic in the sink (last stage): upstream items in flight
        // must be dropped exactly once during teardown.
        let before = live.count();
        let err = Pipeline::source((0..5_000u64).map(live.elem()))
            .stage(|e: Elem| e)
            .sink(|e: Elem| {
                if e.0 == 2_000 {
                    panic!("sink boom");
                }
            })
            .run(&*pool)
            .unwrap_err();
        match &err.kind {
            PipelineErrorKind::StagePanicked { stage, message } => {
                assert_eq!(*stage, 2, "{label}: sink is stage 2");
                assert!(message.contains("sink boom"), "{label}: {message}");
            }
            other => panic!("{label}: expected StagePanicked, got {other:?}"),
        }
        assert_balanced(&format!("{label}/sink"), &err.stats, &live, before);

        assert_reusable(&label, &pool);
    }
}

#[test]
fn manual_cancel_mid_stream_balances_on_every_backend() {
    let live = Live::default();
    for d in Discipline::POOLS {
        let pool = build_pool(d, 3);
        let label = format!("{d:?}");
        let before = live.count();

        let token = CancelToken::new();
        let observer = token.clone();
        let err = Pipeline::source((0u64..).map(live.elem()))
            .with_cancel(token)
            .stage(move |e: Elem| {
                if e.0 == 800 {
                    observer.cancel();
                }
                e
            })
            .sink(drop)
            .run(&*pool)
            .unwrap_err();
        assert_eq!(err.kind, PipelineErrorKind::Cancelled, "{label}");
        assert_balanced(&label, &err.stats, &live, before);
        assert!(
            err.stats.produced < 5_000_000,
            "{label}: teardown not prompt, produced {}",
            err.stats.produced
        );
        assert_reusable(&label, &pool);
    }
}

#[test]
fn deadline_cancel_mid_stream_balances_on_every_backend() {
    let live = Live::default();
    for d in Discipline::POOLS {
        let pool = build_pool(d, 2);
        let label = format!("{d:?}");
        let before = live.count();

        let elem = live.elem();
        let err = Pipeline::source((0u64..).map(move |i| {
            std::thread::sleep(Duration::from_micros(20));
            elem(i)
        }))
        .with_cancel(CancelToken::with_deadline(Duration::from_millis(25)))
        .ordered_farm(2, |e: Elem| e)
        .sink(drop)
        .run(&*pool)
        .unwrap_err();
        assert_eq!(err.kind, PipelineErrorKind::Cancelled, "{label}");
        assert_balanced(&label, &err.stats, &live, before);
        assert_reusable(&label, &pool);
    }
}

#[test]
fn pools_interleave_chaotic_and_clean_streams_without_residue() {
    // Alternate a failing stream and a clean full pass on the same
    // pool, several rounds per discipline: chaos must leave no residue
    // in the runtime (mirrors `pools_rerun_cleanly_after_chaos`).
    for d in Discipline::POOLS {
        let pool = build_pool(d, 3);
        for round in 0..8u64 {
            let trip = round * 113;
            let err = Pipeline::source(0..2_000u64)
                .farm(2, move |x| {
                    if x == trip {
                        panic!("boom round");
                    }
                    x
                })
                .sink(|_| {})
                .run(&*pool)
                .unwrap_err();
            assert!(
                matches!(err.kind, PipelineErrorKind::StagePanicked { .. }),
                "{d:?} round {round}"
            );

            let got = Pipeline::source(0..2_000u64)
                .ordered_farm(3, |x| x * 2)
                .collect(&*pool)
                .unwrap();
            let want: Vec<u64> = (0..2_000).map(|x| x * 2).collect();
            assert_eq!(got, want, "{d:?} round {round}: clean run after chaos");
        }
    }
}

// ---------------------------------------------------------------------
// The `jobs` shape: `source → farm(2) → sink` on a 2-thread pool, where
// the farm is fused with its neighbors (fewer threads than nodes): its
// replicas pull from the source and map straight into the sink.
// ---------------------------------------------------------------------

/// Items per source claim at the default capacity (the engine's batch
/// size): the boundaries below sit on either side of one claim.
const CLAIM: u64 = 128;

/// Items in the chaos runs of the fused farm; the last is `ITEMS - 1`.
const ITEMS: u64 = 1_000;

/// Where [`run_fused`] panics.
#[derive(Debug, Clone, Copy)]
enum Trip {
    Map,
    Sink,
}

/// `source → farm(2) → sink` over `ITEMS` counted elements on `pool`,
/// panicking in the map or in the sink on item `k`.
fn run_fused(
    trip: Trip,
    k: u64,
    pool: &dyn pstl_executor::Executor,
    live: &Live,
) -> pstl::stream::PipelineError {
    Pipeline::source((0..ITEMS).map(live.elem()))
        .farm(2, move |e: Elem| {
            if matches!(trip, Trip::Map) && e.0 == k {
                panic!("map boom at {k}");
            }
            e
        })
        .sink(move |e: Elem| {
            if matches!(trip, Trip::Sink) && e.0 == k {
                panic!("sink boom at {k}");
            }
        })
        .run(pool)
        .unwrap_err()
}

#[test]
fn fused_farm_panics_at_claim_boundaries_blame_their_stage_and_balance() {
    let live = Live::default();
    for d in Discipline::POOLS {
        let pool = build_pool(d, 2);
        for trip in [Trip::Map, Trip::Sink] {
            for k in [CLAIM - 1, CLAIM, CLAIM + 1, ITEMS - 1] {
                let label = format!("{d:?}/{trip:?}/item {k}");
                let before = live.count();
                let err = run_fused(trip, k, &*pool, &live);
                let want = match trip {
                    Trip::Map => (1, "map boom"),
                    Trip::Sink => (2, "sink boom"),
                };
                match &err.kind {
                    PipelineErrorKind::StagePanicked { stage, message } => {
                        assert_eq!(*stage, want.0, "{label}: blamed stage");
                        assert!(message.contains(want.1), "{label}: {message}");
                    }
                    other => panic!("{label}: expected StagePanicked, got {other:?}"),
                }
                assert_balanced(&label, &err.stats, &live, before);
            }
        }
        assert_reusable(&format!("{d:?}"), &pool);
    }
}

#[test]
fn fused_farm_manual_cancel_after_k_items_balances() {
    let live = Live::default();
    for d in Discipline::POOLS {
        let pool = build_pool(d, 2);
        for k in [0, CLAIM - 1, CLAIM, CLAIM + 1, ITEMS] {
            let label = format!("{d:?}/cancel after {k}");
            let before = live.count();
            let token = CancelToken::new();
            let observer = token.clone();
            let err = Pipeline::source((0u64..).map(live.elem()))
                .with_cancel(token)
                .farm(2, move |e: Elem| {
                    if e.0 == k {
                        observer.cancel();
                    }
                    e
                })
                .sink(drop)
                .run(&*pool)
                .unwrap_err();
            assert_eq!(err.kind, PipelineErrorKind::Cancelled, "{label}");
            assert_balanced(&label, &err.stats, &live, before);
            // Each of the two drivers finishes at most the claim it is in.
            assert!(
                err.stats.produced <= k + 16 * CLAIM,
                "{label}: teardown not prompt, produced {}",
                err.stats.produced
            );
        }
        assert_reusable(&format!("{d:?}"), &pool);
    }
}

#[test]
fn fused_farm_runs_sources_around_one_claim_to_completion() {
    let live = Live::default();
    for d in Discipline::POOLS {
        let pool = build_pool(d, 2);
        for n in [0, 1, CLAIM - 1, CLAIM + 1, ITEMS] {
            let label = format!("{d:?}/{n} items");
            let before = live.count();
            let got = Arc::new(Mutex::new(Vec::new()));
            let sink_got = Arc::clone(&got);
            let stats = Pipeline::source((0..n).map(live.elem()))
                .farm(2, |mut e: Elem| {
                    e.0 *= 3;
                    e
                })
                .sink(move |e: Elem| sink_got.lock().unwrap().push(e.0))
                .run(&*pool)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(
                (stats.produced, stats.consumed, stats.dropped),
                (n, n, 0),
                "{label}"
            );
            let mut got = std::mem::take(&mut *got.lock().unwrap());
            got.sort_unstable();
            assert_eq!(
                got,
                (0..n).map(|x| x * 3).collect::<Vec<_>>(),
                "{label}: items"
            );
            assert_balanced(&label, &stats, &live, before);
        }
        assert_reusable(&format!("{d:?}"), &pool);
    }
}
