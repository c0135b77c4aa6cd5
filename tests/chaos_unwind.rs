//! Chaos property tests: inject panics from user operations at swept
//! call indices and verify, by exact drop counting, that every pool ×
//! partitioner × algorithm combination neither leaks nor double-drops a
//! single element — and that the pool is immediately reusable.

use std::cmp::Ordering as CmpOrdering;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;

use pstl::{ExecutionPolicy, ParConfig, Partitioner};
use pstl_executor::{build_pool, Discipline};

/// Net count of live [`Elem`] values across every construction path
/// (`new`, `Clone`) and `Drop`, owned by one test (never a static, so
/// tests running in parallel cannot disturb each other's count). An
/// unchanged count across a case means perfect drop balance.
type Live = Arc<AtomicIsize>;

/// A value that carries the counter it was counted on.
#[derive(Debug)]
struct Elem(u64, Live);

impl Elem {
    fn new(v: u64, live: &Live) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        Elem(v, Arc::clone(live))
    }
}

impl Clone for Elem {
    fn clone(&self) -> Self {
        Elem::new(self.0, &self.1)
    }
}

impl Drop for Elem {
    fn drop(&mut self) {
        self.1.fetch_sub(1, Ordering::SeqCst);
    }
}

impl PartialEq for Elem {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for Elem {}
impl PartialOrd for Elem {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Elem {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Injection point for the algorithms that use `T: Ord`
        // internally (set operations) rather than a caller-supplied
        // comparator.
        ORD_TRIP.poke();
        self.0.cmp(&other.0)
    }
}

/// A panic trigger that fires on the `at`-th poke after arming.
struct Trip {
    count: AtomicUsize,
    at: AtomicUsize,
}

const DISARMED: usize = usize::MAX;

impl Trip {
    const fn new() -> Self {
        Trip {
            count: AtomicUsize::new(0),
            at: AtomicUsize::new(DISARMED),
        }
    }

    fn arm(&self, at: usize) {
        self.count.store(0, Ordering::SeqCst);
        self.at.store(at, Ordering::SeqCst);
    }

    fn disarm(&self) {
        self.at.store(DISARMED, Ordering::SeqCst);
    }

    fn poke(&self) {
        let at = self.at.load(Ordering::SeqCst);
        if at != DISARMED && self.count.fetch_add(1, Ordering::SeqCst) == at {
            panic!("chaos trip at op #{at}");
        }
    }
}

static ORD_TRIP: Trip = Trip::new();

fn elems(n: usize, live: &Live) -> Vec<Elem> {
    // Descending with duplicates: sorts do real work, predicates split
    // roughly in half.
    (0..n)
        .map(|i| Elem::new(((n - i) / 2) as u64, live))
        .collect()
}

fn policies() -> Vec<(String, ExecutionPolicy)> {
    let mut out = Vec::new();
    for d in Discipline::POOLS {
        let pool = build_pool(d, 3);
        for p in [
            Partitioner::Static,
            Partitioner::Guided,
            Partitioner::Adaptive,
        ] {
            out.push((
                format!("{d:?}/{p:?}"),
                ExecutionPolicy::par_with(
                    Arc::clone(&pool),
                    ParConfig::with_grain(32).partitioner(p),
                ),
            ));
        }
    }
    out
}

/// One chaos case: run `op` (which creates all its own inputs) with the
/// user-op trip armed at `site`, require the panic to surface, then
/// require perfect drop balance once everything the case created is
/// gone.
fn chaos_case(label: &str, site: usize, trip: &Trip, live: &Live, op: impl FnOnce()) {
    let before = live.load(Ordering::SeqCst);
    trip.arm(site);
    let result = catch_unwind(AssertUnwindSafe(op));
    trip.disarm();
    assert!(result.is_err(), "{label} @ {site}: injected panic vanished");
    assert_eq!(
        live.load(Ordering::SeqCst),
        before,
        "{label} @ {site}: drop imbalance (leak or double drop)"
    );
}

#[test]
fn injected_op_panics_never_unbalance_drops() {
    const N: usize = 1_500;
    // Trip sites sweep early / mid-stream op calls; every algorithm
    // below performs well over 600 user-op calls on N elements.
    const SITES: [usize; 3] = [0, 57, 601];
    let op_trip = Trip::new();
    let trip = &op_trip;
    let live = &Live::default();

    for (name, policy) in policies() {
        for site in SITES {
            let p = &policy;
            chaos_case(&format!("{name}/sort_by"), site, trip, live, || {
                let mut v = elems(N, live);
                pstl::sort_by(p, &mut v, |a, b| {
                    trip.poke();
                    a.0.cmp(&b.0)
                });
            });
            chaos_case(&format!("{name}/stable_sort_by"), site, trip, live, || {
                let mut v = elems(N, live);
                pstl::stable_sort_by(p, &mut v, |a, b| {
                    trip.poke();
                    a.0.cmp(&b.0)
                });
            });
            chaos_case(&format!("{name}/inclusive_scan"), site, trip, live, || {
                let src = elems(N, live);
                let mut out = elems(N, live);
                pstl::inclusive_scan(p, &src, &mut out, |a, b| {
                    trip.poke();
                    Elem::new(a.0 + b.0, live)
                });
            });
            chaos_case(&format!("{name}/copy_if"), site, trip, live, || {
                let src = elems(N, live);
                let mut dst = elems(N, live);
                pstl::copy_if(p, &src, &mut dst, |x| {
                    trip.poke();
                    x.0 % 2 == 0
                });
            });
            chaos_case(&format!("{name}/partition"), site, trip, live, || {
                let mut v = elems(N, live);
                pstl::partition(p, &mut v, |x| {
                    trip.poke();
                    x.0 % 3 == 0
                });
            });
            chaos_case(&format!("{name}/find_if"), site, trip, live, || {
                // Matchless predicate: the injected panic is the only
                // exit, and it must unwind through the early-exit
                // engine's static/guided/adaptive dispatch paths.
                let v = elems(N, live);
                pstl::find_if(p, &v, |x| {
                    trip.poke();
                    x.0 == u64::MAX
                });
            });
            chaos_case(&format!("{name}/any_of"), site, trip, live, || {
                let v = elems(N, live);
                pstl::any_of(p, &v, |x| {
                    trip.poke();
                    x.0 == u64::MAX
                });
            });
            chaos_case(&format!("{name}/equal_by"), site, trip, live, || {
                let a = elems(N, live);
                let b = elems(N, live);
                pstl::equal_by(p, &a, &b, |x, y| {
                    trip.poke();
                    x.0 == y.0
                });
            });
            chaos_case(&format!("{name}/set_union"), site, trip, live, || {
                let mut a = elems(N, live);
                let mut b = elems(N, live);
                a.sort();
                b.sort();
                let mut out = elems(2 * N, live);
                // `Elem::cmp` pokes ORD_TRIP, armed by this case's
                // sweep through the shared helper below.
                ORD_TRIP.arm(site);
                let r = catch_unwind(AssertUnwindSafe(|| {
                    pstl::set_union(p, &a, &b, &mut out);
                }));
                ORD_TRIP.disarm();
                // Re-throw so chaos_case sees the panic (the sorts
                // above must run un-tripped, hence the local arm).
                if let Err(payload) = r {
                    std::panic::resume_unwind(payload);
                }
                unreachable!("set_union must hit the armed Ord trip");
            });
        }
    }
}

#[test]
fn pools_rerun_cleanly_after_chaos() {
    // Interleave a panicking run and a full clean algorithm pass on the
    // same pool, for every discipline: chaos must leave no residue.
    for d in Discipline::POOLS {
        let pool = build_pool(d, 3);
        let policy = ExecutionPolicy::par(Arc::clone(&pool));
        for round in 0..10u64 {
            let boom = catch_unwind(AssertUnwindSafe(|| {
                let mut v: Vec<u64> = (0..4_000).rev().collect();
                pstl::sort_by(&policy, &mut v, |a, b| {
                    if *a == round * 97 {
                        panic!("boom round {round}");
                    }
                    a.cmp(b)
                });
            }));
            assert!(boom.is_err(), "{d:?} round {round}");

            // A panic mid-search must not wedge the pool either: the
            // early-exit engine's drop guards run on the unwind path.
            let boom = catch_unwind(AssertUnwindSafe(|| {
                let v: Vec<u64> = (0..4_000).collect();
                pstl::find_if(&policy, &v, |&x| {
                    if x == round * 97 {
                        panic!("search boom round {round}");
                    }
                    false
                });
            }));
            assert!(boom.is_err(), "{d:?} search round {round}");

            let mut v: Vec<u64> = (0..4_000).rev().collect();
            pstl::sort(&policy, &mut v);
            assert!(v.windows(2).all(|w| w[0] <= w[1]), "{d:?} round {round}");
            let sum = pstl::reduce(&policy, &v, 0u64, |a, b| a + b);
            assert_eq!(sum, 3_999 * 4_000 / 2, "{d:?} round {round}");
            assert_eq!(
                pstl::find(&policy, &v, &(round * 3)),
                Some((round * 3) as usize),
                "{d:?} round {round}: search must work after chaos"
            );
        }
    }
}
