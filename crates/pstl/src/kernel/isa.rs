//! Runtime ISA dispatch: one source body per kernel entry point,
//! compiled three times, picked once per process.
//!
//! The crate builds for baseline x86-64 (SSE2). A C++ template kernel
//! built with `-march=native` instead gets the host's full vector
//! width, and the user's functor is compiled into that code. The
//! crate-private `dispatch!` macro gives every kernel entry point the
//! same shape at run time:
//!
//! * a **baseline** body, the code the entry point always ran;
//! * a **V3** clone of that body (`x86-64-v3`: AVX2, FMA, BMI1/2);
//! * a **V4** clone (`x86-64-v4`: V3 plus AVX-512 F/DQ/VL/BW).
//!
//! The clones are `#[target_feature]` copies of the *same* body, and
//! the caller's closures are generic parameters, so they are inlined
//! into the clone and vectorized with it. The entry point reads
//! [`level`] (one relaxed atomic load after the first call) and calls
//! the widest clone the CPU supports. Floating-point results do not
//! change: Rust never contracts `a * b + c` into an FMA or reassociates
//! float operations, so every clone computes the same operations in
//! the same order as the baseline body, and the differential tests
//! below compare them bit for bit.
//!
//! Non-`x86_64` targets and Miri compile the baseline body only.
//! There is no knob: the level is a fact about the CPU.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// An instruction-set level a kernel clone is compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The crate's own target (SSE2 on x86-64).
    Baseline,
    /// `x86-64-v3`: AVX2, FMA, BMI1 and BMI2.
    V3,
    /// `x86-64-v4`: V3 plus AVX-512 F, DQ, VL and BW.
    V4,
}

/// The report label: `baseline`, `x86-64-v3` or `x86-64-v4`.
impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Level::Baseline => "baseline",
            Level::V3 => "x86-64-v3",
            Level::V4 => "x86-64-v4",
        })
    }
}

/// `Level as u8`, or [`UNKNOWN`] before the first [`level`] call.
static LEVEL: AtomicU8 = AtomicU8::new(UNKNOWN);
const UNKNOWN: u8 = u8::MAX;

/// The widest level this CPU supports, detected on the first call and
/// cached. Every dispatched kernel entry point runs the clone for this
/// level.
#[inline]
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Baseline,
        1 => Level::V3,
        2 => Level::V4,
        _ => {
            // Racing first calls detect the same answer.
            let l = detect();
            LEVEL.store(l as u8, Ordering::Relaxed);
            l
        }
    }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
fn detect() -> Level {
    let v3 = is_x86_feature_detected!("avx2")
        && is_x86_feature_detected!("fma")
        && is_x86_feature_detected!("bmi1")
        && is_x86_feature_detected!("bmi2");
    let v4 = v3
        && is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("avx512bw");
    if v4 {
        Level::V4
    } else if v3 {
        Level::V3
    } else {
        Level::Baseline
    }
}

#[cfg(not(all(target_arch = "x86_64", not(miri))))]
fn detect() -> Level {
    Level::Baseline
}

/// Define a dispatched kernel entry point.
///
/// ```text
/// dispatch! {
///     /// Docs of the public entry point.
///     pub fn name[T, P: Fn(&T) -> bool + ?Sized](data: &[T], pred: &P) -> usize, at name_at {
///         body
///     }
/// }
/// ```
///
/// expands to `pub fn name`, which runs `body` on the clone for
/// [`level`], and `pub(crate) fn name_at(level, …)`, which runs it on
/// the clone for `level` clamped to what the CPU supports (the hook the
/// differential tests use). Generics go in square brackets, bounds
/// inline. A helper that `body` calls must be `#[inline(always)]`: LLVM
/// may keep a plain `#[inline]` helper as one baseline-compiled copy
/// that every clone jumps to, so the clones would run baseline code.
macro_rules! dispatch {
    (
        $(#[$meta:meta])*
        pub fn $name:ident[$($gen:tt)*]($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?, at $at:ident
        $body:block
    ) => {
        $(#[$meta])*
        #[inline]
        pub fn $name<$($gen)*>($($arg: $ty),*) $(-> $ret)? {
            $at($crate::kernel::isa::level(), $($arg),*)
        }

        #[doc = concat!("[`", stringify!($name), "`] on the clone for `level`, ")]
        #[doc = "clamped to the levels this CPU supports."]
        #[inline]
        pub(crate) fn $at<$($gen)*>(level: $crate::kernel::isa::Level, $($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn body<$($gen)*>($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(all(target_arch = "x86_64", not(miri)))]
            {
                use $crate::kernel::isa::Level;

                #[target_feature(enable = "avx2,fma,bmi1,bmi2")]
                fn v3<$($gen)*>($($arg: $ty),*) $(-> $ret)? {
                    body($($arg),*)
                }

                #[target_feature(
                    enable = "avx2,fma,bmi1,bmi2,avx512f,avx512dq,avx512vl,avx512bw"
                )]
                fn v4<$($gen)*>($($arg: $ty),*) $(-> $ret)? {
                    body($($arg),*)
                }

                match level.min($crate::kernel::isa::level()) {
                    // SAFETY: `level()` detected every V4 feature on this CPU.
                    Level::V4 => unsafe { v4($($arg),*) },
                    // SAFETY: `level()` detected every V3 feature on this CPU.
                    Level::V3 => unsafe { v3($($arg),*) },
                    Level::Baseline => body($($arg),*),
                }
            }
            #[cfg(not(all(target_arch = "x86_64", not(miri))))]
            {
                let _ = level;
                body($($arg),*)
            }
        }
    };
}

pub(crate) use dispatch;

#[cfg(test)]
mod tests {
    //! The differential suite: every dispatched entry point, on every
    //! level this CPU supports, returns what the baseline body returns,
    //! bit for bit, with the same elements cloned.

    use std::cell::Cell;
    use std::cmp::Ordering;

    use super::{level, Level};
    use crate::kernel::compare::{find_first_in_at, find_last_in_at};
    use crate::kernel::partition::{compact_each_at, count_matches_at, split_each_at};
    use crate::kernel::reduce::{fold_map_at, fold_zip_at, min_index_at, minmax_index_at};
    use crate::kernel::scan::{fold_range_at, fold_slice_at};
    use crate::kernel::{COMPACT_BLOCK, FIND_BLOCK, FOLD_LANES};

    /// Lengths around every block width the kernels use.
    const LENS: [usize; 14] = [0, 1, 2, 7, 8, 9, 31, 32, 33, 63, 64, 65, 200, 1027];

    fn scrambled(n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| (i ^ 0x5A5A).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    }

    /// Floats whose sums round differently under any reordering, with
    /// NaNs of two payloads, signed zeros, infinities and subnormals.
    fn awkward_f64(n: usize) -> Vec<f64> {
        let specials = [
            -0.0,
            f64::from_bits(0x7FF8_0000_0000_0001),
            1e308,
            -1e308,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(0xFFF8_0000_0000_0002),
            f64::INFINITY,
        ];
        scrambled(n)
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                if i % 97 == 13 {
                    specials[(i / 97) % specials.len()]
                } else {
                    (x >> 11) as f64 * 1e-7 - 3e8
                }
            })
            .collect()
    }

    fn strings(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{i},")).collect()
    }

    /// The levels this CPU can run, narrowest first.
    fn supported() -> impl Iterator<Item = Level> {
        [Level::Baseline, Level::V3, Level::V4]
            .into_iter()
            .filter(|l| *l <= level())
    }

    /// Assert `run(level) == run(Baseline)` on every supported level.
    fn same_on_every_level<R: PartialEq + std::fmt::Debug>(what: &str, run: impl Fn(Level) -> R) {
        let want = run(Level::Baseline);
        for level in supported() {
            assert_eq!(run(level), want, "{what} on {level}");
        }
    }

    #[test]
    fn level_caches_detection_and_hooks_clamp_to_it() {
        assert_eq!(level(), super::detect());
        assert_eq!(level(), level());
        // A level above the CPU's runs the CPU's own clone.
        let data = [1u64, 2, 3];
        let sum = fold_map_at(Level::V4, &data, &|x: &u64| *x, &|a, b| a + b);
        assert_eq!(sum, Some(6));
    }

    #[test]
    fn u64_wrapping_folds_match() {
        for n in LENS {
            let a = scrambled(n);
            let b: Vec<u64> = a.iter().map(|x| x.rotate_left(17)).collect();
            let add = |x: u64, y: u64| x.wrapping_add(y);
            let mul = |x: u64, y: u64| x.wrapping_mul(y | 1);
            same_on_every_level(&format!("fold_map u64 n={n}"), |l| {
                (
                    fold_map_at(l, &a, &|x: &u64| x ^ (x >> 7), &add),
                    fold_map_at(l, &a, &|x: &u64| *x, &mul),
                )
            });
            same_on_every_level(&format!("fold_zip u64 n={n}"), |l| {
                fold_zip_at(l, &a, &b, &|x: &u64, y: &u64| x.wrapping_mul(*y), &add)
            });
            same_on_every_level(&format!("fold_range u64 n={n}"), |l| {
                fold_range_at(l, 0..n, &|i| a[i], &|x: &u64, y: &u64| {
                    x.wrapping_mul(31).wrapping_add(*y)
                })
            });
            same_on_every_level(&format!("fold_slice u64 n={n}"), |l| {
                fold_slice_at(l, &a, &|x: &u64, y: &u64| x.wrapping_add(*y))
            });
        }
    }

    #[test]
    fn f64_sums_match_bitwise() {
        let bits = |r: Option<f64>| r.map(f64::to_bits);
        for n in LENS {
            let a = awkward_f64(n);
            let b: Vec<f64> = a.iter().rev().copied().collect();
            let add = |x: f64, y: f64| x + y;
            same_on_every_level(&format!("fold_map f64 n={n}"), |l| {
                // `x * 3.0 + 0.1` would be one FMA under contraction.
                bits(fold_map_at(l, &a, &|x: &f64| x * 3.0 + 0.1, &add))
            });
            same_on_every_level(&format!("fold_zip f64 n={n}"), |l| {
                bits(fold_zip_at(l, &a, &b, &|x: &f64, y: &f64| x * y, &add))
            });
            same_on_every_level(&format!("fold_range f64 n={n}"), |l| {
                bits(fold_range_at(l, 0..n, &|i| a[i], &|x: &f64, y: &f64| x + y))
            });
            same_on_every_level(&format!("fold_slice f64 n={n}"), |l| {
                bits(fold_slice_at(l, &a, &|x: &f64, y: &f64| x + y))
            });
        }
        // All signed zeros: the sum keeps the sign.
        let zeros = vec![-0.0f64; 3 * FOLD_LANES + 1];
        for level in supported() {
            let got = fold_slice_at(level, &zeros, &|x: &f64, y: &f64| x + y);
            assert_eq!(bits(got), Some((-0.0f64).to_bits()), "{level}");
        }
    }

    #[test]
    fn non_commutative_string_folds_match() {
        for n in LENS {
            let s = strings(n);
            let cat = |x: String, y: String| x + &y;
            let cat_ref = |x: &String, y: &String| format!("{x}{y}");
            same_on_every_level(&format!("fold_map String n={n}"), |l| {
                fold_map_at(l, &s, &|x: &String| x.clone(), &cat)
            });
            same_on_every_level(&format!("fold_zip String n={n}"), |l| {
                fold_zip_at(l, &s, &s, &|x: &String, y: &String| format!("{x}{y}"), &cat)
            });
            same_on_every_level(&format!("fold_range String n={n}"), |l| {
                fold_range_at(l, 0..n, &|i| s[i].clone(), &cat_ref)
            });
            same_on_every_level(&format!("fold_slice String n={n}"), |l| {
                fold_slice_at(l, &s, &cat_ref)
            });
        }
    }

    #[test]
    fn min_and_minmax_tie_rules_match() {
        for n in LENS {
            // Few distinct keys: every min and max is tied many times.
            let keys: Vec<u64> = scrambled(n).iter().map(|x| x % 5).collect();
            let by_key = |x: &u64, y: &u64| x.cmp(y);
            same_on_every_level(&format!("min/minmax n={n}"), |l| {
                (
                    min_index_at(l, &keys, &by_key),
                    minmax_index_at(l, &keys, &by_key),
                )
            });
            let flat = vec![7u64; n];
            let got = (min_index_at(Level::Baseline, &flat, &by_key), {
                minmax_index_at(Level::Baseline, &flat, &by_key)
            });
            assert_eq!(got, ((n > 0).then_some(0), (n > 0).then(|| (0, n - 1))));
            same_on_every_level(&format!("min/minmax flat n={n}"), |l| {
                (
                    min_index_at(l, &flat, &by_key),
                    minmax_index_at(l, &flat, &by_key),
                )
            });
            // A comparator that is not a total order on NaN-laden floats.
            let f = awkward_f64(n);
            let partial = |x: &f64, y: &f64| x.partial_cmp(y).unwrap_or(Ordering::Equal);
            same_on_every_level(&format!("min/minmax f64 n={n}"), |l| {
                (
                    min_index_at(l, &f, &partial),
                    minmax_index_at(l, &f, &partial),
                )
            });
        }
    }

    #[test]
    fn first_and_last_matches_at_block_edges_match() {
        let n = 5 * FIND_BLOCK + 3;
        let edges = [
            0,
            1,
            FIND_BLOCK - 1,
            FIND_BLOCK,
            FIND_BLOCK + 1,
            2 * FIND_BLOCK,
            n - 1,
        ];
        for start in [0usize, 1, FIND_BLOCK - 1] {
            for end in [start, start + 1, 2 * FIND_BLOCK, n] {
                for &hit in &edges {
                    let one = |i: usize| i == hit;
                    let from = |i: usize| i >= hit;
                    let upto = |i: usize| i <= hit;
                    same_on_every_level(&format!("find {start}..{end} hit={hit}"), |l| {
                        (
                            find_first_in_at(l, start..end, &one),
                            find_first_in_at(l, start..end, &from),
                            find_last_in_at(l, start..end, &one),
                            find_last_in_at(l, start..end, &upto),
                        )
                    });
                }
                same_on_every_level(&format!("find absent {start}..{end}"), |l| {
                    let calls = Cell::new(0usize);
                    let none = |_: usize| {
                        calls.set(calls.get() + 1);
                        false
                    };
                    let r = (
                        find_first_in_at(l, start..end, &none),
                        find_last_in_at(l, start..end, &none),
                    );
                    (r, calls.get())
                });
            }
        }
    }

    /// A value that counts its clones.
    struct Counted<'a> {
        v: u64,
        clones: &'a Cell<usize>,
    }

    impl Clone for Counted<'_> {
        fn clone(&self) -> Self {
            self.clones.set(self.clones.get() + 1);
            Counted {
                v: self.v,
                clones: self.clones,
            }
        }
    }

    #[test]
    fn count_compact_and_split_match_with_clone_counts() {
        for n in LENS.into_iter().chain([COMPACT_BLOCK * 3 + 5]) {
            same_on_every_level(&format!("count/compact/split n={n}"), |l| {
                let clones = Cell::new(0usize);
                let data: Vec<Counted> = scrambled(n)
                    .into_iter()
                    .map(|v| Counted {
                        v: v % 10,
                        clones: &clones,
                    })
                    .collect();
                let pred = |x: &Counted| x.v < 3;
                let count = count_matches_at(l, &data, &pred);
                let mut kept = Vec::new();
                compact_each_at(l, &data, &pred, &mut |r, x: &Counted| {
                    kept.push((r, x.clone().v))
                });
                let (mut yes, mut no) = (Vec::new(), Vec::new());
                split_each_at(
                    l,
                    &data,
                    &pred,
                    &mut |r, x: &Counted| yes.push((r, x.clone().v)),
                    &mut |r, x: &Counted| no.push((r, x.clone().v)),
                );
                let folded = fold_slice_at(l, &data, &|a: &Counted, b: &Counted| Counted {
                    v: a.v.wrapping_mul(10).wrapping_add(b.v),
                    clones: a.clones,
                })
                .map(|c| c.v);
                (count, kept, yes, no, folded, clones.get())
            });
        }
    }
}
