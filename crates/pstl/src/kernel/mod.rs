//! The kernel layer: the innermost per-element loops every algorithm
//! bottoms out in, written once and shared by the sequential fallbacks
//! (`crate::seq`, `Plan::Sequential` arms) and the parallel leaf paths
//! (chunk bodies under `map_ranges`/`run_chunks`, the early-exit
//! engine's scan blocks).
//!
//! The paper attributes much of the backend gap at low thread counts to
//! *per-core* kernel throughput — vectorization above all (its NVC/ICC
//! analysis; `pstl-sim` models it as `vectorizes_reduce`). This module
//! is the Rust-side answer: explicit wide inner loops that a scalar
//! compiler still autovectorizes, and that break loop-carried dependency
//! chains even when it does not.
//!
//! # Two paths × three ISA levels
//!
//! Every kernel has two implementations, **both always compiled**:
//!
//! * `*_scalar` — the straightforward one-element-at-a-time loop, the
//!   exact code the algorithms used before this layer existed. It is the
//!   differential oracle and the default when the `simd` feature is off.
//! * `*_wide` — a blocked/unrolled loop: 8-wide reassociation trees for
//!   folds (breaks the serial dependency chain; ~latency/throughput
//!   ratio speedup even without vector units), movemask-style 32-lane
//!   predicate blocks for searches, and branchless index compaction for
//!   the scatter phases. On stable Rust without `std::simd` these are
//!   written in the autovectorization-friendly chunked style (fixed-size
//!   blocks, no early exits inside a block, data-independent control
//!   flow) that LLVM turns into vector code where profitable.
//!
//! The public entry points (`fold_map`, `find_first_in`,
//! `count_matches`, …) pick a path via [`WIDE_DEFAULT`], i.e. the `simd`
//! cargo feature. Having both paths in one build is what lets
//! `kernel_calibrate` measure the real speedup in a single binary and
//! lets the differential suite compare them directly.
//!
//! Each entry point is then compiled three times by `isa::dispatch!`:
//! for the crate's baseline target (SSE2), for `x86-64-v3` (AVX2) and
//! for `x86-64-v4` (AVX-512), with the caller's closures inlined into
//! each clone. The entry point runs the clone for the CPU's
//! [`isa::level`], detected once per process, so the user's functor is
//! vectorized at the host's width as a C++ template kernel built with
//! `-march=native` is. The `*_scalar` and `*_wide` functions stay
//! baseline-compiled oracles. Every clone returns bit-identical results
//! (`isa`'s differential tests). The clones do not change which path
//! is picked, and that matters: the wide fold's hand-unrolled tree does
//! not vectorize under AVX-512, while the scalar loop does (on a
//! 2.1 GHz AVX-512 Xeon, the `jobs` digest of one 64-word record took
//! 128 ns through the wide tree and 44 ns through the scalar loop, both
//! in a V4 clone). On that host the dispatched digest runs 2.2–3.0×
//! faster than the baseline one (`kernel_calibrate`'s `digest_u32x64`
//! row).
//!
//! # Semantics contracts
//!
//! * **Folds** ([`reduce`], [`scan`]) reassociate only by *grouping*
//!   (`((x0⊕x1)⊕(x2⊕x3))⊕…`), never by reordering operands. Any
//!   associative `op` — including non-commutative ones like string
//!   concatenation — gives bit-identical results on both paths; only
//!   non-associative ops (float `+`) may differ by rounding, exactly
//!   the `std::reduce` contract.
//! * **Searches** ([`compare`]) may evaluate the predicate on up to one
//!   block (31 elements) *past* the first match on the wide path, like
//!   a vectorized `memchr`. C++ parallel semantics permit this; the
//!   index returned is always the smallest matching one, and a matchless
//!   scan evaluates every index exactly once on both paths.
//! * **Scatters** ([`partition`]) clone only matching elements (the
//!   branchless part is the index computation), so drop counts are
//!   identical to the scalar path — required by the chaos drop-balance
//!   suite.
//! * The running-prefix pass of a scan is inherently serial and has no
//!   wide variant; [`scan::scan_range_into`] is still the single shared
//!   entry point so the loop exists once.

pub mod compare;
pub mod isa;
pub mod partition;
pub mod reduce;
pub mod scan;

/// Whether the dispatching entry points default to the wide path.
/// Driven by the `simd` cargo feature; both paths are compiled either
/// way.
pub const WIDE_DEFAULT: bool = cfg!(feature = "simd");

/// Fold-tree width: 8 independent operand slots per block. Matches one
/// AVX2 register of `f32` / two of `f64`, and is deep enough to hide a
/// 4-cycle FP-add latency chain on any current core.
pub const FOLD_LANES: usize = 8;

/// Predicate-block width for the movemask-style searches: 32 predicate
/// results packed into one `u32` mask per block.
pub const FIND_BLOCK: usize = 32;

/// Block width of the branchless index-compaction scatter kernels.
pub const COMPACT_BLOCK: usize = 64;
