//! pSTL-Bench: the micro-benchmark suite of the reproduction.
//!
//! Two modes of operation, matching DESIGN.md:
//!
//! * **Real mode** — the five studied kernels ([`kernels`]) run against
//!   the real `pstl` library on this host, with each paper backend
//!   (GCC-TBB, GCC-GNU, GCC-HPX, ICC-TBB, NVC-OMP) mapped to the
//!   scheduling discipline + chunking policy that models it
//!   ([`backends`]), measured by `pstl-harness`. This is what the
//!   `pstl_bench` binary and the measured `suite` experiments drive.
//! * **Simulated mode** — the [`experiments`] modules sweep the
//!   `pstl-sim` models of the paper's five machines to regenerate every
//!   figure and table of the evaluation section. The `suite` binary runs
//!   them by name from [`experiments::REGISTRY`] and holds the measured
//!   extensions' baselines to their [`gate`]s.

pub mod backends;
pub mod experiments;
pub mod gate;
pub mod kernels;
pub mod output;
pub mod workload;

pub use backends::BackendHost;
pub use output::{results_dir, Figure, Panel, Series, TableDoc};
