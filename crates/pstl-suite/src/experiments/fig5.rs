//! Figure 5: `X::inclusive_scan` on Mach C (Zen 3) — (a) problem scaling
//! with 128 threads, (b) strong scaling at 2^30 elements.
//!
//! GCC-GNU is omitted (no parallel `inclusive_scan` — paper §5.4);
//! NVC-OMP appears but falls back to its sequential implementation.

use pstl_sim::kernels::Kernel;
use pstl_sim::machine::mach_c;
use pstl_sim::Backend;

use crate::experiments::scaling_figure;
use crate::output::Figure;

/// Build the two-panel figure.
pub fn build() -> Figure {
    let mut backends = Backend::paper_cpu_set();
    backends.retain(|b| *b != Backend::GccGnu);
    let id = ("fig5_scan", "X::inclusive_scan on Mach C (Zen 3)");
    scaling_figure(id, &mach_c(), Kernel::InclusiveScan, &backends, 128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::Series;

    fn strong<'f>(fig: &'f Figure, label: &str) -> &'f Series {
        fig.panels[1]
            .series
            .iter()
            .find(|s| s.label == label)
            .unwrap()
    }

    #[test]
    fn gnu_is_excluded() {
        let fig = build();
        for panel in &fig.panels {
            assert!(panel.series.iter().all(|s| s.label != "GCC-GNU"));
        }
    }

    #[test]
    fn nvc_never_scales() {
        // §5.4: NVC-OMP falls back to sequential — speedup ≈ 0.9 flat.
        let fig = build();
        let nvc = strong(&fig, "NVC-OMP");
        for &s in &nvc.y {
            assert!((0.4..1.2).contains(&s), "NVC scan speedup {s}");
        }
    }

    #[test]
    fn tbb_scales_modestly() {
        // §5.4: TBB implementations reach ≈ 5 at 128 threads.
        let fig = build();
        let tbb = strong(&fig, "GCC-TBB");
        let last = *tbb.y.last().unwrap();
        assert!((2.0..8.0).contains(&last), "TBB scan speedup {last}");
        // Monotone non-decreasing beyond 4 threads (the 1→2 step dips:
        // the two-pass parallel scan moves 1.5× the sequential traffic).
        let from = tbb.x.iter().position(|&x| x == 4.0).unwrap();
        for w in tbb.y[from..].windows(2) {
            assert!(w[1] >= w[0] * 0.95, "TBB scan must scale monotonically");
        }
    }

    #[test]
    fn hpx_does_not_scale() {
        let fig = build();
        let hpx = strong(&fig, "GCC-HPX");
        let last = *hpx.y.last().unwrap();
        assert!(last < 2.0, "HPX scan speedup {last}");
    }

    #[test]
    fn sequential_wins_small_parallel_wins_large() {
        // §5.4: sequential outperforms parallel at small sizes (the paper
        // locates the crossover near the aggregate-L2 capacity, ≈ 2^22;
        // our model's crossover sits earlier — see EXPERIMENTS.md), and
        // parallel wins decisively past the LLC.
        let fig = build();
        let seq = fig.panels[0]
            .series
            .iter()
            .find(|s| s.label == "GCC-SEQ")
            .unwrap();
        let tbb = fig.panels[0]
            .series
            .iter()
            .find(|s| s.label == "GCC-TBB")
            .unwrap();
        let at = |n: u64| seq.x.iter().position(|&x| x == n as f64).unwrap();
        assert!(tbb.y[at(1 << 12)] > seq.y[at(1 << 12)], "seq wins at 2^12");
        assert!(
            tbb.y[at(1 << 29)] < seq.y[at(1 << 29)],
            "parallel wins at 2^29"
        );
    }
}
