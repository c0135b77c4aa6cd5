//! Figure 4: `X::find` on Mach B (Zen 1) — (a) problem scaling with 64
//! threads, (b) strong scaling at 2^30 elements.

use pstl_sim::kernels::Kernel;
use pstl_sim::machine::mach_b;
use pstl_sim::Backend;

use crate::experiments::scaling_figure;
use crate::output::Figure;

/// Build the two-panel figure.
pub fn build() -> Figure {
    // ICC-TBB was not measured on Mach B (paper Table 5: N/A).
    let mut backends = Backend::paper_cpu_set();
    backends.retain(|b| *b != Backend::IccTbb);
    let id = ("fig4_find", "X::find on Mach B (Zen 1)");
    scaling_figure(id, &mach_b(), Kernel::Find, &backends, 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_wins_small_by_orders_of_magnitude() {
        // §5.3: "often by orders of magnitude" for small problem sizes.
        let fig = build();
        let panel = &fig.panels[0];
        let seq = panel.series.iter().find(|s| s.label == "GCC-SEQ").unwrap();
        let tbb = panel.series.iter().find(|s| s.label == "GCC-TBB").unwrap();
        let small = seq.x.iter().position(|&x| x == 64.0).unwrap();
        assert!(
            tbb.y[small] > 20.0 * seq.y[small],
            "parallel {} vs seq {}",
            tbb.y[small],
            seq.y[small]
        );
    }

    #[test]
    fn parallel_wins_beyond_2e18() {
        let fig = build();
        let panel = &fig.panels[0];
        let seq = panel.series.iter().find(|s| s.label == "GCC-SEQ").unwrap();
        let tbb = panel.series.iter().find(|s| s.label == "GCC-TBB").unwrap();
        let large = seq
            .x
            .iter()
            .position(|&x| x == (1u64 << 25) as f64)
            .unwrap();
        assert!(tbb.y[large] < seq.y[large]);
    }

    #[test]
    fn max_speedup_near_bandwidth_ratio() {
        // §5.3: max ≈ 6 (GCC-TBB, 64 threads); STREAM ratio ≈ 7.8.
        let fig = build();
        let panel = &fig.panels[1];
        let best = panel
            .series
            .iter()
            .flat_map(|s| s.y.iter().cloned())
            .fold(0.0f64, f64::max);
        assert!((3.0..10.0).contains(&best), "best find speedup {best}");
    }

    #[test]
    fn nvc_find_collapses_on_zen() {
        // Table 5: NVC-OMP find on Mach B = 1.4.
        let fig = build();
        let panel = &fig.panels[1];
        let nvc = panel.series.iter().find(|s| s.label == "NVC-OMP").unwrap();
        let last = *nvc.y.last().unwrap();
        assert!((0.5..2.5).contains(&last), "NVC find at 64 threads: {last}");
    }

    #[test]
    fn icc_is_absent_on_mach_b() {
        let fig = build();
        for panel in &fig.panels {
            assert!(panel.series.iter().all(|s| s.label != "ICC-TBB"));
        }
    }
}
