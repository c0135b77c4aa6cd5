//! Figure 2: `X::for_each` problem scaling — execution time vs input
//! size (2^3 … 2^30), all cores per machine, for k_it ∈ {1, 1000}.
//! Lower is better; GCC-SEQ runs single-threaded.

use pstl_sim::kernels::Kernel;
use pstl_sim::machine::all_machines;
use pstl_sim::Backend;

use crate::experiments::problem_series;
use crate::output::{Figure, Panel};

/// Build the figure: one panel per machine × k_it.
pub fn build() -> Figure {
    let mut panels = Vec::new();
    for machine in all_machines() {
        for k_it in [1u32, 1000] {
            let kernel = Kernel::ForEach { k_it };
            let backends = Backend::paper_cpu_set();
            panels.push(Panel {
                title: format!("{} k_it={}", machine.name, k_it),
                series: problem_series(&machine, kernel, &backends, machine.cores),
            });
        }
    }
    Figure {
        id: "fig2_foreach_problem".into(),
        title: "X::for_each problem scaling (all cores; GCC-SEQ single-threaded)".into(),
        x_label: "elements".into(),
        y_label: "time [s]".into(),
        panels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::Series;

    fn series<'f>(fig: &'f Figure, panel_substr: &str, label: &str) -> &'f Series {
        fig.panels
            .iter()
            .find(|p| p.title.contains(panel_substr))
            .unwrap()
            .series
            .iter()
            .find(|s| s.label == label)
            .unwrap()
    }

    #[test]
    fn crossover_between_2e10_and_2e18() {
        // §5.2: sequential wins below ~2^10; parallel wins beyond ~2^16.
        let fig = build();
        let seq = series(&fig, "Mach A (Skylake) k_it=1", "GCC-SEQ");
        let tbb = series(&fig, "Mach A (Skylake) k_it=1", "GCC-TBB");
        let idx = |n: usize| seq.x.iter().position(|&x| x == n as f64).unwrap();
        assert!(
            tbb.y[idx(1 << 8)] > seq.y[idx(1 << 8)],
            "seq must win at 2^8"
        );
        assert!(
            tbb.y[idx(1 << 25)] < seq.y[idx(1 << 25)] / 3.0,
            "parallel must win clearly at 2^25"
        );
    }

    #[test]
    fn nvc_fastest_at_large_sizes_k1() {
        let fig = build();
        let nvc = series(&fig, "Mach C (Zen 3) k_it=1", "NVC-OMP");
        let last = nvc.y.len() - 1;
        for label in ["GCC-TBB", "GCC-GNU", "GCC-HPX", "ICC-TBB"] {
            let other = series(&fig, "Mach C (Zen 3) k_it=1", label);
            assert!(
                nvc.y[last] < other.y[last],
                "NVC must be fastest at 2^30 on Mach C (vs {label})"
            );
        }
    }

    #[test]
    fn hpx_slowest_at_small_sizes() {
        // §5.2: HPX is the slowest in almost every scenario; its dispatch
        // dominates small inputs.
        let fig = build();
        let hpx = series(&fig, "Mach A (Skylake) k_it=1", "GCC-HPX");
        let small = hpx.x.iter().position(|&x| x == 256.0).unwrap();
        for label in ["GCC-TBB", "GCC-GNU", "NVC-OMP", "GCC-SEQ"] {
            let other = series(&fig, "Mach A (Skylake) k_it=1", label);
            assert!(
                hpx.y[small] > other.y[small],
                "HPX must be slowest at 2^8 (vs {label})"
            );
        }
    }

    #[test]
    fn k1000_panels_converge_at_scale() {
        // High intensity: backends within ~2× of each other at 2^30
        // (paper: "much closer in performance").
        let fig = build();
        let panel = fig
            .panels
            .iter()
            .find(|p| p.title == "Mach A (Skylake) k_it=1000")
            .unwrap();
        let finals: Vec<f64> = panel
            .series
            .iter()
            .filter(|s| s.label != "GCC-SEQ")
            .map(|s| *s.y.last().unwrap())
            .collect();
        let min = finals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = finals.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 2.0, "k1000 spread {}", max / min);
    }

    #[test]
    fn six_panels_six_series_each() {
        let fig = build();
        assert_eq!(fig.panels.len(), 6);
        assert!(fig.panels.iter().all(|p| p.series.len() == 6));
    }
}
