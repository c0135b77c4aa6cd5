//! Figure 3: `X::for_each` strong scaling — speedup vs thread count at
//! 2^30 elements, for k_it ∈ {1, 1000}. Higher is better; the paper plots
//! this log-linear.

use pstl_sim::kernels::Kernel;
use pstl_sim::machine::all_machines;
use pstl_sim::Backend;

use crate::experiments::strong_series;
use crate::output::{Figure, Panel, Series};

/// Build the figure: one panel per machine × k_it; an `ideal` series is
/// included like the paper's dashed ideal-speedup line.
pub fn build() -> Figure {
    let mut panels = Vec::new();
    for machine in all_machines() {
        let xs: Vec<f64> = machine.thread_sweep().iter().map(|&t| t as f64).collect();
        for k_it in [1u32, 1000] {
            let kernel = Kernel::ForEach { k_it };
            let mut series = vec![Series::new("ideal", xs.clone(), xs.clone())];
            series.extend(strong_series(&machine, kernel, &Backend::paper_cpu_set()));
            panels.push(Panel {
                title: format!("{} k_it={}", machine.name, k_it),
                series,
            });
        }
    }
    Figure {
        id: "fig3_foreach_strong".into(),
        title: "X::for_each strong scaling at 2^30 elements".into(),
        x_label: "threads".into(),
        y_label: "speedup vs GCC-SEQ".into(),
        panels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn final_speedup(fig: &Figure, panel: &str, label: &str) -> f64 {
        *fig.panels
            .iter()
            .find(|p| p.title == panel)
            .unwrap()
            .series
            .iter()
            .find(|s| s.label == label)
            .unwrap()
            .y
            .last()
            .unwrap()
    }

    #[test]
    fn k1000_is_near_ideal_k1_is_not() {
        let fig = build();
        // Mach C, 128 threads: k1000 ≈ 102–107 (paper), k1 ≈ 8.5–13.
        let k1000 = final_speedup(&fig, "Mach C (Zen 3) k_it=1000", "GCC-TBB");
        assert!((75.0..128.0).contains(&k1000), "k1000 {k1000}");
        let k1 = final_speedup(&fig, "Mach C (Zen 3) k_it=1", "GCC-TBB");
        assert!(k1 < 20.0, "k1 {k1}");
        assert!(k1000 > 5.0 * k1);
    }

    #[test]
    fn hpx_plateaus_at_k1() {
        // §5.2: HPX speedup almost constant beyond 16 threads for k1.
        let fig = build();
        let panel = fig
            .panels
            .iter()
            .find(|p| p.title == "Mach C (Zen 3) k_it=1")
            .unwrap();
        let hpx = panel.series.iter().find(|s| s.label == "GCC-HPX").unwrap();
        let at = |t: f64| hpx.y[hpx.x.iter().position(|&x| x == t).unwrap()];
        assert!(
            at(128.0) < at(16.0) * 1.6,
            "HPX must flatten: s(16)={} s(128)={}",
            at(16.0),
            at(128.0)
        );
    }

    #[test]
    fn nvc_dominates_k1_curves() {
        let fig = build();
        for panel in [
            "Mach A (Skylake) k_it=1",
            "Mach B (Zen 1) k_it=1",
            "Mach C (Zen 3) k_it=1",
        ] {
            let nvc = final_speedup(&fig, panel, "NVC-OMP");
            for other in ["GCC-TBB", "GCC-GNU", "GCC-HPX"] {
                assert!(
                    nvc > final_speedup(&fig, panel, other),
                    "{panel}: NVC must lead {other}"
                );
            }
        }
    }

    #[test]
    fn speedups_never_exceed_ideal() {
        let fig = build();
        for panel in &fig.panels {
            let ideal = panel.series.iter().find(|s| s.label == "ideal").unwrap();
            for s in panel.series.iter().filter(|s| s.label != "ideal") {
                for (y, limit) in s.y.iter().zip(&ideal.y) {
                    assert!(
                        y <= &(limit * 1.35),
                        "{}/{}: speedup {y} vs ideal {limit}",
                        panel.title,
                        s.label
                    );
                }
            }
        }
    }
}
