//! Figure 7: `X::sort` on Mach C (Zen 3) — (a) problem scaling with 32
//! threads (as in the paper's caption), (b) strong scaling at 2^30.

use pstl_sim::kernels::Kernel;
use pstl_sim::machine::mach_c;
use pstl_sim::Backend;

use crate::experiments::scaling_figure;
use crate::output::Figure;

/// Build the two-panel figure.
pub fn build() -> Figure {
    let id = ("fig7_sort", "X::sort on Mach C (Zen 3)");
    scaling_figure(id, &mach_c(), Kernel::Sort, &Backend::paper_cpu_set(), 32)
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
    fn gnu_is_most_efficient_at_high_thread_counts() {
        // §5.6 + Table 5: GNU reaches 66.6 on Mach C; others ≤ 10.6.
        let fig = build();
        let gnu = *strong(&fig, "GCC-GNU").y.last().unwrap();
        assert!(gnu > 25.0, "GNU sort speedup {gnu}");
        for label in ["GCC-TBB", "GCC-HPX", "NVC-OMP"] {
            let other = *strong(&fig, label).y.last().unwrap();
            assert!(gnu > 2.0 * other, "GNU {gnu} vs {label} {other}");
            assert!(other < 20.0, "{label} sort speedup {other}");
        }
    }

    #[test]
    fn others_exhibit_poor_scalability() {
        // §5.6: speedup far from ideal for the non-GNU backends.
        let fig = build();
        for label in ["GCC-TBB", "NVC-OMP", "GCC-HPX"] {
            let s = strong(&fig, label);
            let at_16 = s.y[s.x.iter().position(|&x| x == 16.0).unwrap()];
            let at_128 = *s.y.last().unwrap();
            assert!(
                at_128 < at_16 * 2.5,
                "{label} sort must saturate: s(16)={at_16} s(128)={at_128}"
            );
        }
    }

    #[test]
    fn hpx_sequential_below_2e15() {
        // §5.6: HPX delegates to a single thread for inputs ≤ 2^15.
        let fig = build();
        let hpx = fig.panels[0]
            .series
            .iter()
            .find(|s| s.label == "GCC-HPX")
            .unwrap();
        let seq = fig.panels[0]
            .series
            .iter()
            .find(|s| s.label == "GCC-SEQ")
            .unwrap();
        let at = |n: u64| seq.x.iter().position(|&x| x == n as f64).unwrap();
        let i = at(1 << 14);
        let ratio = hpx.y[i] / seq.y[i];
        assert!(
            (0.5..2.2).contains(&ratio),
            "HPX at 2^14 must track sequential (ratio {ratio})"
        );
    }

    #[test]
    fn sort_crossover_exists() {
        let fig = build();
        let seq = fig.panels[0]
            .series
            .iter()
            .find(|s| s.label == "GCC-SEQ")
            .unwrap();
        let gnu = fig.panels[0]
            .series
            .iter()
            .find(|s| s.label == "GCC-GNU")
            .unwrap();
        let at = |n: u64| seq.x.iter().position(|&x| x == n as f64).unwrap();
        assert!(gnu.y[at(1 << 28)] < seq.y[at(1 << 28)]);
    }
}
