//! Figure 6: `X::reduce` on Mach A (Skylake) — (a) problem scaling with
//! 32 threads, (b) strong scaling at 2^30 elements.

use pstl_sim::kernels::Kernel;
use pstl_sim::machine::mach_a;
use pstl_sim::Backend;

use crate::experiments::scaling_figure;
use crate::output::Figure;

/// Build the two-panel figure.
pub fn build() -> Figure {
    let id = ("fig6_reduce", "X::reduce on Mach A (Skylake)");
    scaling_figure(id, &mach_a(), Kernel::Reduce, &Backend::paper_cpu_set(), 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_around_2e15() {
        // §5.5: sequential faster up to ~2^15, then parallel compensates.
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
        assert!(tbb.y[at(1 << 10)] > seq.y[at(1 << 10)], "seq wins at 2^10");
        assert!(
            tbb.y[at(1 << 22)] < seq.y[at(1 << 22)],
            "parallel wins at 2^22"
        );
    }

    #[test]
    fn main_group_lands_near_ten() {
        // Table 5: NVC-OMP / GCC-TBB / GCC-GNU ≈ 10–11 at 32 threads.
        let fig = build();
        for label in ["GCC-TBB", "GCC-GNU", "NVC-OMP"] {
            let s = fig.panels[1]
                .series
                .iter()
                .find(|s| s.label == label)
                .unwrap();
            let last = *s.y.last().unwrap();
            assert!((6.0..16.0).contains(&last), "{label} reduce speedup {last}");
        }
    }

    #[test]
    fn hpx_trails_the_main_group() {
        let fig = build();
        let hpx = fig.panels[1]
            .series
            .iter()
            .find(|s| s.label == "GCC-HPX")
            .unwrap();
        let tbb = fig.panels[1]
            .series
            .iter()
            .find(|s| s.label == "GCC-TBB")
            .unwrap();
        assert!(hpx.y.last().unwrap() < tbb.y.last().unwrap());
    }

    #[test]
    fn speedup_is_far_from_ideal() {
        // Memory-bound: ≈ 10 of an ideal 32 at full core count (Table 5).
        let fig = build();
        let tbb = fig.panels[1]
            .series
            .iter()
            .find(|s| s.label == "GCC-TBB")
            .unwrap();
        let full = *tbb.y.last().unwrap();
        assert!(full < 16.0, "reduce speedup {full} must be far from 32");
        assert!(full > 5.0, "reduce speedup {full} must still be useful");
    }
}
