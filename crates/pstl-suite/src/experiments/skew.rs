//! **Extension experiment** (not in the paper): scheduling disciplines
//! under *non-uniform* work.
//!
//! Every kernel the paper benchmarks does identical work per element,
//! which structurally favors static OpenMP scheduling — one reason
//! NVC-OMP looks so strong in its for_each results. This experiment uses
//! the task-level scheduler simulation ([`pstl_sim::sched_sim`]) to ask
//! what the ranking looks like when per-element cost is skewed: a
//! cluster of heavy elements at the front of the index space (e.g. the
//! dense rows of a triangular matrix, or hot keys in a join).
//!
//! Expected shape: at skew 1× every discipline is near the lower bound
//! and static wins on zero overhead; as the heavy cluster grows heavier,
//! static's makespan diverges toward "one partition does all the heavy
//! work" while dynamic and stealing stay near the bound — TBB's raison
//! d'être, invisible in the paper's uniform benchmarks.

use pstl_sim::sched_sim::{skewed_durations, SchedSim, SimDiscipline};

use crate::output::{Figure, Panel, Series};

/// Heavy-task cost factors swept.
pub const FACTORS: [f64; 6] = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0];

/// Tasks simulated.
pub const TASKS: usize = 8192;

/// Workers simulated (one NUMA node of Mach A/C).
pub const WORKERS: usize = 16;

/// Durations with the first eighth of the index space `factor`× heavier.
fn clustered(factor: f64) -> Vec<f64> {
    let mut v = skewed_durations(TASKS, 0, 1.0);
    for d in v.iter_mut().take(TASKS / 8) {
        *d = factor;
    }
    v
}

/// Build the figure: makespan normalized to the greedy lower bound, per
/// discipline, across skew factors.
pub fn build() -> Figure {
    let sim = SchedSim::new(WORKERS);
    let disciplines: [(&str, SimDiscipline); 5] = [
        ("static (GNU/NVC)", SimDiscipline::Static),
        (
            "dynamic chunks (HPX-ish)",
            SimDiscipline::Dynamic {
                chunk: 16,
                overhead: 0.05,
            },
        ),
        (
            "work stealing (TBB)",
            SimDiscipline::WorkStealing { steal_cost: 0.2 },
        ),
        (
            "guided (Partitioner::Guided)",
            SimDiscipline::Guided {
                min_chunk: 16,
                overhead: 0.05,
            },
        ),
        (
            "adaptive split (Partitioner::Adaptive)",
            SimDiscipline::AdaptiveSplit {
                grain: 16,
                split_cost: 0.2,
            },
        ),
    ];
    let xs: Vec<f64> = FACTORS.to_vec();
    let series = disciplines
        .iter()
        .map(|(label, d)| {
            Series::new(
                *label,
                xs.clone(),
                FACTORS
                    .iter()
                    .map(|&f| {
                        let work = clustered(f);
                        sim.makespan(&work, *d) / sim.lower_bound(&work)
                    })
                    .collect(),
            )
        })
        .collect();
    Figure {
        id: "ext_skewed_workload".into(),
        title: format!(
            "Scheduling under skewed work ({TASKS} tasks, first eighth heavier, {WORKERS} workers) — extension"
        ),
        x_label: "heavy-task cost factor".into(),
        y_label: "makespan / lower bound".into(),
        panels: vec![Panel {
            title: "clustered heavy tasks".into(),
            series,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::serial;

    fn series_y(fig: &Figure, label_substr: &str) -> Vec<f64> {
        fig.panels[0]
            .series
            .iter()
            .find(|s| s.label.contains(label_substr))
            .unwrap()
            .y
            .clone()
    }

    #[test]
    fn uniform_work_everyone_near_bound() {
        let _turn = serial();
        let fig = build();
        for s in &fig.panels[0].series {
            assert!(
                s.y[0] < 1.2,
                "{}: uniform work ratio {} must be near 1",
                s.label,
                s.y[0]
            );
        }
    }

    #[test]
    fn static_diverges_with_skew() {
        let _turn = serial();
        let fig = build();
        let stat = series_y(&fig, "static");
        assert!(
            *stat.last().unwrap() > 2.0,
            "static at 50x skew: {}",
            stat.last().unwrap()
        );
        // And it diverges monotonically.
        for w in stat.windows(2) {
            assert!(w[1] >= w[0] * 0.99);
        }
    }

    #[test]
    fn dynamic_and_stealing_stay_near_bound() {
        let _turn = serial();
        let fig = build();
        for label in ["dynamic", "stealing"] {
            let y = series_y(&fig, label);
            assert!(
                *y.last().unwrap() < 1.6,
                "{label} at 50x skew: {}",
                y.last().unwrap()
            );
        }
    }

    #[test]
    fn adaptive_split_stays_near_bound() {
        let _turn = serial();
        let fig = build();
        let y = series_y(&fig, "adaptive split");
        assert!(
            *y.last().unwrap() < 1.6,
            "adaptive split at 50x skew: {}",
            y.last().unwrap()
        );
    }

    #[test]
    fn guided_beats_static_under_heavy_skew() {
        let _turn = serial();
        let fig = build();
        let stat = series_y(&fig, "static (GNU/NVC)");
        let guided = series_y(&fig, "guided");
        assert!(
            *guided.last().unwrap() < *stat.last().unwrap(),
            "guided {} must beat static {} at 50x skew",
            guided.last().unwrap(),
            stat.last().unwrap()
        );
    }

    #[test]
    fn ranking_flips_relative_to_uniform() {
        let _turn = serial();
        // At skew 1 static is best (zero overhead); at 50x it is worst —
        // the inversion the paper's uniform kernels cannot show.
        let fig = build();
        let stat = series_y(&fig, "static");
        let steal = series_y(&fig, "stealing");
        assert!(stat[0] <= steal[0] + 1e-9);
        assert!(*stat.last().unwrap() > *steal.last().unwrap());
    }
}
