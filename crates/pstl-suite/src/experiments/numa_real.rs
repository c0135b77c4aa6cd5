//! **Extension experiment** (not in the paper): the NUMA topology axis,
//! end to end.
//!
//! The paper treats NUMA as an explanation (Table 2 machines, Fig. 1
//! allocator, Table 6 efficiency collapse past one node) but never as a
//! measured axis. This module sweeps it three ways, one per layer of the
//! reproduction:
//!
//! 1. **Scheduler** — [`SchedSim::numa_split_stats`] runs skewed work on
//!    each Table-2 machine's worker→node layout under the topology-blind
//!    and the two-tier (local-first) victim orders, reporting the
//!    local-steal fraction of each (the executor's
//!    `local_steals`/`remote_steals` counters, in simulation).
//! 2. **Allocator** — [`TouchMap::compute_on`] projects both
//!    [`Placement`]s through each machine's [`Topology`], reporting the
//!    node-0 page fraction (1.0 = everything on the allocating node).
//! 3. **Memory model** — [`CpuSim`] allocator gain (default ÷
//!    first-touch run time) for the bandwidth-bound `for_each k1` and the
//!    compute-bound `for_each k1000`, per machine — Fig. 1's direction,
//!    swept across topologies.
//!
//! A fourth, real-pool section runs the actual work-stealing executor on
//! a grouped [`Topology`] and records its two-tier steal counters; on a
//! one-core CI host the *values* are noise, so only the partition
//! invariant (`steals == local + remote`, flat ⇒ no remote) is asserted,
//! and the counters are committed for inspection. Everything else above
//! is deterministic, which is what makes `BENCH_numa.json` a committable
//! baseline.

use std::sync::Arc;

use pstl_alloc::{Placement, TouchMap};
use pstl_executor::{build_pool_on, Discipline, Executor, Topology};
use pstl_sim::kernels::Kernel;
use pstl_sim::machine::{all_machines, mach_arm_hypothetical, Machine};
use pstl_sim::memory::PagePlacement;
use pstl_sim::{Backend, CpuSim, RunParams, SchedSim, VictimOrder, REMOTE_DRAM_FACTOR};
use serde::Serialize;
use serde_json::Value;

use crate::gate::{items, Gates, Need};
use crate::output::{write_json, TableDoc, TableRow};

/// Tasks in the simulated skewed run.
pub const SIM_TASKS: usize = 4096;

/// Grain of the simulated splitting (tasks).
pub const SIM_GRAIN: usize = 8;

/// Cost of a same-node steal, time units (one task = 1.0).
pub const LOCAL_STEAL_COST: f64 = 0.1;

/// Cost of a cross-node steal: the cross-link hop, an order of magnitude
/// over the local CAS.
pub const REMOTE_STEAL_COST: f64 = 1.0;

/// Threads of the real-pool counter section.
pub const POOL_THREADS: usize = 4;

/// Cores per node of the real-pool grouped topology (2 nodes of 2).
pub const POOL_CORES_PER_NODE: usize = 2;

/// Worker→node [`Topology`] of `threads` fill-first threads on `machine`
/// — the bridge between the sim's machine descriptors and the executor.
pub fn topology_of(machine: &Machine, threads: usize) -> Topology {
    Topology::grouped(threads, machine.cores_per_node())
}

/// The machines swept: the paper's Table 2 plus the single-node ARM
/// extension (where topology must be a no-op).
pub fn machine_sweep() -> Vec<Machine> {
    let mut m = all_machines();
    m.push(mach_arm_hypothetical());
    m
}

/// Steal mix of one (machine, victim order) simulated run.
#[derive(Debug, Clone, Serialize)]
pub struct StealMix {
    pub order: String,
    pub makespan: f64,
    pub local_steals: u64,
    pub remote_steals: u64,
    pub local_fraction: f64,
}

/// Everything measured for one machine.
#[derive(Debug, Clone, Serialize)]
pub struct MachineNuma {
    pub machine: String,
    pub cores: usize,
    pub numa_nodes: usize,
    /// Simulated steal mix, one entry per [`VictimOrder`].
    pub steal_mix: Vec<StealMix>,
    /// Fraction of pages on node 0 under `Placement::Default` (always
    /// 1.0: the allocating thread's node holds everything).
    pub node0_fraction_default: f64,
    /// Fraction of pages on node 0 under `Placement::FirstTouch`
    /// (≈ 1 / nodes on a balanced topology).
    pub node0_fraction_first_touch: f64,
    /// Modeled allocator gain (default ÷ first-touch time), `for_each`
    /// k = 1 — bandwidth-bound, the Fig. 1 winner.
    pub alloc_gain_foreach_k1: f64,
    /// Same for k = 1000 — compute-bound, must stay ≈ 1.
    pub alloc_gain_foreach_k1000: f64,
}

/// Counter partition of the real pools.
#[derive(Debug, Clone, Serialize)]
pub struct PoolCounters {
    pub threads: usize,
    pub cores_per_node: usize,
    pub nodes: usize,
    pub steals: u64,
    pub local_steals: u64,
    pub remote_steals: u64,
    /// Remote steals of a flat (single-node) pool under the same load —
    /// must be zero by construction.
    pub flat_remote_steals: u64,
}

/// The committed `BENCH_numa.json` baseline.
#[derive(Debug, Clone, Serialize)]
pub struct BenchNuma {
    pub sim_tasks: usize,
    pub sim_grain: usize,
    pub local_steal_cost: f64,
    pub remote_steal_cost: f64,
    /// Remote execution slowdown charged by the sim: 1 / remote-DRAM
    /// bandwidth fraction.
    pub remote_exec_factor: f64,
    pub machines: Vec<MachineNuma>,
    pub pool: PoolCounters,
}

/// Skewed durations: the first quarter of tasks is 16× heavier, so node
/// 0's workers overflow and everyone else must steal.
fn sim_durations() -> Vec<f64> {
    (0..SIM_TASKS)
        .map(|i| if i < SIM_TASKS / 4 { 16.0 } else { 1.0 })
        .collect()
}

fn steal_mix_for(machine: &Machine) -> Vec<StealMix> {
    let sim = SchedSim::new(machine.cores);
    let durations = sim_durations();
    [VictimOrder::Blind, VictimOrder::LocalFirst]
        .into_iter()
        .map(|order| {
            let s = sim.numa_split_stats(
                &durations,
                SIM_GRAIN,
                machine.cores_per_node(),
                LOCAL_STEAL_COST,
                REMOTE_STEAL_COST,
                1.0 / REMOTE_DRAM_FACTOR,
                order,
            );
            StealMix {
                order: order.name().to_string(),
                makespan: s.makespan,
                local_steals: s.local_steals,
                remote_steals: s.remote_steals,
                local_fraction: s.local_fraction(),
            }
        })
        .collect()
}

fn measure_machine(machine: &Machine) -> MachineNuma {
    let topo = topology_of(machine, machine.cores);
    let n = 1 << 24; // pages enough to spread over 8 nodes evenly
    let default_map = TouchMap::compute_on(Placement::Default, n, 8, &topo);
    let ft_map = TouchMap::compute_on(Placement::FirstTouch, n, 8, &topo);
    let sim = CpuSim::new(machine.clone(), Backend::GccTbb);
    let gain = |k_it: u32| {
        let run = RunParams::new(Kernel::ForEach { k_it }, 1 << 30, machine.cores);
        sim.time(&run.with_placement(PagePlacement::Node0))
            / sim.time(&run.with_placement(PagePlacement::Spread))
    };
    MachineNuma {
        machine: machine.name.to_string(),
        cores: machine.cores,
        numa_nodes: machine.numa_nodes,
        steal_mix: steal_mix_for(machine),
        node0_fraction_default: default_map.node0_fraction(),
        node0_fraction_first_touch: ft_map.node0_fraction(),
        alloc_gain_foreach_k1: gain(1),
        alloc_gain_foreach_k1000: gain(1000),
    }
}

/// Drive a pool hard enough that idle workers must steal: many uneven
/// sleeps, several rounds.
fn exercise(pool: &Arc<dyn Executor>) {
    for _ in 0..8 {
        pool.run(64, &|i| {
            if i % 8 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        });
    }
}

fn measure_pool() -> PoolCounters {
    let topo = Topology::grouped(POOL_THREADS, POOL_CORES_PER_NODE);
    let nodes = topo.nodes();
    let pool = build_pool_on(Discipline::WorkStealing, topo);
    exercise(&pool);
    let m = pool.metrics().unwrap_or_default();
    assert_eq!(
        m.steals,
        m.local_steals + m.remote_steals,
        "steal counters must partition"
    );

    let flat = build_pool_on(Discipline::WorkStealing, Topology::flat(POOL_THREADS));
    exercise(&flat);
    let fm = flat.metrics().unwrap_or_default();
    assert_eq!(fm.remote_steals, 0, "flat topology cannot steal remotely");

    PoolCounters {
        threads: POOL_THREADS,
        cores_per_node: POOL_CORES_PER_NODE,
        nodes,
        steals: m.steals,
        local_steals: m.local_steals,
        remote_steals: m.remote_steals,
        flat_remote_steals: fm.remote_steals,
    }
}

/// Run the full sweep.
pub fn bench() -> BenchNuma {
    BenchNuma {
        sim_tasks: SIM_TASKS,
        sim_grain: SIM_GRAIN,
        local_steal_cost: LOCAL_STEAL_COST,
        remote_steal_cost: REMOTE_STEAL_COST,
        remote_exec_factor: 1.0 / REMOTE_DRAM_FACTOR,
        machines: machine_sweep().iter().map(measure_machine).collect(),
        pool: measure_pool(),
    }
}

/// Table view of [`bench`]: one row per machine.
pub fn build_table(bench: &BenchNuma) -> TableDoc {
    let columns = vec![
        "nodes".to_string(),
        "blind local frac".to_string(),
        "2-tier local frac".to_string(),
        "ft node0 frac".to_string(),
        "gain k1".to_string(),
        "gain k1000".to_string(),
    ];
    let rows = bench
        .machines
        .iter()
        .map(|m| {
            let frac = |order: &str| {
                m.steal_mix
                    .iter()
                    .find(|s| s.order == order)
                    .map(|s| s.local_fraction)
            };
            TableRow {
                label: m.machine.clone(),
                values: vec![
                    Some(m.numa_nodes as f64),
                    frac("blind"),
                    frac("local_first"),
                    Some(m.node0_fraction_first_touch),
                    Some(m.alloc_gain_foreach_k1),
                    Some(m.alloc_gain_foreach_k1000),
                ],
            }
        })
        .collect();
    TableDoc {
        id: "ext_numa_real".into(),
        title: "NUMA topology sweep: steal locality, first-touch placement, \
                allocator gain per Table-2 machine — extension"
            .into(),
        columns,
        rows,
    }
}

/// `suite ext_numa_real`: run the sweep, print the table, each
/// machine's simulated steal mix and the real pool's counters, and
/// write the table plus `BENCH_numa.json`.
pub fn run() -> std::io::Result<()> {
    let bench = bench();
    build_table(&bench).emit()?;

    println!(
        "simulated steal mix (skewed work, grain {}):",
        bench.sim_grain
    );
    for m in &bench.machines {
        for s in &m.steal_mix {
            println!(
                "  {:<18} {:<12} makespan {:>8.1}  local {:>5}  remote {:>5}  ({:.0}% local)",
                m.machine,
                s.order,
                s.makespan,
                s.local_steals,
                s.remote_steals,
                s.local_fraction * 100.0
            );
        }
    }
    let p = &bench.pool;
    println!(
        "\nreal WS pool ({} threads, {} nodes): steals {} = local {} + remote {}; flat remote {}",
        p.threads, p.nodes, p.steals, p.local_steals, p.remote_steals, p.flat_remote_steals
    );
    let path = write_json("BENCH_numa", &bench)?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// The gates on `BENCH_numa.json`: per machine, the blind then the
/// two-tier victim order, two-tier steals at least as local as blind
/// ones and never remote on one node; the real pool's steals partition
/// into local + remote, and a flat pool steals nothing remotely.
pub fn check(doc: &Value, _committed: &Value, g: &mut Gates) {
    use Need::*;
    let machines = items(&doc["machines"]);
    g.gate("/machines length", Some(machines.len()), AtLeast, 1);
    for (i, m) in machines.iter().enumerate() {
        let mix = format!("/machines/{i}/steal_mix");
        g.list(doc, &mix, "order", &["blind", "local_first"]);
        let blind = m["steal_mix"][0]["local_fraction"].as_f64();
        g.num(doc, &format!("{mix}/1/local_fraction"), AtLeast, blind);
        if m["numa_nodes"].as_u64() == Some(1) {
            g.int(doc, &format!("{mix}/1/remote_steals"), Equal, 0);
        }
    }
    let pool = &doc["pool"];
    let local = pool["local_steals"].as_u64();
    let sum = local
        .zip(pool["remote_steals"].as_u64())
        .map(|(l, r)| l + r);
    g.int(doc, "/pool/steals", Equal, sum);
    g.int(doc, "/pool/flat_remote_steals", Equal, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::serial;

    #[test]
    fn two_tier_order_raises_local_fraction_on_every_multinode_machine() {
        let _turn = serial();
        // ISSUE acceptance: on a simulated multi-node machine the
        // two-tier order yields a strictly higher local-steal fraction
        // than blind victim choice. Majority-local is NOT guaranteed in
        // general — when the skewed work lives on a minority of nodes
        // (Mach C: 2 of 8), the first redistribution steal per starving
        // node is necessarily remote.
        for m in machine_sweep() {
            let mix = steal_mix_for(&m);
            let blind = &mix[0];
            let local = &mix[1];
            assert_eq!(blind.order, "blind");
            assert_eq!(local.order, "local_first");
            assert!(
                local.local_fraction >= blind.local_fraction,
                "{}: two-tier {} below blind {}",
                m.name,
                local.local_fraction,
                blind.local_fraction
            );
            if m.numa_nodes > 1 {
                assert!(
                    local.local_fraction > blind.local_fraction,
                    "{}: two-tier fraction {} no better than blind {}",
                    m.name,
                    local.local_fraction,
                    blind.local_fraction
                );
            } else {
                // Single node: nothing can be remote under either order.
                assert_eq!(blind.remote_steals, 0, "{}", m.name);
                assert_eq!(local.remote_steals, 0, "{}", m.name);
            }
        }
    }

    #[test]
    fn first_touch_direction_matches_fig1() {
        let _turn = serial();
        // ISSUE acceptance: FirstTouch ≥ Default for the bandwidth-bound
        // kernel on multi-node machines, ≈ 1 for compute-bound k1000.
        for m in machine_sweep() {
            let res = measure_machine(&m);
            assert_eq!(res.node0_fraction_default, 1.0, "{}", m.name);
            if m.numa_nodes > 1 {
                assert!(
                    res.alloc_gain_foreach_k1 > 1.1,
                    "{}: k1 allocator gain {} not > 1.1",
                    m.name,
                    res.alloc_gain_foreach_k1
                );
                let expect = 1.0 / m.numa_nodes as f64;
                assert!(
                    (res.node0_fraction_first_touch - expect).abs() < 0.02,
                    "{}: first-touch node0 fraction {} vs {expect}",
                    m.name,
                    res.node0_fraction_first_touch
                );
            } else {
                assert_eq!(res.node0_fraction_first_touch, 1.0, "{}", m.name);
                assert!(
                    (res.alloc_gain_foreach_k1 - 1.0).abs() < 0.05,
                    "{}: single node must see no allocator effect, got {}",
                    m.name,
                    res.alloc_gain_foreach_k1
                );
            }
            assert!(
                (res.alloc_gain_foreach_k1000 - 1.0).abs() < 0.1,
                "{}: compute-bound gain {} should be flat",
                m.name,
                res.alloc_gain_foreach_k1000
            );
        }
    }

    #[test]
    fn pool_counters_partition_and_flat_has_no_remote() {
        let _turn = serial();
        let p = measure_pool();
        assert_eq!(p.steals, p.local_steals + p.remote_steals);
        assert_eq!(p.flat_remote_steals, 0);
        assert_eq!(p.nodes, 2);
    }

    #[test]
    fn table_has_one_row_per_machine_and_no_holes() {
        let _turn = serial();
        let bench = bench();
        let t = build_table(&bench);
        assert_eq!(t.rows.len(), machine_sweep().len());
        assert!(t.rows.iter().all(|r| r.values.iter().all(|v| v.is_some())));
    }

    #[test]
    fn machine_topology_bridge_matches_descriptor() {
        for m in machine_sweep() {
            let topo = topology_of(&m, m.cores);
            assert_eq!(topo.threads(), m.cores);
            assert_eq!(topo.nodes(), m.numa_nodes, "{}", m.name);
        }
    }
}
