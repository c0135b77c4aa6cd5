//! The CPU run-time model: machine × backend × kernel × (n, threads,
//! placement) → seconds.
//!
//! Structure per run:
//!
//! ```text
//! time = max(T_compute, T_memory) + T_dispatch + T_tasks + T_barrier
//! ```
//!
//! * `T_compute` — per-element kernel cycles plus the backend's
//!   per-element scheduling-instruction overhead (Tables 3–4), divided
//!   over threads with a mild contention-efficiency decay.
//! * `T_memory` — kernel traffic × backend traffic inflation over the
//!   NUMA/cache bandwidth from [`MemorySystem`].
//! * scheduling terms from the backend model.
//!
//! `sort` is modeled structurally per backend sort flavor (quicksort /
//! binary merge / multiway merge), which is what produces the paper's
//! dramatic GNU-vs-rest sort gap.

use serde::Serialize;

use crate::backend_model::{Backend, BackendModel, SortFlavor};
use crate::kernels::{DType, Kernel};
use crate::machine::Machine;
use crate::memory::{MemorySystem, PagePlacement};

/// Thread-contention decay: parallel efficiency `1/(1 + α (t − 1))`.
/// Calibrated to the paper's compute-bound for_each (k_it = 1000):
/// efficiencies ≈ 1.0 at 32 threads and ≈ 0.8 at 128 (§5.2).
const ALPHA_CONTENTION: f64 = 0.002;

/// Barrier cost per log2(threads), ns.
const BARRIER_NS_PER_LOG2: f64 = 300.0;

/// Sequential introsort cycles per element per level.
const C_CMP_SEQ: f64 = 3.0;

/// Quicksort partition cycles per element (compare + swap + the
/// mispredicted branches of random pivots).
const C_PART: f64 = 3.0;

/// Pairwise merge cycles per element.
const C_MERGE: f64 = 2.5;

/// Multiway-merge heap cycles per element per log2(ways).
const C_HEAP: f64 = 2.0;

/// HPX's extra compute-efficiency loss at scale for compute-bound loops
/// (§5.2: 66 % parallel efficiency on Mach C vs 79–83 % for the rest).
const HPX_COMPUTE_EFFICIENCY: f64 = 0.82;

/// Parameters of one simulated benchmark run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RunParams {
    /// Benchmark kernel.
    pub kernel: Kernel,
    /// Element type.
    pub dtype: DType,
    /// Problem size in elements.
    pub n: usize,
    /// Thread count (clamped to the machine's cores).
    pub threads: usize,
    /// Page placement of the input buffer.
    pub placement: PagePlacement,
}

impl RunParams {
    /// Standard CPU run: `f64`, first-touch placement.
    pub fn new(kernel: Kernel, n: usize, threads: usize) -> Self {
        RunParams {
            kernel,
            dtype: DType::F64,
            n,
            threads,
            placement: PagePlacement::Spread,
        }
    }

    /// Same run with a different placement.
    pub fn with_placement(mut self, placement: PagePlacement) -> Self {
        self.placement = placement;
        self
    }
}

/// CPU simulator for one machine/backend pair.
#[derive(Debug, Clone)]
pub struct CpuSim {
    machine: Machine,
    mem: MemorySystem,
    model: BackendModel,
    /// Measured kernel throughput (see [`crate::calibration`]); when
    /// attached it replaces the theoretical vectorization speedups with
    /// observed ones. `None` keeps every fitted model path untouched.
    calibration: Option<crate::calibration::KernelCalibration>,
}

impl CpuSim {
    /// Build a simulator.
    pub fn new(machine: Machine, backend: Backend) -> Self {
        Self::with_model(machine, backend.model())
    }

    /// Build a simulator with an explicit (possibly modified) backend
    /// model — the hook the ablation studies use to ask "what if TBB had
    /// GNU's sort?" style questions.
    pub fn with_model(machine: Machine, model: BackendModel) -> Self {
        CpuSim {
            mem: MemorySystem::new(machine.clone()),
            machine,
            model,
            calibration: None,
        }
    }

    /// Attach a measured [`crate::calibration::KernelCalibration`]:
    /// reduce/find compute costs then use the *observed* wide-path
    /// speedups instead of the theoretical 256-bit lane count.
    pub fn with_calibration(mut self, cal: crate::calibration::KernelCalibration) -> Self {
        self.calibration = Some(cal);
        self
    }

    /// The attached calibration, if any.
    pub fn calibration(&self) -> Option<&crate::calibration::KernelCalibration> {
        self.calibration.as_ref()
    }

    /// The machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The backend model.
    pub fn model(&self) -> &BackendModel {
        &self.model
    }

    /// Estimated wall time of one benchmark invocation, in seconds.
    pub fn time(&self, p: &RunParams) -> f64 {
        let threads = p.threads.clamp(1, self.machine.cores);
        if self.model.backend == Backend::GccSeq {
            return self.seq_time(p, p.threads.max(1));
        }
        if self.model.falls_back_to_seq(&p.kernel, p.n) || threads == 1 {
            // Sequential fallback: the processing thread is alone but the
            // touch pass ran with the full team (relevant under Spread).
            return self.seq_time(p, threads);
        }
        match p.kernel {
            Kernel::Sort => self.parallel_sort_time(p, threads),
            _ => self.parallel_stream_time(p, threads),
        }
    }

    /// Speedup of this simulator's run over a baseline simulator's run
    /// (same kernel/size, possibly different backend or thread count).
    pub fn speedup_over(&self, baseline: &CpuSim, p: &RunParams, baseline_p: &RunParams) -> f64 {
        baseline.time(baseline_p) / self.time(p)
    }

    /// Contention-limited parallel efficiency at `t` threads.
    fn efficiency(&self, t: usize) -> f64 {
        let base = 1.0 / (1.0 + ALPHA_CONTENTION * (t as f64 - 1.0));
        if self.model.backend == Backend::GccHpx && t > 1 {
            base * HPX_COMPUTE_EFFICIENCY
        } else {
            base
        }
    }

    fn freq_hz(&self) -> f64 {
        self.machine.freq_ghz * 1e9
    }

    /// Sequential execution (the backend's own sequential code paths).
    fn seq_time(&self, p: &RunParams, touch_threads: usize) -> f64 {
        let quality = self.model.seq_quality;
        match p.kernel {
            Kernel::Sort => {
                let n = p.n.max(2) as f64;
                let compute = n * n.log2() * C_CMP_SEQ / (self.freq_hz() * quality);
                let bw = self.mem.effective_bandwidth_touched(
                    p.n * p.dtype.bytes(),
                    1,
                    p.placement,
                    touch_threads,
                );
                let memory = 2.0 * n * 2.0 * p.dtype.bytes() as f64 / (bw * 1e9);
                compute.max(memory)
            }
            _ => {
                let prof = p.kernel.profile(p.dtype);
                let n = p.n as f64 * prof.early_exit_fraction;
                let compute = n * prof.cycles / (self.freq_hz() * quality);
                let bw = self.mem.effective_bandwidth_touched(
                    p.n * p.dtype.bytes(),
                    1,
                    p.placement,
                    touch_threads,
                );
                // The sequential scan is a single read+write pass; the
                // profile's two-pass traffic belongs to the parallel
                // decomposition only.
                let bytes = match p.kernel {
                    Kernel::InclusiveScan => 2.0 * p.dtype.bytes() as f64,
                    _ => prof.read_bytes + prof.write_bytes,
                };
                let memory = n * bytes / (bw * 1e9);
                compute.max(memory)
            }
        }
    }

    /// Scheduling overhead of one parallel region.
    fn sched_time(&self, n: usize, t: usize) -> f64 {
        let tasks = self.model.tasks_for(n, t) as f64;
        self.model.dispatch_us * 1e-6
            + tasks * self.model.per_task_ns * 1e-9 / t as f64
            + (t as f64).log2() * BARRIER_NS_PER_LOG2 * 1e-9
    }

    /// Achievable bandwidth (bytes/s) for this backend at `t` threads
    /// for a kernel whose traffic is `write_share` writes.
    ///
    /// Beyond two NUMA nodes an unpinned backend loses bandwidth as
    /// `(2/nodes)^gamma` (see [`BackendModel::numa_gamma`]); write-heavy
    /// traffic decays 1.5× faster (cross-node RFO + writeback).
    fn bandwidth(&self, p: &RunParams, t: usize, write_share: f64, gamma: f64) -> f64 {
        let base = self
            .mem
            .effective_bandwidth_touched(p.n * p.dtype.bytes(), t, p.placement, t)
            * self.model.bw_efficiency;
        let _ = write_share;
        let nodes = self.machine.nodes_used(t);
        let decay = if nodes > 2 {
            (2.0 / nodes as f64).powf(gamma)
        } else {
            1.0
        };
        base * decay * 1e9
    }

    /// The decay exponent for a kernel: store-dominated streams use the
    /// (steeper) store exponent; `find` may override.
    fn gamma_for(&self, kernel: &Kernel, write_share: f64) -> f64 {
        if kernel.is_early_exit() {
            self.model.find_numa_gamma.unwrap_or(self.model.numa_gamma)
        } else if write_share >= 0.45 {
            self.model.store_numa_gamma
        } else {
            self.model.numa_gamma
        }
    }

    /// Map/reduce/scan/find-shaped kernels: one (or two) streaming
    /// traversals.
    fn parallel_stream_time(&self, p: &RunParams, t: usize) -> f64 {
        let prof = p.kernel.profile(p.dtype);
        let m = &self.model;
        let frac = if p.kernel.is_early_exit() {
            m.find_scan_fraction
        } else {
            prof.early_exit_fraction
        };
        let n = p.n as f64 * frac;

        // Compute: kernel cycles (possibly vectorized) + scheduling
        // instructions. The find loop is far leaner than the for_each
        // lambda dispatch the map overhead was measured on.
        let extra = match p.kernel {
            Kernel::Reduce => m.reduce_extra_cycles,
            Kernel::Find => 0.25 * m.map_extra_cycles,
            _ => m.map_extra_cycles,
        };
        let kernel_cycles = match p.kernel {
            Kernel::Reduce if m.vectorizes_reduce => {
                // Measured wide-path speedup (the row matching this
                // run's dtype) when a calibration is attached; the
                // theoretical 256-bit lane count otherwise.
                let lanes = match &self.calibration {
                    Some(cal) => cal.reduce_speedup_for(p.dtype),
                    None => 32.0 / p.dtype.bytes() as f64, // 256-bit SIMD
                };
                prof.cycles / lanes.max(1.0)
            }
            Kernel::Find => match &self.calibration {
                // The masked-block find's measured gain over the
                // short-circuit scan (compute side only; find is usually
                // bandwidth-bound at scale, where this cancels out).
                Some(cal) => prof.cycles / cal.find_speedup_for(p.dtype).max(1.0),
                None => prof.cycles,
            },
            _ => prof.cycles,
        };
        let t_compute =
            n * (kernel_cycles + extra) / (t as f64 * self.freq_hz() * self.efficiency(t));

        // Memory. Reduce/find are read-only: their traffic is not
        // inflated by the write-allocate overhead baked into
        // `traffic_factor` (which was measured on for_each).
        let traffic = match p.kernel {
            Kernel::Reduce | Kernel::Find => 1.0,
            _ => m.traffic_factor,
        };
        let write_share = prof.write_bytes / (prof.read_bytes + prof.write_bytes).max(1e-12);
        let bw = self.bandwidth(p, t, write_share, self.gamma_for(&p.kernel, write_share));
        let mut t_memory = n * (prof.read_bytes + prof.write_bytes) * traffic / bw;
        if p.kernel.is_early_exit() && p.placement == PagePlacement::Spread {
            t_memory *= m.find_first_touch_penalty;
        }

        // The two-pass scan opens two parallel regions (reduce + rescan).
        let regions = if matches!(p.kernel, Kernel::InclusiveScan) {
            2.0
        } else {
            1.0
        };
        t_compute.max(t_memory) + regions * self.sched_time(p.n, t)
    }

    /// Parallel sort, by backend sort flavor.
    fn parallel_sort_time(&self, p: &RunParams, t: usize) -> f64 {
        let m = &self.model;
        let n = p.n.max(2) as f64;
        let tf = t as f64;
        let eff = self.efficiency(t);
        let freq = self.freq_hz();
        let elem = p.dtype.bytes() as f64;
        // Merge/partition passes stream sequentially (prefetch-friendly),
        // so they see the base placement decay, not the store-heavy one.
        let bw = self.bandwidth(p, t, 0.0, self.model.numa_gamma);
        // The serial partition stages stream at single-core STREAM rate;
        // their pages are local wherever the thread runs (placement-
        // neutral, matching Fig. 1's flat sort bars).
        let bw1 = self.machine.bw_1core_gbs * 1e9;

        // Leaf phase: each thread sorts its chunk.
        let chunk = (n / tf).max(2.0);
        let leaf_compute = chunk * chunk.log2() * C_CMP_SEQ / (freq * eff);
        let leaf_memory = 2.0 * n * 2.0 * elem / bw;
        let leaf = leaf_compute.max(leaf_memory);

        let merge_phase = match m.sort_flavor {
            SortFlavor::Multiway => {
                // One k-way merge traversal + sampling.
                let ways = tf.max(2.0);
                let compute = n * C_HEAP * ways.log2() / (tf * freq * eff);
                let memory = 2.0 * n * 2.0 * elem / bw;
                let sampling = ways * ways * ways.log2() * 50.0 / freq;
                compute.max(memory) + sampling
            }
            SortFlavor::BinaryMerge => {
                // log2(t) pairwise passes, each a full traversal.
                let passes = tf.log2().ceil().max(1.0);
                let per_pass_compute = n * C_MERGE / (tf * freq * eff);
                let per_pass_memory = n * 2.0 * elem * 2.0 / bw;
                passes * (per_pass_compute.max(per_pass_memory) + self.sched_time(p.n, t))
            }
            SortFlavor::Quicksort => {
                // Top-level partitions are elapsed-time bound by their
                // largest (single-threaded) partition at each level.
                let scale = if m.backend == Backend::NvcOmp {
                    1.5
                } else {
                    1.0
                };
                let levels = tf.log2().ceil().max(1.0);
                let per_elem = (C_PART * scale / freq).max(2.0 * elem / bw1);
                // sum_{l=0}^{L-1} n/2^l ≈ 2n (1 − 2^−L)
                2.0 * n * per_elem * (1.0 - 0.5f64.powf(levels))
            }
        };

        leaf + merge_phase + self.sched_time(p.n, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{mach_a, mach_b, mach_c};

    fn run(kernel: Kernel, n: usize, threads: usize) -> RunParams {
        RunParams::new(kernel, n, threads)
    }

    fn speedup(machine: Machine, backend: Backend, kernel: Kernel, n: usize, t: usize) -> f64 {
        let sim = CpuSim::new(machine.clone(), backend);
        let base = CpuSim::new(machine, Backend::GccSeq);
        base.time(&run(kernel, n, 1)) / sim.time(&run(kernel, n, t))
    }

    fn test_calibration() -> crate::calibration::KernelCalibration {
        crate::calibration::KernelCalibration {
            reduce_scalar_ns: 1.0,
            reduce_wide_ns: 0.5, // measured 2× — below the theoretical 4×/f64
            reduce_scalar_ns_u32: 1.0,
            reduce_wide_ns_u32: 0.25, // 4× on 8-lane u32 — still below 8×
            find_scalar_ns: 0.9,
            find_wide_ns: 0.6,
            find_scalar_ns_f64: 0.9,
            find_wide_ns_f64: 0.75,
            scan_scalar_ns: 1.0,
            scan_wide_ns: 0.6,
        }
    }

    #[test]
    fn calibration_replaces_theoretical_lanes_with_measured_speedup() {
        // Compute-bound regime: small n (fits in cache model terms is
        // irrelevant — use a vectorizing backend where reduce has a lane
        // speedup) at 1 thread goes through seq_time, so use 2 threads
        // and a size big enough to parallelize but compute-heavy kernel.
        let m = mach_a();
        let plain = CpuSim::new(m.clone(), Backend::IccTbb);
        let cal = CpuSim::new(m, Backend::IccTbb).with_calibration(test_calibration());
        let p = run(Kernel::Reduce, 1 << 22, 8);
        // Theoretical lanes for f64 = 4×; measured = 2× → calibrated
        // compute term is slower or equal (memory may dominate both).
        assert!(cal.time(&p) >= plain.time(&p) * 0.999);
        // And attaching a calibration never yields a non-finite time.
        for k in [Kernel::Reduce, Kernel::Find, Kernel::InclusiveScan] {
            for t in [2usize, 8, 32] {
                let time = cal.time(&run(k, 1 << 24, t));
                assert!(time.is_finite() && time > 0.0, "{k:?} t={t}");
            }
        }
    }

    #[test]
    fn calibration_speeds_up_compute_bound_find() {
        // Find's compute term uses the measured masked-block speedup; a
        // backend without reduce vectorization still benefits on find.
        let m = mach_a();
        let plain = CpuSim::new(m.clone(), Backend::GccTbb);
        let cal = CpuSim::new(m, Backend::GccTbb).with_calibration(test_calibration());
        let p = run(Kernel::Find, 1 << 26, 4);
        assert!(cal.time(&p) <= plain.time(&p) * 1.001);
        // No calibration attached → byte-identical model behaviour.
        let m2 = mach_a();
        let a = CpuSim::new(m2.clone(), Backend::GccTbb);
        let b = CpuSim::with_model(m2, Backend::GccTbb.model());
        assert_eq!(a.time(&p).to_bits(), b.time(&p).to_bits());
    }

    #[test]
    fn calibration_row_follows_run_dtype() {
        // Two calibrations that differ only in the u32 reduce row: every
        // f64 run must be byte-identical between them (the f64 path may
        // not consult the u32 row), and an i32 run must slow down when
        // its own row loses its lanes.
        use crate::kernels::DType;
        let a = test_calibration();
        let mut b = test_calibration();
        b.reduce_wide_ns_u32 = b.reduce_scalar_ns_u32; // 1× — wide path wins nothing
        let m = mach_a();
        let sim_a = CpuSim::new(m.clone(), Backend::IccTbb).with_calibration(a);
        let sim_b = CpuSim::new(m, Backend::IccTbb).with_calibration(b);
        let pf = run(Kernel::Reduce, 1 << 22, 8);
        assert_eq!(sim_a.time(&pf).to_bits(), sim_b.time(&pf).to_bits());
        let mut pi = pf;
        pi.dtype = DType::I32;
        assert!(
            sim_b.time(&pi) > sim_a.time(&pi),
            "losing the u32 lanes must slow the i32 reduce: {} !> {}",
            sim_b.time(&pi),
            sim_a.time(&pi)
        );
    }

    #[test]
    fn time_is_positive_and_finite() {
        for m in [mach_a(), mach_b(), mach_c()] {
            for b in Backend::paper_cpu_set() {
                let sim = CpuSim::new(m.clone(), b);
                for k in Kernel::paper_summary_set() {
                    for n in [1usize << 3, 1 << 15, 1 << 30] {
                        for t in [1usize, 16, m.cores] {
                            let time = sim.time(&run(k, n, t));
                            assert!(time.is_finite() && time > 0.0, "{b:?} {k:?} n={n} t={t}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sequential_wins_small_parallel_wins_large() {
        // Fig. 2 / Fig. 4a: crossover between ~2^10 and ~2^18.
        let m = mach_a();
        let seq = CpuSim::new(m.clone(), Backend::GccSeq);
        let tbb = CpuSim::new(m, Backend::GccTbb);
        for k in [Kernel::ForEach { k_it: 1 }, Kernel::Find, Kernel::Reduce] {
            let small_seq = seq.time(&run(k, 1 << 8, 1));
            let small_par = tbb.time(&run(k, 1 << 8, 32));
            assert!(
                small_par > 4.0 * small_seq,
                "{k:?}: parallel must lose badly at 2^8 ({small_par} vs {small_seq})"
            );
            let large_seq = seq.time(&run(k, 1 << 30, 1));
            let large_par = tbb.time(&run(k, 1 << 30, 32));
            assert!(
                large_par < large_seq / 3.0,
                "{k:?}: parallel must win clearly at 2^30"
            );
        }
    }

    #[test]
    fn monotone_nonincreasing_in_bandwidth_bound_threads() {
        // More threads must never make the model slower for streaming
        // kernels with TBB on a single socket.
        let tbb = CpuSim::new(mach_a(), Backend::GccTbb);
        let mut prev = f64::INFINITY;
        for t in [2usize, 4, 8, 16, 32] {
            let time = tbb.time(&run(Kernel::ForEach { k_it: 1000 }, 1 << 30, t));
            assert!(time <= prev * 1.01, "t={t}");
            prev = time;
        }
    }

    #[test]
    fn nvc_omp_wins_foreach_k1() {
        // Fig. 3 / Table 5: NVC-OMP is fastest for k_it = 1 at scale.
        for m in [mach_a(), mach_b(), mach_c()] {
            let cores = m.cores;
            let nvc = speedup(
                m.clone(),
                Backend::NvcOmp,
                Kernel::ForEach { k_it: 1 },
                1 << 30,
                cores,
            );
            for b in [
                Backend::GccTbb,
                Backend::GccGnu,
                Backend::GccHpx,
                Backend::IccTbb,
            ] {
                let s = speedup(m.clone(), b, Kernel::ForEach { k_it: 1 }, 1 << 30, cores);
                assert!(nvc > s, "{} NVC {nvc} vs {b:?} {s}", m.name);
            }
        }
    }

    #[test]
    fn hpx_loses_foreach_k1() {
        for m in [mach_a(), mach_b(), mach_c()] {
            let cores = m.cores;
            let hpx = speedup(
                m.clone(),
                Backend::GccHpx,
                Kernel::ForEach { k_it: 1 },
                1 << 30,
                cores,
            );
            for b in [Backend::GccTbb, Backend::GccGnu, Backend::NvcOmp] {
                let s = speedup(m.clone(), b, Kernel::ForEach { k_it: 1 }, 1 << 30, cores);
                assert!(hpx < s, "{} HPX {hpx} vs {b:?} {s}", m.name);
            }
        }
    }

    #[test]
    fn foreach_k1000_is_near_ideal() {
        // Table 5: k_it = 1000 speedups ≈ 32 | 55 | 102–107.
        let cases = [
            (mach_a(), 32usize, 24.0, 40.0),
            (mach_b(), 64, 40.0, 70.0),
            (mach_c(), 128, 75.0, 128.0),
        ];
        for (m, t, lo, hi) in cases {
            for b in [Backend::GccTbb, Backend::GccGnu, Backend::NvcOmp] {
                let s = speedup(m.clone(), b, Kernel::ForEach { k_it: 1000 }, 1 << 30, t);
                assert!(
                    (lo..=hi).contains(&s),
                    "{} {b:?} k1000 speedup {s} outside [{lo}, {hi}]",
                    m.name
                );
            }
        }
    }

    #[test]
    fn find_speedup_capped_by_bandwidth_ratio() {
        // §5.3: max ≈ 6 on Mach B; nowhere near core count.
        let m = mach_b();
        let s = speedup(m.clone(), Backend::GccTbb, Kernel::Find, 1 << 30, 64);
        assert!((3.0..10.0).contains(&s), "find speedup {s}");
        assert!(s < 12.0, "find must be far from ideal");
    }

    #[test]
    fn scan_support_shapes_table5() {
        // NVC-OMP scan ≈ 0.9 (sequential, slightly worse codegen).
        let m = mach_c();
        let nvc = speedup(
            m.clone(),
            Backend::NvcOmp,
            Kernel::InclusiveScan,
            1 << 30,
            128,
        );
        assert!((0.5..1.1).contains(&nvc), "NVC scan speedup {nvc}");
        // TBB scan ≈ 4.7 on Mach C.
        let tbb = speedup(
            m.clone(),
            Backend::GccTbb,
            Kernel::InclusiveScan,
            1 << 30,
            128,
        );
        assert!((2.5..8.0).contains(&tbb), "TBB scan speedup {tbb}");
    }

    #[test]
    fn gnu_multiway_sort_scales_best() {
        // Table 5 sort: GNU 25 | 27 | 67 vs others ≤ 11.
        for (m, t) in [(mach_a(), 32usize), (mach_b(), 64), (mach_c(), 128)] {
            let gnu = speedup(m.clone(), Backend::GccGnu, Kernel::Sort, 1 << 30, t);
            for b in [Backend::GccTbb, Backend::GccHpx, Backend::NvcOmp] {
                let s = speedup(m.clone(), b, Kernel::Sort, 1 << 30, t);
                assert!(
                    gnu > 1.8 * s,
                    "{}: GNU sort {gnu} must dominate {b:?} {s}",
                    m.name
                );
            }
            assert!(gnu > 15.0, "{}: GNU sort speedup {gnu} too low", m.name);
        }
    }

    #[test]
    fn reduce_speedup_in_paper_band() {
        // Table 5 reduce Mach A: 10.0–11.0 for the main group.
        let m = mach_a();
        for b in [Backend::GccTbb, Backend::GccGnu, Backend::NvcOmp] {
            let s = speedup(m.clone(), b, Kernel::Reduce, 1 << 30, 32);
            assert!((6.0..16.0).contains(&s), "{b:?} reduce speedup {s}");
        }
    }

    #[test]
    fn gnu_fallback_makes_small_sizes_sequential() {
        let m = mach_a();
        let gnu = CpuSim::new(m.clone(), Backend::GccGnu);
        let seq = CpuSim::new(m, Backend::GccSeq);
        let n = 1 << 9;
        let g = gnu.time(&run(Kernel::ForEach { k_it: 1 }, n, 32));
        let s = seq.time(&run(Kernel::ForEach { k_it: 1 }, n, 1));
        // Within 2×: no dispatch cliff (HPX/TBB pay microseconds here).
        assert!(g < 2.0 * s, "GNU small input must run sequentially");
        let tbb = CpuSim::new(mach_a(), Backend::GccTbb);
        let tb = tbb.time(&run(Kernel::ForEach { k_it: 1 }, n, 32));
        assert!(tb > 5.0 * s, "TBB pays dispatch overhead at tiny sizes");
    }

    #[test]
    fn allocator_gain_for_bandwidth_bound_kernels() {
        // Fig. 1: for_each k1 gains up to +63 % from first touch on Mach A.
        let sim = CpuSim::new(mach_a(), Backend::NvcOmp);
        let k = Kernel::ForEach { k_it: 1 };
        let spread = sim.time(&run(k, 1 << 30, 32));
        let node0 = sim.time(&run(k, 1 << 30, 32).with_placement(PagePlacement::Node0));
        let gain = node0 / spread;
        assert!((1.3..1.8).contains(&gain), "allocator gain {gain}");
    }

    #[test]
    fn allocator_neutral_for_compute_bound_kernels() {
        // Fig. 1: k_it = 1000 and sort see no significant difference.
        let sim = CpuSim::new(mach_a(), Backend::GccTbb);
        for k in [Kernel::ForEach { k_it: 1000 }, Kernel::Sort] {
            let spread = sim.time(&run(k, 1 << 30, 32));
            let node0 = sim.time(&run(k, 1 << 30, 32).with_placement(PagePlacement::Node0));
            let gain = node0 / spread;
            assert!((0.95..1.15).contains(&gain), "{k:?} allocator gain {gain}");
        }
    }

    #[test]
    fn allocator_hurts_find_and_nvc_scan() {
        // Fig. 1: find −24 % (NVC-OMP); inclusive_scan −19 %.
        let nvc = CpuSim::new(mach_a(), Backend::NvcOmp);
        let find_spread = nvc.time(&run(Kernel::Find, 1 << 30, 32));
        let find_node0 =
            nvc.time(&run(Kernel::Find, 1 << 30, 32).with_placement(PagePlacement::Node0));
        assert!(
            find_node0 < find_spread,
            "first touch must hurt NVC find ({find_node0} vs {find_spread})"
        );
        let scan_spread = nvc.time(&run(Kernel::InclusiveScan, 1 << 30, 32));
        let scan_node0 =
            nvc.time(&run(Kernel::InclusiveScan, 1 << 30, 32).with_placement(PagePlacement::Node0));
        assert!(
            scan_node0 < scan_spread,
            "spread pages must hurt NVC's sequential scan"
        );
    }
}
