//! Measured kernel-throughput calibration for [`crate::exec::CpuSim`].
//!
//! The backend models fit their *vectorization* effect to the paper's
//! compiler analysis (`vectorizes_reduce`, a theoretical 256-bit lane
//! count). This repository also has a real kernel layer
//! (`pstl::kernel`) whose dispatched entry points and scalar oracles
//! can be *measured* on the host — `suite kernel_calibrate` does
//! exactly that and writes
//! `results/BENCH_kernels.json`. A [`KernelCalibration`] carries those
//! measured per-element times into the simulator, replacing the
//! theoretical lane speedup with the observed one so model and reality
//! stay linked (ISSUE 7's calibration loop).
//!
//! The calibration is deliberately *optional*: every existing model
//! path is untouched when none is attached, so the paper-band tests
//! keep their fitted constants.

use serde::Serialize;

use crate::kernels::DType;

/// Measured per-element kernel times, in nanoseconds per element, on
/// the machine the calibration ran on: each `*_scalar_ns` field times a
/// baseline-compiled `*_scalar` oracle, and each `*_wide_ns` field the
/// dispatched entry point on the same input.
///
/// Reduce and find are measured on *two* element types each (the
/// vectorization gain depends on lane width: 4 f64 lanes vs. 8 u32
/// lanes per 256-bit vector), so the simulator can pick the row that
/// matches [`crate::exec::RunParams::dtype`] instead of applying the
/// f64 number to everything.
///
/// `*_speedup()` accessors return the dispatched entry point's measured
/// speedup (scalar / wide; values below 1.0 mean it lost) and are
/// what [`crate::exec::CpuSim`] consumes.
#[derive(Debug, Clone, Serialize)]
pub struct KernelCalibration {
    /// Scalar reduce (sum of f64), ns per element.
    pub reduce_scalar_ns: f64,
    /// Dispatched reduce (`fold_map`, tree body), ns per element.
    pub reduce_wide_ns: f64,
    /// Scalar reduce on u32 (the 4-byte integer row), ns per element.
    pub reduce_scalar_ns_u32: f64,
    /// Dispatched reduce on u32 (`fold_map`, left fold), ns per element.
    pub reduce_wide_ns_u32: f64,
    /// Scalar short-circuit find on u32 (matchless scan), ns per element.
    pub find_scalar_ns: f64,
    /// Dispatched masked-block find on u32, ns per element.
    pub find_wide_ns: f64,
    /// Scalar short-circuit find on f64, ns per element.
    pub find_scalar_ns_f64: f64,
    /// Dispatched masked-block find on f64, ns per element.
    pub find_wide_ns_f64: f64,
    /// Scalar scan phase-1 fold, ns per element.
    pub scan_scalar_ns: f64,
    /// Dispatched scan phase-1 fold (`fold_range`), ns per element.
    pub scan_wide_ns: f64,
}

impl KernelCalibration {
    /// Measured dispatched-over-scalar speedup of the reduce kernel (f64
    /// row).
    pub fn reduce_speedup(&self) -> f64 {
        ratio(self.reduce_scalar_ns, self.reduce_wide_ns)
    }

    /// Measured dispatched-over-scalar speedup of the find kernel (u32
    /// row).
    pub fn find_speedup(&self) -> f64 {
        ratio(self.find_scalar_ns, self.find_wide_ns)
    }

    /// Reduce speedup for the row matching `dtype`: f64 uses the f64
    /// measurement, the 4-byte types (f32/i32) use the u32 row — same
    /// lane count per 256-bit vector, which is what sets the ceiling.
    pub fn reduce_speedup_for(&self, dtype: DType) -> f64 {
        match dtype {
            DType::F64 => self.reduce_speedup(),
            DType::F32 | DType::I32 => ratio(self.reduce_scalar_ns_u32, self.reduce_wide_ns_u32),
        }
    }

    /// Find speedup for the row matching `dtype` (see
    /// [`Self::reduce_speedup_for`] for the 4-byte mapping).
    pub fn find_speedup_for(&self, dtype: DType) -> f64 {
        match dtype {
            DType::F64 => ratio(self.find_scalar_ns_f64, self.find_wide_ns_f64),
            DType::F32 | DType::I32 => self.find_speedup(),
        }
    }

    /// Measured dispatched-over-scalar speedup of the scan fold pass.
    pub fn scan_speedup(&self) -> f64 {
        ratio(self.scan_scalar_ns, self.scan_wide_ns)
    }
}

/// `a / b` guarded against a degenerate (zero/negative/NaN) measurement:
/// a calibration that did not measure cleanly must not distort the
/// model, so the neutral speedup is 1.
fn ratio(a: f64, b: f64) -> f64 {
    if a.is_finite() && b.is_finite() && a > 0.0 && b > 0.0 {
        a / b
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> KernelCalibration {
        KernelCalibration {
            reduce_scalar_ns: 1.0,
            reduce_wide_ns: 0.4,
            reduce_scalar_ns_u32: 0.8,
            reduce_wide_ns_u32: 0.2,
            find_scalar_ns: 0.8,
            find_wide_ns: 0.5,
            find_scalar_ns_f64: 0.9,
            find_wide_ns_f64: 0.75,
            scan_scalar_ns: 1.0,
            scan_wide_ns: 0.5,
        }
    }

    #[test]
    fn speedups_are_scalar_over_wide() {
        let c = cal();
        assert!((c.reduce_speedup() - 2.5).abs() < 1e-12);
        assert!((c.find_speedup() - 1.6).abs() < 1e-12);
        assert!((c.scan_speedup() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dtype_rows_are_selected_by_lane_width() {
        let c = cal();
        // f64 rows.
        assert!((c.reduce_speedup_for(DType::F64) - 2.5).abs() < 1e-12);
        assert!((c.find_speedup_for(DType::F64) - 1.2).abs() < 1e-12);
        // 4-byte rows (shared by f32 and i32): twice the lanes.
        for d in [DType::F32, DType::I32] {
            assert!((c.reduce_speedup_for(d) - 4.0).abs() < 1e-12);
            assert!((c.find_speedup_for(d) - 1.6).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_measurements_are_neutral() {
        let mut c = cal();
        c.reduce_wide_ns = 0.0;
        assert_eq!(c.reduce_speedup(), 1.0);
        c.find_scalar_ns = f64::NAN;
        assert_eq!(c.find_speedup(), 1.0);
        c.reduce_wide_ns_u32 = -1.0;
        assert_eq!(c.reduce_speedup_for(DType::I32), 1.0);
    }
}
