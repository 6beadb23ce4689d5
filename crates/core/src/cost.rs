//! The calibrated timing model for the three compute engines.
//!
//! The authors measured wall-clock time on a ZC702 board; this reproduction
//! models it. The model has one mechanistic core — an exact enumeration of
//! the row operations and multiply-accumulates a DT-CWT of a given geometry
//! performs ([`TransformPlan`]) — and a small set of calibration constants
//! ([`CostModel`]), each tied in its documentation to the paper observation
//! it was fitted against. The `paper_shape` integration test asserts the
//! emergent ratios and crossovers match the paper.
//!
//! Engine models:
//!
//! * **ARM**: `time = MACs x cycles_per_mac / 533 MHz`. The effective
//!   cycles-per-MAC is high (~22) because it stands for the authors'
//!   unoptimized C++ (loads/stores, loop and call overhead included) —
//!   their measured ≈0.85 s for the ten-frame 88x72 forward phase (two
//!   transforms per fused frame) implies it.
//! * **NEON**: Amdahl's law over the ARM time. Only the filter inner loops
//!   vectorize; the measured 10 % (forward) / 16 % (inverse) gains imply
//!   vectorizable fractions of ~13 % / ~21 % at the 4-lane ideal speedup.
//! * **FPGA**: per row, a driver/command round-trip (PS cycles) plus
//!   `max(user memcpy, DMA + II=1 pipeline)` under the paper's Fig. 5
//!   double-buffer overlap — the simulator's own [`RowCycles`], so the
//!   plan's row sums equal the simulator's ledger cycle for cycle (pinned
//!   in the tests).

use wavefuse_dtcwt::dwt1d::BankTaps;
use wavefuse_dtcwt::{Dtcwt, Dwt2d, FilterBank};
use wavefuse_zynq::{coeff_load_ps_cycles, RowCycles, ZynqConfig};

use crate::backend::Backend;
use crate::engine::PhaseTiming;
use crate::rules::{rule_macs_per_coefficient, FusionRule};

/// One aggregated batch of identical row operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowOp {
    /// Number of identical rows in this batch.
    pub count: u64,
    /// Samples entering the engine (extended row or combined channels).
    pub words_in: usize,
    /// Samples leaving the engine.
    pub words_out: usize,
    /// Pipeline iterations (decimated outputs for analysis, full-rate
    /// outputs for synthesis).
    pub iterations: usize,
    /// MACs per row in the software implementation.
    pub macs: u64,
}

impl RowOp {
    /// The FPGA cost of one row of this batch in direction `dir`.
    pub fn row_cycles(&self, dir: Direction, cfg: &ZynqConfig) -> RowCycles {
        RowCycles::of(self.words_in, self.words_out, self.iterations, dir, cfg)
    }
}

/// Exact work enumeration of one DT-CWT (forward + inverse) on one frame.
///
/// # Examples
///
/// ```
/// use wavefuse_core::cost::TransformPlan;
///
/// let plan = TransformPlan::dtcwt(88, 72, 3)?;
/// assert!(plan.forward_macs() > 500_000); // four trees, three levels
/// assert_eq!(plan.forward_macs(), plan.inverse_macs());
/// # Ok::<(), wavefuse_dtcwt::DtcwtError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransformPlan {
    width: usize,
    height: usize,
    levels: usize,
    forward_ops: Vec<RowOp>,
    inverse_ops: Vec<RowOp>,
    detail_coefficients: u64,
    lowpass_samples: u64,
    /// Approximate engine coefficient reloads per direction (bank switches
    /// between level-1/q-shift and tree A/B filters).
    coeff_loads: u64,
}

impl TransformPlan {
    /// Builds the plan for the standard DT-CWT (near-sym-b level 1,
    /// qshift-b beyond) at the given geometry.
    ///
    /// # Errors
    ///
    /// Propagates filter-bank construction errors and
    /// [`wavefuse_dtcwt::DtcwtError::BadLevels`] for unsupported depths.
    pub fn dtcwt(
        width: usize,
        height: usize,
        levels: usize,
    ) -> Result<Self, wavefuse_dtcwt::DtcwtError> {
        let max = Dwt2d::max_levels(width, height);
        if levels == 0 || levels > max {
            return Err(wavefuse_dtcwt::DtcwtError::BadLevels {
                requested: levels,
                max_supported: max,
            });
        }
        let level1 = BankTaps::new(&FilterBank::near_sym_b()?);
        let qshift = BankTaps::new(&FilterBank::qshift_b()?);

        let mut forward_ops = Vec::new();
        let mut inverse_ops = Vec::new();
        let mut detail_coefficients = 0u64;

        // All four tree combinations perform identical-shape work (tree B
        // banks are time reversals, same lengths), so enumerate one and
        // scale counts by 4.
        let (mut w, mut h) = (width, height);
        for level in 0..levels {
            w += w % 2;
            h += h % 2;
            let taps = if level == 0 { &level1 } else { &qshift };
            let aleft = taps.h0.len().max(taps.h1.len());
            let sleft = taps.g0.len().max(taps.g1.len()) / 2 + 5;
            let analysis_macs_per_out = (taps.h0.len() + taps.h1.len()) as u64;
            let synthesis_macs_per_out = ((taps.g0.len() + taps.g1.len()) as u64).div_ceil(2);

            // Row pass: h rows of width w; column pass: 2 images of w/2
            // transposed rows of length h.
            for (rows, len) in [(h as u64, w), (2 * (w / 2) as u64, h)] {
                forward_ops.push(RowOp {
                    count: 4 * rows,
                    words_in: len + 2 * aleft,
                    words_out: len, // interleaved lo+hi
                    iterations: len / 2,
                    macs: (len as u64 / 2) * analysis_macs_per_out,
                });
                inverse_ops.push(RowOp {
                    count: 4 * rows,
                    words_in: 2 * (len / 2 + sleft),
                    words_out: len,
                    iterations: len,
                    macs: len as u64 * synthesis_macs_per_out,
                });
            }
            detail_coefficients += 6 * (w as u64 / 2) * (h as u64 / 2);
            w /= 2;
            h /= 2;
        }

        Ok(TransformPlan {
            width,
            height,
            levels,
            forward_ops,
            inverse_ops,
            detail_coefficients,
            lowpass_samples: 4 * (w as u64) * (h as u64),
            // One level-1 load plus up to two q-shift loads (fwd/rev) per
            // combination and direction.
            coeff_loads: 4 * (1 + 2 * (levels as u64 - 1).min(2)),
        })
    }

    /// Frame geometry `(width, height)`.
    pub fn frame_dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Decomposition depth.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Total forward-transform MACs (all four trees).
    pub fn forward_macs(&self) -> u64 {
        self.forward_ops.iter().map(|op| op.count * op.macs).sum()
    }

    /// Total inverse-transform MACs.
    pub fn inverse_macs(&self) -> u64 {
        self.inverse_ops.iter().map(|op| op.count * op.macs).sum()
    }

    /// Complex detail coefficients per frame (all levels, six orientations).
    pub fn detail_coefficients(&self) -> u64 {
        self.detail_coefficients
    }

    /// Lowpass residual samples per frame (all four trees).
    pub fn lowpass_samples(&self) -> u64 {
        self.lowpass_samples
    }

    /// Engine row invocations per forward transform.
    pub fn forward_calls(&self) -> u64 {
        self.forward_ops.iter().map(|op| op.count).sum()
    }

    /// Engine row invocations per inverse transform.
    pub fn inverse_calls(&self) -> u64 {
        self.inverse_ops.iter().map(|op| op.count).sum()
    }

    /// Row-operation batches of the forward transform.
    pub fn forward_ops(&self) -> &[RowOp] {
        &self.forward_ops
    }

    /// Row-operation batches of the inverse transform.
    pub fn inverse_ops(&self) -> &[RowOp] {
        &self.inverse_ops
    }
}

pub use wavefuse_zynq::Direction;

/// The calibrated cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// PS clock (533 MHz, as in the paper).
    pub ps_clk_hz: f64,
    /// Effective PS cycles per software MAC in the authors' C++
    /// implementation. The forward phase of one fused frame runs *two*
    /// transforms (both inputs); calibrated so the ten-frame 88x72 forward
    /// phase takes ≈0.85 s on the ARM (Fig. 9a's top curve).
    pub arm_cycles_per_mac: f64,
    /// The inverse transform's per-MAC cost relative to the forward's
    /// (≈1.5): the inverse phase runs only one transform per fused frame
    /// yet Fig. 9c shows ≈0.75x the forward phase's time, implying the
    /// authors' synthesis loop is slower per MAC (scattered polyphase
    /// addressing).
    pub arm_inverse_mac_factor: f64,
    /// Fraction of forward-transform time that the NEON engine vectorizes
    /// at the ideal 4-lane speedup. 0.133 reproduces the paper's measured
    /// 10 % forward enhancement via Amdahl's law.
    pub neon_vectorizable_forward: f64,
    /// Same for the inverse; 0.213 reproduces the paper's 16 %.
    pub neon_vectorizable_inverse: f64,
    /// Per-frame capture-side cost (sensor read-out handling, color
    /// conversion, scaling to the working geometry) in PS cycles per
    /// pixel. Split out from the residual overhead so the capture/scale
    /// phase can be timed and energy-accounted on its own.
    pub capture_cycles_per_pixel: f64,
    /// Per-frame residual non-transform overhead (display hand-off,
    /// bookkeeping, buffer management) in PS cycles per pixel.
    pub frame_overhead_cycles_per_pixel: f64,
    /// Platform constants shared with the cycle-level simulator.
    pub zynq: ZynqConfig,
}

impl CostModel {
    /// The default model, calibrated to the paper (see field docs).
    pub fn calibrated() -> Self {
        CostModel {
            ps_clk_hz: 533_000_000.0,
            arm_cycles_per_mac: 22.0,
            arm_inverse_mac_factor: 1.5,
            neon_vectorizable_forward: 0.133,
            neon_vectorizable_inverse: 0.213,
            // Together these reproduce the original 1000 cycles/pixel
            // combined overhead (fits the 1.75 s Fig. 9b gap); the 60/40
            // split matches the paper's profile breakdown where capture
            // and colour conversion dominate the non-transform time.
            capture_cycles_per_pixel: 600.0,
            frame_overhead_cycles_per_pixel: 400.0,
            zynq: ZynqConfig::default(),
        }
    }

    /// Seconds for one forward transform on the plain ARM.
    pub fn arm_seconds(&self, plan: &TransformPlan, dir: Direction) -> f64 {
        let (macs, factor) = match dir {
            Direction::Forward => (plan.forward_macs(), 1.0),
            Direction::Inverse => (plan.inverse_macs(), self.arm_inverse_mac_factor),
        };
        macs as f64 * self.arm_cycles_per_mac * factor / self.ps_clk_hz
    }

    /// Seconds for one transform on ARM+NEON (Amdahl over the ARM time).
    pub fn neon_seconds(&self, plan: &TransformPlan, dir: Direction) -> f64 {
        let f = match dir {
            Direction::Forward => self.neon_vectorizable_forward,
            Direction::Inverse => self.neon_vectorizable_inverse,
        };
        self.arm_seconds(plan, dir) * (1.0 - f + f / wavefuse_simd::LANES as f64)
    }

    /// Seconds for one transform on the FPGA path (analytic; the simulator's
    /// ledger is the ground truth this is validated against).
    pub fn fpga_seconds(&self, plan: &TransformPlan, dir: Direction) -> f64 {
        let ops = match dir {
            Direction::Forward => &plan.forward_ops,
            Direction::Inverse => &plan.inverse_ops,
        };
        let mut total = 0.0f64;
        for op in ops.iter() {
            total += op.count as f64 * self.fpga_row_seconds(op, dir);
        }
        total + self.coeff_load_seconds(plan)
    }

    /// Seconds of the plan's coefficient reloads, serial on the PS.
    fn coeff_load_seconds(&self, plan: &TransformPlan) -> f64 {
        plan.coeff_loads as f64 * coeff_load_ps_cycles(&self.zynq) as f64 / self.zynq.ps_clk_hz
    }

    /// Seconds to apply a fusion rule to one frame's coefficients (always
    /// on the PS, as in the paper — only the transforms are offloaded).
    pub fn fusion_seconds(&self, plan: &TransformPlan, rule: FusionRule) -> f64 {
        let detail = plan.detail_coefficients() * rule_macs_per_coefficient(rule);
        let lowpass = plan.lowpass_samples() * 2;
        (detail + lowpass) as f64 * self.arm_cycles_per_mac / self.ps_clk_hz
    }

    /// Per-frame capture/scale phase, seconds (sensor hand-off, color
    /// conversion, geometry scaling — before the transforms start).
    pub fn capture_seconds(&self, plan: &TransformPlan) -> f64 {
        let (w, h) = plan.frame_dims();
        (w * h) as f64 * self.capture_cycles_per_pixel / self.ps_clk_hz
    }

    /// Per-frame residual overhead, seconds (display hand-off and
    /// bookkeeping not attributable to capture or the transform phases).
    pub fn frame_overhead_seconds(&self, plan: &TransformPlan) -> f64 {
        let (w, h) = plan.frame_dims();
        (w * h) as f64 * self.frame_overhead_cycles_per_pixel / self.ps_clk_hz
    }

    /// Modeled FPGA seconds for one row operation (driver overhead plus
    /// the overlapped copy/engine critical path).
    pub fn fpga_row_seconds(&self, op: &RowOp, dir: Direction) -> f64 {
        op.row_cycles(dir, &self.zynq).serial_seconds(&self.zynq)
    }

    /// Modeled per-phase time for one fused frame of a plan on a backend
    /// (two forward transforms, fusion, one inverse, capture and frame
    /// overhead), *without* executing the transforms. This is the only
    /// per-backend cost prediction: the engine records its
    /// [`PhaseTiming::total_seconds`] as each frame's `predicted_s`, and
    /// [`crate::adaptive::decide`] ranks backends by the same sum. For the
    /// FPGA it is the validated analytic approximation of the simulator.
    pub fn predict(&self, plan: &TransformPlan, rule: FusionRule, backend: Backend) -> PhaseTiming {
        let (fwd, inv) = match backend {
            Backend::Arm => (
                self.arm_seconds(plan, Direction::Forward),
                self.arm_seconds(plan, Direction::Inverse),
            ),
            Backend::Neon => (
                self.neon_seconds(plan, Direction::Forward),
                self.neon_seconds(plan, Direction::Inverse),
            ),
            Backend::Fpga => (
                self.fpga_seconds(plan, Direction::Forward),
                self.fpga_seconds(plan, Direction::Inverse),
            ),
        };
        PhaseTiming {
            capture_s: self.capture_seconds(plan),
            forward_s: 2.0 * fwd,
            fusion_s: self.fusion_seconds(plan, rule),
            inverse_s: inv,
            overhead_s: self.frame_overhead_seconds(plan),
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::calibrated()
    }
}

/// Convenience: builds the standard transform used throughout the
/// evaluation (the same banks the plan assumes).
///
/// # Errors
///
/// Propagates construction errors for invalid depths.
pub fn standard_dtcwt(levels: usize) -> Result<Dtcwt, wavefuse_dtcwt::DtcwtError> {
    Dtcwt::new(levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavefuse_dtcwt::Image;
    use wavefuse_zynq::{CycleLedger, FpgaKernel};

    #[test]
    fn plan_scales_with_area() {
        let small = TransformPlan::dtcwt(32, 24, 3).unwrap();
        let large = TransformPlan::dtcwt(88, 72, 3).unwrap();
        let ratio = large.forward_macs() as f64 / small.forward_macs() as f64;
        let area_ratio = (88.0 * 72.0) / (32.0 * 24.0);
        assert!(
            (ratio / area_ratio - 1.0).abs() < 0.2,
            "MACs should track area: {ratio} vs {area_ratio}"
        );
    }

    #[test]
    fn plan_rejects_bad_levels() {
        assert!(TransformPlan::dtcwt(8, 8, 0).is_err());
        assert!(TransformPlan::dtcwt(8, 8, 9).is_err());
    }

    #[test]
    fn arm_anchors_match_paper() {
        // Ten fused 88x72 frames = 20 forward transforms: Fig. 9a shows
        // ≈0.85 s; the inverse phase (10 transforms) shows ≈0.65 s (Fig 9c).
        let m = CostModel::calibrated();
        let plan = TransformPlan::dtcwt(88, 72, 3).unwrap();
        let fwd10 = 20.0 * m.arm_seconds(&plan, Direction::Forward);
        assert!(
            (0.6..1.1).contains(&fwd10),
            "10-frame ARM forward {fwd10} s"
        );
        let inv10 = 10.0 * m.arm_seconds(&plan, Direction::Inverse);
        assert!(
            (0.45..0.9).contains(&inv10),
            "10-frame ARM inverse {inv10} s"
        );
    }

    #[test]
    fn neon_gains_match_paper() {
        let m = CostModel::calibrated();
        let plan = TransformPlan::dtcwt(88, 72, 3).unwrap();
        let fwd_gain = 1.0
            - m.neon_seconds(&plan, Direction::Forward) / m.arm_seconds(&plan, Direction::Forward);
        let inv_gain = 1.0
            - m.neon_seconds(&plan, Direction::Inverse) / m.arm_seconds(&plan, Direction::Inverse);
        assert!((fwd_gain - 0.10).abs() < 0.01, "forward gain {fwd_gain}");
        assert!((inv_gain - 0.16).abs() < 0.01, "inverse gain {inv_gain}");
    }

    #[test]
    fn analytic_fpga_time_tracks_simulator_ledger() {
        // The plan and the cycle-level simulator charge every row through
        // the same `RowCycles`, so a fresh kernel's ledger must equal the
        // plan's row sums exactly, in both directions. The one residual is
        // the plan's fixed coefficient-load count, which differs from the
        // loads a fresh kernel performs (1/10/14/18 at depths 1-4 against
        // the plan's 4/12/20/20). It moves the seconds by at most 0.62 %
        // (8x8, depth 3, forward), so they must agree within 1 %. An 8x8
        // frame supports only three levels.
        let m = CostModel::calibrated();
        let cfg = &m.zynq;
        for (w, h) in [(8, 8), (32, 24), (41, 41), (64, 48), (90, 62)] {
            let img = Image::from_fn(w, h, |x, y| ((x + y) % 9) as f32);
            for levels in (1..=4).filter(|&l| l <= Dwt2d::max_levels(w, h)) {
                let plan = TransformPlan::dtcwt(w, h, levels).unwrap();
                let t = standard_dtcwt(levels).unwrap();
                let pyr = t.forward(&img).unwrap();
                for dir in [Direction::Forward, Direction::Inverse] {
                    let tag = format!("{w}x{h} L{levels} {dir:?}");
                    let mut fpga = FpgaKernel::new();
                    let ops = match dir {
                        Direction::Forward => {
                            t.forward_with(&mut fpga, &img).unwrap();
                            plan.forward_ops()
                        }
                        Direction::Inverse => {
                            t.inverse_with(&mut fpga, &pyr).unwrap();
                            plan.inverse_ops()
                        }
                    };
                    let mut want = CycleLedger::new();
                    for op in ops {
                        let row = op.row_cycles(dir, cfg);
                        want.engine_calls += op.count;
                        want.ps_overhead_cycles += op.count * row.ps_cycles;
                        want.ps_copy_cycles += op.count * row.copy_cycles;
                        want.pl_cycles += op.count * row.pl_cycles();
                    }
                    let got = fpga.ledger();
                    assert_eq!(got.engine_calls, want.engine_calls, "{tag}");
                    assert_eq!(got.pl_cycles, want.pl_cycles, "{tag}");
                    assert_eq!(got.ps_copy_cycles, want.ps_copy_cycles, "{tag}");
                    assert_eq!(
                        got.ps_overhead_cycles,
                        want.ps_overhead_cycles + got.coeff_loads * coeff_load_ps_cycles(cfg),
                        "{tag}"
                    );
                    let analytic = m.fpga_seconds(&plan, dir);
                    let measured = got.elapsed_seconds;
                    let err = (analytic - measured).abs() / measured;
                    assert!(
                        err < 0.01,
                        "{tag}: analytic {analytic:.6} vs ledger {measured:.6} ({:.2} %)",
                        err * 100.0
                    );
                }
            }
        }
    }

    #[test]
    fn fpga_per_call_overhead_dominates_small_frames() {
        let m = CostModel::calibrated();
        let plan = TransformPlan::dtcwt(32, 24, 3).unwrap();
        let t = m.fpga_seconds(&plan, Direction::Forward);
        let overhead = plan.forward_calls() as f64 * m.zynq.call_overhead_ps_cycles_forward as f64
            / m.zynq.ps_clk_hz;
        assert!(overhead / t > 0.7, "overhead fraction {:.2}", overhead / t);
    }

    #[test]
    fn fusion_cost_scales_with_rule_window() {
        let m = CostModel::calibrated();
        let plan = TransformPlan::dtcwt(64, 48, 3).unwrap();
        let cheap = m.fusion_seconds(&plan, FusionRule::MaxMagnitude);
        let rich = m.fusion_seconds(&plan, FusionRule::WindowEnergy { radius: 2 });
        assert!(rich > 3.0 * cheap);
    }

    #[test]
    fn capture_and_overhead_split_preserves_combined_cost() {
        // The capture/overhead split must keep the original 1000
        // cycles/pixel combined non-transform cost that the Fig. 9b
        // calibration pinned.
        let m = CostModel::calibrated();
        let plan = TransformPlan::dtcwt(88, 72, 3).unwrap();
        let combined = m.capture_seconds(&plan) + m.frame_overhead_seconds(&plan);
        let want = (88.0 * 72.0) * 1000.0 / m.ps_clk_hz;
        assert!((combined - want).abs() < 1e-12);
        assert!(m.capture_seconds(&plan) > m.frame_overhead_seconds(&plan));
    }

    #[test]
    fn forward_and_inverse_macs_are_symmetric() {
        let plan = TransformPlan::dtcwt(40, 40, 3).unwrap();
        assert_eq!(plan.forward_macs(), plan.inverse_macs());
        assert_eq!(plan.forward_calls(), plan.inverse_calls());
    }
}
