//! The hybrid per-row NEON/FPGA kernel (extension).
//!
//! The paper's breaking-point finding says the FPGA only pays off when the
//! row is long enough to amortize the fixed driver/command overhead — and
//! a multi-level wavelet transform *always* contains short rows: every
//! decomposition level halves the frame, so by level 3 even the paper's
//! full 88x72 frame is down to 22x18. The paper selects one engine per
//! whole transform (§VIII); this kernel pushes the decision to its natural
//! granularity and routes **each row** to whichever engine is faster for
//! its length. Long level-1 rows stream through the PL engine, short deep
//! rows run on the SIMD unit while the FPGA path would still be stuck in
//! `ioctl`.
//!
//! The result (see the `hybrid` experiment in `wavefuse-bench`) is a
//! backend that matches NEON on small frames, matches the FPGA on huge
//! ones, and beats both in between and at the paper's own 88x72.

use wavefuse_dtcwt::FilterKernel;
use wavefuse_simd::SimdKernel;
use wavefuse_zynq::FpgaKernel;

use crate::cost::{CostModel, Direction};

/// A [`FilterKernel`] that routes each row to the NEON or FPGA engine by
/// output-row length.
///
/// Time accounting: FPGA-routed rows accumulate in the wrapped
/// [`FpgaKernel`]'s cycle ledger; SIMD-routed rows push modeled NEON time
/// from the calibrated cost model onto the kernel's DMA timeline, so
/// [`HybridKernel::elapsed_seconds`] is the end of the combined PS/PL
/// timeline — SIMD rows and driver work overlap in-flight PL engine runs
/// instead of summing serially.
///
/// # Examples
///
/// ```
/// use wavefuse_core::hybrid::HybridKernel;
/// use wavefuse_dtcwt::{Dtcwt, Image};
///
/// let img = Image::from_fn(88, 72, |x, y| (x + y) as f32);
/// let t = Dtcwt::new(3)?;
/// let mut k = HybridKernel::new();
/// let pyr = t.forward_with(&mut k, &img)?;
/// assert!(k.elapsed_seconds() > 0.0);
/// assert!(k.rows_on_simd() > 0 && k.rows_on_fpga() > 0, "both engines used");
/// let back = t.inverse_with(&mut k, &pyr)?;
/// assert!(back.max_abs_diff(&img) < 1e-3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct HybridKernel {
    simd: SimdKernel,
    fpga: FpgaKernel,
    cost: CostModel,
    threshold: usize,
    rows_simd: u64,
    rows_fpga: u64,
}

impl HybridKernel {
    /// Creates a hybrid kernel with the calibrated default row threshold
    /// (the per-row breaking point implied by the cost model).
    pub fn new() -> Self {
        let cost = CostModel::calibrated();
        let threshold = cost.hybrid_row_threshold();
        HybridKernel::with_threshold(threshold)
    }

    /// Creates a hybrid kernel routing rows shorter than `threshold`
    /// output samples to the SIMD engine.
    pub fn with_threshold(threshold: usize) -> Self {
        HybridKernel {
            simd: SimdKernel::new(),
            fpga: FpgaKernel::new(),
            cost: CostModel::calibrated(),
            threshold,
            rows_simd: 0,
            rows_fpga: 0,
        }
    }

    /// The row-length routing threshold (output samples).
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Attaches a metrics registry to the wrapped FPGA kernel (and its
    /// driver model) for DMA/cycle accounting of the FPGA-routed rows.
    pub fn set_telemetry(&mut self, telemetry: std::sync::Arc<wavefuse_trace::MetricsRegistry>) {
        self.fpga.set_telemetry(telemetry);
    }

    /// Total modeled elapsed seconds since the last reset: the end of the
    /// combined PS/PL timeline. SIMD rows, driver overhead and user copies
    /// advance the PS lane while engine runs retire on the PL lane, so host
    /// compute in flight with the engine is not double-charged.
    pub fn elapsed_seconds(&self) -> f64 {
        self.fpga.dma_timeline().elapsed_seconds()
    }

    /// Seconds the PL engine spent busy since the last reset — the
    /// FPGA-routed rows' DMA/pipeline/MAC cycles on the PL clock. The
    /// power model charges its PL increment over this window; SIMD rows
    /// never touch it.
    pub fn pl_busy_seconds(&self) -> f64 {
        self.fpga.ledger().pl_busy_seconds(self.fpga.config())
    }

    /// Rows routed to the SIMD engine since the last reset.
    pub fn rows_on_simd(&self) -> u64 {
        self.rows_simd
    }

    /// Rows routed to the FPGA engine since the last reset.
    pub fn rows_on_fpga(&self) -> u64 {
        self.rows_fpga
    }

    /// Resets all accounting.
    pub fn reset(&mut self) {
        self.fpga.reset_ledger();
        self.rows_simd = 0;
        self.rows_fpga = 0;
    }
}

impl Default for HybridKernel {
    fn default() -> Self {
        HybridKernel::new()
    }
}

impl FilterKernel for HybridKernel {
    fn name(&self) -> &'static str {
        "hybrid-neon-fpga"
    }

    fn analyze_row(
        &mut self,
        ext: &[f32],
        left: usize,
        h0: &[f32],
        h1: &[f32],
        phase: usize,
        lo: &mut [f32],
        hi: &mut [f32],
    ) {
        let row_len = lo.len() * 2;
        if row_len < self.threshold {
            self.simd.analyze_row(ext, left, h0, h1, phase, lo, hi);
            let macs = lo.len() as u64 * (h0.len() + h1.len()) as u64;
            self.fpga
                .push_host_seconds(self.cost.neon_row_seconds(macs, Direction::Forward));
            self.rows_simd += 1;
        } else {
            self.fpga.analyze_row(ext, left, h0, h1, phase, lo, hi);
            self.rows_fpga += 1;
        }
    }

    fn synthesize_row(
        &mut self,
        lo_ext: &[f32],
        hi_ext: &[f32],
        left: usize,
        g0: &[f32],
        g1: &[f32],
        phase: usize,
        out: &mut [f32],
    ) {
        if out.len() < self.threshold {
            self.simd
                .synthesize_row(lo_ext, hi_ext, left, g0, g1, phase, out);
            let macs = (out.len() as u64 * (g0.len() + g1.len()) as u64).div_ceil(2);
            self.fpga
                .push_host_seconds(self.cost.neon_row_seconds(macs, Direction::Inverse));
            self.rows_simd += 1;
        } else {
            self.fpga
                .synthesize_row(lo_ext, hi_ext, left, g0, g1, phase, out);
            self.rows_fpga += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavefuse_dtcwt::{Dtcwt, Image, ScalarKernel};

    fn image(w: usize, h: usize) -> Image {
        Image::from_fn(w, h, |x, y| ((x * 3 + y * 11) % 23) as f32 * 0.4)
    }

    #[test]
    fn hybrid_matches_scalar_functionally() {
        let img = image(88, 72);
        let t = Dtcwt::new(3).unwrap();
        let p_ref = t.forward_with(&mut ScalarKernel::new(), &img).unwrap();
        let p_hyb = t.forward_with(&mut HybridKernel::new(), &img).unwrap();
        for level in 0..3 {
            for (a, b) in p_ref.subbands(level).iter().zip(p_hyb.subbands(level)) {
                assert!(a.re.max_abs_diff(&b.re) < 1e-3);
                assert!(a.im.max_abs_diff(&b.im) < 1e-3);
            }
        }
    }

    #[test]
    fn threshold_routes_by_row_length() {
        let t = Dtcwt::new(3).unwrap();
        // All rows long: everything on the FPGA.
        let mut all_fpga = HybridKernel::with_threshold(2);
        let _ = t.forward_with(&mut all_fpga, &image(64, 48)).unwrap();
        assert_eq!(all_fpga.rows_on_simd(), 0);
        assert!(all_fpga.rows_on_fpga() > 0);
        // All rows short: everything on SIMD.
        let mut all_simd = HybridKernel::with_threshold(4096);
        let _ = t.forward_with(&mut all_simd, &image(64, 48)).unwrap();
        assert_eq!(all_simd.rows_on_fpga(), 0);
        assert!(all_simd.rows_on_simd() > 0);
    }

    #[test]
    fn default_threshold_is_physically_sensible() {
        let th = CostModel::calibrated().hybrid_row_threshold();
        // The per-row breaking point sits well below the paper's 88-sample
        // level-1 rows and above trivial row lengths.
        assert!((10..80).contains(&th), "threshold {th}");
    }

    #[test]
    fn hybrid_beats_pure_fpga_at_the_paper_frame_size() {
        // At 88x72 the deep-level rows are short; routing them to SIMD must
        // strictly reduce elapsed time versus the pure FPGA backend.
        let img = image(88, 72);
        let t = Dtcwt::new(3).unwrap();
        let mut fpga = FpgaKernel::new();
        let _ = t.forward_with(&mut fpga, &img).unwrap();
        let pure = fpga.ledger().elapsed_seconds;
        let mut hybrid = HybridKernel::new();
        let _ = t.forward_with(&mut hybrid, &img).unwrap();
        let mixed = hybrid.elapsed_seconds();
        assert!(
            mixed < pure,
            "hybrid {mixed:.6} s must beat pure FPGA {pure:.6} s"
        );
        assert!(hybrid.rows_on_simd() > 0 && hybrid.rows_on_fpga() > 0);
    }

    #[test]
    fn reset_clears_accounting() {
        let img = image(32, 24);
        let t = Dtcwt::new(2).unwrap();
        let mut k = HybridKernel::new();
        let _ = t.forward_with(&mut k, &img).unwrap();
        assert!(k.elapsed_seconds() > 0.0);
        k.reset();
        assert_eq!(k.elapsed_seconds(), 0.0);
        assert_eq!(k.rows_on_simd() + k.rows_on_fpga(), 0);
    }

    #[test]
    fn analytic_hybrid_estimate_tracks_execution() {
        let model = CostModel::calibrated();
        let plan = crate::cost::TransformPlan::dtcwt(88, 72, 3).unwrap();
        let th = model.hybrid_row_threshold();
        let analytic = model.hybrid_seconds(&plan, Direction::Forward, th);
        let img = image(88, 72);
        let t = Dtcwt::new(3).unwrap();
        let mut k = HybridKernel::new();
        let _ = t.forward_with(&mut k, &img).unwrap();
        let measured = k.elapsed_seconds();
        let err = (analytic - measured).abs() / measured;
        assert!(
            err < 0.06,
            "analytic {analytic:.6} vs measured {measured:.6}"
        );
    }
}
