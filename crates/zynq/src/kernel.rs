//! [`FpgaKernel`]: the FPGA compute backend.
//!
//! Implements [`wavefuse_dtcwt::FilterKernel`] by routing every row through
//! the driver + engine pair, with the paper's execution structure:
//!
//! 1. per-row `ioctl`/command round-trip into the kernel driver (the
//!    dominant fixed cost that makes small frames lose to NEON);
//! 2. user-space `memcpy` of the row into the active ping-pong area;
//! 3. hardware `memcpy` over the ACP into BRAM, the II=1 MAC pipeline, and
//!    the result burst back — all clocked at 100 MHz;
//! 4. user-space `memcpy` of the results out.
//!
//! Per Fig. 5, step 2 of row *n+1* overlaps steps 3 of row *n*; the ledger's
//! elapsed time therefore charges `max(copy, engine)` per row plus the fixed
//! overheads ([`RowCycles::serial_seconds`]).
//!
//! The simulation does less host work than it charges. A row is copied
//! into the DMA area once; the engine then writes its results straight
//! into the caller's buffers, which is step 4, charged through
//! [`WaveletDriver::charge_copy_to_user`](crate::driver::WaveletDriver::charge_copy_to_user).
//! The vertical pass of a 2-D level has its own
//! [`FilterKernel::analyze_cols`]/[`FilterKernel::synthesize_cols`]: the
//! engine filters every column at once, lane-parallel across adjacent
//! columns and with no transposes, and the kernel charges each column as
//! one row call, in column order. The outputs, the ledger, the overlap
//! timeline and the driver counters are those of staging the columns
//! through the row path, bit for bit. Likewise, the level-1 rows the
//! DT-CWT computes once for the two combos of a row tree are charged a
//! second time ([`FilterKernel::charge_shared_rows`]), as the paper's PS
//! runs them for each combo.

use std::sync::Arc;

use crate::bus::{EngineMode, EngineReg};
use crate::config::ZynqConfig;
use crate::driver::{IoctlRequest, WaveletDriver};
use crate::engine::{EngineRun, WaveletEngine};
use crate::ledger::{CycleLedger, Direction, RowCycles};
use crate::ZynqError;
use wavefuse_dtcwt::dwt1d::{BankTaps, Phase};
use wavefuse_dtcwt::scratch::{ColScratch, Scratch1d};
use wavefuse_dtcwt::{DtcwtError, FilterKernel, Image};
use wavefuse_trace::MetricsRegistry;

/// Double-buffered DMA timeline: the asynchronous overlap model.
///
/// The serial ledger charges every row `overhead + max(copy, engine)` — the
/// PS is assumed to block on each engine run. The ACP engine does not
/// require that: with two ping-pong DMA buffers the PS can issue the next
/// row's driver work and copy while the PL engine still owns the previous
/// row, bounded only by which buffer frees first. This struct tracks that
/// schedule: a PS timeline advancing serially through overheads and user
/// copies, and per-buffer PL completion times; elapsed time is the longer
/// of the two timelines.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DmaTimeline {
    ps_s: f64,
    buf_free: [f64; 2],
    next: usize,
    pl_done: f64,
}

impl DmaTimeline {
    /// Advances the PS timeline by `s` seconds of host-side work.
    pub fn push_ps(&mut self, s: f64) {
        self.ps_s += s;
    }

    /// Accounts one row: the driver overhead and user copy run serially on
    /// the PS; the engine run is then dispatched onto whichever ping-pong
    /// buffer frees first, no earlier than the PS finished feeding it.
    pub fn push_row(&mut self, overhead_s: f64, copy_s: f64, engine_s: f64) {
        self.ps_s += overhead_s + copy_s;
        let start = self.ps_s.max(self.buf_free[self.next]);
        let done = start + engine_s;
        self.buf_free[self.next] = done;
        self.next ^= 1;
        self.pl_done = self.pl_done.max(done);
    }

    /// End of the combined timeline: when both the PS and the last PL run
    /// have retired.
    pub fn elapsed_seconds(&self) -> f64 {
        self.ps_s.max(self.pl_done)
    }

    /// Position of the PS timeline alone.
    pub fn ps_seconds(&self) -> f64 {
        self.ps_s
    }

    /// When the last dispatched PL run retires.
    pub fn pl_done_seconds(&self) -> f64 {
        self.pl_done
    }
}

/// The FPGA-backed filter kernel with cycle accounting.
///
/// See the crate-level example for end-to-end use. Construction is cheap;
/// reuse one instance across a whole transform so coefficient loads are
/// cached the way the real engine's registers are.
#[derive(Debug, Clone)]
pub struct FpgaKernel {
    cfg: ZynqConfig,
    engine: WaveletEngine,
    driver: WaveletDriver,
    ledger: CycleLedger,
    telemetry: Option<Arc<MetricsRegistry>>,
    /// The overlapped schedule, tracked alongside the ledger's serial
    /// accounting.
    overlap: DmaTimeline,
}

impl Default for FpgaKernel {
    fn default() -> Self {
        FpgaKernel::new()
    }
}

impl FpgaKernel {
    /// Creates a kernel on the default calibrated platform.
    pub fn new() -> Self {
        FpgaKernel::with_config(ZynqConfig::default())
    }

    /// Creates a kernel on a custom platform configuration.
    pub fn with_config(cfg: ZynqConfig) -> Self {
        FpgaKernel {
            engine: WaveletEngine::new(cfg.clone()),
            driver: WaveletDriver::open(cfg.clone()),
            ledger: CycleLedger::new(),
            cfg,
            telemetry: None,
            overlap: DmaTimeline::default(),
        }
    }

    /// The overlapped schedule the two ping-pong DMA buffers allow. The
    /// ledger keeps charging the paper's serial Fig. 5 schedule; this
    /// timeline is the same rows with the PS free to run ahead of the PL
    /// by one buffer.
    pub fn dma_timeline(&self) -> &DmaTimeline {
        &self.overlap
    }

    /// Attaches a metrics registry (propagated to the driver model):
    /// engine calls, DMA word volume and PS/PL cycles feed counters.
    pub fn set_telemetry(&mut self, telemetry: Arc<MetricsRegistry>) {
        telemetry.describe(
            "wavefuse_fpga_engine_calls_total",
            "Row passes executed by the PL wavelet engine",
        );
        telemetry.describe(
            "wavefuse_fpga_dma_words_total",
            "Words moved over the ACP by the engine's hardware memcpy",
        );
        telemetry.describe(
            "wavefuse_fpga_pl_cycles_total",
            "PL cycles spent in ACP bursts and the MAC pipeline",
        );
        telemetry.describe(
            "wavefuse_fpga_ps_cycles_total",
            "PS cycles spent in driver overhead and user copies",
        );
        telemetry.describe(
            "wavefuse_fpga_coeff_loads_total",
            "Filter-coefficient bank loads into the engine",
        );
        self.driver.set_telemetry(Arc::clone(&telemetry));
        self.telemetry = Some(telemetry);
    }

    /// The platform configuration.
    pub fn config(&self) -> &ZynqConfig {
        &self.cfg
    }

    /// Accumulated cycle/time accounting.
    pub fn ledger(&self) -> &CycleLedger {
        &self.ledger
    }

    /// Resets the accounting to zero (e.g. between benchmark phases),
    /// including the overlap timeline.
    pub fn reset_ledger(&mut self) {
        self.ledger.reset();
        self.overlap = DmaTimeline::default();
    }

    /// The underlying engine (for inspection).
    pub fn engine(&self) -> &WaveletEngine {
        &self.engine
    }

    /// The underlying driver (for inspection).
    pub fn driver(&self) -> &WaveletDriver {
        &self.driver
    }

    /// Charges one row to the ledger and the overlap timeline. The PL half
    /// is the engine's report; the PS half is what the simulated register
    /// writes and driver copies charged.
    fn charge_row(&mut self, row: &RowCycles) {
        self.ledger.charge_row(row, &self.cfg);
        self.overlap.push_row(
            row.ps_cycles as f64 * self.cfg.ps_period(),
            row.copy_cycles as f64 * self.cfg.ps_period(),
            row.pl_cycles() as f64 * self.cfg.pl_period(),
        );
        if let Some(m) = &self.telemetry {
            m.counter_add("wavefuse_fpga_engine_calls_total", &[], 1.0);
            m.counter_add("wavefuse_fpga_pl_cycles_total", &[], row.pl_cycles() as f64);
            m.counter_add(
                "wavefuse_fpga_ps_cycles_total",
                &[],
                (row.ps_cycles + row.copy_cycles) as f64,
            );
        }
    }

    /// Charges one coefficient load of `ps` PS cycles, serial on the PS.
    fn charge_coeff_load(&mut self, ps: u64) {
        self.ledger.coeff_loads += 1;
        self.ledger.ps_overhead_cycles += ps;
        self.ledger.elapsed_seconds += ps as f64 * self.cfg.ps_period();
        self.overlap.push_ps(ps as f64 * self.cfg.ps_period());
        if let Some(m) = &self.telemetry {
            m.counter_add("wavefuse_fpga_coeff_loads_total", &[], 1.0);
        }
    }

    fn command_sequence(&mut self, mode: EngineMode, width: usize, phase: usize) -> u64 {
        // The handful of AXI4-Lite pokes that arm one transform.
        let regs = self.engine.registers_mut();
        let mut ps = 0;
        ps += regs.write(EngineReg::Mode, mode.encode(), &self.cfg);
        ps += regs.write(EngineReg::Width, width as u32, &self.cfg);
        ps += regs.write(EngineReg::PhaseSel, phase as u32, &self.cfg);
        ps += regs.write(EngineReg::InOffset, 0, &self.cfg);
        ps += regs.write(EngineReg::OutOffset, 0, &self.cfg);
        ps += regs.write(EngineReg::Control, 1, &self.cfg);
        ps
    }

    /// Loads the analysis pair unless it is already in the registers.
    fn ensure_analysis_filters(&mut self, h0: &[f32], h1: &[f32]) -> Result<(), ZynqError> {
        if !self.engine.analysis_filters_match(h0, h1) {
            let ps = self.engine.load_analysis_filters(h0, h1)?;
            self.charge_coeff_load(ps);
        }
        Ok(())
    }

    /// Loads the synthesis pair unless it is already in the registers.
    fn ensure_synthesis_filters(&mut self, g0: &[f32], g1: &[f32]) -> Result<(), ZynqError> {
        if !self.engine.synthesis_filters_match(g0, g1) {
            let ps = self.engine.load_synthesis_filters(g0, g1)?;
            self.charge_coeff_load(ps);
        }
        Ok(())
    }

    /// Opens one row call: the driver round trip for `dir`, the command
    /// pokes and the two offset `ioctl`s. Returns the call's PS overhead.
    fn open_call(&mut self, dir: Direction, width: usize, phase: usize) -> Result<u64, ZynqError> {
        let mode = match dir {
            Direction::Forward => EngineMode::Forward,
            Direction::Inverse => EngineMode::Inverse,
        };
        let overhead = RowCycles::call_overhead_ps_cycles(dir, &self.cfg)
            + self.command_sequence(mode, width, phase);
        self.driver.ioctl(IoctlRequest::SetReadOffset(0))?;
        self.driver.ioctl(IoctlRequest::SetWriteOffset(0))?;
        Ok(overhead)
    }

    /// Closes one row call: the one copy-out of its results, the ACP
    /// words, the ping-pong swap and the row's charge.
    fn close_call(
        &mut self,
        overhead: u64,
        copy_in_ps: u64,
        run: &EngineRun,
        dir: Direction,
    ) -> Result<(), ZynqError> {
        let copy_ps = copy_in_ps + self.driver.charge_copy_to_user(run.words_out);
        let direction = match dir {
            Direction::Forward => "forward",
            Direction::Inverse => "inverse",
        };
        self.ledger.dma_words += (run.words_in + run.words_out) as u64;
        if let Some(m) = &self.telemetry {
            m.counter_add(
                "wavefuse_fpga_dma_words_total",
                &[("direction", direction)],
                (run.words_in + run.words_out) as f64,
            );
        }
        self.driver.ioctl(IoctlRequest::SwapBuffers)?;
        self.charge_row(&RowCycles {
            ps_cycles: overhead,
            copy_cycles: copy_ps,
            ..run.cycles
        });
        Ok(())
    }

    /// `lines` row calls of one `width`-sample shape in a row, each
    /// accounted exactly as a row call of its extended data: the columns of
    /// a column pass, in column order, or the rows of a shared row pass.
    fn charge_line_calls(
        &mut self,
        lines: usize,
        dir: Direction,
        width: usize,
        phase: usize,
        run: &EngineRun,
    ) -> Result<(), ZynqError> {
        for _ in 0..lines {
            let overhead = self.open_call(dir, width, phase)?;
            let copy_in_ps = self.driver.charge_copy_from_user(run.words_in);
            self.close_call(overhead, copy_in_ps, run, dir)?;
        }
        Ok(())
    }

    /// The forward column pass into `lo`/`hi`, already shaped `w` x `h / 2`.
    fn run_forward_cols(
        &mut self,
        taps: &BankTaps,
        phase: usize,
        img: &Image,
        lo: &mut Image,
        hi: &mut Image,
    ) -> Result<(), ZynqError> {
        self.ensure_analysis_filters(&taps.h0, &taps.h1)?;
        let (w, h) = img.dims();
        let (left, lo, hi) = (taps.analysis_left(), lo.as_mut_slice(), hi.as_mut_slice());
        let run = self
            .engine
            .forward_cols(img.as_slice(), w, left, phase, lo, hi)?;
        self.charge_line_calls(w, Direction::Forward, h, phase, &run)
    }

    /// Charges the forward row calls of a row pass another combo already
    /// computed, as [`Self::run_forward`] charges each of them: the filter
    /// check, then per row the call's overhead, its copy in, its copy out
    /// and its engine run.
    fn charge_shared_forward_rows(
        &mut self,
        taps: &BankTaps,
        phase: usize,
        width: usize,
        rows: usize,
    ) -> Result<(), ZynqError> {
        self.ensure_analysis_filters(&taps.h0, &taps.h1)?;
        let ext_len = width + 2 * taps.analysis_left();
        let run = self.engine.forward_row_cost(ext_len, width / 2)?;
        self.charge_line_calls(rows, Direction::Forward, width, phase, &run)
    }

    /// The inverse column pass into `out`, already shaped `w` x `2 nh`.
    fn run_inverse_cols(
        &mut self,
        taps: &BankTaps,
        phase: usize,
        lo: &Image,
        hi: &Image,
        out: &mut Image,
    ) -> Result<(), ZynqError> {
        self.ensure_synthesis_filters(&taps.g0, &taps.g1)?;
        let (w, n) = out.dims();
        let (left, delay) = (taps.synthesis_left(), taps.delay());
        let (lo, hi) = (lo.as_slice(), hi.as_slice());
        let run = self
            .engine
            .inverse_cols(lo, hi, w, left, phase, delay, out.as_mut_slice())?;
        self.charge_line_calls(w, Direction::Inverse, n, phase, &run)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_forward(
        &mut self,
        ext: &[f32],
        left: usize,
        h0: &[f32],
        h1: &[f32],
        phase: usize,
        lo: &mut [f32],
        hi: &mut [f32],
    ) -> Result<(), ZynqError> {
        self.ensure_analysis_filters(h0, h1)?;
        let overhead = self.open_call(Direction::Forward, lo.len() * 2, phase)?;
        // User copy in, then the engine reads the accelerator's view of it
        // and writes the results straight into `lo`/`hi`: that write is the
        // row's one copy-out.
        let copy_in_ps = self.driver.copy_from_user(ext)?;
        let input = self.driver.accelerator_input(ext.len())?;
        let run = self.engine.forward_row(input, left, phase, lo, hi)?;
        self.close_call(overhead, copy_in_ps, &run, Direction::Forward)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_inverse(
        &mut self,
        lo_ext: &[f32],
        hi_ext: &[f32],
        left: usize,
        g0: &[f32],
        g1: &[f32],
        phase: usize,
        out: &mut [f32],
    ) -> Result<(), ZynqError> {
        self.ensure_synthesis_filters(g0, g1)?;
        let overhead = self.open_call(Direction::Inverse, out.len(), phase)?;
        // Both channels arrive in one driver request, which is why the
        // inverse's per-call overhead is lower.
        let copy_in_ps = self.driver.copy_pair_from_user(lo_ext, hi_ext)?;
        let input = self.driver.accelerator_input(lo_ext.len() + hi_ext.len())?;
        let (lo_view, hi_view) = input.split_at(lo_ext.len());
        let run = self
            .engine
            .inverse_row(lo_view, hi_view, left, phase, out)?;
        self.close_call(overhead, copy_in_ps, &run, Direction::Inverse)
    }
}

impl FilterKernel for FpgaKernel {
    fn name(&self) -> &'static str {
        "zynq-fpga"
    }

    /// # Panics
    ///
    /// Panics if a row exceeds the engine's 2048-word BRAM area — the same
    /// hard limit as the paper's hardware ("suitable for an image width up
    /// to 2048 pixels").
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
        self.run_forward(ext, left, h0, h1, phase, lo, hi)
            .expect("row transform within hardware limits");
    }

    /// # Panics
    ///
    /// Panics if the channels exceed the engine's BRAM area.
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
        self.run_inverse(lo_ext, hi_ext, left, g0, g1, phase, out)
            .expect("row transform within hardware limits");
    }

    /// The transform skipped these rows because the other combo of the row
    /// tree already filtered them; the paper's PS runs them again, so each
    /// is charged as [`FilterKernel::analyze_row`] would charge it, in row
    /// order: the ledger, the overlap timeline, the driver counters, the
    /// register writes and the telemetry equal a real pass's.
    ///
    /// # Panics
    ///
    /// Panics if an extended row exceeds the engine's BRAM area, as
    /// [`FilterKernel::analyze_row`] does.
    fn charge_shared_rows(&mut self, taps: &BankTaps, phase: Phase, width: usize, rows: usize) {
        self.charge_shared_forward_rows(taps, phase.offset(), width, rows)
            .expect("row transform within hardware limits");
    }

    /// The engine filters every column at once, lane-parallel across
    /// adjacent columns, with no transposes; each column is still charged
    /// as one row call, in column order, so the ledger, the overlap
    /// timeline and the driver counters equal the transpose staging's.
    ///
    /// # Panics
    ///
    /// Panics if an extended column exceeds the engine's BRAM area, as
    /// [`FilterKernel::analyze_row`] does for a row.
    fn analyze_cols(
        &mut self,
        taps: &BankTaps,
        phase: Phase,
        img: &Image,
        lo: &mut Image,
        hi: &mut Image,
        _cs: &mut ColScratch,
        _s1: &mut Scratch1d,
    ) -> Result<(), DtcwtError> {
        let (w, h) = img.dims();
        if w == 0 || h == 0 || !h.is_multiple_of(2) {
            return Err(DtcwtError::BadDimensions {
                width: w,
                height: h,
                reason: "column analysis requires even non-zero height",
            });
        }
        lo.reshape(w, h / 2);
        hi.reshape(w, h / 2);
        self.run_forward_cols(taps, phase.offset(), img, lo, hi)
            .expect("column transform within hardware limits");
        Ok(())
    }

    /// The inverse counterpart of [`FpgaKernel::analyze_cols`], with the
    /// delay-compensating rotation folded into the destination row.
    ///
    /// # Panics
    ///
    /// Panics if a column's channels exceed the engine's BRAM area.
    fn synthesize_cols(
        &mut self,
        taps: &BankTaps,
        phase: Phase,
        lo: &Image,
        hi: &Image,
        out: &mut Image,
        _cs: &mut ColScratch,
        _s1: &mut Scratch1d,
    ) -> Result<(), DtcwtError> {
        if lo.is_empty() || lo.dims() != hi.dims() {
            return Err(DtcwtError::BadDimensions {
                width: hi.width(),
                height: hi.height(),
                reason: "column synthesis channels must be non-empty and equal-sized",
            });
        }
        out.reshape(lo.width(), 2 * lo.height());
        self.run_inverse_cols(taps, phase.offset(), lo, hi, out)
            .expect("column transform within hardware limits");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavefuse_dtcwt::kernel::{fallback_analyze_cols, fallback_synthesize_cols};
    use wavefuse_dtcwt::{Dtcwt, Dwt2d, FilterBank, ScalarKernel};

    fn test_image(w: usize, h: usize) -> Image {
        Image::from_fn(w, h, |x, y| ((x * 7 + y * 3) % 19) as f32 * 0.7 - 5.0)
    }

    #[test]
    fn dwt_round_trip_through_fpga() {
        let img = test_image(40, 40);
        let dwt = Dwt2d::new(FilterBank::cdf_9_7().unwrap(), 3).unwrap();
        let mut fpga = FpgaKernel::new();
        let pyr = dwt.forward_with(&mut fpga, &img).unwrap();
        let back = dwt.inverse_with(&mut fpga, &pyr).unwrap();
        assert!(back.max_abs_diff(&img) < 1e-3);
    }

    #[test]
    fn dtcwt_matches_scalar_backend() {
        let img = test_image(32, 24);
        let t = Dtcwt::new(2).unwrap();
        let p_ref = t.forward_with(&mut ScalarKernel::new(), &img).unwrap();
        let p_fpga = t.forward_with(&mut FpgaKernel::new(), &img).unwrap();
        for level in 0..2 {
            for (a, b) in p_ref.subbands(level).iter().zip(p_fpga.subbands(level)) {
                assert!(a.re.max_abs_diff(&b.re) < 1e-3);
                assert!(a.im.max_abs_diff(&b.im) < 1e-3);
            }
        }
        for (a, b) in p_ref.lowpass().iter().zip(p_fpga.lowpass()) {
            assert!(a.max_abs_diff(b) < 1e-3);
        }
    }

    /// The ten banks of the workspace's column-pass identity suite.
    fn identity_banks() -> Vec<FilterBank> {
        vec![
            FilterBank::haar().unwrap(),
            FilterBank::daubechies(2).unwrap(),
            FilterBank::daubechies(3).unwrap(),
            FilterBank::daubechies(4).unwrap(),
            FilterBank::legall_5_3().unwrap(),
            FilterBank::cdf_9_7().unwrap(),
            FilterBank::near_sym_a().unwrap(),
            FilterBank::near_sym_b().unwrap(),
            FilterBank::qshift_b().unwrap(),
            FilterBank::qshift_b().unwrap().time_reverse(),
        ]
    }

    /// An image with `-0.0` samples and an all-zero column 1; `poisoned`
    /// seeds NaN and ±inf in the first, middle and last columns.
    fn column_image(w: usize, h: usize, poisoned: bool) -> Image {
        let mut img = Image::from_fn(w, h, |x, y| match (x * 17 + y * 11) % 31 {
            _ if x == 1 => 0.0,
            0 | 7 => -0.0,
            v => v as f32 * 0.27 - 3.5,
        });
        if poisoned {
            img.set(0, h / 2, f32::NAN);
            img.set(w / 2, 0, f32::INFINITY);
            img.set(w - 1, h - 1, f32::NEG_INFINITY);
        }
        img
    }

    /// Bit patterns, with every NaN mapped to one canonical NaN when
    /// `canonical` (the lane loops may commute `fadd` operands, which moves
    /// only NaN payloads and signs).
    fn bits(img: &Image, canonical: bool) -> Vec<u32> {
        let nan = |x: f32| canonical && x.is_nan();
        let canon = |x: f32| if nan(x) { f32::NAN } else { x };
        img.as_slice().iter().map(|&x| canon(x).to_bits()).collect()
    }

    /// Everything a column pass charges, compared field by field.
    fn assert_same_accounting(own: &FpgaKernel, staged: &FpgaKernel, what: &str) {
        assert_eq!(own.ledger(), staged.ledger(), "ledger {what}");
        assert_eq!(own.dma_timeline(), staged.dma_timeline(), "timeline {what}");
        assert_eq!(
            own.driver().stats(),
            staged.driver().stats(),
            "driver {what}"
        );
        let regs = |k: &FpgaKernel| k.engine().registers().clone();
        assert_eq!(
            regs(own).write_count(),
            regs(staged).write_count(),
            "register writes {what}"
        );
        assert_eq!(regs(own), regs(staged), "registers {what}");
    }

    #[test]
    fn column_passes_match_the_transpose_staging_with_identical_accounting() {
        // The column-pass identity suite's geometries, plus heights below
        // every bank's tap count, where the circular wrap repeats.
        let dims = [
            (2, 8),
            (3, 12),
            (4, 6),
            (13, 10),
            (16, 22),
            (40, 36),
            (5, 2),
            (9, 4),
        ];
        let telemetry = || Arc::new(MetricsRegistry::new());
        for bank in identity_banks() {
            let taps = BankTaps::new(&bank);
            for phase in [Phase::A, Phase::B] {
                for (w, h) in dims {
                    for poisoned in [false, true] {
                        let what = format!("{} {phase:?} {w}x{h} poisoned {poisoned}", bank.name());
                        let img = column_image(w, h, poisoned);
                        let (mut own, mut staged) = (FpgaKernel::new(), FpgaKernel::new());
                        let (m_own, m_staged) = (telemetry(), telemetry());
                        own.set_telemetry(Arc::clone(&m_own));
                        staged.set_telemetry(Arc::clone(&m_staged));
                        let mut cs = ColScratch::new();
                        let mut s1 = Scratch1d::new();
                        let mut out = [Image::zeros(0, 0), Image::zeros(0, 0)];
                        let mut want = [Image::zeros(0, 0), Image::zeros(0, 0)];
                        let [lo, hi] = &mut out;
                        own.analyze_cols(&taps, phase, &img, lo, hi, &mut cs, &mut s1)
                            .unwrap();
                        let [lo, hi] = &mut want;
                        fallback_analyze_cols(
                            &mut staged,
                            &taps,
                            phase,
                            &img,
                            lo,
                            hi,
                            &mut cs,
                            &mut s1,
                        )
                        .unwrap();
                        for (o, w) in out.iter().zip(&want) {
                            assert_eq!(o.dims(), w.dims(), "analysis {what}");
                            assert_eq!(bits(o, poisoned), bits(w, poisoned), "analysis {what}");
                        }
                        assert_same_accounting(&own, &staged, &format!("analysis {what}"));

                        // Both synthesize the staged channels, so their
                        // inputs agree bit for bit even when poisoned.
                        let [lo, hi] = &want;
                        let mut rec = Image::zeros(0, 0);
                        let mut rec_want = Image::zeros(0, 0);
                        own.synthesize_cols(&taps, phase, lo, hi, &mut rec, &mut cs, &mut s1)
                            .unwrap();
                        fallback_synthesize_cols(
                            &mut staged,
                            &taps,
                            phase,
                            lo,
                            hi,
                            &mut rec_want,
                            &mut cs,
                            &mut s1,
                        )
                        .unwrap();
                        assert_eq!(rec.dims(), rec_want.dims(), "synthesis {what}");
                        assert_eq!(
                            bits(&rec, poisoned),
                            bits(&rec_want, poisoned),
                            "synthesis {what}"
                        );
                        assert_same_accounting(&own, &staged, &format!("synthesis {what}"));
                        assert_eq!(m_own.snapshot(), m_staged.snapshot(), "telemetry {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn ledger_accounts_every_row() {
        let img = test_image(32, 24);
        let t = Dtcwt::new(2).unwrap();
        let mut fpga = FpgaKernel::new();
        let _ = t.forward_with(&mut fpga, &img).unwrap();
        let l = *fpga.ledger();
        // 4 tree combos x (24 row-calls + 2x16 col-calls at level 1
        //                 + 12 row-calls + 2x8 col-calls at level 2)
        let expect_calls = 4 * ((24 + 32) + (12 + 16));
        assert_eq!(l.engine_calls, expect_calls);
        assert!(l.pl_cycles > 0 && l.ps_overhead_cycles > 0);
        assert!(l.elapsed_seconds > 0.0);
        // Per-call overhead dominates at this size: elapsed must exceed the
        // pure PL busy time by a wide margin.
        assert!(l.elapsed_seconds > 3.0 * l.pl_busy_seconds(fpga.config()));
        fpga.reset_ledger();
        assert_eq!(fpga.ledger().engine_calls, 0);
    }

    #[test]
    fn coefficient_loads_are_cached() {
        let img = test_image(32, 24);
        let t = Dtcwt::new(2).unwrap();
        let mut fpga = FpgaKernel::new();
        let _ = t.forward_with(&mut fpga, &img).unwrap();
        let loads = fpga.ledger().coeff_loads;
        // Far fewer reloads than engine calls: banks change only between
        // level-1/level-2 and tree A/B, not per row.
        assert!(loads >= 2, "at least near-sym + qshift loads, got {loads}");
        assert!(
            loads * 10 < fpga.ledger().engine_calls,
            "loads {loads} should be far below calls {}",
            fpga.ledger().engine_calls
        );
    }

    #[test]
    fn dma_timeline_is_bounded_by_the_serial_charge() {
        let img = test_image(64, 48);
        let t = Dtcwt::new(3).unwrap();
        let mut k = FpgaKernel::new();
        let _ = t.forward_with(&mut k, &img).unwrap();
        let tl = *k.dma_timeline();
        // The overlapped schedule can never beat the PS's serial work nor
        // the PL critical path, and must not exceed the serial charge.
        assert!(tl.elapsed_seconds() <= k.ledger().elapsed_seconds);
        assert!(tl.elapsed_seconds() >= tl.ps_seconds());
        assert!(tl.elapsed_seconds() >= k.ledger().pl_busy_seconds(k.config()));
    }

    #[test]
    fn overlap_timeline_interleaves_host_work() {
        let mut tl = DmaTimeline::default();
        // Row engine time dominates the copy: PS runs ahead, PL lags.
        tl.push_row(1e-6, 1e-6, 10e-6);
        assert!((tl.ps_seconds() - 2e-6).abs() < 1e-12);
        assert!((tl.pl_done_seconds() - 12e-6).abs() < 1e-12);
        // Host work shorter than the in-flight engine run hides entirely.
        tl.push_ps(5e-6);
        assert!((tl.elapsed_seconds() - 12e-6).abs() < 1e-12);
        // A third row on the first buffer again: it must wait for the
        // earlier run on that buffer even though the PS is ready.
        tl.push_row(1e-6, 1e-6, 10e-6);
        tl.push_row(1e-6, 1e-6, 10e-6);
        assert!(tl.pl_done_seconds() >= 22e-6);
    }

    #[test]
    fn reset_clears_overlap_timeline() {
        let mut k = FpgaKernel::new();
        let t = Dtcwt::new(2).unwrap();
        let _ = t.forward_with(&mut k, &test_image(16, 16)).unwrap();
        assert!(k.dma_timeline().elapsed_seconds() > 0.0);
        k.reset_ledger();
        assert_eq!(k.dma_timeline().elapsed_seconds(), 0.0);
    }

    #[test]
    fn elapsed_time_scales_superlinearly_below_crossover() {
        // Doubling the frame edge should much less than quadruple elapsed
        // time at small sizes, because per-call overhead dominates; this is
        // the mechanism behind the paper's crossover.
        let t = Dtcwt::new(2).unwrap();
        let mut k_small = FpgaKernel::new();
        let _ = t.forward_with(&mut k_small, &test_image(16, 16)).unwrap();
        let mut k_big = FpgaKernel::new();
        let _ = t.forward_with(&mut k_big, &test_image(32, 32)).unwrap();
        let ratio = k_big.ledger().elapsed_seconds / k_small.ledger().elapsed_seconds;
        assert!(
            ratio < 3.0,
            "overhead-dominated scaling should be ~2x for 4x pixels, got {ratio}"
        );
    }
}
