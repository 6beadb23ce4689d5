//! The HLS wavelet engine: the paper's Fig. 4 datapath, simulated at cycle
//! level.
//!
//! The synthesized core is a fixed-geometry machine: two coefficient
//! register banks (`coeff_register_hp`, `coeff_register_lp`) feeding a MAC
//! pair per clock from a shared input shift register, BRAM line buffers
//! loaded and drained by a hardware `memcpy` over the ACP, and an AXI4-Lite
//! command interface selecting one of three modes (coefficient load,
//! forward, inverse). VIVADO_HLS pipelines the sample loop to an initiation
//! interval of one clock; the `memcpy`s do not overlap the loop ("current
//! VIVADO_HLS tools do not pipeline the memcpy's"), so a row costs
//! `dma_in + fill + iterations + dma_out` PL cycles — the PL half of
//! [`RowCycles`].
//!
//! The datapath *really computes* the filter outputs, and the register
//! fixes each output's arithmetic: output `k` is the sum over register
//! slots `j = 0..max_taps`, in slot order, of `c[j] · x`, where `x` is the
//! sample slot `j` holds once the row has been shifted up to that output.
//! Every slot takes part, the zero-padded ones too, so a zero coefficient
//! times a NaN or infinite sample poisons the output just as the hardware
//! MAC would. The simulator keeps that per-output order but evaluates
//! outputs *lane-parallel*, on one lane body that reads slot `j` of output
//! `x` at `data[offset(j) + x]`:
//!
//! * the forward row pass splits the row into its even and odd samples
//!   once, so each slot of a block of outputs reads one contiguous run;
//! * the inverse row pass evaluates consecutive windows of one polyphase
//!   parity together;
//! * the column passes ([`WaveletEngine::forward_cols`],
//!   [`WaveletEngine::inverse_cols`]) evaluate one output row of every
//!   column at once, lanes holding adjacent columns, so each slot reads one
//!   image row stride-1 and nothing is transposed.
//!
//! Finite results are bit-identical to the one-output-per-clock
//! shift-register loop (the tests below keep that loop as the reference);
//! LLVM may commute the operands of an `fadd`, so a NaN result may carry a
//! different NaN payload or sign bit.

use crate::bus::{AxiLiteRegisterFile, EngineMode, EngineReg};
use crate::config::ZynqConfig;
use crate::ledger::{coeff_load_ps_cycles, Direction, RowCycles};
use crate::ZynqError;

/// Outputs one lane-parallel block of the simulated datapath evaluates at
/// once.
const LANES: usize = 8;

/// Engine status values visible in the [`EngineReg::Status`] register.
pub mod status {
    /// Engine idle, no command issued since reset.
    pub const IDLE: u32 = 0;
    /// Transform in flight.
    pub const BUSY: u32 = 1;
    /// Last commanded transform (or coefficient load) completed.
    pub const DONE: u32 = 2;
}

/// Cost and traffic of one engine invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineRun {
    /// The row's cost from [`RowCycles::of`]. Its PL half (DMA + pipeline)
    /// is what the engine consumed; the caller that drives the engine
    /// supplies the PS half it actually spent.
    pub cycles: RowCycles,
    /// Words streamed into the engine.
    pub words_in: usize,
    /// Words streamed out of the engine.
    pub words_out: usize,
}

/// The simulated PL wavelet engine.
///
/// # Examples
///
/// ```
/// use wavefuse_zynq::engine::WaveletEngine;
/// use wavefuse_zynq::ZynqConfig;
///
/// let mut eng = WaveletEngine::new(ZynqConfig::default());
/// // Haar filters, sqrt(2)-normalized.
/// let h = std::f32::consts::FRAC_1_SQRT_2;
/// eng.load_analysis_filters(&[h, h], &[h, -h])?;
/// let ext = [4.0f32, 1.0, 2.0, 3.0, 4.0, 1.0]; // x = [1,2,3,4], left = 1
/// let (mut lo, mut hi) = (vec![0.0; 2], vec![0.0; 2]);
/// eng.forward_row(&ext, 1, 1, &mut lo, &mut hi)?;
/// assert!((lo[0] - h * 3.0).abs() < 1e-6);
/// # Ok::<(), wavefuse_zynq::ZynqError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WaveletEngine {
    cfg: ZynqConfig,
    regs: AxiLiteRegisterFile,
    // Analysis coefficient registers: reversed and front-padded to the
    // hardware depth, so the newest sample meets the last tap.
    c_lp: Vec<f32>,
    c_hp: Vec<f32>,
    // Synthesis polyphase coefficient registers (even/odd taps of g0/g1),
    // reversed and front-padded.
    s_lp_even: Vec<f32>,
    s_lp_odd: Vec<f32>,
    s_hp_even: Vec<f32>,
    s_hp_odd: Vec<f32>,
    // Shadow copies of the loaded taps for cache checks.
    loaded_analysis: Option<(Vec<f32>, Vec<f32>)>,
    loaded_synthesis: Option<(Vec<f32>, Vec<f32>)>,
    // The forward row's register contents split by sample parity into
    // `[even | odd]` (zero-padded around `ext`, as the hardware's virtual
    // zeros), so slot `j` of output `k` reads `split[offset(j) + k]`.
    split: Vec<f32>,
    // The register slots of one lane pass, as `(lowpass coefficient,
    // highpass coefficient, offset)` for the forward MAC pair and
    // `(coefficient, offset)` per channel bank for the inverse: output `x`
    // of the pass reads `data[offset + x]` for each slot, in slot order.
    // Persistent, like `split`, so steady-state passes never touch the
    // allocator.
    pair_slots: Vec<(f32, f32, usize)>,
    lp_slots: Vec<(f32, usize)>,
    hp_slots: Vec<(f32, usize)>,
}

impl WaveletEngine {
    /// Instantiates the engine with the given platform configuration.
    pub fn new(cfg: ZynqConfig) -> Self {
        let t = cfg.max_taps;
        WaveletEngine {
            cfg,
            regs: AxiLiteRegisterFile::new(),
            c_lp: vec![0.0; t],
            c_hp: vec![0.0; t],
            s_lp_even: vec![0.0; t / 2 + 1],
            s_lp_odd: vec![0.0; t / 2 + 1],
            s_hp_even: vec![0.0; t / 2 + 1],
            s_hp_odd: vec![0.0; t / 2 + 1],
            loaded_analysis: None,
            loaded_synthesis: None,
            split: Vec::new(),
            pair_slots: Vec::new(),
            lp_slots: Vec::new(),
            hp_slots: Vec::new(),
        }
    }

    /// Platform configuration.
    pub fn config(&self) -> &ZynqConfig {
        &self.cfg
    }

    /// AXI4-Lite register file (for inspection).
    pub fn registers(&self) -> &AxiLiteRegisterFile {
        &self.regs
    }

    /// Mutable AXI4-Lite register file (the PS pokes commands through this).
    pub fn registers_mut(&mut self) -> &mut AxiLiteRegisterFile {
        &mut self.regs
    }

    /// Whether `h0`/`h1` are the currently loaded analysis filters.
    pub fn analysis_filters_match(&self, h0: &[f32], h1: &[f32]) -> bool {
        matches!(&self.loaded_analysis, Some((a, b)) if a == h0 && b == h1)
    }

    /// Whether `g0`/`g1` are the currently loaded synthesis filters.
    pub fn synthesis_filters_match(&self, g0: &[f32], g1: &[f32]) -> bool {
        matches!(&self.loaded_synthesis, Some((a, b)) if a == g0 && b == g1)
    }

    /// Loads the analysis filter pair (mode 1), returning the PS cycles the
    /// coefficient writes cost over AXI4-Lite.
    ///
    /// # Errors
    ///
    /// Returns [`ZynqError::FilterTooLong`] if either filter exceeds the
    /// hardware register depth.
    pub fn load_analysis_filters(&mut self, h0: &[f32], h1: &[f32]) -> Result<u64, ZynqError> {
        self.begin_coeff_load(h0, h1)?;
        fill_reversed_front_padded(&mut self.c_lp, h0);
        fill_reversed_front_padded(&mut self.c_hp, h1);
        store_shadow(&mut self.loaded_analysis, h0, h1);
        Ok(coeff_load_ps_cycles(&self.cfg))
    }

    /// Loads the synthesis filter pair (mode 1), returning PS cycles.
    ///
    /// # Errors
    ///
    /// Returns [`ZynqError::FilterTooLong`] if either filter exceeds the
    /// hardware register depth.
    pub fn load_synthesis_filters(&mut self, g0: &[f32], g1: &[f32]) -> Result<u64, ZynqError> {
        self.begin_coeff_load(g0, g1)?;
        fill_polyphase(&mut self.s_lp_even, &mut self.s_lp_odd, g0);
        fill_polyphase(&mut self.s_hp_even, &mut self.s_hp_odd, g1);
        store_shadow(&mut self.loaded_synthesis, g0, g1);
        Ok(coeff_load_ps_cycles(&self.cfg))
    }

    /// Checks a filter pair against the register depth and selects the
    /// coefficient-load mode (mode 1).
    fn begin_coeff_load(&mut self, a: &[f32], b: &[f32]) -> Result<(), ZynqError> {
        let t = self.cfg.max_taps;
        for f in [a, b] {
            if f.len() > t {
                return Err(ZynqError::FilterTooLong {
                    taps: f.len(),
                    max_taps: t,
                });
            }
        }
        self.regs.write(
            EngineReg::Mode,
            EngineMode::LoadCoefficients.encode(),
            &self.cfg,
        );
        Ok(())
    }

    /// Runs one forward (decimating) row through the datapath (mode 2).
    /// The status register reads [`status::BUSY`] while the row runs and
    /// [`status::DONE`] once the PS's completion poll returns.
    ///
    /// Semantics match [`wavefuse_dtcwt::FilterKernel::analyze_row`]: `ext`
    /// is the extended row, outputs `k` use the window ending at
    /// `left + 2k + phase`.
    ///
    /// # Errors
    ///
    /// * [`ZynqError::CoefficientsNotLoaded`] before a coefficient load.
    /// * [`ZynqError::RowShape`] if `lo` and `hi` differ in length or are
    ///   empty.
    /// * [`ZynqError::BufferOverrun`] if the row exceeds a BRAM area.
    pub fn forward_row(
        &mut self,
        ext: &[f32],
        left: usize,
        phase: usize,
        lo: &mut [f32],
        hi: &mut [f32],
    ) -> Result<EngineRun, ZynqError> {
        if self.loaded_analysis.is_none() {
            return Err(ZynqError::CoefficientsNotLoaded);
        }
        let n_out = lo.len();
        if n_out == 0 || hi.len() != n_out {
            return Err(ZynqError::RowShape {
                lo: n_out,
                hi: hi.len(),
            });
        }
        self.check_bram(ext.len(), 2 * n_out)?;

        self.regs.hw_set(EngineReg::Status, status::BUSY);
        // Output 0's window ends at `left + phase`; each later output shifts
        // two samples further, which is one step within each parity half.
        let t = self.cfg.max_taps;
        let first = (left + phase) as isize - (t as isize - 1);
        let half = n_out + (t - 1) / 2;
        self.split_by_parity(ext, first, half);
        self.pair_slots.clear();
        let slots = self.c_lp.iter().zip(&self.c_hp).enumerate();
        self.pair_slots
            .extend(slots.map(|(j, (&cl, &ch))| (cl, ch, (j % 2) * half + j / 2)));
        mac_pair_pass(&self.split, &self.pair_slots, lo, hi);
        Ok(self.finish(ext.len(), 2 * n_out, n_out, Direction::Forward))
    }

    /// What one [`Self::forward_row`] call on an `ext_len`-word extended
    /// row with `n_out` outputs per channel costs, without running it: the
    /// same checks and the same [`EngineRun`].
    ///
    /// # Errors
    ///
    /// * [`ZynqError::CoefficientsNotLoaded`] before a coefficient load.
    /// * [`ZynqError::BufferOverrun`] if the row exceeds a BRAM area.
    pub fn forward_row_cost(&self, ext_len: usize, n_out: usize) -> Result<EngineRun, ZynqError> {
        if self.loaded_analysis.is_none() {
            return Err(ZynqError::CoefficientsNotLoaded);
        }
        self.check_bram(ext_len, 2 * n_out)?;
        Ok(self.run_cost(ext_len, 2 * n_out, n_out, Direction::Forward))
    }

    /// Runs one inverse (interpolating) row through the datapath (mode 3),
    /// with the same status handshake as [`Self::forward_row`].
    ///
    /// Semantics match [`wavefuse_dtcwt::FilterKernel::synthesize_row`].
    ///
    /// # Errors
    ///
    /// * [`ZynqError::CoefficientsNotLoaded`] before a coefficient load.
    /// * [`ZynqError::BufferOverrun`] if the channels exceed a BRAM area.
    pub fn inverse_row(
        &mut self,
        lo_ext: &[f32],
        hi_ext: &[f32],
        left: usize,
        phase: usize,
        out: &mut [f32],
    ) -> Result<EngineRun, ZynqError> {
        if self.loaded_synthesis.is_none() {
            return Err(ZynqError::CoefficientsNotLoaded);
        }
        let words_in = lo_ext.len() + hi_ext.len();
        self.check_bram(words_in, out.len())?;

        self.regs.hw_set(EngineReg::Status, status::BUSY);
        // Each clock the two polyphase MAC banks of the output's parity fire
        // over the channel windows. Outputs of one parity have windows that
        // slide by one channel sample, so interior ones go lane-parallel;
        // windows overhanging a channel end keep the bounds-checked dot.
        let taps = self.s_lp_even.len();
        let channel = lo_ext.len().min(hi_ext.len());
        for parity in 0..2 {
            let (t_lp, t_hp) = if parity == 0 {
                (&self.s_lp_even, &self.s_hp_even)
            } else {
                (&self.s_lp_odd, &self.s_hp_odd)
            };
            // Output `m0 + 2i` has the window ending at `top0 + i`.
            let m0 = (phase + parity) % 2;
            let top0 = left as isize + (m0 as isize - (phase + parity) as isize) / 2;
            let count = out.len().saturating_sub(m0).div_ceil(2);
            let top = |i: usize| top0 + i as isize;
            let dot = |i| window_dot(lo_ext, top(i), t_lp) + window_dot(hi_ext, top(i), t_hp);
            // Windows `from..to` lie inside both channels; fewer than one
            // block of them all go one by one.
            let from = (taps as isize - 1 - top0).clamp(0, count as isize) as usize;
            let to = (channel as isize - top0).clamp(from as isize, count as isize) as usize;
            let (from, to) = if to - from < LANES {
                (count, count)
            } else {
                (from, to)
            };
            for i in (0..from).chain(to..count) {
                out[m0 + 2 * i] = dot(i);
            }
            // Inside the channels, slot `i` of the window starting at
            // `start` reads `ch[start + i]`; zero taps are skipped as in
            // `window_dot`. The last block is pulled back to end at `to`,
            // recomputing a few outputs identically.
            fill_tap_slots(&mut self.lp_slots, t_lp, Some);
            fill_tap_slots(&mut self.hp_slots, t_hp, Some);
            for i in (from..to).step_by(LANES).map(|i| i.min(to - LANES)) {
                let start = (top(i) - (taps as isize - 1)) as usize;
                let l = mac_lanes::<LANES>(lo_ext, &self.lp_slots, start);
                let h = mac_lanes::<LANES>(hi_ext, &self.hp_slots, start);
                for (lane, (l, h)) in l.iter().zip(&h).enumerate() {
                    out[m0 + 2 * (i + lane)] = l + h;
                }
            }
        }

        Ok(self.finish(words_in, out.len(), out.len(), Direction::Inverse))
    }

    /// Splits the samples the forward register sees into `split = [even |
    /// odd]`, `half` of each: `even[i] = ext[first + 2i]` and `odd[i] =
    /// ext[first + 2i + 1]`, or a virtual zero outside `ext`. Each half is
    /// one strided copy.
    fn split_by_parity(&mut self, ext: &[f32], first: isize, half: usize) {
        self.split.clear();
        self.split.resize(2 * half, 0.0);
        for (parity, dst) in self.split.chunks_exact_mut(half).enumerate() {
            // `dst[i]` holds `ext[start + 2i]`; the first `skip` lie left of
            // `ext[0]` and stay zero.
            let start = first + parity as isize;
            let skip = ((-start).max(0) as usize).div_ceil(2);
            let from = (start + 2 * skip as isize) as usize;
            let src = ext.get(from..).unwrap_or_default().iter().step_by(2);
            for (d, &x) in dst.iter_mut().skip(skip).zip(src) {
                *d = x;
            }
        }
    }

    /// Runs the forward pass over every column of the row-major image `img`
    /// (`width` columns of even height `h`) at once: column `x` of `lo`/`hi`
    /// (each `width` x `h / 2`) is exactly what [`Self::forward_row`] writes
    /// for that column circularly extended by `left` samples on both sides,
    /// as [`wavefuse_dtcwt::dwt1d::analyze_into`] extends a row. Output rows
    /// are evaluated lane-parallel across adjacent columns, each output
    /// summing the register slots in slot order from `+0`. Slots whose
    /// sample lies outside the extended column hold the hardware's virtual
    /// zero; they are left out, which is exact because `c · 0` is `±0` and
    /// an accumulator that starts at `+0` is never `-0`. Zero-coefficient
    /// slots over real samples all take part.
    ///
    /// Returns what one column's row call costs; every column costs the
    /// same, and the caller charges one call per column.
    ///
    /// The caller checks the shapes (as `FpgaKernel::analyze_cols` does
    /// against the `FilterKernel` contract): `width` is non-zero, `h` is
    /// even and non-zero, and `lo`/`hi` are `width` x `h / 2`. Other
    /// shapes are a caller bug and may panic or leave `lo`/`hi` partly
    /// written.
    ///
    /// # Errors
    ///
    /// * [`ZynqError::CoefficientsNotLoaded`] before a coefficient load.
    /// * [`ZynqError::BufferOverrun`] if an extended column exceeds a BRAM
    ///   area.
    pub fn forward_cols(
        &mut self,
        img: &[f32],
        width: usize,
        left: usize,
        phase: usize,
        lo: &mut [f32],
        hi: &mut [f32],
    ) -> Result<EngineRun, ZynqError> {
        if self.loaded_analysis.is_none() {
            return Err(ZynqError::CoefficientsNotLoaded);
        }
        let height = img.len() / width;
        let n_out = height / 2;
        debug_assert!(n_out > 0 && lo.len() == n_out * width && hi.len() == lo.len());
        let words_in = height + 2 * left;
        let words_out = 2 * n_out;
        self.check_bram(words_in, words_out)?;

        self.regs.hw_set(EngineReg::Status, status::BUSY);
        let t = self.cfg.max_taps as isize;
        let rows = lo.chunks_exact_mut(width).zip(hi.chunks_exact_mut(width));
        for (k, (lo, hi)) in rows.enumerate() {
            // Slot `j` of output `k` holds `ext[p]` with `p = first + j`,
            // which is image row `(p - left) mod height`.
            let first = (left + phase + 2 * k) as isize - (t - 1);
            self.pair_slots.clear();
            for (j, (&cl, &ch)) in self.c_lp.iter().zip(&self.c_hp).enumerate() {
                let p = first + j as isize;
                if (0..words_in as isize).contains(&p) {
                    let row = (p - left as isize).rem_euclid(height as isize) as usize;
                    self.pair_slots.push((cl, ch, row * width));
                }
            }
            mac_pair_pass(img, &self.pair_slots, lo, hi);
        }
        Ok(self.finish(words_in, words_out, n_out, Direction::Forward))
    }

    /// Runs the inverse pass over every column of the row-major channel
    /// images `lo`/`hi` (`width` columns of height `nh`) at once, writing
    /// the `width` x `2 nh` image `out`: column `x` is exactly what
    /// [`Self::inverse_row`] produces for that column's channels, each
    /// circularly left-extended by `left` samples, followed by the
    /// delay-compensating rotation of
    /// [`wavefuse_dtcwt::dwt1d::synthesize_into`] — raw output `m` lands in
    /// row `(m - delay) mod 2 nh`. Each output is the two polyphase dots,
    /// in tap order with their zero-tap skip, then `lo + hi`, evaluated
    /// lane-parallel across adjacent columns; taps whose sample lies
    /// outside the extended channel are skipped as in the row pass.
    ///
    /// Returns what one column's row call costs, as
    /// [`Self::forward_cols`] does.
    ///
    /// The caller checks the shapes (as `FpgaKernel::synthesize_cols`
    /// does): the channels are non-empty and equal-sized and `out` is
    /// `width` x `2 nh`. Other shapes are a caller bug and may panic or
    /// leave `out` partly written.
    ///
    /// # Errors
    ///
    /// * [`ZynqError::CoefficientsNotLoaded`] before a coefficient load.
    /// * [`ZynqError::BufferOverrun`] if the channels exceed a BRAM area.
    #[allow(clippy::too_many_arguments)]
    pub fn inverse_cols(
        &mut self,
        lo: &[f32],
        hi: &[f32],
        width: usize,
        left: usize,
        phase: usize,
        delay: usize,
        out: &mut [f32],
    ) -> Result<EngineRun, ZynqError> {
        if self.loaded_synthesis.is_none() {
            return Err(ZynqError::CoefficientsNotLoaded);
        }
        let nh = lo.len() / width;
        debug_assert!(nh > 0 && hi.len() == lo.len() && out.len() == 2 * lo.len());
        let n = 2 * nh;
        let words_in = 2 * (left + nh);
        self.check_bram(words_in, n)?;

        self.regs.hw_set(EngineReg::Status, status::BUSY);
        let taps = self.s_lp_even.len() as isize;
        let channel = (left + nh) as isize;
        let d = delay % n;
        for m in 0..n {
            // Output `m` fires the polyphase banks of its parity over the
            // extended-channel window that starts at `start`, as
            // `window_dot` does.
            let mp = m as isize - phase as isize;
            let parity = mp & 1;
            let (t_lp, t_hp) = if parity == 0 {
                (&self.s_lp_even, &self.s_hp_even)
            } else {
                (&self.s_lp_odd, &self.s_hp_odd)
            };
            let start = left as isize + (mp - parity) / 2 - (taps - 1);
            let row = |i: usize| {
                let p = start + i as isize;
                ((0..channel).contains(&p))
                    .then(|| (p - left as isize).rem_euclid(nh as isize) as usize * width)
            };
            fill_tap_slots(&mut self.lp_slots, t_lp, row);
            fill_tap_slots(&mut self.hp_slots, t_hp, row);
            let dst = (m + n - d) % n;
            let out = &mut out[dst * width..(dst + 1) * width];
            synth_pass(lo, hi, &self.lp_slots, &self.hp_slots, out);
        }
        Ok(self.finish(words_in, n, n, Direction::Inverse))
    }

    /// Rejects a pass whose input or output exceeds a BRAM area.
    fn check_bram(&self, words_in: usize, words_out: usize) -> Result<(), ZynqError> {
        let bram = self.cfg.bram_words_per_buffer;
        for (what, requested) in [("input bram", words_in), ("output bram", words_out)] {
            if requested > bram {
                return Err(ZynqError::BufferOverrun {
                    what,
                    requested,
                    capacity: bram,
                });
            }
        }
        Ok(())
    }

    /// Retires a pass: flips the status register to [`status::DONE`],
    /// performs the PS's completion poll, and returns the cost of one row
    /// call (for a column pass, of one column's).
    fn finish(
        &mut self,
        words_in: usize,
        words_out: usize,
        iterations: usize,
        dir: Direction,
    ) -> EngineRun {
        self.regs.hw_set(EngineReg::Status, status::DONE);
        self.regs.read(EngineReg::Status); // completion poll
        self.run_cost(words_in, words_out, iterations, dir)
    }

    /// The cost of one row call moving `words_in`/`words_out` words over
    /// `iterations` pipeline iterations.
    fn run_cost(
        &self,
        words_in: usize,
        words_out: usize,
        iterations: usize,
        dir: Direction,
    ) -> EngineRun {
        EngineRun {
            cycles: RowCycles::of(words_in, words_out, iterations, dir, &self.cfg),
            words_in,
            words_out,
        }
    }
}

/// Refreshes a loaded-filter shadow copy in place, reusing its allocations
/// so steady-state coefficient reloads stay off the allocator.
fn store_shadow(slot: &mut Option<(Vec<f32>, Vec<f32>)>, a: &[f32], b: &[f32]) {
    match slot {
        Some((sa, sb)) => {
            sa.clear();
            sa.extend_from_slice(a);
            sb.clear();
            sb.extend_from_slice(b);
        }
        None => *slot = Some((a.to_vec(), b.to_vec())),
    }
}

/// The MAC pair of `N` consecutive outputs from `x0`: output `x` accumulates
/// `c · data[offset + x]` over every slot, in slot order, into a lowpass
/// and a highpass sum that both start at `+0`, exactly as the
/// one-output-per-clock datapath does.
#[inline(always)]
fn mac_pair_lanes<const N: usize>(
    data: &[f32],
    slots: &[(f32, f32, usize)],
    x0: usize,
) -> ([f32; N], [f32; N]) {
    let mut lo = [0.0f32; N];
    let mut hi = [0.0f32; N];
    for &(cl, ch, off) in slots {
        let x = &data[off + x0..off + x0 + N];
        for ((lo, hi), &x) in lo.iter_mut().zip(&mut hi).zip(x) {
            *lo += cl * x;
            *hi += ch * x;
        }
    }
    (lo, hi)
}

/// One bank's dot for `N` consecutive outputs from `x0` (see
/// [`mac_pair_lanes`]).
#[inline(always)]
fn mac_lanes<const N: usize>(data: &[f32], slots: &[(f32, usize)], x0: usize) -> [f32; N] {
    let mut acc = [0.0f32; N];
    for &(c, off) in slots {
        for (a, &x) in acc.iter_mut().zip(&data[off + x0..off + x0 + N]) {
            *a += c * x;
        }
    }
    acc
}

/// Writes `lo.len()` consecutive forward outputs: `LANES` at a time, then
/// one by one.
fn mac_pair_pass(data: &[f32], slots: &[(f32, f32, usize)], lo: &mut [f32], hi: &mut [f32]) {
    let blocks = lo.chunks_exact_mut(LANES).zip(hi.chunks_exact_mut(LANES));
    let full = blocks.len() * LANES;
    for (b, (lo, hi)) in blocks.enumerate() {
        let (l, h) = mac_pair_lanes::<LANES>(data, slots, b * LANES);
        lo.copy_from_slice(&l);
        hi.copy_from_slice(&h);
    }
    for x in full..lo.len() {
        let ([l], [h]) = mac_pair_lanes::<1>(data, slots, x);
        lo[x] = l;
        hi[x] = h;
    }
}

/// Writes `out.len()` consecutive inverse outputs, each the lowpass dot
/// plus the highpass dot: `LANES` at a time, then one by one.
fn synth_pass(lo: &[f32], hi: &[f32], lp: &[(f32, usize)], hp: &[(f32, usize)], out: &mut [f32]) {
    let full = out.len() / LANES * LANES;
    for (b, out) in out.chunks_exact_mut(LANES).enumerate() {
        let (l, h) = (
            mac_lanes::<LANES>(lo, lp, b * LANES),
            mac_lanes::<LANES>(hi, hp, b * LANES),
        );
        for (o, (l, h)) in out.iter_mut().zip(l.iter().zip(&h)) {
            *o = l + h;
        }
    }
    for (x, o) in out.iter_mut().enumerate().skip(full) {
        let ([l], [h]) = (mac_lanes::<1>(lo, lp, x), mac_lanes::<1>(hi, hp, x));
        *o = l + h;
    }
}

/// Lists the nonzero taps of a front-padded reversed bank whose sample
/// exists as `(tap, offset)` slots, in tap order: `offset(i)` is where tap
/// `i`'s sample lies for output 0, or `None` outside the channel.
fn fill_tap_slots(
    slots: &mut Vec<(f32, usize)>,
    taps: &[f32],
    offset: impl Fn(usize) -> Option<usize>,
) {
    slots.clear();
    let live = taps.iter().enumerate().filter(|(_, &c)| c != 0.0);
    slots.extend(live.filter_map(|(i, &c)| offset(i).map(|o| (c, o))));
}

/// Dot product of a front-padded reversed coefficient bank against the
/// channel window ending at absolute index `top`.
#[inline]
fn window_dot(ch: &[f32], top: isize, taps: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    let t = taps.len() as isize;
    for (i, &c) in taps.iter().enumerate() {
        let p = top - (t - 1) + i as isize;
        if c != 0.0 && p >= 0 && (p as usize) < ch.len() {
            acc += c * ch[p as usize];
        }
    }
    acc
}

fn fill_reversed_front_padded(dst: &mut [f32], taps: &[f32]) {
    dst.fill(0.0);
    let off = dst.len() - taps.len();
    for (i, &v) in taps.iter().rev().enumerate() {
        dst[off + i] = v;
    }
}

fn fill_polyphase(even: &mut [f32], odd: &mut [f32], taps: &[f32]) {
    // Even/odd tap subsequences, reversed and front-padded like the analysis
    // banks — written directly so reloads never allocate.
    even.fill(0.0);
    odd.fill(0.0);
    let ne = taps.len().div_ceil(2);
    let no = taps.len() / 2;
    let off_e = even.len() - ne;
    let off_o = odd.len() - no;
    for (i, &v) in taps.iter().step_by(2).enumerate() {
        even[off_e + (ne - 1 - i)] = v;
    }
    for (i, &v) in taps.iter().skip(1).step_by(2).enumerate() {
        odd[off_o + (no - 1 - i)] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::acp_burst_pl_cycles;
    use wavefuse_dtcwt::dwt1d::{analyze, synthesize, BankTaps, Phase};
    use wavefuse_dtcwt::{FilterBank, FilterKernel, ScalarKernel};

    fn signal(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * i + 3) % 17) as f32 * 0.5 - 4.0)
            .collect()
    }

    /// The forward datapath one output per clock, as the HLS code runs it:
    /// warm the shift register up to the first window, then shift two
    /// samples in and fire the MAC pair per output.
    fn reference_forward_row(
        eng: &WaveletEngine,
        ext: &[f32],
        left: usize,
        phase: usize,
        lo: &mut [f32],
        hi: &mut [f32],
    ) {
        let t = eng.cfg.max_taps;
        let mut sr = vec![0.0f32; t];
        let at = |p: isize| -> f32 {
            if p >= 0 && (p as usize) < ext.len() {
                ext[p as usize]
            } else {
                0.0
            }
        };
        let c0 = (left + phase) as isize;
        for p in (c0 - t as isize + 1)..=c0 {
            shift_in(&mut sr, at(p));
        }
        emit(&sr, &eng.c_lp, &eng.c_hp, &mut lo[0], &mut hi[0]);
        for k in 1..lo.len() {
            let c = c0 + 2 * k as isize;
            shift_in(&mut sr, at(c - 1));
            shift_in(&mut sr, at(c));
            emit(&sr, &eng.c_lp, &eng.c_hp, &mut lo[k], &mut hi[k]);
        }
    }

    /// Shifts one sample into the register (oldest at index 0), as the HLS
    /// code's `shift_register[j - 1] = shift_register[j + 1]` cascade does.
    fn shift_in(sr: &mut [f32], v: f32) {
        sr.copy_within(1.., 0);
        let last = sr.len() - 1;
        sr[last] = v;
    }

    /// The per-clock MAC pair: both coefficient banks against the shared
    /// shift register.
    fn emit(sr: &[f32], c_lp: &[f32], c_hp: &[f32], lo: &mut f32, hi: &mut f32) {
        let mut lp_acc = 0.0f32;
        let mut hp_acc = 0.0f32;
        for j in 0..sr.len() {
            lp_acc += c_lp[j] * sr[j];
            hp_acc += c_hp[j] * sr[j];
        }
        *lo = lp_acc;
        *hi = hp_acc;
    }

    /// The inverse datapath one output per clock: both polyphase banks of
    /// the output's parity against the channel windows.
    fn reference_inverse_row(
        eng: &WaveletEngine,
        lo_ext: &[f32],
        hi_ext: &[f32],
        left: usize,
        phase: usize,
        out: &mut [f32],
    ) {
        for (m, o) in out.iter_mut().enumerate() {
            let mp = m as isize - phase as isize;
            let parity = (mp & 1) as usize;
            let (t_lp, t_hp) = if parity == 0 {
                (&eng.s_lp_even, &eng.s_hp_even)
            } else {
                (&eng.s_lp_odd, &eng.s_hp_odd)
            };
            let k_top = (mp - parity as isize) / 2;
            *o = window_dot(lo_ext, left as isize + k_top, t_lp)
                + window_dot(hi_ext, left as isize + k_top, t_hp);
        }
    }

    /// Bit pattern with every NaN mapped to one canonical NaN: the lane
    /// loops may commute `fadd` operands, which moves only NaN payloads.
    fn canonical_bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| {
                if x.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            })
            .collect()
    }

    /// Rows to sweep: a finite signal, and the same with NaN and ±inf
    /// seeded at both ends and in the middle.
    fn sweep_rows(n: usize) -> [Vec<f32>; 2] {
        let finite = signal(n);
        let mut poisoned = finite.clone();
        for (i, v) in [
            (0, f32::NAN),
            (n / 2, f32::INFINITY),
            (n - 1, f32::NEG_INFINITY),
        ] {
            poisoned[i] = v;
        }
        [finite, poisoned]
    }

    fn sweep_banks() -> Vec<FilterBank> {
        vec![
            FilterBank::haar().unwrap(),
            FilterBank::legall_5_3().unwrap(),
            FilterBank::cdf_9_7().unwrap(),
            FilterBank::near_sym_b().unwrap(),
            FilterBank::qshift_b().unwrap(),
        ]
    }

    fn assert_rows_match(got: &[f32], want: &[f32], finite: bool, what: &str) {
        if finite {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(want), "{what}");
        } else {
            assert_eq!(canonical_bits(got), canonical_bits(want), "{what}");
        }
    }

    #[test]
    fn lane_parallel_forward_is_bit_identical_to_the_shift_register() {
        for bank in sweep_banks() {
            let taps = BankTaps::new(&bank);
            let left = taps.h0.len().max(taps.h1.len());
            let mut eng = WaveletEngine::new(ZynqConfig::default());
            eng.load_analysis_filters(&taps.h0, &taps.h1).unwrap();
            for width in 1..=70 {
                for (r, x) in sweep_rows(2 * width).iter().enumerate() {
                    let mut ext = Vec::new();
                    wavefuse_dtcwt::dwt1d::extend_circular_into(x, left, left, &mut ext);
                    for phase in [0, 1] {
                        let (mut lo, mut hi) = (vec![0.0f32; width], vec![0.0f32; width]);
                        eng.forward_row(&ext, left, phase, &mut lo, &mut hi)
                            .unwrap();
                        let (mut lo_ref, mut hi_ref) = (vec![0.0f32; width], vec![0.0f32; width]);
                        reference_forward_row(&eng, &ext, left, phase, &mut lo_ref, &mut hi_ref);
                        let what = format!("{} width {width} phase {phase} row {r}", bank.name());
                        assert_rows_match(&lo, &lo_ref, r == 0, &what);
                        assert_rows_match(&hi, &hi_ref, r == 0, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn lane_parallel_inverse_is_bit_identical_to_the_window_dots() {
        for bank in sweep_banks() {
            let taps = BankTaps::new(&bank);
            let left = taps.g0.len().max(taps.g1.len()) / 2 + 5;
            let mut eng = WaveletEngine::new(ZynqConfig::default());
            eng.load_synthesis_filters(&taps.g0, &taps.g1).unwrap();
            for width in 1..=70usize {
                let half = width.div_ceil(2);
                let [lo_fin, lo_bad] = sweep_rows(half);
                let hi_fin: Vec<f32> = lo_fin.iter().rev().map(|v| v * 0.75).collect();
                let hi_bad: Vec<f32> = lo_bad.iter().rev().copied().collect();
                for (r, (lo, hi)) in [(lo_fin, hi_fin), (lo_bad, hi_bad)].iter().enumerate() {
                    let (mut lo_ext, mut hi_ext) = (Vec::new(), Vec::new());
                    wavefuse_dtcwt::dwt1d::extend_circular_into(lo, left, 0, &mut lo_ext);
                    wavefuse_dtcwt::dwt1d::extend_circular_into(hi, left, 0, &mut hi_ext);
                    for phase in [0, 1] {
                        let mut out = vec![0.0f32; width];
                        eng.inverse_row(&lo_ext, &hi_ext, left, phase, &mut out)
                            .unwrap();
                        let mut out_ref = vec![0.0f32; width];
                        reference_inverse_row(&eng, &lo_ext, &hi_ext, left, phase, &mut out_ref);
                        let what = format!("{} width {width} phase {phase} row {r}", bank.name());
                        assert_rows_match(&out, &out_ref, r == 0, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn lane_parallel_paths_match_at_every_left_margin() {
        // Margins below, at and above `max_taps - 1`: windows that overhang
        // either end of the row take the virtual zeros or the edge dots.
        let bank = FilterBank::near_sym_b().unwrap();
        let taps = BankTaps::new(&bank);
        let mut eng = WaveletEngine::new(ZynqConfig::default());
        eng.load_analysis_filters(&taps.h0, &taps.h1).unwrap();
        eng.load_synthesis_filters(&taps.g0, &taps.g1).unwrap();
        let x = signal(61);
        for left in 0..=24 {
            for phase in [0, 1] {
                for width in [1, 9, 24, 40] {
                    let (mut lo, mut hi) = (vec![0.0f32; width], vec![0.0f32; width]);
                    eng.forward_row(&x, left, phase, &mut lo, &mut hi).unwrap();
                    let (mut lo_ref, mut hi_ref) = (vec![0.0f32; width], vec![0.0f32; width]);
                    reference_forward_row(&eng, &x, left, phase, &mut lo_ref, &mut hi_ref);
                    let what = format!("forward left {left} phase {phase} width {width}");
                    assert_rows_match(&lo, &lo_ref, true, &what);
                    assert_rows_match(&hi, &hi_ref, true, &what);

                    let mut out = vec![0.0f32; 2 * width];
                    eng.inverse_row(&x, &x[..40], left, phase, &mut out)
                        .unwrap();
                    let mut out_ref = vec![0.0f32; 2 * width];
                    reference_inverse_row(&eng, &x, &x[..40], left, phase, &mut out_ref);
                    let what = format!("inverse left {left} phase {phase} width {width}");
                    assert_rows_match(&out, &out_ref, true, &what);
                }
            }
        }
    }

    #[test]
    fn forward_rejects_mismatched_outputs() {
        let mut eng = WaveletEngine::new(ZynqConfig::default());
        let h = std::f32::consts::FRAC_1_SQRT_2;
        eng.load_analysis_filters(&[h, h], &[h, -h]).unwrap();
        let (mut lo, mut hi) = (vec![0.0f32; 4], vec![0.0f32; 3]);
        assert_eq!(
            eng.forward_row(&[1.0; 12], 2, 0, &mut lo, &mut hi),
            Err(ZynqError::RowShape { lo: 4, hi: 3 })
        );
        assert_eq!(
            eng.registers().read(crate::bus::EngineReg::Status),
            status::IDLE
        );
    }

    #[test]
    fn forward_rejects_an_empty_row() {
        let mut eng = WaveletEngine::new(ZynqConfig::default());
        let h = std::f32::consts::FRAC_1_SQRT_2;
        eng.load_analysis_filters(&[h, h], &[h, -h]).unwrap();
        assert_eq!(
            eng.forward_row(&[1.0; 12], 2, 0, &mut [], &mut []),
            Err(ZynqError::RowShape { lo: 0, hi: 0 })
        );
    }

    #[test]
    fn forward_matches_scalar_kernel() {
        for bank in [
            FilterBank::haar().unwrap(),
            FilterBank::near_sym_b().unwrap(),
            FilterBank::qshift_b().unwrap(),
        ] {
            let taps = BankTaps::new(&bank);
            let x = signal(40);
            for phase in [0usize, 1] {
                // Scalar reference through the public 1-D API.
                let mut sc = ScalarKernel::new();
                let (lo_ref, hi_ref) = analyze(
                    &mut sc,
                    &taps,
                    &x,
                    if phase == 0 { Phase::A } else { Phase::B },
                )
                .unwrap();
                // Engine path on the identical extended row.
                let mut ext = Vec::new();
                wavefuse_dtcwt::dwt1d::extend_circular_into(
                    &x,
                    taps.h0.len().max(taps.h1.len()),
                    taps.h0.len().max(taps.h1.len()),
                    &mut ext,
                );
                let left = taps.h0.len().max(taps.h1.len());
                let mut eng = WaveletEngine::new(ZynqConfig::default());
                eng.load_analysis_filters(&taps.h0, &taps.h1).unwrap();
                let (mut lo, mut hi) = (vec![0.0f32; 20], vec![0.0f32; 20]);
                eng.forward_row(&ext, left, phase, &mut lo, &mut hi)
                    .unwrap();
                for i in 0..20 {
                    assert!(
                        (lo[i] - lo_ref[i]).abs() < 1e-4,
                        "{} lo[{i}] {} vs {}",
                        bank.name(),
                        lo[i],
                        lo_ref[i]
                    );
                    assert!((hi[i] - hi_ref[i]).abs() < 1e-4, "{} hi[{i}]", bank.name());
                }
            }
        }
    }

    #[test]
    fn inverse_matches_scalar_kernel() {
        let bank = FilterBank::cdf_9_7().unwrap();
        let taps = BankTaps::new(&bank);
        let x = signal(32);
        let mut sc = ScalarKernel::new();
        let (lo, hi) = analyze(&mut sc, &taps, &x, Phase::A).unwrap();
        let reference = synthesize(&mut sc, &taps, &lo, &hi, Phase::A).unwrap();

        // Engine path: same extended channels, raw (unrotated) output, then
        // apply the same delay rotation the 1-D layer applies.
        let left = taps.g0.len().max(taps.g1.len()) / 2 + 5;
        let mut lo_ext = Vec::new();
        let mut hi_ext = Vec::new();
        wavefuse_dtcwt::dwt1d::extend_circular_into(&lo, left, 0, &mut lo_ext);
        wavefuse_dtcwt::dwt1d::extend_circular_into(&hi, left, 0, &mut hi_ext);
        let mut eng = WaveletEngine::new(ZynqConfig::default());
        eng.load_synthesis_filters(&taps.g0, &taps.g1).unwrap();
        let mut raw = vec![0.0f32; 32];
        eng.inverse_row(&lo_ext, &hi_ext, left, 0, &mut raw)
            .unwrap();
        // Compare against the scalar kernel's raw output.
        let mut sc_raw = vec![0.0f32; 32];
        sc.synthesize_row(&lo_ext, &hi_ext, left, &taps.g0, &taps.g1, 0, &mut sc_raw);
        for i in 0..32 {
            assert!((raw[i] - sc_raw[i]).abs() < 1e-4, "raw[{i}]");
        }
        // And the rotated result reconstructs the input.
        let d = taps.delay() % 32;
        for m in 0..32 {
            let v = raw[(m + d) % 32];
            assert!((v - reference[m]).abs() < 1e-4, "rotated[{m}]");
        }
    }

    #[test]
    fn engine_requires_coefficient_load() {
        let mut eng = WaveletEngine::new(ZynqConfig::default());
        let mut lo = vec![0.0f32; 2];
        let mut hi = vec![0.0f32; 2];
        assert_eq!(
            eng.forward_row(&[0.0; 8], 2, 0, &mut lo, &mut hi),
            Err(ZynqError::CoefficientsNotLoaded)
        );
        let mut out = vec![0.0f32; 4];
        assert_eq!(
            eng.inverse_row(&[0.0; 8], &[0.0; 8], 4, 0, &mut out),
            Err(ZynqError::CoefficientsNotLoaded)
        );
    }

    #[test]
    fn oversized_filter_rejected() {
        let mut eng = WaveletEngine::new(ZynqConfig::default());
        let too_long = vec![0.1f32; 21];
        assert!(matches!(
            eng.load_analysis_filters(&too_long, &too_long),
            Err(ZynqError::FilterTooLong { taps: 21, .. })
        ));
    }

    #[test]
    fn bram_capacity_enforced() {
        let cfg = ZynqConfig::default();
        let mut eng = WaveletEngine::new(cfg.clone());
        let h = std::f32::consts::FRAC_1_SQRT_2;
        eng.load_analysis_filters(&[h, h], &[h, -h]).unwrap();
        let huge = vec![0.0f32; cfg.bram_words_per_buffer + 1];
        let mut lo = vec![0.0f32; 4];
        let mut hi = vec![0.0f32; 4];
        assert!(matches!(
            eng.forward_row(&huge, 2, 0, &mut lo, &mut hi),
            Err(ZynqError::BufferOverrun { .. })
        ));
    }

    #[test]
    fn cycle_count_is_transfer_plus_pipeline() {
        let cfg = ZynqConfig::default();
        let mut eng = WaveletEngine::new(cfg.clone());
        let h = std::f32::consts::FRAC_1_SQRT_2;
        eng.load_analysis_filters(&[h, h], &[h, -h]).unwrap();
        let ext = vec![1.0f32; 100];
        let mut lo = vec![0.0f32; 44];
        let mut hi = vec![0.0f32; 44];
        let run = eng.forward_row(&ext, 6, 0, &mut lo, &mut hi).unwrap();
        let expect = acp_burst_pl_cycles(100, &cfg)
            + cfg.pipeline_flush_pl_cycles
            + 44
            + acp_burst_pl_cycles(88, &cfg);
        assert_eq!(run.cycles.pl_cycles(), expect);
        assert_eq!(run.words_in, 100);
        assert_eq!(run.words_out, 88);
    }

    #[test]
    fn status_register_lifecycle() {
        let mut eng = WaveletEngine::new(ZynqConfig::default());
        use crate::bus::EngineReg;
        assert_eq!(eng.registers().read(EngineReg::Status), status::IDLE);
        let h = std::f32::consts::FRAC_1_SQRT_2;
        eng.load_analysis_filters(&[h, h], &[h, -h]).unwrap();
        let ext = vec![1.0f32; 12];
        let (mut lo, mut hi) = (vec![0.0f32; 4], vec![0.0f32; 4]);
        eng.forward_row(&ext, 2, 0, &mut lo, &mut hi).unwrap();
        assert_eq!(eng.registers().read(EngineReg::Status), status::DONE);
    }

    #[test]
    fn filter_cache_checks() {
        let mut eng = WaveletEngine::new(ZynqConfig::default());
        let h = std::f32::consts::FRAC_1_SQRT_2;
        assert!(!eng.analysis_filters_match(&[h, h], &[h, -h]));
        eng.load_analysis_filters(&[h, h], &[h, -h]).unwrap();
        assert!(eng.analysis_filters_match(&[h, h], &[h, -h]));
        assert!(!eng.analysis_filters_match(&[h, h], &[h, h]));
    }
}
