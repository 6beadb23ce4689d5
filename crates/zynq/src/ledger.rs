//! Cycle accounting for the simulated platform.
//!
//! [`RowCycles`] is the one cost of a row pass through the FPGA path: the
//! engine, the kernel's ledger, the analytic cost model and the Fig. 5
//! timeline all charge a row through it.

use crate::bus::acp_burst_pl_cycles;
use crate::config::ZynqConfig;
use crate::driver::user_copy_ps_cycles;

/// Transform direction of a row pass. The two directions differ in the
/// driver's per-call overhead (see [`ZynqConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward (analysis) transform.
    Forward,
    /// Inverse (synthesis) transform.
    Inverse,
}

/// The cost of one row pass through the FPGA path, in integer cycles.
///
/// A row is a driver round trip plus the six AXI4-Lite writes that arm the
/// engine (PS), a user-space copy in and out of the DMA area (PS), an ACP
/// burst in and out (PL), and the II=1 pipeline (PL). Under the paper's
/// Fig. 5 double buffering the copy of one row overlaps the engine run of
/// the previous one, so a row's serial time is
/// `ps + max(copy, dma + pipeline)`.
///
/// # Examples
///
/// ```
/// use wavefuse_zynq::{Direction, RowCycles, ZynqConfig};
///
/// let cfg = ZynqConfig::default();
/// let row = RowCycles::of(88, 88, 44, Direction::Forward, &cfg);
/// assert_eq!(row.copy_cycles, 264); // 176 words at 1.5 cycles each
/// assert_eq!(row.pl_cycles(), row.dma_cycles + row.pipeline_cycles);
/// assert!(row.serial_seconds(&cfg) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowCycles {
    /// PS cycles of the driver round trip for the direction plus the six
    /// AXI4-Lite command writes.
    pub ps_cycles: u64,
    /// PS cycles of the two user copies (row in, results out).
    pub copy_cycles: u64,
    /// PL cycles of the two ACP bursts.
    pub dma_cycles: u64,
    /// PL cycles of the pipeline: flush plus one iteration per clock.
    pub pipeline_cycles: u64,
}

impl RowCycles {
    /// The cost of a row moving `words_in` words into the engine and
    /// `words_out` words back, over `iterations` pipeline clocks.
    pub fn of(
        words_in: usize,
        words_out: usize,
        iterations: usize,
        dir: Direction,
        cfg: &ZynqConfig,
    ) -> Self {
        RowCycles {
            ps_cycles: Self::call_overhead_ps_cycles(dir, cfg) + 6 * cfg.axil_write_ps_cycles,
            copy_cycles: user_copy_ps_cycles(words_in, cfg) + user_copy_ps_cycles(words_out, cfg),
            dma_cycles: acp_burst_pl_cycles(words_in, cfg) + acp_burst_pl_cycles(words_out, cfg),
            pipeline_cycles: cfg.pipeline_flush_pl_cycles + iterations as u64,
        }
    }

    /// PS cycles of one driver (`ioctl`) round trip in direction `dir`,
    /// before the command writes.
    pub(crate) fn call_overhead_ps_cycles(dir: Direction, cfg: &ZynqConfig) -> u64 {
        match dir {
            Direction::Forward => cfg.call_overhead_ps_cycles_forward,
            Direction::Inverse => cfg.call_overhead_ps_cycles_inverse,
        }
    }

    /// PL cycles of the row: both bursts plus the pipeline.
    pub fn pl_cycles(&self) -> u64 {
        self.dma_cycles + self.pipeline_cycles
    }

    /// Seconds of the row under the Fig. 5 schedule: the PS overhead, then
    /// the slower of the user copy and the engine run.
    pub fn serial_seconds(&self, cfg: &ZynqConfig) -> f64 {
        let copy_s = self.copy_cycles as f64 * cfg.ps_period();
        let engine_s = self.pl_cycles() as f64 * cfg.pl_period();
        self.ps_cycles as f64 * cfg.ps_period() + copy_s.max(engine_s)
    }
}

/// PS cycles of one filter-coefficient load: the mode write plus one
/// AXI4-Lite write per coefficient slot of both banks.
pub fn coeff_load_ps_cycles(cfg: &ZynqConfig) -> u64 {
    (2 * cfg.max_taps as u64 + 1) * cfg.axil_write_ps_cycles
}

/// Accumulated cost of work routed through the FPGA path.
///
/// PS (ARM) cycles and PL (FPGA) cycles are tracked separately because they
/// run in different clock domains *and* different power domains — the power
/// model needs both. `elapsed_seconds` is accumulated at row granularity
/// with the double-buffering overlap of the paper's Fig. 5 applied (user
/// memcpy of one row overlaps engine processing of the previous).
///
/// # Examples
///
/// ```
/// use wavefuse_zynq::{CycleLedger, ZynqConfig};
///
/// let mut a = CycleLedger::default();
/// a.pl_cycles = 1_000_000;
/// assert!((a.pl_busy_seconds(&ZynqConfig::default()) - 0.01).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CycleLedger {
    /// Engine invocations (one per row transform).
    pub engine_calls: u64,
    /// Coefficient reload operations.
    pub coeff_loads: u64,
    /// PS cycles spent in driver/command overhead (ioctl, AXI-Lite pokes).
    pub ps_overhead_cycles: u64,
    /// PS cycles spent in user-space `memcpy` to/from the kernel DMA area.
    pub ps_copy_cycles: u64,
    /// PL cycles: DMA beats, pipeline fill and MAC iterations.
    pub pl_cycles: u64,
    /// Total 32-bit words moved over the ACP.
    pub dma_words: u64,
    /// Wall-clock seconds, with copy/engine overlap applied.
    pub elapsed_seconds: f64,
}

impl CycleLedger {
    /// A zeroed ledger.
    pub fn new() -> Self {
        CycleLedger::default()
    }

    /// Adds another ledger's counts into this one.
    pub fn merge(&mut self, other: &CycleLedger) {
        self.engine_calls += other.engine_calls;
        self.coeff_loads += other.coeff_loads;
        self.ps_overhead_cycles += other.ps_overhead_cycles;
        self.ps_copy_cycles += other.ps_copy_cycles;
        self.pl_cycles += other.pl_cycles;
        self.dma_words += other.dma_words;
        self.elapsed_seconds += other.elapsed_seconds;
    }

    /// Charges one row pass: its counters and its Fig. 5 serial time.
    pub fn charge_row(&mut self, row: &RowCycles, cfg: &ZynqConfig) {
        self.engine_calls += 1;
        self.ps_overhead_cycles += row.ps_cycles;
        self.ps_copy_cycles += row.copy_cycles;
        self.pl_cycles += row.pl_cycles();
        self.elapsed_seconds += row.serial_seconds(cfg);
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = CycleLedger::default();
    }

    /// Seconds the PS spent busy on this work.
    pub fn ps_busy_seconds(&self, cfg: &ZynqConfig) -> f64 {
        (self.ps_overhead_cycles + self.ps_copy_cycles) as f64 * cfg.ps_period()
    }

    /// Seconds the PL engine spent busy.
    pub fn pl_busy_seconds(&self, cfg: &ZynqConfig) -> f64 {
        self.pl_cycles as f64 * cfg.pl_period()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_all_fields() {
        let mut a = CycleLedger {
            engine_calls: 1,
            coeff_loads: 2,
            ps_overhead_cycles: 3,
            ps_copy_cycles: 4,
            pl_cycles: 5,
            dma_words: 6,
            elapsed_seconds: 0.5,
        };
        a.merge(&a.clone());
        assert_eq!(a.engine_calls, 2);
        assert_eq!(a.pl_cycles, 10);
        assert_eq!(a.dma_words, 12);
        assert!((a.elapsed_seconds - 1.0).abs() < 1e-12);
        a.reset();
        assert_eq!(a, CycleLedger::default());
    }

    #[test]
    fn busy_seconds_use_right_clock() {
        let cfg = ZynqConfig::default();
        let l = CycleLedger {
            ps_overhead_cycles: 533,
            ps_copy_cycles: 0,
            pl_cycles: 100,
            ..CycleLedger::default()
        };
        assert!((l.ps_busy_seconds(&cfg) - 1e-6).abs() < 1e-12);
        assert!((l.pl_busy_seconds(&cfg) - 1e-6).abs() < 1e-12);
    }
}
