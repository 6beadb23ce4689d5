//! PS/PL activity timeline of the double-buffered row pipeline.
//!
//! Renders the paper's Fig. 5 as data: for a batch of rows, when the PS is
//! busy with driver overhead and user `memcpy`, when the PL engine is
//! streaming and filtering, and how the ping-pong buffering overlaps the
//! two. The `repro -- timeline` subcommand prints the ASCII Gantt.

use crate::config::ZynqConfig;
use crate::ledger::RowCycles;

/// Which unit an event occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The ARM processing system.
    Ps,
    /// The programmable-logic wavelet engine.
    Pl,
}

/// One busy interval on one lane.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Lane the event occupies.
    pub lane: Lane,
    /// Event kind (`"ioctl"`, `"memcpy"`, `"engine"`).
    pub label: &'static str,
    /// Start time, microseconds from batch start.
    pub start_us: f64,
    /// End time, microseconds.
    pub end_us: f64,
    /// Row index the event belongs to.
    pub row: usize,
}

/// Builds the steady-state schedule of `rows` identical rows costing `row`
/// each, under the Fig. 5 double-buffering discipline: the user copy of
/// row *n* overlaps the engine run of row *n−1*.
pub fn double_buffer_timeline(
    rows: usize,
    row: &RowCycles,
    cfg: &ZynqConfig,
) -> Vec<TimelineEvent> {
    let ps_us = 1e6 / cfg.ps_clk_hz;
    let pl_us = 1e6 / cfg.pl_clk_hz;
    let overhead_us = row.ps_cycles as f64 * ps_us;
    let copy_us = row.copy_cycles as f64 * ps_us;
    let engine_us = row.pl_cycles() as f64 * pl_us;

    let mut events = Vec::with_capacity(rows * 3);
    let mut t = 0.0f64;
    for row in 0..rows {
        events.push(TimelineEvent {
            lane: Lane::Ps,
            label: "ioctl",
            start_us: t,
            end_us: t + overhead_us,
            row,
        });
        t += overhead_us;
        // Copy of this row's successor overlaps this row's engine run.
        events.push(TimelineEvent {
            lane: Lane::Ps,
            label: "memcpy",
            start_us: t,
            end_us: t + copy_us,
            row,
        });
        events.push(TimelineEvent {
            lane: Lane::Pl,
            label: "engine",
            start_us: t,
            end_us: t + engine_us,
            row,
        });
        t += copy_us.max(engine_us);
    }
    events
}

/// Total span of a timeline, microseconds.
pub fn span_us(events: &[TimelineEvent]) -> f64 {
    events.iter().fold(0.0, |m, e| m.max(e.end_us))
}

/// Renders the two lanes as an ASCII Gantt of `columns` characters.
pub fn render_ascii(events: &[TimelineEvent], columns: usize) -> String {
    let span = span_us(events).max(1e-9);
    let mut ps: Vec<char> = vec![' '; columns];
    let mut pl: Vec<char> = vec![' '; columns];
    for e in events {
        let c0 = ((e.start_us / span) * columns as f64).floor() as usize;
        let c1 = (((e.end_us / span) * columns as f64).ceil() as usize).min(columns);
        let (lane, glyph) = match (e.lane, e.label) {
            (Lane::Ps, "ioctl") => (&mut ps, '#'),
            (Lane::Ps, _) => (&mut ps, '='),
            (Lane::Pl, _) => (&mut pl, '@'),
        };
        for slot in lane[c0..c1.max(c0 + 1).min(columns)].iter_mut() {
            *slot = glyph;
        }
    }
    let busy = |l: &[char]| l.iter().filter(|&&c| c != ' ').count() as f64 / columns as f64;
    format!(
        "PS |{}| {:.0}% busy   (# ioctl/cmd, = user memcpy)\nPL |{}| {:.0}% busy   (@ dma + filter pipeline)\nspan: {:.1} us\n",
        ps.iter().collect::<String>(),
        busy(&ps) * 100.0,
        pl.iter().collect::<String>(),
        busy(&pl) * 100.0,
        span
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{CycleLedger, Direction};

    fn row(words: usize, cfg: &ZynqConfig) -> RowCycles {
        RowCycles::of(words, words, words / 2, Direction::Forward, cfg)
    }

    #[test]
    fn events_are_ordered_and_nonoverlapping_per_lane() {
        let cfg = ZynqConfig::default();
        let events = double_buffer_timeline(6, &row(88, &cfg), &cfg);
        assert_eq!(events.len(), 18);
        for lane in [Lane::Ps, Lane::Pl] {
            let mut last_end = 0.0f64;
            for e in events.iter().filter(|e| e.lane == lane) {
                assert!(e.start_us + 1e-12 >= last_end, "{lane:?} overlap at {e:?}");
                assert!(e.end_us >= e.start_us);
                last_end = e.end_us;
            }
        }
    }

    #[test]
    fn span_matches_ledger_style_accounting() {
        // The timeline's span must equal the serial time a ledger charges
        // for the same rows.
        let cfg = ZynqConfig::default();
        let rows = 10;
        let row = row(88, &cfg);
        let events = double_buffer_timeline(rows, &row, &cfg);
        let mut ledger = CycleLedger::new();
        for _ in 0..rows {
            ledger.charge_row(&row, &cfg);
        }
        assert!((span_us(&events) - ledger.elapsed_seconds * 1e6).abs() < 1e-6);
    }

    #[test]
    fn ascii_render_shows_both_lanes() {
        let cfg = ZynqConfig::default();
        let events = double_buffer_timeline(4, &row(64, &cfg), &cfg);
        let s = render_ascii(&events, 80);
        assert!(s.contains("PS |"));
        assert!(s.contains("PL |"));
        assert!(s.contains('#') && s.contains('@'));
        // The PS is the busier unit (the paper's bottleneck diagnosis).
        let ps_busy = s.lines().next().unwrap().matches(['#', '=']).count();
        let pl_busy = s.lines().nth(1).unwrap().matches('@').count();
        assert!(ps_busy > pl_busy, "PS {ps_busy} vs PL {pl_busy}");
    }

    #[test]
    fn empty_timeline_renders() {
        let s = render_ascii(&[], 20);
        assert!(s.contains("0% busy"));
    }
}
