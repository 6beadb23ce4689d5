//! Bit-identity of the per-tree forward DT-CWT on every kernel.
//!
//! The forward transform runs the level-1 row pass once per row tree: the
//! two combos of tree `rt`, `(rt, A)` and `(rt, B)`, filter the same image
//! rows with the same bank and phase, so the pass is shared and only the
//! column passes and deeper levels run per combo. The contract is that
//! every combo's detail bands and lowpass residual equal, bit for bit, a
//! separate per-combo analysis — the oracle below, spelled with the public
//! level step `dwt2d::analyze_level_into` and the DT-CWT's bank
//! assignment — on the scalar, NEON and FPGA kernels, serially and on the
//! worker pool.
//!
//! The FPGA kernel models the platform, so it must also charge what the
//! per-combo schedule charges: the shared rows are accounted where the
//! second combo's row pass used to run, and the cycle ledger (coefficient
//! loads included), the DMA timeline, the driver counters, the register
//! file and the telemetry must equal the oracle's.

use std::sync::Arc;

use wavefuse_dtcwt::dwt1d::{BankTaps, Phase};
use wavefuse_dtcwt::dwt2d::{analyze_level_into, AxisSpec, Subbands};
use wavefuse_dtcwt::scratch::{Scratch1d, Scratch2d};
use wavefuse_dtcwt::{
    ComboSlot, ComboStore, CwtPyramid, Dtcwt, Dwt2d, FilterBank, FilterKernel, Image, ScalarKernel,
    Scratch, WorkerPool,
};
use wavefuse_simd::SimdKernel;
use wavefuse_trace::MetricsRegistry;
use wavefuse_zynq::FpgaKernel;

/// The smallest frame, odd frames that pad at level 1 and again deeper
/// down, and the paper's odd extraction and bench sizes. The large frame
/// (`LARGE`) has its own release-only test.
const DIMS: [(usize, usize); 4] = [(2, 2), (7, 5), (35, 35), (64, 48)];

/// A large frame, eight levels deep at most.
const LARGE: (usize, usize) = (320, 240);

/// The DT-CWT's banks: `near_sym_b` at level 1 (tree B at the odd phase),
/// the time-reversed `qshift_b` for tree A and `qshift_b` for tree B below.
struct Banks {
    level1: BankTaps,
    qshift_a: BankTaps,
    qshift_b: BankTaps,
}

impl Banks {
    fn new() -> Self {
        let qshift = FilterBank::qshift_b().unwrap();
        Banks {
            level1: BankTaps::new(&FilterBank::near_sym_b().unwrap()),
            qshift_a: BankTaps::new(&qshift.time_reverse()),
            qshift_b: BankTaps::new(&qshift),
        }
    }

    /// Tree `tree`'s (0 = A, 1 = B) spec along one axis at `level`.
    fn spec(&self, level: usize, tree: usize) -> AxisSpec<'_> {
        match (level, tree) {
            (0, 0) => AxisSpec {
                taps: &self.level1,
                phase: Phase::A,
            },
            (0, _) => AxisSpec {
                taps: &self.level1,
                phase: Phase::B,
            },
            (_, 0) => AxisSpec {
                taps: &self.qshift_a,
                phase: Phase::A,
            },
            _ => AxisSpec {
                taps: &self.qshift_b,
                phase: Phase::A,
            },
        }
    }
}

/// The per-combo forward: combo `ci` (`2 row_tree + col_tree`) on its own,
/// its level-1 row pass included, every level padded to even first.
fn oracle_combo(
    banks: &Banks,
    kernel: &mut dyn FilterKernel,
    levels: usize,
    img: &Image,
    ci: usize,
) -> ComboSlot {
    let (rt, ct) = (ci / 2, ci % 2);
    let (mut s1, mut s2) = (Scratch1d::new(), Scratch2d::new());
    let mut cur = img.clone();
    let (mut next, mut padded) = (Image::zeros(0, 0), Image::zeros(0, 0));
    let mut detail = Vec::new();
    for level in 0..levels {
        let (w, h) = cur.dims();
        let src = if w % 2 == 0 && h % 2 == 0 {
            &cur
        } else {
            cur.pad_to_even_into(&mut padded);
            &padded
        };
        let mut det = Subbands::empty();
        let (rows, cols) = (banks.spec(level, rt), banks.spec(level, ct));
        analyze_level_into(
            kernel, &rows, &cols, src, &mut next, &mut det, &mut s2, &mut s1,
        )
        .unwrap();
        detail.push(det);
        std::mem::swap(&mut cur, &mut next);
    }
    ComboSlot { detail, ll: cur }
}

/// All four combos of `img` from the oracle, in combo order.
fn oracle(kernel: &mut dyn FilterKernel, levels: usize, img: &Image) -> ComboStore {
    let banks = Banks::new();
    ComboStore {
        slots: std::array::from_fn(|ci| oracle_combo(&banks, kernel, levels, img, ci)),
    }
}

/// Every combo's bands and residual as bit patterns: `==` on `f32`s
/// passes a `+0`/`-0` flip and fails on equal NaNs.
fn bits(combos: &ComboStore) -> Vec<Vec<u32>> {
    let plane = |img: &Image| img.as_slice().iter().map(|x| x.to_bits()).collect();
    let mut out = Vec::new();
    for slot in &combos.slots {
        for det in &slot.detail {
            out.extend([&det.lh, &det.hl, &det.hh].map(plane));
        }
        out.push(plane(&slot.ll));
    }
    out
}

fn smooth(w: usize, h: usize) -> Image {
    Image::from_fn(w, h, |x, y| {
        ((x as f32 * 0.37).sin() + (y as f32 * 0.23).cos()) * 9.0 + ((x * 3 + y) % 7) as f32
    })
}

/// A plane of ordinary values laced with NaN, ±inf and −0.
fn special(w: usize, h: usize) -> Image {
    const SPECIALS: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
    Image::from_fn(w, h, |x, y| match (x * 7 + y * 13) % 11 {
        k @ 0..=3 => SPECIALS[k],
        k => k as f32 * 0.5 - 2.0,
    })
}

type MakeKernel = fn() -> Box<dyn FilterKernel>;

fn kernels() -> [(&'static str, MakeKernel); 3] {
    [
        ("scalar", || Box::new(ScalarKernel::new())),
        ("simd", || Box::new(SimdKernel::new())),
        ("fpga", || Box::new(FpgaKernel::new())),
    ]
}

/// The per-tree forward of every kernel against the oracle at every depth
/// of every geometry in `dims`, on both inputs.
fn sweep_kernels(dims: &[(usize, usize)]) {
    for (name, make) in kernels() {
        // One store, scratch and output reused across the whole sweep, so
        // stale row halves or level buffers cannot leak into a result.
        let (mut combos, mut scratch, mut out) =
            (ComboStore::new(), Scratch::new(), CwtPyramid::empty());
        let (mut k, mut k_oracle) = (make(), make());
        for &(w, h) in dims {
            for levels in 1..=Dwt2d::max_levels(w, h) {
                let t = Dtcwt::new(levels).unwrap();
                for (input, img) in [("smooth", smooth(w, h)), ("special", special(w, h))] {
                    t.forward_into(k.as_mut(), &img, &mut combos, &mut scratch, &mut out)
                        .unwrap();
                    let want = oracle(k_oracle.as_mut(), levels, &img);
                    assert!(
                        bits(&combos) == bits(&want),
                        "{name} {w}x{h} levels {levels} {input}"
                    );
                }
            }
        }
    }
}

/// Pooled pairs on the scalar and NEON kernel slots (as the engine's pool
/// carries them) against the serial forward and the oracle.
fn sweep_pooled(dims: &[(usize, usize)]) {
    for threads in [1, 2] {
        let pool = WorkerPool::new(threads, &mut |_| {
            vec![
                Box::new(ScalarKernel::new()) as Box<dyn FilterKernel + Send>,
                Box::new(SimdKernel::new()),
            ]
        });
        let (mut ca, mut cb) = (ComboStore::new(), ComboStore::new());
        let (mut pa, mut pb) = (CwtPyramid::empty(), CwtPyramid::empty());
        let mut outcomes = Vec::new();
        for (slot, (name, make)) in kernels().into_iter().take(2).enumerate() {
            for &(w, h) in dims {
                let levels = 3.min(Dwt2d::max_levels(w, h));
                let t = Arc::new(Dtcwt::new(levels).unwrap());
                let (a, b) = (Arc::new(smooth(w, h)), Arc::new(special(w, h)));
                t.forward_pooled_pair(
                    &pool,
                    slot,
                    &a,
                    &mut ca,
                    &mut pa,
                    &b,
                    &mut cb,
                    &mut pb,
                    &mut outcomes,
                )
                .unwrap();
                let mut k = make();
                let (mut serial, mut scratch) = (ComboStore::new(), Scratch::new());
                let mut out = CwtPyramid::empty();
                for (img, got) in [(&a, &ca), (&b, &cb)] {
                    t.forward_into(k.as_mut(), img, &mut serial, &mut scratch, &mut out)
                        .unwrap();
                    let what = format!("{name} {w}x{h} threads {threads}");
                    assert!(bits(got) == bits(&serial), "{what}");
                    assert!(
                        bits(got) == bits(&oracle(k.as_mut(), levels, img)),
                        "{what}"
                    );
                }
            }
        }
    }
}

/// The FPGA kernel's accounting after two frames of the per-tree forward
/// against the oracle's, at every depth of every geometry in `dims`.
fn sweep_fpga_accounting(dims: &[(usize, usize)]) {
    for &(w, h) in dims {
        for levels in 1..=Dwt2d::max_levels(w, h) {
            let t = Dtcwt::new(levels).unwrap();
            let (mut own, mut per_combo) = (FpgaKernel::new(), FpgaKernel::new());
            let (m_own, m_per_combo) = (
                Arc::new(MetricsRegistry::new()),
                Arc::new(MetricsRegistry::new()),
            );
            own.set_telemetry(Arc::clone(&m_own));
            per_combo.set_telemetry(Arc::clone(&m_per_combo));
            let (mut combos, mut scratch, mut out) =
                (ComboStore::new(), Scratch::new(), CwtPyramid::empty());
            // Two frames through one kernel: the second starts with the
            // first one's deepest bank still loaded.
            for img in [smooth(w, h), special(w, h)] {
                t.forward_into(&mut own, &img, &mut combos, &mut scratch, &mut out)
                    .unwrap();
                oracle(&mut per_combo, levels, &img);
            }
            let what = format!("{w}x{h} levels {levels}");
            assert_eq!(own.ledger(), per_combo.ledger(), "ledger {what}");
            assert_eq!(
                own.ledger().coeff_loads,
                per_combo.ledger().coeff_loads,
                "coefficient loads {what}"
            );
            assert_eq!(
                own.dma_timeline(),
                per_combo.dma_timeline(),
                "timeline {what}"
            );
            assert_eq!(
                own.driver().stats(),
                per_combo.driver().stats(),
                "driver {what}"
            );
            let (r_own, r_per_combo) = (own.engine().registers(), per_combo.engine().registers());
            assert_eq!(
                r_own.write_count(),
                r_per_combo.write_count(),
                "register writes {what}"
            );
            assert_eq!(r_own, r_per_combo, "registers {what}");
            assert_eq!(m_own.snapshot(), m_per_combo.snapshot(), "telemetry {what}");
        }
    }
}

#[test]
fn per_tree_forward_matches_the_per_combo_oracle_on_every_kernel() {
    sweep_kernels(&DIMS);
}

#[test]
fn pooled_pairs_match_the_serial_forward_bit_for_bit() {
    sweep_pooled(&DIMS);
}

#[test]
fn fpga_per_tree_forward_charges_what_the_per_combo_forward_charges() {
    sweep_fpga_accounting(&DIMS);
}

// The large frame at all eight depths is release material (ci.sh runs it
// with --include-ignored); in debug it takes about a minute.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "320x240 sweep is too slow in debug builds; ci.sh runs it in release"
)]
fn large_frame_per_tree_forward_matches_the_oracle_and_its_accounting() {
    sweep_kernels(&[LARGE]);
    sweep_pooled(&[LARGE]);
    sweep_fpga_accounting(&[LARGE]);
}
