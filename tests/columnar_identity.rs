//! Bit-identity of the NEON kernels' transpose-free column passes.
//!
//! The NEON kernels (`SimdKernel`, `AutoVecKernel`) filter the vertical
//! pass in place — SIMD lanes hold adjacent columns, rows are loaded
//! stride-1, and each lane accumulates one column's convolution. The
//! contract is *exact* equality with staging the same kernel's row path
//! through transposes (`fallback_analyze_cols` /
//! `fallback_synthesize_cols`, the `FilterKernel` default the scalar and
//! FPGA kernels run): the per-row accumulation splits into four partial
//! accumulators folded as `(p0 + p2) + (p1 + p3)`, replicating the row
//! path's pairwise `horizontal_sum` order, so no float is added in a
//! different order.
//!
//! This suite pins that contract at every layer visible from the workspace:
//! raw column passes for every named filter bank (odd/even widths and
//! heights, widths below the 4-lane group forcing the scalar tail), full
//! DT-CWT pyramids and round trips, and the threaded engine at 1/2/4
//! workers where the column pass runs as parallel per-strip jobs.

use wavefuse_core::{Backend, FusionEngine};
use wavefuse_dtcwt::dwt1d::{BankTaps, Phase};
use wavefuse_dtcwt::kernel::{fallback_analyze_cols, fallback_synthesize_cols};
use wavefuse_dtcwt::scratch::Scratch1d;
use wavefuse_dtcwt::{ColScratch, Dtcwt, FilterBank, FilterKernel, Image};
use wavefuse_simd::{AutoVecKernel, SimdKernel};

/// Every named bank the crate ships, plus a time-reversed q-shift tree
/// (the dual tree's second filter set).
fn banks() -> Vec<FilterBank> {
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

/// Forwards only a kernel's row primitives, so its column passes are the
/// `FilterKernel` defaults: the transpose staging of those same rows.
struct Staged(Box<dyn FilterKernel>);

impl FilterKernel for Staged {
    fn name(&self) -> &'static str {
        self.0.name()
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
        self.0.analyze_row(ext, left, h0, h1, phase, lo, hi);
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
        self.0
            .synthesize_row(lo_ext, hi_ext, left, g0, g1, phase, out);
    }
}

/// Column analysis + synthesis round trip through one kernel: its own
/// column passes, or (`staged`) the transpose staging of its rows.
fn cols_round_trip(
    k: &mut dyn FilterKernel,
    staged: bool,
    taps: &BankTaps,
    phase: Phase,
    img: &Image,
) -> (Image, Image, Image) {
    let mut lo = Image::zeros(0, 0);
    let mut hi = Image::zeros(0, 0);
    let mut rec = Image::zeros(0, 0);
    let mut cs = ColScratch::new();
    let mut s1 = Scratch1d::new();
    if staged {
        fallback_analyze_cols(k, taps, phase, img, &mut lo, &mut hi, &mut cs, &mut s1)
    } else {
        k.analyze_cols(taps, phase, img, &mut lo, &mut hi, &mut cs, &mut s1)
    }
    .expect("column analysis");
    if staged {
        fallback_synthesize_cols(k, taps, phase, &lo, &hi, &mut rec, &mut cs, &mut s1)
    } else {
        k.synthesize_cols(taps, phase, &lo, &hi, &mut rec, &mut cs, &mut s1)
    }
    .expect("column synthesis");
    (lo, hi, rec)
}

/// Builds a fresh kernel instance.
type MakeKernel = fn() -> Box<dyn FilterKernel>;

/// The NEON kernels under test, as constructors so a test can build a
/// fresh instance for the staged oracle.
fn kernels() -> Vec<(&'static str, MakeKernel)> {
    vec![
        ("simd", || Box::new(SimdKernel::new())),
        ("autovec", || Box::new(AutoVecKernel::new())),
    ]
}

// Widths 2 and 3 sit below the 4-lane group, so every column takes the
// scalar tail; 13 = 8 + 4 + 1 exercises all three lane groups at once.
// Heights must be even (the decimating pass halves them); odd heights are
// covered by `odd_heights_rejected_identically` below.
const DIMS: [(usize, usize); 6] = [(2, 8), (3, 12), (4, 6), (13, 10), (16, 22), (40, 36)];

#[test]
fn column_passes_bit_identical_for_every_bank() {
    for bank in banks() {
        let taps = BankTaps::new(&bank);
        for phase in [Phase::A, Phase::B] {
            for (w, h) in DIMS {
                let img = Image::from_fn(w, h, |x, y| ((x * 17 + y * 11) % 31) as f32 * 0.27 - 3.5);
                for (name, make) in kernels() {
                    let mut k = make();
                    let what = format!("{name} {} {phase:?} {w}x{h}", bank.name());
                    let (lo_c, hi_c, rec_c) =
                        cols_round_trip(k.as_mut(), false, &taps, phase, &img);
                    let (lo_f, hi_f, rec_f) = cols_round_trip(k.as_mut(), true, &taps, phase, &img);
                    assert_eq!(lo_c.as_slice(), lo_f.as_slice(), "lo {what}");
                    assert_eq!(hi_c.as_slice(), hi_f.as_slice(), "hi {what}");
                    assert_eq!(rec_c.as_slice(), rec_f.as_slice(), "round trip {what}");
                }
            }
        }
    }
}

#[test]
fn odd_heights_rejected_identically() {
    // The decimating column pass needs an even height; the NEON column
    // pass and the transpose staging must both refuse odd ones.
    let taps = BankTaps::new(&FilterBank::near_sym_b().unwrap());
    let img = Image::from_fn(9, 7, |x, y| (x + y) as f32);
    let mut lo = Image::zeros(0, 0);
    let mut hi = Image::zeros(0, 0);
    let mut cs = ColScratch::new();
    let mut s1 = Scratch1d::new();
    for (name, make) in kernels() {
        let mut k = make();
        let own = k
            .analyze_cols(&taps, Phase::A, &img, &mut lo, &mut hi, &mut cs, &mut s1)
            .is_err();
        let staged = fallback_analyze_cols(
            k.as_mut(),
            &taps,
            Phase::A,
            &img,
            &mut lo,
            &mut hi,
            &mut cs,
            &mut s1,
        )
        .is_err();
        assert!(own && staged, "{name}: odd height must fail on both paths");
    }
}

#[test]
fn pyramids_and_round_trips_bit_identical() {
    // Full 3-level DT-CWT: forward pyramids and inverse reconstructions
    // must match the transpose staging bit for bit, including odd widths
    // (the 86x72 level-0 geometry keeps widths even as required below
    // level 0, while 13-wide columns at depth 1 hit the scalar tail).
    let t3 = Dtcwt::new(3).expect("three levels");
    let t1 = Dtcwt::new(1).expect("one level");
    let cases: [(&Dtcwt, usize, usize); 3] = [(&t3, 88, 72), (&t3, 40, 36), (&t1, 13, 10)];
    for (t, w, h) in cases {
        let img = Image::from_fn(w, h, |x, y| ((x * 7 + y * 13) % 41) as f32 * 0.19);
        for (name, make) in kernels() {
            let mut neon = make();
            let mut staged = Staged(make());
            let p_neon = t.forward_with(neon.as_mut(), &img).expect("NEON forward");
            let p_staged = t.forward_with(&mut staged, &img).expect("staged forward");
            for level in 0..t.levels() {
                for (a, b) in p_neon.subbands(level).iter().zip(p_staged.subbands(level)) {
                    assert_eq!(
                        a.re.as_slice(),
                        b.re.as_slice(),
                        "{name} re {w}x{h} L{level}"
                    );
                    assert_eq!(
                        a.im.as_slice(),
                        b.im.as_slice(),
                        "{name} im {w}x{h} L{level}"
                    );
                }
            }
            let r_neon = t
                .inverse_with(neon.as_mut(), &p_neon)
                .expect("NEON inverse");
            let r_staged = t
                .inverse_with(&mut staged, &p_staged)
                .expect("staged inverse");
            assert_eq!(
                r_neon.as_slice(),
                r_staged.as_slice(),
                "{name} inverse {w}x{h}"
            );
        }
    }
}

#[test]
fn threaded_engine_matches_serial_at_every_width() {
    // The engine splits the column pass into per-strip worker jobs; at
    // 1, 2, and 4 threads the fused frame must equal the serial result
    // exactly.
    let a = Image::from_fn(88, 72, |x, y| ((x * 5 + y * 3) % 37) as f32 * 0.4);
    let b = Image::from_fn(88, 72, |x, y| ((x * 11 + y * 2) % 43) as f32 * 0.3);

    let mut serial = FusionEngine::new(3).expect("engine");
    let reference = serial
        .fuse(&a, &b, Backend::Neon)
        .expect("serial fuse")
        .image;

    for threads in [1usize, 2, 4] {
        let mut engine = FusionEngine::new(3).expect("engine");
        engine.set_threads(threads);
        let out = engine.fuse(&a, &b, Backend::Neon).expect("threaded fuse");
        assert_eq!(
            reference.as_slice(),
            out.image.as_slice(),
            "column strip jobs at {threads} threads"
        );
    }
}
