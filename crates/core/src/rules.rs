//! Pixel-level fusion rules on DT-CWT pyramids.
//!
//! The paper's algorithm (§I, §III) applies the forward DT-CWT to both
//! frames, "combines the obtained coefficients using a fusion rule", and
//! inverse-transforms the result. The standard rules from the DT-CWT fusion
//! literature are implemented on the complex coefficients:
//!
//! * [`FusionRule::MaxMagnitude`] — per coefficient, keep the complex
//!   coefficient with the larger magnitude (the classic choose-max rule);
//! * [`FusionRule::WindowEnergy`] — choose by local energy in a
//!   `(2r+1)²` window, more robust to sensor noise;
//! * [`FusionRule::Weighted`] — a fixed linear blend (degenerates to
//!   averaging at `alpha = 0.5`), the conservative baseline;
//! * [`FusionRule::ActivityGuided`] — the Burt–Kolczynski salience/match
//!   rule: select where the sources disagree, blend where they agree.
//!
//! The lowpass residuals are fused separately ([`LowpassRule`]), averaging
//! by default as is standard for DT-CWT fusion.
//!
//! The per-coefficient arithmetic lives in [`wavefuse_dtcwt::fuse`] (the
//! scalar strip reference with its separable O(r) window sums and
//! fold-order contract); this module maps [`FusionRule`] onto [`FuseOp`]
//! and fuses whole pyramids — with the scalar reference
//! ([`fuse_pyramids_into`]) or through a kernel
//! ([`fuse_pyramids_with_kernel`]). The engine fuses every frame through
//! the latter with the SIMD kernel, on its dispatcher thread between the
//! forward and inverse transforms, as the paper runs fusion on the PS.
//! Both paths are bit-identical.

use wavefuse_dtcwt::fuse::{fuse_strip_scalar, FuseOp, FuseScratch};
use wavefuse_dtcwt::{ComplexImage, CwtPyramid, FilterKernel, Image};

/// Rule for combining oriented complex detail coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusionRule {
    /// Keep the coefficient of larger magnitude.
    MaxMagnitude,
    /// Keep the coefficient whose `(2*radius+1)²` neighborhood has more
    /// energy.
    WindowEnergy {
        /// Window radius in coefficients (1 → 3x3).
        radius: usize,
    },
    /// Fixed blend `alpha * A + (1 - alpha) * B`.
    Weighted {
        /// Weight of the first input, in `[0, 1]`.
        alpha: f32,
    },
    /// Burt–Kolczynski salience/match fusion: where the sources disagree
    /// (low local match measure) select the locally stronger one; where
    /// they agree, blend with salience-dependent weights. More robust than
    /// pure selection on correlated content.
    ActivityGuided {
        /// Window radius for salience and match (1 → 3x3).
        radius: usize,
        /// Match measure below which pure selection is used, in `[0, 1]`.
        match_threshold: f32,
    },
}

impl FusionRule {
    /// The plain-data operator this rule maps to in the dtcwt fusion layer
    /// (what the kernels' `fuse_strip` takes).
    pub fn to_op(self) -> FuseOp {
        match self {
            FusionRule::MaxMagnitude => FuseOp::MaxMagnitude,
            FusionRule::WindowEnergy { radius } => FuseOp::WindowEnergy { radius },
            FusionRule::Weighted { alpha } => FuseOp::Weighted { alpha },
            FusionRule::ActivityGuided {
                radius,
                match_threshold,
            } => FuseOp::ActivityGuided {
                radius,
                match_threshold,
            },
        }
    }
}

/// Rule for combining the lowpass residuals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LowpassRule {
    /// Mean of both inputs (the standard choice).
    Average,
    /// Keep the larger-magnitude sample.
    MaxAbs,
    /// Fixed blend with the given weight of the first input.
    Weighted {
        /// Weight of the first input, in `[0, 1]`.
        alpha: f32,
    },
}

/// Reusable window-energy intermediates for [`fuse_subband_into`]. One
/// instance per engine; its buffers retain capacity across frames so
/// steady-state fusion performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct FusionScratch {
    pub(crate) fuse: FuseScratch,
}

impl FusionScratch {
    /// Creates an empty scratch (no allocation until first use).
    pub fn new() -> Self {
        FusionScratch::default()
    }
}

/// Fuses two DT-CWT pyramids coefficient-wise.
///
/// The pyramids must come from equal-sized inputs and the same transform
/// configuration.
///
/// # Panics
///
/// Panics if the pyramids disagree in level count or subband shapes (they
/// always agree when produced by the same [`wavefuse_dtcwt::Dtcwt`] on
/// equal-sized frames; the engine validates inputs before transforming).
pub fn fuse_pyramids(
    a: &CwtPyramid,
    b: &CwtPyramid,
    rule: FusionRule,
    lowpass: LowpassRule,
) -> CwtPyramid {
    let mut out = CwtPyramid::empty();
    let mut scratch = FusionScratch::new();
    fuse_pyramids_into(a, b, rule, lowpass, &mut scratch, &mut out);
    out
}

/// Allocation-free variant of [`fuse_pyramids`]: writes the fused pyramid
/// into `out` (reshaped to match `a`, reusing its buffers) using `scratch`
/// for window-energy intermediates. Produces bit-identical results to
/// [`fuse_pyramids`].
///
/// # Panics
///
/// As [`fuse_pyramids`].
pub fn fuse_pyramids_into(
    a: &CwtPyramid,
    b: &CwtPyramid,
    rule: FusionRule,
    lowpass: LowpassRule,
    scratch: &mut FusionScratch,
    out: &mut CwtPyramid,
) {
    assert_eq!(a.levels(), b.levels(), "pyramid depths differ");
    out.reshape_like(a);
    for level in 0..a.levels() {
        let sa = a.subbands(level);
        let sb = b.subbands(level);
        let so = out.subbands_mut(level);
        for (o, (ca, cb)) in so.iter_mut().zip(sa.iter().zip(sb)) {
            fuse_subband_into(ca, cb, rule, scratch, o);
        }
    }
    for (o, (la, lb)) in out
        .lowpass_mut()
        .iter_mut()
        .zip(a.lowpass().iter().zip(b.lowpass()))
    {
        fuse_lowpass_into(la, lb, lowpass, o);
    }
}

/// Fuses one oriented complex subband.
pub fn fuse_subband(a: &ComplexImage, b: &ComplexImage, rule: FusionRule) -> ComplexImage {
    let mut out = ComplexImage::zeros(0, 0);
    fuse_subband_into(a, b, rule, &mut FusionScratch::new(), &mut out);
    out
}

/// Allocation-free variant of [`fuse_subband`]: writes into `out`
/// (reshaped), using `scratch` for the window-energy maps. Delegates to
/// the scalar strip reference [`wavefuse_dtcwt::fuse`] at full height.
pub fn fuse_subband_into(
    a: &ComplexImage,
    b: &ComplexImage,
    rule: FusionRule,
    scratch: &mut FusionScratch,
    out: &mut ComplexImage,
) {
    assert_eq!(a.dims(), b.dims(), "subband shapes differ");
    let (w, h) = a.dims();
    out.reshape(w, h);
    if h == 0 {
        return;
    }
    fuse_strip_scalar(
        a,
        b,
        0,
        h,
        rule.to_op(),
        &mut scratch.fuse,
        &mut out.re,
        &mut out.im,
    )
    .expect("equal-shaped subbands and full-height strip are always valid");
}

/// As [`fuse_pyramids_into`], but routing every subband through a
/// [`FilterKernel`]'s [`FilterKernel::fuse_strip`] at full height — the
/// engine's fusion path, which it runs on the SIMD kernel for every
/// backend (SIMD kernels override
/// `fuse_strip`; the scalar kernel's default is exactly
/// [`fuse_pyramids_into`]). Bit-
/// identical to the scalar reference by the dtcwt fold-order contract.
///
/// # Panics
///
/// As [`fuse_pyramids`].
pub fn fuse_pyramids_with_kernel(
    kernel: &mut dyn FilterKernel,
    a: &CwtPyramid,
    b: &CwtPyramid,
    rule: FusionRule,
    lowpass: LowpassRule,
    scratch: &mut FusionScratch,
    out: &mut CwtPyramid,
) {
    assert_eq!(a.levels(), b.levels(), "pyramid depths differ");
    out.reshape_like(a);
    let op = rule.to_op();
    for level in 0..a.levels() {
        let sa = a.subbands(level);
        let sb = b.subbands(level);
        for (band, o) in out.subbands_mut(level).iter_mut().enumerate() {
            let (w, h) = sa[band].dims();
            assert_eq!(sa[band].dims(), sb[band].dims(), "subband shapes differ");
            o.reshape(w, h);
            if h == 0 {
                continue;
            }
            kernel
                .fuse_strip(
                    &sa[band],
                    &sb[band],
                    0,
                    h,
                    op,
                    &mut scratch.fuse,
                    &mut o.re,
                    &mut o.im,
                )
                .expect("equal-shaped subbands and full-height strip are always valid");
        }
    }
    for (o, (la, lb)) in out
        .lowpass_mut()
        .iter_mut()
        .zip(a.lowpass().iter().zip(b.lowpass()))
    {
        fuse_lowpass_into(la, lb, lowpass, o);
    }
}

/// Fuses one lowpass residual image.
pub fn fuse_lowpass(a: &Image, b: &Image, rule: LowpassRule) -> Image {
    let mut out = Image::zeros(0, 0);
    fuse_lowpass_into(a, b, rule, &mut out);
    out
}

/// Allocation-free variant of [`fuse_lowpass`]: writes into `out`
/// (reshaped). The rule is matched once, outside a flat pass over the
/// row-major planes that LLVM vectorizes; each element keeps its per-pixel
/// expression, so the result is bit for bit a pixel-by-pixel loop's.
pub fn fuse_lowpass_into(a: &Image, b: &Image, rule: LowpassRule, out: &mut Image) {
    assert_eq!(a.dims(), b.dims(), "lowpass shapes differ");
    let (w, h) = a.dims();
    out.reshape(w, h);
    let (a, b, out) = (a.as_slice(), b.as_slice(), out.as_mut_slice());
    match rule {
        LowpassRule::Average => zip_into(out, a, b, |va, vb| 0.5 * (va + vb)),
        LowpassRule::MaxAbs => zip_into(
            out,
            a,
            b,
            |va, vb| {
                if va.abs() >= vb.abs() {
                    va
                } else {
                    vb
                }
            },
        ),
        LowpassRule::Weighted { alpha } => {
            zip_into(out, a, b, |va, vb| alpha * va + (1.0 - alpha) * vb)
        }
    }
}

/// `out[k] = f(a[k], b[k])` over equal-length slices.
#[inline(always)]
fn zip_into(out: &mut [f32], a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
    for (o, (&va, &vb)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = f(va, vb);
    }
}

/// Approximate size-proportional work of applying a rule to one coefficient
/// (used by the cost model; MAC-equivalent units). Calibrated to the
/// **separable** window implementation in [`wavefuse_dtcwt::fuse`]: each
/// window map costs 2 MACs of raw energy plus `2r` horizontal and `2r`
/// vertical adds per pixel — O(r), not O((2r+1)²).
pub fn rule_macs_per_coefficient(rule: FusionRule) -> u64 {
    match rule {
        // Two squared magnitudes plus the compare/select.
        FusionRule::MaxMagnitude => 4,
        // Two separable window maps plus the compare/select.
        FusionRule::WindowEnergy { radius } => 8 * radius as u64 + 6,
        FusionRule::Weighted { .. } => 4,
        // Two salience maps plus the cross map, plus the match/blend math.
        FusionRule::ActivityGuided { radius, .. } => 12 * radius as u64 + 14,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavefuse_dtcwt::Dtcwt;

    fn pyramids() -> (CwtPyramid, CwtPyramid) {
        let t = Dtcwt::new(2).unwrap();
        let a = Image::from_fn(32, 24, |x, y| ((x * 3 + y) % 11) as f32);
        let b = Image::from_fn(32, 24, |x, y| ((x + 7 * y) % 13) as f32);
        (t.forward(&a).unwrap(), t.forward(&b).unwrap())
    }

    #[test]
    fn scratch_fusion_matches_allocating_fusion_exactly() {
        // One FusionScratch/output pyramid reused across every rule must
        // reproduce the allocating API bit for bit — earlier iterations
        // leave the scratch energy maps dirty on purpose.
        let (pa, pb) = pyramids();
        let mut scratch = FusionScratch::new();
        let mut out = CwtPyramid::empty();
        for rule in [
            FusionRule::MaxMagnitude,
            FusionRule::WindowEnergy { radius: 1 },
            FusionRule::WindowEnergy { radius: 2 },
            FusionRule::ActivityGuided {
                radius: 1,
                match_threshold: 0.75,
            },
            FusionRule::Weighted { alpha: 0.25 },
        ] {
            for lowpass in [LowpassRule::Average, LowpassRule::MaxAbs] {
                let want = fuse_pyramids(&pa, &pb, rule, lowpass);
                fuse_pyramids_into(&pa, &pb, rule, lowpass, &mut scratch, &mut out);
                for level in 0..want.levels() {
                    for (w, g) in want.subbands(level).iter().zip(out.subbands(level)) {
                        assert_eq!(w.re, g.re, "{rule:?} {lowpass:?}");
                        assert_eq!(w.im, g.im, "{rule:?} {lowpass:?}");
                    }
                }
                assert_eq!(want.lowpass(), out.lowpass());
            }
        }
    }

    #[test]
    fn kernel_fusion_matches_scalar_reference_exactly() {
        // The dispatcher-side kernel path — scalar default and the SIMD
        // override — must reproduce fuse_pyramids_into bit for bit for
        // every rule (the fold-order contract, exercised at the pyramid
        // level).
        use wavefuse_dtcwt::ScalarKernel;
        use wavefuse_simd::SimdKernel;
        let (pa, pb) = pyramids();
        let mut scratch = FusionScratch::new();
        let mut want = CwtPyramid::empty();
        let mut got = CwtPyramid::empty();
        for rule in [
            FusionRule::MaxMagnitude,
            FusionRule::WindowEnergy { radius: 1 },
            FusionRule::WindowEnergy { radius: 3 },
            FusionRule::Weighted { alpha: 0.25 },
            FusionRule::ActivityGuided {
                radius: 2,
                match_threshold: 0.75,
            },
        ] {
            fuse_pyramids_into(
                &pa,
                &pb,
                rule,
                LowpassRule::Average,
                &mut scratch,
                &mut want,
            );
            let mut kernels: [&mut dyn FilterKernel; 2] =
                [&mut ScalarKernel::new(), &mut SimdKernel::new()];
            for k in kernels.iter_mut() {
                fuse_pyramids_with_kernel(
                    *k,
                    &pa,
                    &pb,
                    rule,
                    LowpassRule::Average,
                    &mut scratch,
                    &mut got,
                );
                for level in 0..want.levels() {
                    for (w, g) in want.subbands(level).iter().zip(got.subbands(level)) {
                        assert_eq!(w.re, g.re, "{rule:?} {}", k.name());
                        assert_eq!(w.im, g.im, "{rule:?} {}", k.name());
                    }
                }
                assert_eq!(want.lowpass(), got.lowpass(), "{rule:?} {}", k.name());
            }
        }
    }

    #[test]
    fn max_magnitude_picks_stronger_source() {
        let mut a = ComplexImage::zeros(2, 1);
        let mut b = ComplexImage::zeros(2, 1);
        a.re.set(0, 0, 3.0); // |a| = 3 at (0,0)
        b.im.set(0, 0, 1.0); // |b| = 1
        a.re.set(1, 0, 0.5);
        b.re.set(1, 0, -2.0); // |b| = 2 at (1,0)
        let f = fuse_subband(&a, &b, FusionRule::MaxMagnitude);
        assert_eq!(f.re.get(0, 0), 3.0);
        assert_eq!(f.re.get(1, 0), -2.0);
    }

    #[test]
    fn weighted_half_is_average() {
        let (pa, pb) = pyramids();
        let f = fuse_pyramids(
            &pa,
            &pb,
            FusionRule::Weighted { alpha: 0.5 },
            LowpassRule::Average,
        );
        let s = f.subbands(0)[0].re.get(3, 3);
        let expect = 0.5 * (pa.subbands(0)[0].re.get(3, 3) + pb.subbands(0)[0].re.get(3, 3));
        assert!((s - expect).abs() < 1e-6);
    }

    #[test]
    fn fusing_identical_pyramids_is_identity() {
        let (pa, _) = pyramids();
        for rule in [
            FusionRule::MaxMagnitude,
            FusionRule::WindowEnergy { radius: 1 },
            FusionRule::Weighted { alpha: 0.5 },
        ] {
            let f = fuse_pyramids(&pa, &pa, rule, LowpassRule::Average);
            for level in 0..pa.levels() {
                for (x, y) in pa.subbands(level).iter().zip(f.subbands(level)) {
                    assert!(x.re.max_abs_diff(&y.re) < 1e-6);
                    assert!(x.im.max_abs_diff(&y.im) < 1e-6);
                }
            }
            for (x, y) in pa.lowpass().iter().zip(f.lowpass()) {
                assert!(x.max_abs_diff(y) < 1e-6);
            }
        }
    }

    #[test]
    fn window_energy_is_noise_robust() {
        // A single spurious strong coefficient in B amid strong A region:
        // the 3x3 energy rule should still choose A there.
        let mut a = ComplexImage::zeros(5, 5);
        let mut b = ComplexImage::zeros(5, 5);
        for y in 0..5 {
            for x in 0..5 {
                a.re.set(x, y, 2.0);
            }
        }
        b.re.set(2, 2, 3.0); // isolated spike
        let point = fuse_subband(&a, &b, FusionRule::MaxMagnitude);
        assert_eq!(point.re.get(2, 2), 3.0, "point rule takes the spike");
        let windowed = fuse_subband(&a, &b, FusionRule::WindowEnergy { radius: 1 });
        assert_eq!(windowed.re.get(2, 2), 2.0, "window rule rejects it");
    }

    #[test]
    fn activity_guided_selects_on_disagreement() {
        // Disjoint content (zero match): behaves like window-energy select.
        let mut a = ComplexImage::zeros(6, 6);
        let mut b = ComplexImage::zeros(6, 6);
        for y in 0..6 {
            for x in 0..3 {
                a.re.set(x, y, 2.0);
            }
            for x in 3..6 {
                b.im.set(x, y, 1.5);
            }
        }
        let f = fuse_subband(
            &a,
            &b,
            FusionRule::ActivityGuided {
                radius: 1,
                match_threshold: 0.75,
            },
        );
        assert_eq!(f.re.get(0, 3), 2.0, "A side keeps A");
        assert_eq!(f.im.get(5, 3), 1.5, "B side keeps B");
    }

    #[test]
    fn activity_guided_blends_on_agreement() {
        // Identical content (match = 1): the blend must reproduce it.
        let mut a = ComplexImage::zeros(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                a.re.set(x, y, 1.0 + (x + y) as f32 * 0.1);
            }
        }
        let f = fuse_subband(
            &a,
            &a,
            FusionRule::ActivityGuided {
                radius: 1,
                match_threshold: 0.75,
            },
        );
        assert!(f.re.max_abs_diff(&a.re) < 1e-5);
        assert!(f.im.max_abs_diff(&a.im) < 1e-5);
    }

    #[test]
    fn lowpass_rules() {
        let a = Image::filled(2, 2, 1.0);
        let b = Image::filled(2, 2, -3.0);
        assert_eq!(fuse_lowpass(&a, &b, LowpassRule::Average).get(0, 0), -1.0);
        assert_eq!(fuse_lowpass(&a, &b, LowpassRule::MaxAbs).get(0, 0), -3.0);
        assert_eq!(
            fuse_lowpass(&a, &b, LowpassRule::Weighted { alpha: 0.75 }).get(0, 0),
            0.75 - 0.75
        );
    }

    /// The per-pixel accessor lowpass fusion with its in-loop `match`: the
    /// bit-for-bit oracle of [`fuse_lowpass_into`].
    fn lowpass_oracle(a: &Image, b: &Image, rule: LowpassRule) -> Image {
        let (w, h) = a.dims();
        let mut out = Image::zeros(w, h);
        for y in 0..h {
            for x in 0..w {
                let (va, vb) = (a.get(x, y), b.get(x, y));
                let v = match rule {
                    LowpassRule::Average => 0.5 * (va + vb),
                    LowpassRule::MaxAbs => {
                        if va.abs() >= vb.abs() {
                            va
                        } else {
                            vb
                        }
                    }
                    LowpassRule::Weighted { alpha } => alpha * va + (1.0 - alpha) * vb,
                };
                out.set(x, y, v);
            }
        }
        out
    }

    /// A plane that mixes ordinary values with signed zeros, NaNs of
    /// several payloads and signs, infinities, subnormals and the extremes.
    fn special_plane(w: usize, h: usize, seed: u32) -> Image {
        const SPECIALS: [f32; 13] = [
            0.0,
            -0.0,
            f32::NAN,
            f32::from_bits(0xffc0_1234), // negative quiet NaN, payload
            f32::from_bits(0x7f80_0001), // signaling NaN
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x807f_ffff), // largest negative subnormal
            f32::MAX,
            -f32::MAX,
            f32::MIN_POSITIVE,
            1.0,
        ];
        let mut state = seed.wrapping_mul(0x9e37_79b9) | 1;
        Image::from_fn(w, h, |_, _| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let r = state >> 8;
            if r.is_multiple_of(3) {
                SPECIALS[(r / 3) as usize % SPECIALS.len()]
            } else {
                (r % 20_001) as f32 * 0.01 - 100.0
            }
        })
    }

    #[test]
    fn lowpass_slice_pass_matches_the_per_pixel_oracle_bit_for_bit() {
        // Single pixels, single rows and columns, odd widths that are no
        // multiple of any lane count, and frame-sized planes; one output
        // reused throughout, so small geometries follow larger ones.
        let dims = [
            (1, 1),
            (1, 37),
            (37, 1),
            (160, 120),
            (7, 3),
            (13, 5),
            (17, 2),
            (44, 36),
            (1, 9),
            (9, 1),
        ];
        let mut out = Image::zeros(0, 0);
        for (i, &(w, h)) in dims.iter().enumerate() {
            let a = special_plane(w, h, 2 * i as u32);
            let b = special_plane(w, h, 2 * i as u32 + 1);
            for rule in [
                LowpassRule::Average,
                LowpassRule::MaxAbs,
                LowpassRule::Weighted { alpha: 0.3 },
            ] {
                fuse_lowpass_into(&a, &b, rule, &mut out);
                let want = lowpass_oracle(&a, &b, rule);
                assert_eq!(out.dims(), (w, h));
                // The blends add, and a commutative `+` may swap operands,
                // which picks the other payload when both are NaN: map NaNs
                // to one canonical NaN there. MaxAbs only selects: exact.
                let canonical = rule != LowpassRule::MaxAbs;
                let bits = |img: &Image| -> Vec<u32> {
                    img.as_slice()
                        .iter()
                        .map(|&v| {
                            if canonical && v.is_nan() {
                                f32::NAN.to_bits()
                            } else {
                                v.to_bits()
                            }
                        })
                        .collect()
                };
                assert_eq!(bits(&out), bits(&want), "{w}x{h} {rule:?}");
            }
        }
    }

    #[test]
    fn rule_cost_ordering() {
        assert!(
            rule_macs_per_coefficient(FusionRule::WindowEnergy { radius: 1 })
                > rule_macs_per_coefficient(FusionRule::MaxMagnitude)
        );
    }
}
