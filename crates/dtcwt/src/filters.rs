//! Two-channel filter banks.
//!
//! A [`FilterBank`] bundles the four FIR filters of a two-channel
//! perfect-reconstruction system: analysis lowpass/highpass `(h0, h1)` and
//! synthesis lowpass/highpass `(g0, g1)`. Construction validates the
//! half-band PR condition, so an instance in hand is known-good.
//!
//! Named constructors provide the banks used in the paper's pipeline and in
//! the baselines:
//!
//! * [`FilterBank::haar`], [`FilterBank::daubechies`] — orthonormal banks.
//! * [`FilterBank::legall_5_3`], [`FilterBank::cdf_9_7`] — classic symmetric
//!   biorthogonal banks.
//! * [`FilterBank::near_sym_a`], [`FilterBank::near_sym_b`] — Kingsbury's
//!   level-1 DT-CWT banks (the 13-tap `near_sym_b` analysis filter with its
//!   19-tap dual designed on the fly by [`crate::design::design_dual_lowpass`]).
//! * [`FilterBank::qshift_b`] — Kingsbury's 14-tap quarter-shift orthonormal
//!   bank for DT-CWT levels ≥ 2; [`FilterBank::time_reverse`] derives the
//!   tree-B variant.

use crate::design::{design_dual_lowpass, halfband_violation};
use crate::DtcwtError;

/// Tolerance on the half-band perfect-reconstruction condition accepted by
/// [`FilterBank::from_lowpass_pair`].
pub const PR_TOLERANCE: f64 = 1e-6;

/// Kingsbury 13-tap near-symmetric analysis lowpass (`near_sym_b`),
/// normalized to sum 1 as tabulated; rescaled to `sqrt(2)` internally.
const NEAR_SYM_B_H0: [f64; 13] = [
    -0.0017581, 0.0, 0.0222656, -0.0468750, -0.0482422, 0.2968750, 0.5554688, 0.2968750,
    -0.0482422, -0.0468750, 0.0222656, 0.0, -0.0017581,
];

/// Kingsbury 14-tap quarter-shift orthonormal lowpass (`qshift_b`), tree A.
const QSHIFT_B_H0A: [f64; 14] = [
    0.00325314,
    -0.00388321,
    0.03466035,
    -0.03887280,
    -0.11720389,
    0.27529538,
    0.75614564,
    0.56881042,
    0.01186609,
    -0.10671180,
    0.02382538,
    0.01702522,
    -0.00543948,
    -0.00455690,
];

/// A validated two-channel perfect-reconstruction filter bank.
///
/// # Examples
///
/// ```
/// use wavefuse_dtcwt::FilterBank;
///
/// let bank = FilterBank::legall_5_3()?;
/// assert_eq!(bank.h0().len(), 5);
/// assert_eq!(bank.g0().len(), 3);
/// assert!(bank.is_orthonormal() == false);
/// # Ok::<(), wavefuse_dtcwt::DtcwtError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FilterBank {
    name: String,
    h0: Vec<f64>,
    h1: Vec<f64>,
    g0: Vec<f64>,
    g1: Vec<f64>,
    orthonormal: bool,
}

impl FilterBank {
    /// Builds a biorthogonal bank from an analysis/synthesis lowpass pair.
    ///
    /// The highpass filters are derived with the standard alias-cancelling
    /// modulation `h1[n] = (-1)^n g0[n]`, `g1[n] = (-1)^{n+1} h0[n]`.
    ///
    /// # Errors
    ///
    /// Returns [`DtcwtError::InvalidFilterBank`] if either filter is empty or
    /// the half-band condition `conv(h0, g0)[center ± 2k] = δ` is violated by
    /// more than [`PR_TOLERANCE`].
    pub fn from_lowpass_pair(
        name: impl Into<String>,
        h0: Vec<f64>,
        g0: Vec<f64>,
    ) -> Result<Self, DtcwtError> {
        let name = name.into();
        if h0.is_empty() || g0.is_empty() {
            return Err(DtcwtError::InvalidFilterBank(format!(
                "{name}: empty lowpass filter"
            )));
        }
        if !(h0.len() + g0.len()).is_multiple_of(2) {
            return Err(DtcwtError::InvalidFilterBank(format!(
                "{name}: filter lengths must have equal parity"
            )));
        }
        let viol = halfband_violation(&h0, &g0);
        if viol > PR_TOLERANCE {
            return Err(DtcwtError::InvalidFilterBank(format!(
                "{name}: half-band condition violated by {viol:e}"
            )));
        }
        let h1: Vec<f64> = g0
            .iter()
            .enumerate()
            .map(|(n, &g)| if n % 2 == 0 { g } else { -g })
            .collect();
        let g1: Vec<f64> = h0
            .iter()
            .enumerate()
            .map(|(n, &h)| if n % 2 == 0 { -h } else { h })
            .collect();
        let orthonormal = h0.len() == g0.len()
            && h0
                .iter()
                .zip(g0.iter().rev())
                .all(|(a, b)| (a - b).abs() < 1e-9);
        Ok(FilterBank {
            name,
            h0,
            h1,
            g0,
            g1,
            orthonormal,
        })
    }

    /// Builds an orthonormal bank from a single lowpass filter
    /// (`g0 = reverse(h0)`).
    ///
    /// # Errors
    ///
    /// Returns [`DtcwtError::InvalidFilterBank`] if `h0` is not orthonormal
    /// to within [`PR_TOLERANCE`] (its even-lag autocorrelation must be a
    /// unit impulse).
    pub fn orthonormal_from_lowpass(
        name: impl Into<String>,
        h0: Vec<f64>,
    ) -> Result<Self, DtcwtError> {
        let g0: Vec<f64> = h0.iter().rev().copied().collect();
        let mut bank = FilterBank::from_lowpass_pair(name, h0, g0)?;
        bank.orthonormal = true;
        Ok(bank)
    }

    /// The 2-tap Haar bank (orthonormal).
    pub fn haar() -> Result<Self, DtcwtError> {
        let v = std::f64::consts::FRAC_1_SQRT_2;
        FilterBank::orthonormal_from_lowpass("haar", vec![v, v])
    }

    /// The Daubechies-`n` orthonormal bank (length `2n`), designed by
    /// spectral factorization.
    ///
    /// # Errors
    ///
    /// See [`crate::design::daubechies`].
    pub fn daubechies(n: usize) -> Result<Self, DtcwtError> {
        FilterBank::orthonormal_from_lowpass(format!("db{n}"), crate::design::daubechies(n)?)
    }

    /// The LeGall 5/3 biorthogonal bank (JPEG 2000 lossless).
    pub fn legall_5_3() -> Result<Self, DtcwtError> {
        let s = std::f64::consts::SQRT_2;
        let h0 = [-0.125, 0.25, 0.75, 0.25, -0.125]
            .iter()
            .map(|c| c * s)
            .collect();
        let g0 = [0.5, 1.0, 0.5].iter().map(|c| c / s).collect();
        FilterBank::from_lowpass_pair("legall-5/3", h0, g0)
    }

    /// The Cohen–Daubechies–Feauveau 9/7 biorthogonal bank (JPEG 2000 lossy).
    pub fn cdf_9_7() -> Result<Self, DtcwtError> {
        let s = std::f64::consts::SQRT_2;
        let h0: Vec<f64> = [
            0.026748757411,
            -0.016864118443,
            -0.078223266529,
            0.266864118443,
            0.602949018236,
            0.266864118443,
            -0.078223266529,
            -0.016864118443,
            0.026748757411,
        ]
        .iter()
        .map(|c| c * s)
        .collect();
        let g0: Vec<f64> = [
            -0.091271763114,
            -0.057543526229,
            0.591271763114,
            1.115087052457,
            0.591271763114,
            -0.057543526229,
            -0.091271763114,
        ]
        .iter()
        .map(|c| c / s)
        .collect();
        FilterBank::from_lowpass_pair("cdf-9/7", h0, g0)
    }

    /// Kingsbury's short (5,7)-tap near-symmetric level-1 DT-CWT bank
    /// (`near_sym_a`), with the 7-tap dual designed on the fly.
    pub fn near_sym_a() -> Result<Self, DtcwtError> {
        let s = std::f64::consts::SQRT_2;
        // (5,7) near-symmetric pair: the 5-tap analysis lowpass is the
        // LeGall lowpass; its 7-tap dual has two extra vanishing moments.
        let h0: Vec<f64> = [-0.125, 0.25, 0.75, 0.25, -0.125]
            .iter()
            .map(|c| c * s)
            .collect();
        let g0 = design_dual_lowpass(&h0, 7)?;
        FilterBank::from_lowpass_pair("near-sym-a", h0, g0)
    }

    /// Kingsbury's (13,19)-tap near-symmetric level-1 DT-CWT bank
    /// (`near_sym_b`): the tabulated 13-tap analysis lowpass with its 19-tap
    /// dual designed by [`crate::design::design_dual_lowpass`].
    pub fn near_sym_b() -> Result<Self, DtcwtError> {
        let tab_sum: f64 = NEAR_SYM_B_H0.iter().sum();
        let h0: Vec<f64> = NEAR_SYM_B_H0
            .iter()
            .map(|c| c * std::f64::consts::SQRT_2 / tab_sum)
            .collect();
        let g0 = design_dual_lowpass(&h0, 19)?;
        FilterBank::from_lowpass_pair("near-sym-b", h0, g0)
    }

    /// Kingsbury's 14-tap quarter-shift orthonormal bank (`qshift_b`),
    /// tree A. The tree-B bank is its [`time_reverse`](Self::time_reverse).
    pub fn qshift_b() -> Result<Self, DtcwtError> {
        let sum: f64 = QSHIFT_B_H0A.iter().sum();
        let h0: Vec<f64> = QSHIFT_B_H0A
            .iter()
            .map(|c| c * std::f64::consts::SQRT_2 / sum)
            .collect();
        FilterBank::orthonormal_from_lowpass("qshift-b", h0)
    }

    /// Returns the bank with every filter time-reversed.
    ///
    /// For an orthonormal quarter-shift bank this yields the opposite-tree
    /// bank of the dual-tree transform (delay `+1/4 -> -1/4` sample).
    pub fn time_reverse(&self) -> FilterBank {
        let rev = |v: &[f64]| v.iter().rev().copied().collect::<Vec<f64>>();
        FilterBank {
            name: format!("{}-rev", self.name),
            h0: rev(&self.h0),
            h1: rev(&self.h1),
            g0: rev(&self.g0),
            g1: rev(&self.g1),
            orthonormal: self.orthonormal,
        }
    }

    /// Bank name (e.g. `"qshift-b"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Analysis lowpass taps.
    pub fn h0(&self) -> &[f64] {
        &self.h0
    }

    /// Analysis highpass taps.
    pub fn h1(&self) -> &[f64] {
        &self.h1
    }

    /// Synthesis lowpass taps.
    pub fn g0(&self) -> &[f64] {
        &self.g0
    }

    /// Synthesis highpass taps.
    pub fn g1(&self) -> &[f64] {
        &self.g1
    }

    /// Whether the bank is orthonormal (synthesis = time-reversed analysis).
    pub fn is_orthonormal(&self) -> bool {
        self.orthonormal
    }

    /// Longest filter length in the bank; the FPGA engine sizes its shift
    /// register from this.
    pub fn max_len(&self) -> usize {
        self.h0
            .len()
            .max(self.h1.len())
            .max(self.g0.len())
            .max(self.g1.len())
    }

    /// Analysis filters as `f32` for the compute kernels.
    pub fn analysis_f32(&self) -> (Vec<f32>, Vec<f32>) {
        (
            self.h0.iter().map(|&c| c as f32).collect(),
            self.h1.iter().map(|&c| c as f32).collect(),
        )
    }

    /// Synthesis filters as `f32` for the compute kernels.
    pub fn synthesis_f32(&self) -> (Vec<f32>, Vec<f32>) {
        (
            self.g0.iter().map(|&c| c as f32).collect(),
            self.g1.iter().map(|&c| c as f32).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavefuse_numerics::complex::Complex64;

    /// `|H(e^{jw})|` of an FIR filter at `points` uniformly spaced
    /// frequencies in `[0, pi]`, as a direct sum over the taps.
    fn magnitude_response(taps: &[f64], points: usize) -> Vec<f64> {
        (0..points)
            .map(|k| {
                let w = std::f64::consts::PI * k as f64 / (points - 1) as f64;
                taps.iter()
                    .enumerate()
                    .map(|(n, &h)| Complex64::cis(-w * n as f64) * h)
                    .sum::<Complex64>()
                    .abs()
            })
            .collect()
    }

    #[test]
    fn all_named_banks_construct() {
        for bank in [
            FilterBank::haar(),
            FilterBank::daubechies(2),
            FilterBank::daubechies(4),
            FilterBank::legall_5_3(),
            FilterBank::cdf_9_7(),
            FilterBank::near_sym_a(),
            FilterBank::near_sym_b(),
            FilterBank::qshift_b(),
        ] {
            let bank = bank.expect("named bank must validate");
            assert!(!bank.name().is_empty());
        }
    }

    #[test]
    fn qshift_b_is_orthonormal_14_tap() {
        let bank = FilterBank::qshift_b().unwrap();
        assert!(bank.is_orthonormal());
        assert_eq!(bank.h0().len(), 14);
        let sum: f64 = bank.h0().iter().sum();
        assert!((sum - std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn near_sym_b_is_13_19() {
        let bank = FilterBank::near_sym_b().unwrap();
        assert_eq!(bank.h0().len(), 13);
        assert_eq!(bank.g0().len(), 19);
        assert!(!bank.is_orthonormal());
    }

    #[test]
    fn highpass_modulation_relation() {
        let bank = FilterBank::cdf_9_7().unwrap();
        for (n, (&h1, &g0)) in bank.h1().iter().zip(bank.g0()).enumerate() {
            let expect = if n % 2 == 0 { g0 } else { -g0 };
            assert_eq!(h1, expect);
        }
        for (n, (&g1, &h0)) in bank.g1().iter().zip(bank.h0()).enumerate() {
            let expect = if n % 2 == 0 { -h0 } else { h0 };
            assert_eq!(g1, expect);
        }
    }

    #[test]
    fn lowpass_is_lowpass_highpass_is_highpass() {
        for bank in [
            FilterBank::haar().unwrap(),
            FilterBank::daubechies(3).unwrap(),
            FilterBank::near_sym_b().unwrap(),
            FilterBank::qshift_b().unwrap(),
        ] {
            let lo = magnitude_response(bank.h0(), 64);
            let hi = magnitude_response(bank.h1(), 64);
            assert!(
                lo[0] > 1.3 && lo[63] < 0.1,
                "{} h0 not lowpass",
                bank.name()
            );
            assert!(
                hi[0] < 0.1 && hi[63] > 1.3,
                "{} h1 not highpass",
                bank.name()
            );
        }
    }

    #[test]
    fn time_reverse_keeps_validity_and_flips_taps() {
        let bank = FilterBank::qshift_b().unwrap();
        let rev = bank.time_reverse();
        assert!(rev.is_orthonormal());
        assert_eq!(rev.h0()[0], bank.h0()[13]);
        assert_eq!(rev.time_reverse().h0(), bank.h0());
    }

    #[test]
    fn invalid_pair_rejected() {
        // A random non-PR pair must fail validation.
        let err = FilterBank::from_lowpass_pair("bogus", vec![0.3, 0.4, 0.5], vec![0.2, 0.9, 0.1])
            .unwrap_err();
        assert!(matches!(err, DtcwtError::InvalidFilterBank(_)));
        assert!(FilterBank::from_lowpass_pair("empty", vec![], vec![1.0]).is_err());
        assert!(FilterBank::from_lowpass_pair("parity", vec![1.0, 0.0], vec![1.0]).is_err());
    }

    #[test]
    fn orthonormal_detection() {
        assert!(FilterBank::haar().unwrap().is_orthonormal());
        assert!(!FilterBank::legall_5_3().unwrap().is_orthonormal());
    }

    #[test]
    fn f32_views_match_f64() {
        let bank = FilterBank::near_sym_b().unwrap();
        let (h0, h1) = bank.analysis_f32();
        assert_eq!(h0.len(), bank.h0().len());
        assert_eq!(h1.len(), bank.h1().len());
        assert!((h0[6] as f64 - bank.h0()[6]).abs() < 1e-7);
        let (g0, g1) = bank.synthesis_f32();
        assert_eq!(g0.len(), 19);
        assert_eq!(g1.len(), 13);
    }

    #[test]
    fn max_len_reflects_longest_filter() {
        assert_eq!(FilterBank::near_sym_b().unwrap().max_len(), 19);
        assert_eq!(FilterBank::qshift_b().unwrap().max_len(), 14);
    }
}
