//! Minimal complex-number arithmetic.
//!
//! The workspace deliberately avoids external numerics crates, so this module
//! supplies the small complex type used by the polynomial root finder and
//! the Daubechies spectral factorization in `wavefuse-dtcwt`'s filter
//! designer.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number.
///
/// # Examples
///
/// ```
/// use wavefuse_numerics::complex::Complex64;
///
/// let i = Complex64::I;
/// assert_eq!(i * i, Complex64::new(-1.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates the unit-magnitude complex number `e^{i theta}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use wavefuse_numerics::complex::Complex64;
    /// let z = Complex64::cis(std::f64::consts::PI);
    /// assert!((z.re + 1.0).abs() < 1e-15 && z.im.abs() < 1e-15);
    /// ```
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Returns the squared magnitude `re^2 + im^2`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Returns the magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Returns the argument (phase angle) in radians, in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Returns the multiplicative inverse.
    ///
    /// Returns an infinite/NaN value if `self` is zero, mirroring `1.0 / 0.0`
    /// semantics for floats.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex64 {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Returns `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Returns the principal square root (the one with non-negative real
    /// part).
    ///
    /// # Examples
    ///
    /// ```
    /// use wavefuse_numerics::complex::Complex64;
    /// let z = Complex64::new(-4.0, 0.0).sqrt();
    /// assert!((z - Complex64::new(0.0, 2.0)).abs() < 1e-12);
    /// ```
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        let theta = self.arg();
        Complex64::cis(theta / 2.0) * r.sqrt()
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Complex64::new(self.re * rhs, self.im * rhs)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    // Division by the reciprocal is the standard numerically-stable form.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn basic_arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -4.0);
        assert_eq!(a + b, Complex64::new(4.0, -2.0));
        assert_eq!(a - b, Complex64::new(-2.0, 6.0));
        assert_eq!(a * b, Complex64::new(11.0, 2.0));
        assert!(close(a / b * b, a, 1e-12));
    }

    #[test]
    fn norm_and_abs() {
        let a = Complex64::new(3.0, 4.0);
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
    }

    #[test]
    fn cis_unit_circle() {
        for k in 0..16 {
            let th = k as f64 * std::f64::consts::TAU / 16.0;
            let z = Complex64::cis(th);
            assert!((z.abs() - 1.0).abs() < 1e-15);
            assert!((z.arg() - th).rem_euclid(std::f64::consts::TAU) < 1e-12);
        }
    }

    #[test]
    fn recip_of_i() {
        assert!(close(Complex64::I.recip(), -Complex64::I, 1e-15));
    }

    #[test]
    fn sum_over_roots_of_unity_is_zero() {
        let n = 7;
        let s: Complex64 = (0..n)
            .map(|k| Complex64::cis(k as f64 * std::f64::consts::TAU / n as f64))
            .sum();
        assert!(s.abs() < 1e-12);
    }

    #[test]
    fn display_renders_sign() {
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
    }
}
