//! Portable `f32` lane vectors modeling NEON quad registers.

use std::ops::{Add, AddAssign, Mul, Sub};

/// `N` `f32` lanes with elementwise arithmetic — the software model of a
/// NEON register: [`F32x4`] is one `float32x4_t` quad register, [`F32x8`] a
/// quad-register pair (`float32x4x2_t`), and `Lanes<1>` the scalar tail of
/// every lane loop.
///
/// All operations are plain IEEE-754 single-precision lane ops (no fused
/// multiply-add), so each lane is bit-identical to scalar code evaluating the
/// same expression tree, on every target and at every width: changing `N`
/// changes how many columns share a vector, never any column's value.
/// Release builds lower these to native SIMD instructions.
///
/// # Examples
///
/// ```
/// use wavefuse_simd::F32x4;
///
/// let a = F32x4::new([1.0, 2.0, 3.0, 4.0]);
/// let b = F32x4::splat(10.0);
/// assert_eq!((a * b).horizontal_sum(), 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lanes<const N: usize>([f32; N]);

/// Four lanes: the NEON `float32x4_t` quad register.
pub type F32x4 = Lanes<4>;

/// Eight lanes: a NEON quad-register pair, used to batch eight adjacent
/// image columns per accumulator.
pub type F32x8 = Lanes<8>;

/// Eight-lane compare mask, produced by [`F32x8::ge`].
pub type Mask8 = Mask<8>;

impl<const N: usize> Lanes<N> {
    /// All-zero vector.
    pub const ZERO: Self = Lanes([0.0; N]);

    /// Creates a vector from its lanes.
    #[inline(always)]
    pub const fn new(lanes: [f32; N]) -> Self {
        Lanes(lanes)
    }

    /// Broadcasts one value to every lane (`vdupq_n_f32`).
    #[inline(always)]
    pub const fn splat(v: f32) -> Self {
        Lanes([v; N])
    }

    /// Loads `N` consecutive values from the head of a slice (`vld1q_f32`).
    ///
    /// # Panics
    ///
    /// Panics if `src.len() < N`.
    #[inline(always)]
    pub fn load(src: &[f32]) -> Self {
        let mut lanes = [0.0; N];
        lanes.copy_from_slice(&src[..N]);
        Lanes(lanes)
    }

    /// Stores the lanes to the head of a slice (`vst1q_f32`).
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() < N`.
    #[inline(always)]
    pub fn store(self, dst: &mut [f32]) {
        dst[..N].copy_from_slice(&self.0);
    }

    /// Lane-wise multiply-accumulate `self + a * b` (`vmlaq_f32`).
    ///
    /// Evaluated as separate multiply then add (no FMA), matching the
    /// Cortex-A9 NEON behavior and the scalar reference.
    #[inline(always)]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        self + a * b
    }

    /// Borrows the lanes.
    #[inline(always)]
    pub fn lanes(&self) -> &[f32; N] {
        &self.0
    }

    /// Lane-wise `self >= rhs`, the NEON `vcgeq_f32` analogue. Combined
    /// with [`Mask::select`] this models the compare/bit-select pair the
    /// choose-style fusion rules vectorize with; each lane's comparison is
    /// exactly the scalar `>=` on the same two values.
    #[inline(always)]
    pub fn ge(self, rhs: Self) -> Mask<N> {
        Mask(std::array::from_fn(|i| self.0[i] >= rhs.0[i]))
    }

    #[inline(always)]
    fn zip(self, rhs: Self, op: impl Fn(f32, f32) -> f32) -> Self {
        Lanes(std::array::from_fn(|i| op(self.0[i], rhs.0[i])))
    }
}

impl F32x4 {
    /// Sum of the four lanes (`vpadd` reduction), folded pairwise the way
    /// the paper's manual code reduces its accumulator register.
    ///
    /// The fold order is part of the numerical contract, not an
    /// implementation detail: for lanes `[a, b, c, d]` the result is exactly
    /// `(a + c) + (b + d)` — lane 0 plus lane 2 first, then lane 1 plus
    /// lane 3, then the two partial sums. Every consumer that must be
    /// bit-identical to the manual per-output dot product (the
    /// auto-vectorized unrolled fold and the lane passes' per-output
    /// partial-accumulator fold) replicates this exact association instead
    /// of a left-to-right sum. It is defined for four lanes only because that association is
    /// the quad register's.
    #[inline(always)]
    pub fn horizontal_sum(self) -> f32 {
        let [a, b, c, d] = self.0;
        (a + c) + (b + d)
    }
}

impl<const N: usize> Add for Lanes<N> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| a + b)
    }
}

impl<const N: usize> Sub for Lanes<N> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| a - b)
    }
}

impl<const N: usize> Mul for Lanes<N> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| a * b)
    }
}

impl<const N: usize> AddAssign for Lanes<N> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

/// Lane-wise boolean mask produced by [`Lanes::ge`], the software analogue
/// of a NEON `uint32x4_t` compare result feeding `vbslq_f32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mask<const N: usize>([bool; N]);

impl<const N: usize> Mask<N> {
    /// Borrows the lanes.
    #[inline(always)]
    pub fn lanes(&self) -> &[bool; N] {
        &self.0
    }

    /// Lane-wise select: `t` where the mask is set, `f` elsewhere (the NEON
    /// `vbslq_f32` analogue). Copies one source lane's bits verbatim, so
    /// selection is exact — never an arithmetic approximation.
    #[inline(always)]
    pub fn select(self, t: Lanes<N>, f: Lanes<N>) -> Lanes<N> {
        Lanes(std::array::from_fn(
            |i| if self.0[i] { t.0[i] } else { f.0[i] },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lane `i` of a test vector: distinct, non-integral values.
    fn ramp<const N: usize>(scale: f32) -> Lanes<N> {
        Lanes::new(std::array::from_fn(|i| (i as f32 + 1.0) * scale))
    }

    fn check_elementwise_ops<const N: usize>() {
        let a = ramp::<N>(1.5);
        let b = Lanes::<N>::splat(0.5);
        for i in 0..N {
            let (x, y) = (a.lanes()[i], 0.5);
            assert_eq!((a + b).lanes()[i], x + y, "N={N} add lane {i}");
            assert_eq!((a - b).lanes()[i], x - y, "N={N} sub lane {i}");
            assert_eq!((a * b).lanes()[i], x * y, "N={N} mul lane {i}");
        }
        let mut acc = a;
        acc += b;
        assert_eq!(acc, a + b, "N={N} add_assign");
        assert_eq!(Lanes::<N>::ZERO.lanes(), &[0.0; N]);
        assert_eq!(b.lanes(), &[0.5; N]);
    }

    fn check_load_store_round_trip<const N: usize>() {
        let src: Vec<f32> = (0..=N).map(|i| 9.0 - i as f32).collect();
        let v = Lanes::<N>::load(&src[1..]);
        let mut dst = vec![0.0f32; N + 1];
        v.store(&mut dst);
        assert_eq!(&dst[..N], &src[1..], "N={N}");
        assert_eq!(dst[N], 0.0, "N={N}: store wrote past N lanes");
    }

    fn check_short_load_and_store_panic<const N: usize>() {
        let short = vec![1.0f32; N - 1];
        assert!(std::panic::catch_unwind(|| Lanes::<N>::load(&short)).is_err());
        let mut short = vec![0.0f32; N - 1];
        let store = std::panic::AssertUnwindSafe(|| Lanes::<N>::ZERO.store(&mut short));
        assert!(std::panic::catch_unwind(store).is_err());
    }

    fn check_mul_add_is_lane_exact<const N: usize>() {
        let acc = ramp::<N>(-0.75) + Lanes::splat(1.0);
        let a = ramp::<N>(3.1);
        let b = Lanes::<N>::splat(0.1);
        let r = acc.mul_add(a, b);
        for i in 0..N {
            let want = acc.lanes()[i] + a.lanes()[i] * 0.1;
            assert_eq!(r.lanes()[i].to_bits(), want.to_bits(), "N={N} lane {i}");
        }
    }

    fn check_ge_select_is_lane_exact<const N: usize>() {
        // Pairs cycled over the lanes: ordering, equality, signed zeros
        // (`-0.0 >= 0.0` holds, so select must keep `t`'s sign bit) and NaN
        // (every comparison with NaN is false, so select picks `f`).
        let pairs = [
            (1.0f32, 2.0f32),
            (2.0, 2.0),
            (-0.0, 0.0),
            (0.0, -0.0),
            (f32::NAN, 1.0),
            (1.0, f32::NAN),
            (f32::MIN, f32::MAX),
            (-1.0, -2.0),
        ];
        let a = Lanes::<N>::new(std::array::from_fn(|i| pairs[i % pairs.len()].0));
        let b = Lanes::<N>::new(std::array::from_fn(|i| pairs[i % pairs.len()].1));
        let m = a.ge(b);
        let s = m.select(a, b);
        for i in 0..N {
            let (x, y) = (a.lanes()[i], b.lanes()[i]);
            assert_eq!(m.lanes()[i], x >= y, "N={N} mask lane {i}");
            let want = if x >= y { x } else { y };
            assert_eq!(s.lanes()[i].to_bits(), want.to_bits(), "N={N} lane {i}");
        }
    }

    #[test]
    fn elementwise_ops() {
        check_elementwise_ops::<1>();
        check_elementwise_ops::<4>();
        check_elementwise_ops::<8>();
    }

    #[test]
    fn load_store_round_trip() {
        check_load_store_round_trip::<1>();
        check_load_store_round_trip::<4>();
        check_load_store_round_trip::<8>();
    }

    #[test]
    fn short_load_and_store_panic() {
        check_short_load_and_store_panic::<1>();
        check_short_load_and_store_panic::<4>();
        check_short_load_and_store_panic::<8>();
    }

    #[test]
    fn mul_add_is_lane_exact() {
        check_mul_add_is_lane_exact::<1>();
        check_mul_add_is_lane_exact::<4>();
        check_mul_add_is_lane_exact::<8>();
    }

    #[test]
    fn ge_select_is_lane_exact() {
        check_ge_select_is_lane_exact::<1>();
        check_ge_select_is_lane_exact::<4>();
        check_ge_select_is_lane_exact::<8>();
    }

    #[test]
    fn horizontal_sum_order_is_pairwise() {
        // (a + c) + (b + d): check against that exact association.
        let v = F32x4::new([1e8, 1.0, -1e8, 1.0]);
        assert_eq!(v.horizontal_sum(), (1e8 + -1e8) + (1.0 + 1.0));
    }
}
