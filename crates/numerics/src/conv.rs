//! Direct convolution primitives.
//!
//! These are the reference (textbook) implementations that the wavelet
//! filter banks and the SIMD/FPGA engines are validated against.

/// Full linear convolution of two sequences.
///
/// The output length is `a.len() + b.len() - 1`. An empty input yields an
/// empty output.
///
/// # Examples
///
/// ```
/// use wavefuse_numerics::conv::convolve;
/// assert_eq!(convolve(&[1.0, 2.0], &[1.0, 1.0]), vec![1.0, 3.0, 2.0]);
/// ```
pub fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

/// Autocorrelation of `x` at even lags only:
/// `r[k] = sum_n x[n] * x[n + 2k]` for `k = 0 ..= (x.len()-1)/2`.
///
/// This is exactly the quantity appearing in the orthonormal
/// perfect-reconstruction condition `r[0] = 1, r[k>0] = 0`, so the wavelet
/// tests use it directly.
pub fn autocorrelation_even_lags(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    let kmax = if n == 0 { 0 } else { (n - 1) / 2 };
    (0..=kmax)
        .map(|k| (0..n - 2 * k).map(|i| x[i] * x[i + 2 * k]).sum())
        .collect()
}

/// Upsamples by 2 (inserts a zero after every sample).
///
/// Used to build the à-trous filters of successive wavelet levels for
/// equivalent-filter analysis.
pub fn upsample2(x: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(x.len() * 2);
    for &v in x {
        out.push(v);
        out.push(0.0);
    }
    // Trailing zero carries no information for FIR filters.
    if out.last() == Some(&0.0) {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convolve_identity_impulse() {
        let x = [3.0, -1.0, 2.0];
        assert_eq!(convolve(&x, &[1.0]), x.to_vec());
    }

    #[test]
    fn convolve_commutative() {
        let a = [1.0, 2.0, 3.0];
        let b = [0.5, -0.5, 1.5, 2.5];
        assert_eq!(convolve(&a, &b), convolve(&b, &a));
    }

    #[test]
    fn convolve_empty() {
        assert!(convolve(&[], &[1.0]).is_empty());
        assert!(convolve(&[1.0], &[]).is_empty());
    }

    #[test]
    fn autocorrelation_of_orthonormal_haar() {
        let h = [
            std::f64::consts::FRAC_1_SQRT_2,
            std::f64::consts::FRAC_1_SQRT_2,
        ];
        let r = autocorrelation_even_lags(&h);
        assert_eq!(r.len(), 1);
        assert!((r[0] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn autocorrelation_even_lags_manual() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = autocorrelation_even_lags(&x);
        // k=0: 1+4+9+16+25 = 55; k=1: 1*3+2*4+3*5 = 26; k=2: 1*5 = 5
        assert_eq!(r, vec![55.0, 26.0, 5.0]);
    }

    #[test]
    fn upsample2_shape() {
        assert_eq!(upsample2(&[1.0, 2.0, 3.0]), vec![1.0, 0.0, 2.0, 0.0, 3.0]);
        assert!(upsample2(&[]).is_empty());
    }
}
