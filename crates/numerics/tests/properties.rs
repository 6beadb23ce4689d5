//! Property-based tests for the numerical substrate.

// Needs the external `proptest` crate, which the offline build cannot
// resolve: restore the dev-dependencies listed in the root Cargo.toml on
// a networked machine and run with `--features ext-tests`.
#![cfg(feature = "ext-tests")]

use proptest::prelude::*;
use wavefuse_numerics::complex::Complex64;
use wavefuse_numerics::conv::convolve;
use wavefuse_numerics::linalg::Matrix;
use wavefuse_numerics::poly::Polynomial;
use wavefuse_numerics::stats;

fn arb_signal(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0f64..100.0, 1..=max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn polynomial_roots_are_roots(
        roots in proptest::collection::vec(-3.0f64..3.0, 1..=8)
    ) {
        // Keep roots separated so Durand-Kerner converges crisply.
        let mut rs: Vec<f64> = roots;
        rs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        rs.dedup_by(|a, b| (*a - *b).abs() < 0.1);
        let zs: Vec<Complex64> = rs.iter().map(|&r| Complex64::from_real(r)).collect();
        let p = Polynomial::from_roots(&zs);
        let found = p.roots().unwrap();
        prop_assert_eq!(found.len(), rs.len());
        for z in found {
            prop_assert!(p.eval_complex(z).abs() < 1e-6, "residual {}", p.eval_complex(z).abs());
        }
    }

    #[test]
    fn convolution_is_commutative_and_linear(
        a in arb_signal(32),
        b in arb_signal(32),
        k in -4.0f64..4.0,
    ) {
        let ab = convolve(&a, &b);
        let ba = convolve(&b, &a);
        for (x, y) in ab.iter().zip(&ba) {
            prop_assert!((x - y).abs() < 1e-9 * (1.0 + x.abs()));
        }
        let ka: Vec<f64> = a.iter().map(|v| v * k).collect();
        let kab = convolve(&ka, &b);
        for (x, y) in kab.iter().zip(&ab) {
            prop_assert!((x - k * y).abs() < 1e-6 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn solve_recovers_known_solution(
        x in proptest::collection::vec(-10.0f64..10.0, 2..=6),
        seed in 0u64..1000,
    ) {
        // Build a well-conditioned matrix: diagonally dominant random.
        let n = x.len();
        let mut a = Matrix::zeros(n, n);
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545f4914f6cdd1d) as f64 / u64::MAX as f64) - 0.5
        };
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = next();
                    a[(i, j)] = v;
                    row_sum += v.abs();
                }
            }
            a[(i, i)] = row_sum + 1.0;
        }
        let b = a.matvec(&x).unwrap();
        let solved = a.solve(&b).unwrap();
        for (s, e) in solved.iter().zip(&x) {
            prop_assert!((s - e).abs() < 1e-8 * (1.0 + e.abs()));
        }
    }

    #[test]
    fn variance_is_translation_invariant(xs in arb_signal(64), shift in -50.0f64..50.0) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let v0 = stats::variance(&xs);
        let v1 = stats::variance(&shifted);
        prop_assert!((v0 - v1).abs() < 1e-6 * (1.0 + v0));
    }

    #[test]
    fn histogram_total_matches_samples(xs in arb_signal(64)) {
        let mut h = stats::Histogram::new(-100.0, 100.0, 16);
        h.extend_from(&xs);
        prop_assert_eq!(h.total(), xs.len() as u64);
        prop_assert_eq!(h.counts().iter().sum::<u64>(), xs.len() as u64);
        let p = h.probabilities();
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
