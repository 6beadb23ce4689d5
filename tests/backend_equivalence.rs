//! Property-based equivalence of the three compute backends.
//!
//! The paper's premise is that NEON and FPGA execution are *functionally
//! transparent* accelerations of the same algorithm. These properties pin
//! that down: for arbitrary images, all kernels produce the same pyramids,
//! and every backend round-trips (forward then inverse) to the input.

// Needs the external `proptest` crate, which the offline build cannot
// resolve: restore the dev-dependencies listed in the root Cargo.toml on
// a networked machine and run with `--features ext-tests`.
#![cfg(feature = "ext-tests")]

use proptest::prelude::*;
use wavefuse_dtcwt::{Dtcwt, Dwt2d, FilterBank, FilterKernel, Image, ScalarKernel};
use wavefuse_simd::SimdKernel;
use wavefuse_zynq::FpgaKernel;

/// Strategy: a modest random image with finite values.
fn arb_image(max_edge: usize) -> impl Strategy<Value = Image> {
    (8usize..=max_edge, 8usize..=max_edge).prop_flat_map(|(w, h)| {
        proptest::collection::vec(-100.0f32..100.0, w * h)
            .prop_map(move |data| Image::from_vec(w, h, data).expect("sized"))
    })
}

fn pyramids_close(
    a: &wavefuse_dtcwt::CwtPyramid,
    b: &wavefuse_dtcwt::CwtPyramid,
    tol: f32,
) -> Result<(), String> {
    for level in 0..a.levels() {
        for (i, (x, y)) in a.subbands(level).iter().zip(b.subbands(level)).enumerate() {
            let dre = x.re.max_abs_diff(&y.re);
            let dim = x.im.max_abs_diff(&y.im);
            if dre > tol || dim > tol {
                return Err(format!("level {level} band {i}: re {dre} im {dim}"));
            }
        }
    }
    for (i, (x, y)) in a.lowpass().iter().zip(b.lowpass()).enumerate() {
        let d = x.max_abs_diff(y);
        if d > tol {
            return Err(format!("lowpass {i}: {d}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simd_matches_scalar_on_random_images(img in arb_image(48)) {
        let levels = 2.min(Dwt2d::max_levels(img.width(), img.height()));
        prop_assume!(levels >= 1);
        let t = Dtcwt::new(levels).unwrap();
        let p_ref = t.forward_with(&mut ScalarKernel::new(), &img).unwrap();
        let p_simd = t.forward_with(&mut SimdKernel::new(), &img).unwrap();
        pyramids_close(&p_ref, &p_simd, 5e-3).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn fpga_matches_scalar_on_random_images(img in arb_image(40)) {
        let levels = 2.min(Dwt2d::max_levels(img.width(), img.height()));
        prop_assume!(levels >= 1);
        let t = Dtcwt::new(levels).unwrap();
        let p_ref = t.forward_with(&mut ScalarKernel::new(), &img).unwrap();
        let p_fpga = t.forward_with(&mut FpgaKernel::new(), &img).unwrap();
        pyramids_close(&p_ref, &p_fpga, 5e-3).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn every_backend_round_trips(img in arb_image(40)) {
        let levels = 2.min(Dwt2d::max_levels(img.width(), img.height()));
        prop_assume!(levels >= 1);
        let t = Dtcwt::new(levels).unwrap();
        let kernels: Vec<Box<dyn FilterKernel>> = vec![
            Box::new(ScalarKernel::new()),
            Box::new(SimdKernel::new()),
            Box::new(FpgaKernel::new()),
        ];
        for mut k in kernels {
            let pyr = t.forward_with(k.as_mut(), &img).unwrap();
            let back = t.inverse_with(k.as_mut(), &pyr).unwrap();
            let err = back.max_abs_diff(&img);
            prop_assert!(err < 2e-2, "{} reconstruction error {err}", k.name());
        }
    }

    #[test]
    fn plain_dwt_round_trips_on_random_banks(
        img in arb_image(40),
        bank_idx in 0usize..5,
    ) {
        let bank = match bank_idx {
            0 => FilterBank::haar(),
            1 => FilterBank::daubechies(2),
            2 => FilterBank::legall_5_3(),
            3 => FilterBank::cdf_9_7(),
            _ => FilterBank::near_sym_b(),
        }
        .unwrap();
        let levels = 2.min(Dwt2d::max_levels(img.width(), img.height()));
        prop_assume!(levels >= 1);
        let dwt = Dwt2d::new(bank, levels).unwrap();
        let pyr = dwt.forward(&img).unwrap();
        let back = dwt.inverse(&pyr).unwrap();
        prop_assert!(back.max_abs_diff(&img) < 2e-2);
    }
}

#[test]
fn ledger_is_deterministic_across_runs() {
    // The simulator must charge identical cycles for identical work.
    let img = Image::from_fn(40, 40, |x, y| ((x * y) % 29) as f32);
    let t = Dtcwt::new(3).unwrap();
    let run = || {
        let mut k = FpgaKernel::new();
        let _ = t.forward_with(&mut k, &img).unwrap();
        *k.ledger()
    };
    assert_eq!(run(), run());
}
