//! Property-based tests for fusion rules and the cost model.

// Needs the external `proptest` crate, which the offline build cannot
// resolve: restore the dev-dependencies listed in the root Cargo.toml on
// a networked machine and run with `--features ext-tests`.
#![cfg(feature = "ext-tests")]

use proptest::prelude::*;
use wavefuse_core::cost::{CostModel, Direction, TransformPlan};
use wavefuse_core::rules::{fuse_lowpass, fuse_subband, FusionRule, LowpassRule};
use wavefuse_dtcwt::{ComplexImage, Image};

fn arb_complex_pair() -> impl Strategy<Value = (ComplexImage, ComplexImage)> {
    (2usize..=12, 2usize..=12).prop_flat_map(|(w, h)| {
        let plane = proptest::collection::vec(-10.0f32..10.0, w * h);
        (plane.clone(), plane.clone(), plane.clone(), plane).prop_map(move |(ar, ai, br, bi)| {
            let mk = |v: Vec<f32>| Image::from_vec(w, h, v).expect("sized");
            (
                ComplexImage::new(mk(ar), mk(ai)).expect("same dims"),
                ComplexImage::new(mk(br), mk(bi)).expect("same dims"),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn max_magnitude_output_never_weaker_than_either_input(
        (a, b) in arb_complex_pair()
    ) {
        let f = fuse_subband(&a, &b, FusionRule::MaxMagnitude);
        let (w, h) = a.dims();
        for y in 0..h {
            for x in 0..w {
                let m = f.magnitude_at(x, y);
                prop_assert!(m + 1e-5 >= a.magnitude_at(x, y).min(b.magnitude_at(x, y)));
                prop_assert!(m + 1e-5 >= a.magnitude_at(x, y).max(b.magnitude_at(x, y)) - 1e-5);
            }
        }
    }

    #[test]
    fn selection_rules_pick_existing_coefficients(
        (a, b) in arb_complex_pair()
    ) {
        for rule in [FusionRule::MaxMagnitude, FusionRule::WindowEnergy { radius: 1 }] {
            let f = fuse_subband(&a, &b, rule);
            let (w, h) = a.dims();
            for y in 0..h {
                for x in 0..w {
                    let from_a = (f.re.get(x, y) - a.re.get(x, y)).abs() < 1e-6
                        && (f.im.get(x, y) - a.im.get(x, y)).abs() < 1e-6;
                    let from_b = (f.re.get(x, y) - b.re.get(x, y)).abs() < 1e-6
                        && (f.im.get(x, y) - b.im.get(x, y)).abs() < 1e-6;
                    prop_assert!(from_a || from_b, "coefficient invented at ({x},{y})");
                }
            }
        }
    }

    #[test]
    fn fusion_rules_are_symmetric_up_to_ties(
        (a, b) in arb_complex_pair()
    ) {
        // Swapping inputs leaves the fused magnitude unchanged for the
        // selection rules (which coefficient wins ties may differ).
        let fab = fuse_subband(&a, &b, FusionRule::MaxMagnitude);
        let fba = fuse_subband(&b, &a, FusionRule::MaxMagnitude);
        let (w, h) = a.dims();
        for y in 0..h {
            for x in 0..w {
                prop_assert!((fab.magnitude_at(x, y) - fba.magnitude_at(x, y)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn weighted_rule_is_convex(
        (a, b) in arb_complex_pair(),
        alpha in 0.0f32..=1.0,
    ) {
        let f = fuse_subband(&a, &b, FusionRule::Weighted { alpha });
        let (w, h) = a.dims();
        for y in 0..h {
            for x in 0..w {
                let lo = a.re.get(x, y).min(b.re.get(x, y));
                let hi = a.re.get(x, y).max(b.re.get(x, y));
                let v = f.re.get(x, y);
                prop_assert!(v >= lo - 1e-5 && v <= hi + 1e-5);
            }
        }
    }

    #[test]
    fn lowpass_average_midpoint(
        data_a in proptest::collection::vec(-5.0f32..5.0, 16),
        data_b in proptest::collection::vec(-5.0f32..5.0, 16),
    ) {
        let a = Image::from_vec(4, 4, data_a).unwrap();
        let b = Image::from_vec(4, 4, data_b).unwrap();
        let f = fuse_lowpass(&a, &b, LowpassRule::Average);
        for y in 0..4 {
            for x in 0..4 {
                let expect = 0.5 * (a.get(x, y) + b.get(x, y));
                prop_assert!((f.get(x, y) - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn cost_model_is_monotone_in_frame_size(
        e1 in 12usize..=60,
        grow in 2usize..=40,
    ) {
        let m = CostModel::calibrated();
        let small = TransformPlan::dtcwt(e1, e1, 2).unwrap();
        let large = TransformPlan::dtcwt(e1 + grow, e1 + grow, 2).unwrap();
        for dir in [Direction::Forward, Direction::Inverse] {
            prop_assert!(m.arm_seconds(&large, dir) > m.arm_seconds(&small, dir));
            prop_assert!(m.neon_seconds(&large, dir) > m.neon_seconds(&small, dir));
            prop_assert!(m.fpga_seconds(&large, dir) > m.fpga_seconds(&small, dir));
        }
    }

    #[test]
    fn neon_never_slower_than_arm_and_never_better_than_ideal(
        edge in 12usize..=96,
    ) {
        let m = CostModel::calibrated();
        let plan = TransformPlan::dtcwt(edge, edge, 2).unwrap();
        for dir in [Direction::Forward, Direction::Inverse] {
            let arm = m.arm_seconds(&plan, dir);
            let neon = m.neon_seconds(&plan, dir);
            prop_assert!(neon <= arm);
            prop_assert!(neon >= arm / 4.0, "cannot beat the 4-lane ideal");
        }
    }
}
