//! Property-based tests for the platform simulator.

// Needs the external `proptest` crate, which the offline build cannot
// resolve: restore the dev-dependencies listed in the root Cargo.toml on
// a networked machine and run with `--features ext-tests`.
#![cfg(feature = "ext-tests")]

use proptest::prelude::*;
use wavefuse_dtcwt::dwt1d::{analyze, BankTaps, Phase};
use wavefuse_dtcwt::{FilterBank, ScalarKernel};
use wavefuse_zynq::bus::acp_burst_pl_cycles;
use wavefuse_zynq::driver::{IoctlRequest, WaveletDriver};
use wavefuse_zynq::engine::WaveletEngine;
use wavefuse_zynq::ZynqConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_scalar_on_random_rows(
        half in 2usize..=48,
        seed in 0u32..1000,
        phase_b in proptest::bool::ANY,
        bank_idx in 0usize..3,
    ) {
        let bank = match bank_idx {
            0 => FilterBank::haar(),
            1 => FilterBank::near_sym_b(),
            _ => FilterBank::qshift_b(),
        }.unwrap();
        let taps = BankTaps::new(&bank);
        let x: Vec<f32> = (0..half * 2)
            .map(|i| {
                let v = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                (v % 199) as f32 * 0.05 - 5.0
            })
            .collect();
        let phase = if phase_b { Phase::B } else { Phase::A };

        // Reference through the public 1-D path.
        let mut sc = ScalarKernel::new();
        let (lo_ref, hi_ref) = analyze(&mut sc, &taps, &x, phase).unwrap();

        // Engine on the identical extension.
        let left = taps.h0.len().max(taps.h1.len());
        let mut ext = Vec::new();
        wavefuse_dtcwt::dwt1d::extend_circular_into(&x, left, left, &mut ext);
        let mut eng = WaveletEngine::new(ZynqConfig::default());
        eng.load_analysis_filters(&taps.h0, &taps.h1).unwrap();
        let mut lo = vec![0.0f32; half];
        let mut hi = vec![0.0f32; half];
        eng.forward_row(&ext, left, phase.offset(), &mut lo, &mut hi)
            .unwrap();
        let scale = x.iter().fold(1.0f32, |m, v| m.max(v.abs()));
        for i in 0..half {
            prop_assert!((lo[i] - lo_ref[i]).abs() < 2e-4 * scale);
            prop_assert!((hi[i] - hi_ref[i]).abs() < 2e-4 * scale);
        }
    }

    #[test]
    fn engine_cycles_grow_monotonically_with_row_length(
        a in 4usize..=512,
        b in 4usize..=512,
    ) {
        let cfg = ZynqConfig::default();
        let mut eng = WaveletEngine::new(cfg);
        let h = std::f32::consts::FRAC_1_SQRT_2;
        eng.load_analysis_filters(&[h, h], &[h, -h]).unwrap();
        let run = |eng: &mut WaveletEngine, n: usize| {
            let ext = vec![0.5f32; n + 4];
            let mut lo = vec![0.0f32; n / 2];
            let mut hi = vec![0.0f32; n / 2];
            eng.forward_row(&ext, 2, 0, &mut lo, &mut hi).unwrap().cycles.pl_cycles()
        };
        let (small, large) = (a.min(b) & !1, a.max(b) & !1);
        prop_assume!(small >= 4 && small < large);
        let cs = run(&mut eng, small);
        let cl = run(&mut eng, large);
        prop_assert!(cl > cs, "{large} words: {cl} cycles vs {small} words: {cs}");
    }

    #[test]
    fn acp_burst_cost_is_affine(words in 1usize..2000, extra in 1usize..500) {
        let cfg = ZynqConfig::default();
        let c1 = acp_burst_pl_cycles(words, &cfg);
        let c2 = acp_burst_pl_cycles(words + extra, &cfg);
        // Superadditive-free: the marginal cost of extra words is exactly
        // per-word (no hidden cliffs).
        prop_assert_eq!(c2 - c1, extra as u64);
    }

    #[test]
    fn driver_swaps_are_involutive(
        payload in proptest::collection::vec(-10.0f32..10.0, 1..=64),
        swaps in 0usize..8,
    ) {
        let mut drv = WaveletDriver::open(ZynqConfig::default());
        drv.copy_from_user(&payload).unwrap();
        for _ in 0..swaps {
            drv.ioctl(IoctlRequest::SwapBuffers).unwrap();
        }
        let visible = drv.accelerator_input(payload.len()).unwrap();
        if swaps % 2 == 0 {
            prop_assert_eq!(visible, &payload[..]);
        } else {
            prop_assert!(visible.iter().all(|&v| v == 0.0));
        }
    }
}
