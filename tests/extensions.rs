//! Cross-crate integration tests for the features this reproduction adds
//! beyond the paper: the scheduler's cost prediction,
//! registration-before-fusion, and denoising in the capture path.

use std::sync::Arc;

use wavefuse_core::adaptive::{AdaptiveScheduler, Objective, Policy};
use wavefuse_core::engine::build_worker_pool;
use wavefuse_core::{Backend, FusionEngine};
use wavefuse_dtcwt::analysis::circular_shift;
use wavefuse_dtcwt::denoise::denoise;
use wavefuse_dtcwt::swt::Swt2d;
use wavefuse_dtcwt::{ComboStore, CwtPyramid, Dtcwt, FilterBank, Image};
use wavefuse_metrics::{petrovic_qabf, psnr};
use wavefuse_power::PowerModel;
use wavefuse_simd::SimdKernel;
use wavefuse_video::register::align_to;
use wavefuse_video::scene::ScenePair;

fn scene_pair(w: usize, h: usize) -> (Image, Image) {
    let scene = ScenePair::new(99);
    (
        scene.render_visible(w, h, 0.0),
        scene.render_thermal(w, h, 0.0),
    )
}

#[test]
fn scheduler_prediction_is_the_engines_prediction() {
    // The scheduler ranks backends by exactly the cost the engine records
    // as each frame's `predicted_s` (one `CostModel::predict`, one
    // summation order), and that prediction tracks what the engine charges.
    let sched = AdaptiveScheduler::new(Policy::Model(Objective::Time), 3);
    let power = PowerModel::zc702();
    let mut engine = FusionEngine::new(3).unwrap();
    for (w, h) in [(32, 24), (35, 35), (40, 40), (64, 48), (88, 72)] {
        let (a, b) = scene_pair(w, h);
        for backend in Backend::ALL {
            let out = engine.fuse(&a, &b, backend).unwrap();
            let predicted = out.predicted_s;
            let time = sched
                .predicted_cost(w, h, backend, Objective::Time)
                .unwrap();
            assert_eq!(
                time.to_bits(),
                predicted.to_bits(),
                "{w}x{h} {backend:?} seconds"
            );
            let energy = sched
                .predicted_cost(w, h, backend, Objective::Energy)
                .unwrap();
            let expected = power.energy_mj(backend.execution_mode(), predicted);
            assert_eq!(
                energy.to_bits(),
                expected.to_bits(),
                "{w}x{h} {backend:?} energy"
            );
            let measured = out.timing.total_seconds();
            assert!(
                (measured - predicted).abs() < 0.05 * predicted,
                "{w}x{h} {backend:?}: predicted {predicted} vs measured {measured}"
            );
            engine.recycle(out);
        }
    }
}

#[test]
fn registration_before_fusion_recovers_misalignment() {
    // Misaligned sensors: fusing directly ghosts the edges; registering
    // the thermal frame first restores the aligned fusion result.
    let (vis, ir) = scene_pair(64, 64);
    let mut engine = FusionEngine::new(3).unwrap();
    let aligned_ref = engine.fuse(&vis, &ir, Backend::Neon).unwrap().image;

    let ir_misaligned = circular_shift(&ir, 6, -4);
    let naive = engine
        .fuse(&vis, &ir_misaligned, Backend::Neon)
        .unwrap()
        .image;

    let (ir_registered, t) = align_to(&ir, &ir_misaligned).unwrap();
    assert_eq!((t.dx, t.dy), (6, -4));
    let registered = engine
        .fuse(&vis, &ir_registered, Backend::Neon)
        .unwrap()
        .image;

    let q_naive = petrovic_qabf(&vis, &ir, &naive);
    let q_registered = petrovic_qabf(&vis, &ir, &registered);
    assert!(
        q_registered > q_naive + 0.02,
        "registered {q_registered:.3} vs naive {q_naive:.3}"
    );
    assert!(registered.max_abs_diff(&aligned_ref) < 1e-3);
}

#[test]
fn denoising_the_thermal_stream_before_fusion_helps() {
    let (vis, ir) = scene_pair(64, 64);
    // Heavy extra sensor noise on the thermal channel.
    let noisy_ir = Image::from_fn(64, 64, |x, y| {
        let h = (x as u32)
            .wrapping_mul(0x9e3779b9)
            .wrapping_add((y as u32).wrapping_mul(0x85ebca6b));
        ir.get(x, y) + ((h >> 9) as f32 / (1u32 << 23) as f32 - 0.5) * 0.25
    });
    let t = Dtcwt::new(3).unwrap();
    let cleaned = denoise(&t, &noisy_ir, 1.0).unwrap();
    assert!(
        psnr(&ir, &cleaned) > psnr(&ir, &noisy_ir) + 2.0,
        "denoise gains >2 dB"
    );

    let mut engine = FusionEngine::new(3).unwrap();
    let fused_noisy = engine.fuse(&vis, &noisy_ir, Backend::Neon).unwrap().image;
    let fused_clean = engine.fuse(&vis, &cleaned, Backend::Neon).unwrap().image;
    let reference = engine.fuse(&vis, &ir, Backend::Neon).unwrap().image;
    assert!(
        psnr(&reference, &fused_clean) > psnr(&reference, &fused_noisy) + 2.0,
        "denoised-stream fusion is closer to the clean fusion"
    );
}

#[test]
fn swt_and_dtcwt_agree_on_what_matters() {
    // The SWT (exactly shift-invariant, expensive) and the DT-CWT
    // (approximately shift-invariant, cheap) produce closely comparable
    // fusions, while the MAC bill differs by several times.
    let (a, b) = scene_pair(88, 72);
    let mut engine = FusionEngine::new(3).unwrap();
    let dtcwt_img = engine.fuse(&a, &b, Backend::Neon).unwrap().image;
    let swt_img =
        wavefuse_core::baseline::swt_fusion(&a, &b, FilterBank::cdf_9_7().unwrap(), 3).unwrap();
    let q_dtcwt = petrovic_qabf(&a, &b, &dtcwt_img);
    let q_swt = petrovic_qabf(&a, &b, &swt_img);
    assert!((q_dtcwt - q_swt).abs() < 0.08, "{q_dtcwt} vs {q_swt}");

    let swt = Swt2d::new(FilterBank::near_sym_b().unwrap(), 3).unwrap();
    let swt_macs = swt.forward_macs(88, 72);
    let plan = wavefuse_core::cost::TransformPlan::dtcwt(88, 72, 3).unwrap();
    // ~1.8x the MACs at 3 levels — and the gap grows linearly with depth
    // (the SWT has no geometric decay), plus 2.5x the memory footprint.
    assert!(
        swt_macs as f64 > 1.5 * plan.forward_macs() as f64,
        "swt {} vs dt-cwt {}",
        swt_macs,
        plan.forward_macs()
    );
    let deep_swt = Swt2d::new(FilterBank::near_sym_b().unwrap(), 5)
        .unwrap()
        .forward_macs(88, 72);
    let deep_plan = wavefuse_core::cost::TransformPlan::dtcwt(88, 72, 5).unwrap();
    assert!(
        deep_swt as f64 > 2.5 * deep_plan.forward_macs() as f64,
        "the gap widens with depth: {} vs {}",
        deep_swt,
        deep_plan.forward_macs()
    );
}

#[test]
fn parallel_transform_is_a_drop_in_replacement() {
    let (a, b) = scene_pair(88, 72);
    let t = Arc::new(Dtcwt::new(3).unwrap());
    // Worker kernel slot 1 is the SIMD kernel.
    let pool = build_worker_pool(4, true);
    let (img_a, img_b) = (Arc::new(a.clone()), Arc::new(b.clone()));
    let (mut combos_a, mut combos_b) = (ComboStore::new(), ComboStore::new());
    let (mut par_a, mut par_b) = (CwtPyramid::empty(), CwtPyramid::empty());
    t.forward_pooled_pair(
        &pool,
        1,
        &img_a,
        &mut combos_a,
        &mut par_a,
        &img_b,
        &mut combos_b,
        &mut par_b,
        &mut Vec::new(),
    )
    .unwrap();
    let mut simd = SimdKernel::new();
    for (img, parallel) in [(&a, &par_a), (&b, &par_b)] {
        let serial = t.forward_with(&mut simd, img).unwrap();
        for level in 0..3 {
            for (x, y) in serial.subbands(level).iter().zip(parallel.subbands(level)) {
                assert_eq!(x.re, y.re);
                assert_eq!(x.im, y.im);
            }
        }
        assert_eq!(serial.lowpass(), parallel.lowpass());
    }
}
