//! Cross-crate integration tests for the features this reproduction adds
//! beyond the paper: the scheduler's cost prediction, the stationary
//! wavelet baseline and the pooled transform.

use std::sync::Arc;

use wavefuse_core::adaptive::{AdaptiveScheduler, Objective, Policy};
use wavefuse_core::engine::build_worker_pool;
use wavefuse_core::{Backend, FusionEngine};
use wavefuse_dtcwt::swt::Swt2d;
use wavefuse_dtcwt::{ComboStore, CwtPyramid, Dtcwt, FilterBank, Image};
use wavefuse_metrics::petrovic_qabf;
use wavefuse_power::PowerModel;
use wavefuse_simd::SimdKernel;
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
