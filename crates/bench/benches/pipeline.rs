//! Criterion benches for Figs. 9b/10 and Fig. 2: the full fused-frame
//! pipeline per backend and size (host wall time of the complete
//! decompose → fuse → reconstruct cycle, including the platform simulation
//! on the FPGA path), plus the fusion-rule costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wavefuse_core::rules::{fuse_pyramids, FusionRule, LowpassRule};
use wavefuse_core::{Backend, FusionEngine};
use wavefuse_dtcwt::{Dtcwt, Image};

const SIZES: [(usize, usize); 5] = [(32, 24), (35, 35), (40, 40), (64, 48), (88, 72)];

fn inputs(w: usize, h: usize) -> (Image, Image) {
    (
        Image::from_fn(w, h, |x, y| ((x * 13 + y * 7) % 101) as f32 / 100.0),
        Image::from_fn(w, h, |x, y| ((x * 5 + y * 29) % 97) as f32 / 96.0),
    )
}

fn bench_full_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9b_full_frame");
    group.sample_size(20);
    for (w, h) in SIZES {
        let (a, b) = inputs(w, h);
        let label = format!("{w}x{h}");
        for backend in Backend::ALL {
            let name = match backend {
                Backend::Arm => "arm",
                Backend::Neon => "neon",
                Backend::Fpga => "fpga_sim",
            };
            group.bench_with_input(
                BenchmarkId::new(name, &label),
                &(a.clone(), b.clone()),
                |bch, (a, b)| {
                    let mut engine = FusionEngine::new(3).expect("engine");
                    bch.iter(|| {
                        black_box(engine.fuse(black_box(a), black_box(b), backend).unwrap())
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_fusion_rules(c: &mut Criterion) {
    let mut group = c.benchmark_group("fusion_rules");
    let t = Dtcwt::new(3).expect("transform");
    let (a, b) = inputs(88, 72);
    let pa = t.forward(&a).expect("forward a");
    let pb = t.forward(&b).expect("forward b");
    for (name, rule) in [
        ("max_magnitude", FusionRule::MaxMagnitude),
        ("window_energy_3x3", FusionRule::WindowEnergy { radius: 1 }),
        ("window_energy_5x5", FusionRule::WindowEnergy { radius: 2 }),
        ("weighted", FusionRule::Weighted { alpha: 0.5 }),
    ] {
        group.bench_function(name, |bch| {
            bch.iter(|| {
                black_box(fuse_pyramids(
                    black_box(&pa),
                    black_box(&pb),
                    rule,
                    LowpassRule::Average,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_full_frame, bench_fusion_rules);
criterion_main!(benches);
