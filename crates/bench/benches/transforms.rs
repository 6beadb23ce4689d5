//! Criterion benches for Figs. 9a/9c: the forward and inverse DT-CWT row
//! kernels on every backend, over the paper's frame-size matrix.
//!
//! These measure *host* wall time of the real kernels (the modeled platform
//! times are regenerated by the `repro` binary); the shape — SIMD faster
//! than scalar per transform, FPGA-simulation slower in host time because
//! it also simulates the platform — is expected.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use wavefuse_core::engine::build_worker_pool;
use wavefuse_dtcwt::{ComboStore, CwtPyramid, Dtcwt, FilterKernel, Image, ScalarKernel};
use wavefuse_simd::SimdKernel;
use wavefuse_zynq::FpgaKernel;

/// Worker kernel slot of the SIMD kernel in [`build_worker_pool`].
const WORKER_SLOT_SIMD: usize = 1;

const SIZES: [(usize, usize); 5] = [(32, 24), (35, 35), (40, 40), (64, 48), (88, 72)];

fn test_image(w: usize, h: usize) -> Image {
    Image::from_fn(w, h, |x, y| ((x * 31 + y * 17) % 251) as f32 / 250.0)
}

fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9a_forward_dtcwt");
    let t = Dtcwt::new(3).expect("3 levels");
    for (w, h) in SIZES {
        let img = test_image(w, h);
        let label = format!("{w}x{h}");
        group.bench_with_input(BenchmarkId::new("arm_scalar", &label), &img, |b, img| {
            let mut k = ScalarKernel::new();
            b.iter(|| black_box(t.forward_with(&mut k, black_box(img)).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("neon_simd", &label), &img, |b, img| {
            let mut k = SimdKernel::new();
            b.iter(|| black_box(t.forward_with(&mut k, black_box(img)).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("fpga_sim", &label), &img, |b, img| {
            let mut k = FpgaKernel::new();
            b.iter(|| black_box(t.forward_with(&mut k, black_box(img)).unwrap()));
        });
    }
    group.finish();
}

fn bench_inverse(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9c_inverse_dtcwt");
    let t = Dtcwt::new(3).expect("3 levels");
    for (w, h) in SIZES {
        let img = test_image(w, h);
        let pyr = t.forward(&img).expect("forward");
        let label = format!("{w}x{h}");
        group.bench_with_input(BenchmarkId::new("arm_scalar", &label), &pyr, |b, pyr| {
            let mut k = ScalarKernel::new();
            b.iter(|| black_box(t.inverse_with(&mut k, black_box(pyr)).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("neon_simd", &label), &pyr, |b, pyr| {
            let mut k = SimdKernel::new();
            b.iter(|| black_box(t.inverse_with(&mut k, black_box(pyr)).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("fpga_sim", &label), &pyr, |b, pyr| {
            let mut k = FpgaKernel::new();
            b.iter(|| black_box(t.inverse_with(&mut k, black_box(pyr)).unwrap()));
        });
    }
    group.finish();
}

fn bench_row_kernels(c: &mut Criterion) {
    // The paper's Fig. 3 microbenchmark: one vectorized filter row.
    let mut group = c.benchmark_group("fig3_row_kernel");
    let bank = wavefuse_dtcwt::FilterBank::near_sym_b().expect("bank");
    let taps = wavefuse_dtcwt::dwt1d::BankTaps::new(&bank);
    let row: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.03).sin()).collect();
    let mut ext = Vec::new();
    wavefuse_dtcwt::dwt1d::extend_circular_into(&row, 19, 19, &mut ext);
    let mut lo = vec![0.0f32; 1024];
    let mut hi = vec![0.0f32; 1024];
    group.bench_function("scalar", |b| {
        let mut k = ScalarKernel::new();
        b.iter(|| {
            k.analyze_row(black_box(&ext), 19, &taps.h0, &taps.h1, 0, &mut lo, &mut hi);
            black_box(lo[0])
        });
    });
    group.bench_function("neon_simd", |b| {
        let mut k = SimdKernel::new();
        b.iter(|| {
            k.analyze_row(black_box(&ext), 19, &taps.h0, &taps.h1, 0, &mut lo, &mut hi);
            black_box(lo[0])
        });
    });
    group.finish();
}

fn bench_parallel(c: &mut Criterion) {
    // Host-side parallelism over the four independent trees (library
    // extension; the paper's single-core A9 has no equivalent). The pooled
    // cases run on the engine's standard four-worker pool, SIMD slot.
    let mut group = c.benchmark_group("host_parallelism");
    let t = Arc::new(Dtcwt::new(3).expect("3 levels"));
    let img = test_image(176, 144);
    let pool = build_worker_pool(4, true);
    group.bench_function("forward_serial", |b| {
        let mut k = SimdKernel::new();
        b.iter(|| black_box(t.forward_with(&mut k, black_box(&img)).unwrap()));
    });
    group.bench_function("forward_parallel_x4", |b| {
        // One pair forward is two transforms: both inputs of a frame.
        let shared = Arc::new(img.clone());
        let (mut combos_a, mut combos_b) = (ComboStore::new(), ComboStore::new());
        let (mut out_a, mut out_b) = (CwtPyramid::empty(), CwtPyramid::empty());
        let mut outcomes = Vec::new();
        b.iter(|| {
            t.forward_pooled_pair(
                &pool,
                WORKER_SLOT_SIMD,
                black_box(&shared),
                &mut combos_a,
                &mut out_a,
                black_box(&shared),
                &mut combos_b,
                &mut out_b,
                &mut outcomes,
            )
            .unwrap();
            black_box(out_b.levels())
        });
    });
    let pyr = Arc::new(t.forward(&img).expect("forward"));
    group.bench_function("inverse_serial", |b| {
        let mut k = SimdKernel::new();
        b.iter(|| black_box(t.inverse_with(&mut k, black_box(&pyr)).unwrap()));
    });
    group.bench_function("inverse_parallel_x4", |b| {
        let mut bufs = Vec::new();
        let mut outcomes = Vec::new();
        let mut out = Image::zeros(0, 0);
        b.iter(|| {
            t.inverse_pooled_submit(&pool, WORKER_SLOT_SIMD, black_box(&pyr), &mut bufs, 0)
                .unwrap();
            outcomes.clear();
            pool.drain_partial(4, &mut outcomes);
            t.inverse_collect_outcomes(&mut outcomes, &mut bufs, &mut out)
                .unwrap();
            black_box(out.get(0, 0))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_forward,
    bench_inverse,
    bench_row_kernels,
    bench_parallel
);
criterion_main!(benches);
