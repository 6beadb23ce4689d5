//! Criterion benches for the substrates the system is built on: the BT.656
//! codec and scaler of the capture path (Fig. 7), the filter designers and
//! the quality metrics.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wavefuse_dtcwt::design::{daubechies, design_dual_lowpass};
use wavefuse_dtcwt::{FilterBank, Image};
use wavefuse_video::scaler::resize_bilinear;
use wavefuse_video::scene::ScenePair;
use wavefuse_video::{bt656, PixelFormat, RawFrame};

fn bench_bt656(c: &mut Criterion) {
    let mut group = c.benchmark_group("bt656");
    let bytes: Vec<u8> = (0..720 * 243 * 2)
        .map(|i| 1 + (i * 7 % 253) as u8)
        .collect();
    let frame = RawFrame::new(PixelFormat::Yuv422, 720, 243, bytes).expect("frame");
    let stream = bt656::encode(&frame);
    group.bench_function("encode_720x243", |b| {
        b.iter(|| black_box(bt656::encode(black_box(&frame))));
    });
    group.bench_function("decode_720x243", |b| {
        b.iter(|| black_box(bt656::decode(black_box(&stream), 720, 243).unwrap()));
    });
    group.finish();
}

fn bench_scaler(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaler");
    let field = Image::from_fn(720, 243, |x, y| ((x ^ y) % 251) as f32 / 250.0);
    group.bench_function("720x243_to_640x480", |b| {
        b.iter(|| black_box(resize_bilinear(black_box(&field), 640, 480).unwrap()));
    });
    group.bench_function("640x480_to_88x72", |b| {
        let big = resize_bilinear(&field, 640, 480).expect("upscale");
        b.iter(|| black_box(resize_bilinear(black_box(&big), 88, 72).unwrap()));
    });
    group.finish();
}

fn bench_design(c: &mut Criterion) {
    let mut group = c.benchmark_group("filter_design");
    group.bench_function("daubechies_8", |b| {
        b.iter(|| black_box(daubechies(black_box(8)).unwrap()));
    });
    group.bench_function("near_sym_b_dual", |b| {
        let bank = FilterBank::near_sym_b().expect("bank");
        let h0 = bank.h0().to_vec();
        b.iter(|| black_box(design_dual_lowpass(black_box(&h0), 19).unwrap()));
    });
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics");
    let scene = ScenePair::new(7);
    let a = scene.render_visible(88, 72, 0.0);
    let b = scene.render_thermal(88, 72, 0.0);
    group.bench_function("qabf_88x72", |bch| {
        bch.iter(|| black_box(wavefuse_metrics::petrovic_qabf(&a, &b, &a)));
    });
    group.bench_function("mutual_information_88x72", |bch| {
        bch.iter(|| black_box(wavefuse_metrics::mutual_information(&a, &b)));
    });
    group.bench_function("ssim_88x72", |bch| {
        bch.iter(|| black_box(wavefuse_metrics::ssim(&a, &b)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bt656,
    bench_scaler,
    bench_design,
    bench_metrics
);
criterion_main!(benches);
