//! Allocation-regression tests for the steady-state hot path.
//!
//! A counting global allocator (wrapping the system allocator) tracks
//! heap traffic from the current thread. After a warm-up frame has sized
//! every scratch arena, buffer pool slot, and capture-path plan, the
//! pipeline's `step()` and the pooled transform paths must not allocate
//! at all — the tentpole guarantee of the zero-allocation hot path.
//!
//! The counters are thread-local so the test harness's other threads
//! cannot contaminate a measurement; everything under test runs with
//! `threads = 1`, i.e. on the measuring thread itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use wavefuse_core::pipeline::{BackendChoice, PipelineConfig, VideoFusionPipeline};
use wavefuse_core::serve::{FleetConfig, StreamConfig, StreamManager};
use wavefuse_core::Backend;
use wavefuse_dtcwt::{
    transpose_bytes_total, ComboStore, CwtPyramid, Dtcwt, Image, ScalarKernel, Scratch,
};
use wavefuse_simd::SimdKernel;
use wavefuse_trace::{FlightRecorder, FrameRecord, LogHistogram};
use wavefuse_zynq::FpgaKernel;

/// `transpose_bytes_total()` is a process-wide counter, and the scalar and
/// FPGA kernels legitimately stage transposes. Serializing the tests in
/// this binary keeps each delta measurement attributable to one kernel.
static TRANSPOSE_GATE: Mutex<()> = Mutex::new(());

fn transpose_gate() -> std::sync::MutexGuard<'static, ()> {
    TRANSPOSE_GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns `(allocation count, bytes allocated, result)` for
/// the calling thread.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let a0 = ALLOCS.with(Cell::get);
    let b0 = BYTES.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - a0, BYTES.with(Cell::get) - b0, r)
}

fn pipeline(backend: Backend) -> VideoFusionPipeline {
    VideoFusionPipeline::new(PipelineConfig {
        frame_size: (88, 72),
        levels: 3,
        backend: BackendChoice::Fixed(backend),
        scene_seed: 2016,
        threads: 1,
        depth: 1,
    })
    .expect("default geometry supports three levels")
}

#[test]
fn steady_state_pipeline_steps_do_not_allocate() {
    let _gate = transpose_gate();
    for backend in [Backend::Arm, Backend::Neon] {
        let mut pipe = pipeline(backend);
        // Warm-up: the first frames size the scratch arenas, pool slots,
        // capture plans, and the gate's ping-pong buffers.
        for _ in 0..2 {
            let out = pipe.step().expect("warm-up step");
            pipe.recycle(out);
        }
        let transposed0 = transpose_bytes_total();
        for frame in 2..5 {
            let (allocs, bytes, out) = counted(|| pipe.step().expect("steady step"));
            let (rallocs, rbytes, ()) = counted(|| pipe.recycle(out));
            assert_eq!(
                (allocs, bytes),
                (0, 0),
                "{backend:?} frame {frame}: step() allocated {allocs} times ({bytes} bytes)"
            );
            assert_eq!(
                (rallocs, rbytes),
                (0, 0),
                "{backend:?} frame {frame}: recycle() allocated {rallocs} times ({rbytes} bytes)"
            );
        }
        assert_eq!(pipe.stats().frames, 5);
        // The columnar column passes keep the SIMD backend transpose-free
        // in the steady-state frame loop; the scalar backend still stages
        // its vertical passes through `Image::transpose_into`.
        let transposed = transpose_bytes_total() - transposed0;
        match backend {
            Backend::Neon => assert_eq!(
                transposed, 0,
                "{backend:?}: steady-state frames transposed {transposed} bytes"
            ),
            _ => assert!(
                transposed > 0,
                "{backend:?}: expected the scalar fallback to charge the transpose counter"
            ),
        }
    }
}

// A pooled pipeline runs the transforms on the worker pool and fuses on
// the dispatcher into a reused fused pyramid, so once warm-up frames have
// sized the per-slot combo store, fused pyramid and inverse staging buffer
// the depth-1 pooled path must stay off the allocator on the dispatcher
// thread — while still actually running on the pool (every flight record
// carries a ring slot, proving the pooled path ran, not the serial one).
#[test]
fn steady_state_strip_fusion_does_not_allocate_on_the_dispatcher() {
    let _gate = transpose_gate();
    let mut pipe = VideoFusionPipeline::new(PipelineConfig {
        frame_size: (88, 72),
        levels: 3,
        backend: BackendChoice::Fixed(Backend::Neon),
        scene_seed: 2016,
        threads: 2,
        depth: 1,
    })
    .expect("default geometry supports three levels");
    for _ in 0..3 {
        let out = pipe.step().expect("warm-up step");
        pipe.recycle(out);
    }
    for frame in 3..7 {
        let (allocs, bytes, out) = counted(|| pipe.step().expect("steady step"));
        let (rallocs, rbytes, ()) = counted(|| pipe.recycle(out));
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "frame {frame}: pooled step() allocated {allocs} times ({bytes} bytes)"
        );
        assert_eq!(
            (rallocs, rbytes),
            (0, 0),
            "frame {frame}: recycle() allocated {rallocs} times ({rbytes} bytes)"
        );
    }
    let pooled_frames = pipe
        .flight_recorder()
        .iter()
        .filter(|r| r.slot >= 0)
        .count();
    assert_eq!(
        pooled_frames,
        pipe.stats().frames as usize,
        "every frame should run in the pooled slot ring"
    );
}

// Depth-k software pipelining keeps several frames in flight across the
// worker pool; the dispatcher thread (the one calling `step()`) must stay
// allocation-free once the prologue has filled the ring and sized every
// per-slot combo store, fused pyramid, inverse staging buffer and stash
// vector. Worker threads are not the measuring thread, so the counters pin
// exactly the dispatcher-side guarantee the in-flight ring makes.
#[test]
fn steady_state_depth_k_pipeline_does_not_allocate_on_the_dispatcher() {
    let _gate = transpose_gate();
    for depth in [2usize, 3] {
        let mut pipe = VideoFusionPipeline::new(PipelineConfig {
            frame_size: (88, 72),
            levels: 3,
            backend: BackendChoice::Fixed(Backend::Neon),
            scene_seed: 2016,
            threads: 2,
            depth,
        })
        .expect("default geometry supports three levels");
        assert_eq!(pipe.depth(), depth);
        // Warm-up: the prologue submits `depth` frames before the first
        // retirement, and the first retired frames size the per-slot
        // buffers, so give every slot one full submit/retire cycle.
        for _ in 0..depth + 2 {
            let out = pipe.step().expect("warm-up step");
            pipe.recycle(out);
        }
        for frame in depth + 2..depth + 6 {
            let (allocs, bytes, out) = counted(|| pipe.step().expect("steady step"));
            let (rallocs, rbytes, ()) = counted(|| pipe.recycle(out));
            assert_eq!(
                (allocs, bytes),
                (0, 0),
                "depth {depth} frame {frame}: step() allocated {allocs} times ({bytes} bytes)"
            );
            assert_eq!(
                (rallocs, rbytes),
                (0, 0),
                "depth {depth} frame {frame}: recycle() allocated {rallocs} times ({rbytes} bytes)"
            );
        }
        assert_eq!(pipe.stats().frames as usize, depth + 6);
    }
}

// At the transform layer, driven straight through a kernel, the pooled
// `_into` analyze/synthesize paths must also be allocation-free after one
// warm-up pass of the same geometry.
#[test]
fn steady_state_transform_paths_do_not_allocate() {
    let _gate = transpose_gate();
    let img = Image::from_fn(88, 72, |x, y| ((x * 31 + y * 17) % 101) as f32 * 0.01);
    let t = Dtcwt::new(3).expect("three levels");

    let mut scalar = ScalarKernel::new();
    let mut simd = SimdKernel::new();
    let kernels: [(&str, &mut dyn wavefuse_dtcwt::FilterKernel); 2] =
        [("scalar", &mut scalar), ("simd", &mut simd)];

    for (name, kernel) in kernels {
        let mut combos = ComboStore::new();
        let mut scratch = Scratch::new();
        let mut pyr = CwtPyramid::empty();
        let mut rec = Image::zeros(0, 0);

        // Warm-up pass sizes every staging buffer.
        t.forward_into(kernel, &img, &mut combos, &mut scratch, &mut pyr)
            .expect("warm-up forward");
        t.inverse_into(kernel, &pyr, &mut scratch, &mut rec)
            .expect("warm-up inverse");

        let transposed0 = transpose_bytes_total();
        let (allocs, bytes, ()) = counted(|| {
            for _ in 0..3 {
                t.forward_into(kernel, &img, &mut combos, &mut scratch, &mut pyr)
                    .expect("steady forward");
                t.inverse_into(kernel, &pyr, &mut scratch, &mut rec)
                    .expect("steady inverse");
            }
        });
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "{name}: pooled transform allocated {allocs} times ({bytes} bytes)"
        );
        // The SIMD kernel rides the columnar column passes and must never
        // touch the transpose staging; the scalar reference keeps using it.
        let transposed = transpose_bytes_total() - transposed0;
        if name == "simd" {
            assert_eq!(
                transposed, 0,
                "{name}: steady transforms transposed {transposed} bytes"
            );
        } else {
            assert!(
                transposed > 0,
                "{name}: expected transpose staging on the fallback path"
            );
        }
    }
}

// The simulated FPGA path copies each row into the driver's DMA area and
// splits it for the engine's register; column passes run in the engine
// lane-parallel across columns, with no transposes. All of that scratch is
// persistent, so after one warm-up transform (which also sizes the
// coefficient-shadow copies and the engine's slot lists) repeated
// transforms must stay off the allocator and off the transpose staging.
#[test]
fn steady_state_fpga_transform_path_does_not_allocate() {
    let _gate = transpose_gate();
    let img = Image::from_fn(88, 72, |x, y| ((x * 13 + y * 29) % 97) as f32 * 0.02);
    let t = Dtcwt::new(3).expect("three levels");

    let mut fpga = FpgaKernel::new();
    let mut combos = ComboStore::new();
    let mut scratch = Scratch::new();
    let mut pyr = CwtPyramid::empty();
    let mut rec = Image::zeros(0, 0);

    t.forward_into(&mut fpga, &img, &mut combos, &mut scratch, &mut pyr)
        .expect("warm-up forward");
    t.inverse_into(&mut fpga, &pyr, &mut scratch, &mut rec)
        .expect("warm-up inverse");

    let transposed0 = transpose_bytes_total();
    let (allocs, bytes, ()) = counted(|| {
        for _ in 0..2 {
            t.forward_into(&mut fpga, &img, &mut combos, &mut scratch, &mut pyr)
                .expect("steady forward");
            t.inverse_into(&mut fpga, &pyr, &mut scratch, &mut rec)
                .expect("steady inverse");
        }
    });
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "fpga: transform allocated {allocs} times ({bytes} bytes)"
    );
    let transposed = transpose_bytes_total() - transposed0;
    assert_eq!(
        transposed, 0,
        "fpga: steady transforms transposed {transposed} bytes"
    );
}

// Multi-stream serving packs many engines onto one pool from a single
// dispatcher thread. A serving window does a fixed amount of bookkeeping
// allocation (the before-snapshot and the returned per-stream report), but
// none of it may scale with the number of frames served: once the warm-up
// window has sized every engine's buffers and each stream's capture path,
// the per-frame admit/capture/pack/retire cycle must stay off the
// allocator. Windows of different lengths must therefore allocate exactly
// the same amount — any per-frame allocation would separate them.
#[test]
fn steady_state_serving_windows_allocate_independently_of_length() {
    let _gate = transpose_gate();
    let mut mgr = StreamManager::new(FleetConfig {
        threads: 2,
        ..FleetConfig::default()
    });
    for s in 0..3u64 {
        mgr.admit(StreamConfig {
            depth: 1 + (s as usize % 2),
            scene_seed: 2016 + s,
            ..StreamConfig::default()
        })
        .expect("default geometry supports three levels");
    }
    // Warm-up window: fills every stream's pipeline ring, sizes the
    // per-slot stashes, and binds this thread's histogram shards.
    mgr.run(4).expect("warm-up window");

    let (short_allocs, short_bytes, _) = counted(|| mgr.run(2).expect("short window"));
    let (long_allocs, long_bytes, _) = counted(|| mgr.run(9).expect("long window"));
    assert_eq!(
        (short_allocs, short_bytes),
        (long_allocs, long_bytes),
        "serving allocated per frame: 2-frame window {short_allocs} allocs \
         ({short_bytes} B) vs 9-frame window {long_allocs} allocs ({long_bytes} B)"
    );
}

// The flight recorder rides along on every pipeline step (it is always
// on) and serve keeps a log-bucketed latency histogram per stream, so the
// pipeline and serving steady-state tests above already prove both stay
// off the allocator in situ. This test pins the same guarantee on the
// primitives directly: once constructed, observing, querying quantiles,
// and recording frames must never allocate.
#[test]
fn observability_primitives_do_not_allocate_after_construction() {
    // Construction sizes the sharded counters and the record ring.
    let hist = LogHistogram::with_defaults();
    let mut flight = FlightRecorder::new(64);
    // One warm-up observation binds this thread's shard ordinal.
    hist.observe(1.0);
    flight.record(FrameRecord::default());

    let (allocs, bytes, ()) = counted(|| {
        for i in 0..1000u64 {
            hist.observe(1e-5 * (i + 1) as f64);
            flight.record(FrameRecord {
                frame: i,
                energy_mj: i as f64 * 0.25,
                ..FrameRecord::default()
            });
        }
        // Quantile/aggregate queries merge the shards in place.
        assert!(hist.quantile(0.5) > 0.0);
        assert!(hist.quantile(0.99) >= hist.quantile(0.5));
        assert!(hist.max() > 0.0);
        assert!(hist.sum() > 0.0);
        assert_eq!(hist.count(), 1001);
        // The ring wrapped several times and kept the newest records.
        assert!(flight.wrapped());
        assert_eq!(flight.len(), 64);
        assert_eq!(flight.iter().last().expect("newest").frame, 999);
    });
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "observability primitives allocated {allocs} times ({bytes} bytes)"
    );
}
