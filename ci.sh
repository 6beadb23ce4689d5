#!/usr/bin/env bash
# Offline CI gate: build, test, format, lint. No network access required —
# the workspace has no external dependencies (see the comment in the root
# Cargo.toml for re-enabling the optional `ext-tests` extras).
set -euo pipefail
cd "$(dirname "$0")"

echo "== unsafe boundary (one module of wavefuse-simd; every other crate root forbids unsafe)"
# The NEON engine calls its AVX2-compiled lane bodies through one module,
# crates/simd/src/isa.rs, the only place in the workspace's crates where
# `unsafe` code or an allow(unsafe_code) may appear. wavefuse-simd's root
# denies unsafe code, so only that module's allow lifts it, and every
# other library root forbids it outright.
stray=$(grep -rnE --include='*.rs' \
    'unsafe[[:space:]]*(\{|fn\b|impl\b|trait\b|extern\b)|allow\(unsafe_code\)' crates src |
    grep -v '^crates/simd/src/isa.rs:' || true)
if [ -n "$stray" ]; then
    echo "unsafe outside crates/simd/src/isa.rs:"
    echo "$stray"
    exit 1
fi
grep -q '^#!\[deny(unsafe_code)\]' crates/simd/src/lib.rs
for root in src/lib.rs crates/*/src/lib.rs; do
    if [ "$root" != crates/simd/src/lib.rs ] && ! grep -q '^#!\[forbid(unsafe_code)\]' "$root"; then
        echo "$root lost #![forbid(unsafe_code)]"
        exit 1
    fi
done

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test"
cargo test --workspace -q

echo "== allocation regression (steady-state hot path)"
cargo test -q --release --test alloc_steady_state

echo "== column-pass bit-identity (NEON and FPGA column passes vs the transpose staging)"
cargo test -q --release --test columnar_identity

echo "== wavefuse-simd unit tests in release (lane exactness, row-oracle sweep, lane-path sweep, kernel fusion)"
# The crate's lane-exactness tests, the row-oracle sweep (the kernel's
# lane-parallel row passes vs both per-output dots, bit for bit, over ten
# banks x output widths 1..=80 x both phases, analysis and synthesis, on
# finite and NaN/inf rows), the lane-path sweep
# (lane_paths_agree_bit_for_bit: the portable and the detected AVX2 copy
# of the lane bodies agree on rows, columns and fuse_strip over every bank,
# both phases and widths 1..=80 plus 88/160/320, so every 16/8/4/1 step is
# hit, on finite and NaN/inf/-0/subnormal planes) and the kernel
# fuse_strip bit-identity tests on row ranges also run in debug above, but
# LLVM vectorizes the lane loops only in release, so the identities are
# checked here too. The row-oracle and fuse_strip sweeps run on both lane
# paths; a CPU without AVX2 checks the portable one and says so on stderr
# (the column-pass identity runs in the columnar_identity step above).
cargo test -q --release -p wavefuse-simd

echo "== wavefuse-dtcwt tests + lowpass fusion sweep in release (slice passes vs per-pixel oracles, per-tree forward vs per-combo oracle)"
# The DT-CWT's inter-stage glue (q2c after each forward, c2q before each
# inverse level) runs as flat slice passes; their tests sweep them against
# the per-pixel accessor loops bit for bit over degenerate and odd
# geometries and NaN/inf/signed-zero/subnormal samples, for all four tree
# combinations; the lowpass fusion pass's sweep (all three rules) lives
# in wavefuse-core's rules module. LLVM vectorizes the passes only in
# release. per_tree_forward_matches_the_per_combo_oracle_bit_for_bit
# checks the forward's one level-1 row pass per row tree against the
# per-combo analysis it replaced (to_bits, every depth of 2x2 to
# 320x240, finite and NaN/inf/-0 planes); the NEON and FPGA kernels get
# the same sweep in the forward_identity step below.
cargo test -q --release -p wavefuse-dtcwt
cargo test -q --release -p wavefuse-core --lib rules::tests

echo "== wavefuse-zynq unit tests in release (lane-parallel engine bit-identity)"
# The simulated wavelet engine evaluates outputs lane-parallel; its tests
# sweep that datapath against the one-output-per-clock shift-register
# reference bit for bit, and
# column_passes_match_the_transpose_staging_with_identical_accounting
# checks FpgaKernel's own column passes against the transpose staging of
# its rows: output bits plus == on the cycle ledger, DMA timeline, driver
# stats, register writes and telemetry. The lane loops vectorize only in
# release. The same == on the FPGA's accounting for the level-1 rows the
# per-tree forward shares (charge_shared_rows) is
# fpga_per_tree_forward_charges_what_the_per_combo_forward_charges, in
# the forward_identity step below.
cargo test -q --release -p wavefuse-zynq

echo "== per-tree forward bit-identity (scalar, NEON, FPGA, pooled) and FPGA accounting"
# The forward shares one level-1 row pass between the two combos of a
# row tree. Every combo must equal the per-combo analysis bit for bit on
# every kernel, serially and on the pool, and the FPGA kernel must charge
# exactly the per-combo schedule's calls. The 320x240 sweep is
# debug-ignored and runs here.
cargo test -q --release --test forward_identity -- --include-ignored

echo "== capture lanes vs scalar oracles, exhaustive rounding sweep"
# The capture chain's lane loops (paired thermal render, cached-row
# bilinear resample, lane-chunk YUV/RGB byte packing, table luma) must
# reproduce their per-pixel expressions bit for bit; the frame pins hold
# both cameras' output digests. The ignored test sweeps the packers'
# rounding helper over all 2^32 f32 bit patterns. The lane loops
# vectorize only in release.
cargo test -q --release -p wavefuse-video -- --include-ignored

echo "== depth-k pipelining bit-identity (incl. the release-only VGA matrix)"
# Depth {1,2,3} x threads {1,2,4} x frame sizes must reproduce the serial
# pixel stream exactly; the 640x480 matrix is debug-ignored and runs here.
cargo test -q --release --test depth_identity -- --include-ignored

echo "== fleet and pool schedules (serve identity, thread scaling, backpressure, telemetry, pipeline)"
# A forward job is one row tree and a 16-stream fleet round is one ring
# fill; the fleet's digests must equal solo runs and the pooled engine
# must match serial at every thread count. The pipeline is a fleet of one
# on the same frame driver, so its telemetry and end-to-end suites run
# here too, and release timing is where capped fleets drop differently.
cargo test -q --release --test serve_identity --test thread_scaling \
    --test serve_backpressure --test serve_telemetry \
    --test telemetry_pipeline --test end_to_end

echo "== fusion bit-identity (kernels x rules x radii x geometries, engine, depth-k, fleet)"
# Dispatcher-side fusion through the SIMD and scalar kernels must
# reproduce the scalar reference bit for bit at every layer: the kernels
# on even and odd geometries, the pooled engine, depth-k pipelining, and
# the shared serve fleet.
cargo test -q --release --test fusion_identity

echo "== benchmark harness (wavebench/, a package outside the workspace)"
# wavebench drives forward_pooled_pair, forward_into, fuse_pyramids_with_kernel,
# build_worker_pool, fuse_submit and set_shared_pool from outside the
# workspace, so `cargo build --workspace` never compiles it. Building and
# testing it here makes removing an API the benchmark uses fail CI instead
# of the next benchmark run.
cargo test -q --release --offline --manifest-path wavebench/Cargo.toml

echo "== modeled paper outputs (repro fig2 ... timeline vs results/repro_modeled.txt)"
# Every section below is computed from the ZC702 model, not measured, so
# its stdout is deterministic and pinned byte for byte. A change to the
# FPGA row cost, the cost model or the decision argmin that moves a
# figure fails here; regenerate the file only for an intended change.
cargo run --release -q -p wavefuse-bench --bin repro -- \
    fig2 table1 fig9a fig9b fig9c fig10 crossover adaptive ablation \
    quality levels throughput timeline > target/repro_modeled.txt
diff -u results/repro_modeled.txt target/repro_modeled.txt

echo "== examples smoke (energy_explorer, adaptive_fusion, robust_capture, subband_gallery)"
# Both examples print breaking points found by adaptive::crossover_edge,
# the one NEON-vs-FPGA argmin shared with `repro crossover`.
cargo run --release -q --example energy_explorer > target/energy_explorer.txt
grep -q 'breaking point' target/energy_explorer.txt
cargo run --release -q --example adaptive_fusion > target/adaptive_fusion.txt
grep -q 'breaking point' target/adaptive_fusion.txt
# The glitched-link decode and the oriented subbands must run end to end;
# both examples write their images under the git-ignored out/.
cargo run --release -q --example robust_capture > target/robust_capture.txt
grep -q 'resilient decoder:' target/robust_capture.txt
cargo run --release -q --example subband_gallery > target/subband_gallery.txt
grep -q 'level-1 subband energies' target/subband_gallery.txt

echo "== throughput bench smoke (repro bench --frames 16)"
# Smoke only: must run to completion and emit the JSON report; the
# numbers themselves are host-dependent and not asserted here.
cargo run --release -q -p wavefuse-bench --bin repro -- \
    bench --frames 16 --bench-out target/BENCH_smoke.json
test -s target/BENCH_smoke.json

echo "== threaded bench smoke (repro bench --frames 16 --threads 2)"
# Exercises the worker-pool rows explicitly even on single-core CI hosts
# (the default thread count is derived from host parallelism).
cargo run --release -q -p wavefuse-bench --bin repro -- \
    bench --frames 16 --threads 2 --bench-out target/BENCH_smoke_t2.json
test -s target/BENCH_smoke_t2.json

echo "== bench regression gate (repro bench --check, serial rows, ±25%)"
# Gates a fresh serial measurement against the committed baseline: fps
# must not drop — and energy/p99 must not climb — beyond ±25% per
# (backend, threads, frame_size, depth, rule) row, else the gate exits
# non-zero and fails CI. `--threads 1` restricts the run to the serial
# rows: the pooled rows oversubscribe single-vCPU CI hosts and their
# wall-clock is too noisy to gate (the baseline's threads=2 rows are
# simply skipped).
cargo run --release -q -p wavefuse-bench --bin repro -- \
    bench --frames 16 --threads 1 --bench-out target/BENCH_gate.json \
    --check BENCH_pipeline.json --tolerance 25

echo "== large-frame bench smoke (repro bench --frame-size 640x480, serial)"
# One reduced-frame VGA serial row: large-frame geometry must stay
# runnable end to end and the row must record its own size.
cargo run --release -q -p wavefuse-bench --bin repro -- \
    bench --frames 4 --threads 1 --frame-size 640x480 \
    --bench-out target/BENCH_smoke_vga.json
grep -q '"frame_size":\[640,480\]' target/BENCH_smoke_vga.json

echo "== depth-2 bench smoke (repro bench --depth 2 --threads 2)"
# A depth-2 pooled run must complete and record the effective depth on
# its threaded rows (serial rows degrade to depth 1 by design).
cargo run --release -q -p wavefuse-bench --bin repro -- \
    bench --frames 8 --threads 2 --depth 2 \
    --bench-out target/BENCH_smoke_d2.json
grep -q '"depth":2' target/BENCH_smoke_d2.json

echo "== fusion-rule bench smoke (repro bench --rule, choose-max + weighted)"
# The --rule flag must plumb through to the engine and stamp each row's
# identity key, so rule-keyed rows gate independently of the default
# window-energy rows.
cargo run --release -q -p wavefuse-bench --bin repro -- \
    bench --frames 8 --threads 2 --rule choose-max \
    --bench-out target/BENCH_smoke_choosemax.json
grep -q '"rule":"choose-max"' target/BENCH_smoke_choosemax.json
cargo run --release -q -p wavefuse-bench --bin repro -- \
    bench --frames 8 --threads 1 --rule weighted \
    --bench-out target/BENCH_smoke_weighted.json
grep -q '"rule":"weighted"' target/BENCH_smoke_weighted.json

echo "== flight recorder smoke (repro eval --flight-record --metrics)"
# The eval reconciles the flight recorder's per-phase time (1% limit) and
# per-frame energy (0.1% limit) against the pipeline totals and must
# round-trip both export files plus the Prometheus exposition.
cargo run --release -q -p wavefuse-bench --bin repro -- \
    eval --frames 12 --flight-record target/flight.jsonl \
    --metrics target/eval.prom
test -s target/flight.jsonl
grep -q '"energy_mj"' target/flight.jsonl
grep -q '"traceEvents"' target/flight.jsonl.trace.json
grep -q '^wavefuse_phase_seconds_bucket' target/eval.prom

echo "== wavefuse demo smoke (--trace writes the flight record)"
# The CLI's --trace must export the run's flight record as a Chrome trace
# with per-phase spans.
mkdir -p target/demo
cargo run --release -q --bin wavefuse -- \
    demo -o target/demo --frames 3 --trace target/demo.trace.json
grep -q '"traceEvents"' target/demo.trace.json
grep -q '"forward"' target/demo.trace.json

echo "== multi-stream serving smoke (repro serve --streams 8 --frames 32)"
# The shared-fleet serving path must drive 8 concurrent streams end to
# end: full per-stream report, serve JSON export, and a SERVE row upsert.
# CI upserts into a scratch copy so the committed baseline stays untouched
# (serve wall-clock is host-dependent and not gated here).
cp BENCH_pipeline.json target/BENCH_serve_smoke.json
cargo run --release -q -p wavefuse-bench --bin repro -- \
    serve --streams 8 --frames 32 \
    --bench-out target/BENCH_serve_smoke.json \
    --serve-out target/SERVE_smoke.json
grep -q '"backend":"SERVE-8"' target/BENCH_serve_smoke.json
grep -q '"per_stream"' target/SERVE_smoke.json

echo "== cargo doc -D warnings (no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
