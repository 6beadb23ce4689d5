//! Per-frame flight recorder: a fixed-capacity ring of [`FrameRecord`]s,
//! the workspace's one per-frame timeline.
//!
//! The pipeline owns one recorder and overwrites the oldest record once
//! the ring fills — like an aircraft flight recorder, the last N frames
//! are always available for post-mortem without unbounded growth. Every
//! field of a [`FrameRecord`] is `Copy` (labels are `&'static str`), so
//! recording a frame is a plain slot write: no allocation, no locking,
//! safe inside the zero-allocation steady state.
//!
//! Records carry both clocks (host wall microseconds and the modeled
//! platform clock), the per-phase time and energy split, the backend
//! decision rationale (deadline, predicted vs measured cost), pool and
//! scheduler counters, and the PS/PL energy split for FPGA-routed work.
//! [`FlightRecorder::jsonl`] and [`FlightRecorder::chrome_trace`] are the
//! trace exporters; [`crate::export`] renders the metrics registry.

use crate::json::JsonValue;

/// Phase labels, index-aligned with [`FrameRecord::phase_s`] and
/// [`FrameRecord::phase_mj`] (and with the engine's phase ordering).
pub const PHASES: [&str; 5] = ["capture", "forward", "fusion", "inverse", "overhead"];

/// Everything the pipeline knows about one fused frame, captured at
/// `fuse_finish` time. All fields are plain `Copy` data so the record can
/// be written into a preallocated ring slot without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRecord {
    /// Zero-based frame index since pipeline construction.
    pub frame: u64,
    /// Serving stream this frame belongs to, or -1 for a single-stream
    /// pipeline (one recorder can then interleave a whole fleet's frames).
    pub stream: i64,
    /// Backend label (e.g. `"NEON"`), `""` in a default record.
    pub backend: &'static str,
    /// Kernel name (e.g. `"neon-simd"`).
    pub kernel: &'static str,
    /// Backend decision rationale: `"fixed"` for a pinned backend, or
    /// the adaptive policy label (e.g. `"online-energy"`).
    pub decision: &'static str,
    /// Worker threads configured on the engine (1 = serial).
    pub threads: u64,
    /// Pipeline depth: frames the in-flight ring may hold (1 = no
    /// software pipelining beyond the single-frame capture overlap).
    pub depth: u64,
    /// Engine ring slot this frame's inverse ran in, or -1 when the
    /// frame completed outside the slot ring (serial/FPGA/hybrid paths).
    pub slot: i64,
    /// Host wall-clock start of the step, µs since pipeline construction.
    pub wall_start_us: f64,
    /// Host wall-clock duration of the step in µs.
    pub wall_dur_us: f64,
    /// Modeled platform clock at frame start, seconds.
    pub model_start_s: f64,
    /// Modeled frame duration in seconds (sum of `phase_s`).
    pub model_dur_s: f64,
    /// Modeled per-phase seconds, ordered as [`PHASES`].
    pub phase_s: [f64; 5],
    /// Modeled per-phase energy in mJ, ordered as [`PHASES`].
    pub phase_mj: [f64; 5],
    /// Modeled total frame energy in mJ (exactly what the pipeline's
    /// `PipelineStats.energy_mj` accumulated for this frame).
    pub energy_mj: f64,
    /// PS (ARM + static) share of `energy_mj`, in mJ.
    pub ps_mj: f64,
    /// PL active share of `energy_mj`: the 19.2 mW increment charged over
    /// the PL engine's busy seconds. Zero on CPU-only backends.
    pub pl_mj: f64,
    /// Seconds the PL engine was busy this frame (from the cycle ledger).
    pub pl_busy_s: f64,
    /// Cost model's predicted frame seconds for this backend/geometry.
    pub predicted_s: f64,
    /// Row-strip fusion jobs fanned out across the worker pool for this
    /// frame (0 = fusion ran serially on the dispatcher thread).
    pub fusion_strips: u64,
    /// Real-time budget the frame is judged against (camera frame period).
    pub deadline_s: f64,
    /// Whether the output buffer came from the pool (vs a fresh allocation).
    pub pool_hit: bool,
    /// Capture-gate frames dropped while producing this frame.
    pub gate_drops: u64,
    /// Work-stealing batches claimed by the pool during this frame.
    pub batches_claimed: u64,
    /// Cross-worker steals during this frame.
    pub steals: u64,
    /// Nanoseconds workers spent parked during this frame.
    pub parked_ns: u64,
}

impl Default for FrameRecord {
    fn default() -> Self {
        FrameRecord {
            frame: 0,
            stream: -1,
            backend: "",
            kernel: "",
            decision: "",
            threads: 1,
            depth: 1,
            slot: -1,
            wall_start_us: 0.0,
            wall_dur_us: 0.0,
            model_start_s: 0.0,
            model_dur_s: 0.0,
            phase_s: [0.0; 5],
            phase_mj: [0.0; 5],
            energy_mj: 0.0,
            ps_mj: 0.0,
            pl_mj: 0.0,
            pl_busy_s: 0.0,
            predicted_s: 0.0,
            fusion_strips: 0,
            deadline_s: 0.0,
            pool_hit: false,
            gate_drops: 0,
            batches_claimed: 0,
            steals: 0,
            parked_ns: 0,
        }
    }
}

impl FrameRecord {
    /// Renders the record as a flat JSON object (one JSONL line's worth).
    fn to_json(self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = vec![
            ("frame".into(), JsonValue::Num(self.frame as f64)),
            ("stream".into(), JsonValue::Num(self.stream as f64)),
            ("backend".into(), JsonValue::Str(self.backend.into())),
            ("kernel".into(), JsonValue::Str(self.kernel.into())),
            ("decision".into(), JsonValue::Str(self.decision.into())),
            ("threads".into(), JsonValue::Num(self.threads as f64)),
            ("depth".into(), JsonValue::Num(self.depth as f64)),
            ("slot".into(), JsonValue::Num(self.slot as f64)),
            ("wall_start_us".into(), JsonValue::Num(self.wall_start_us)),
            ("wall_dur_us".into(), JsonValue::Num(self.wall_dur_us)),
            ("model_start_s".into(), JsonValue::Num(self.model_start_s)),
            ("model_dur_s".into(), JsonValue::Num(self.model_dur_s)),
        ];
        for (i, phase) in PHASES.iter().enumerate() {
            fields.push((format!("{phase}_s"), JsonValue::Num(self.phase_s[i])));
        }
        for (i, phase) in PHASES.iter().enumerate() {
            fields.push((format!("{phase}_mj"), JsonValue::Num(self.phase_mj[i])));
        }
        fields.extend([
            ("energy_mj".into(), JsonValue::Num(self.energy_mj)),
            ("ps_mj".into(), JsonValue::Num(self.ps_mj)),
            ("pl_mj".into(), JsonValue::Num(self.pl_mj)),
            ("pl_busy_s".into(), JsonValue::Num(self.pl_busy_s)),
            ("predicted_s".into(), JsonValue::Num(self.predicted_s)),
            (
                "fusion_strips".into(),
                JsonValue::Num(self.fusion_strips as f64),
            ),
            ("deadline_s".into(), JsonValue::Num(self.deadline_s)),
            ("pool_hit".into(), JsonValue::Bool(self.pool_hit)),
            ("gate_drops".into(), JsonValue::Num(self.gate_drops as f64)),
            (
                "batches_claimed".into(),
                JsonValue::Num(self.batches_claimed as f64),
            ),
            ("steals".into(), JsonValue::Num(self.steals as f64)),
            ("parked_ns".into(), JsonValue::Num(self.parked_ns as f64)),
        ]);
        JsonValue::Obj(fields)
    }
}

/// Fixed-capacity ring of [`FrameRecord`]s, oldest overwritten first.
///
/// The recorder is single-writer by construction (the pipeline owns it
/// behind `&mut self`), so no atomics are needed; `record` is one slot
/// write plus a counter increment.
///
/// # Examples
///
/// ```
/// use wavefuse_trace::{FlightRecorder, FrameRecord};
///
/// let mut rec = FlightRecorder::new(2);
/// for frame in 0..3 {
///     rec.record(FrameRecord { frame, ..FrameRecord::default() });
/// }
/// // Capacity 2: frame 0 was overwritten; iteration is oldest→newest.
/// let frames: Vec<u64> = rec.iter().map(|r| r.frame).collect();
/// assert_eq!(frames, [1, 2]);
/// assert_eq!(rec.total(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    records: Box<[FrameRecord]>,
    /// Total records ever written (monotonic; `>= len()`).
    total: u64,
}

impl FlightRecorder {
    /// Creates a recorder holding the last `capacity` frames
    /// (`capacity` is clamped to at least 1). All allocation happens here.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            records: vec![FrameRecord::default(); capacity].into_boxed_slice(),
            total: 0,
        }
    }

    /// Ring capacity in frames.
    pub fn capacity(&self) -> usize {
        self.records.len()
    }

    /// Total records ever written, including overwritten ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records currently held (`min(total, capacity)`).
    pub fn len(&self) -> usize {
        (self.total as usize).min(self.records.len())
    }

    /// Returns `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Returns `true` once the ring has overwritten at least one record.
    pub fn wrapped(&self) -> bool {
        self.total as usize > self.records.len()
    }

    /// Writes one record, overwriting the oldest slot when full.
    /// Allocation-free.
    pub fn record(&mut self, rec: FrameRecord) {
        let slot = (self.total as usize) % self.records.len();
        self.records[slot] = rec;
        self.total += 1;
    }

    /// Iterates the held records oldest→newest. Allocation-free.
    pub fn iter(&self) -> impl Iterator<Item = &FrameRecord> {
        let cap = self.records.len();
        if self.total as usize > cap {
            // Wrapped: the slot about to be overwritten is the oldest.
            let start = self.total as usize % cap;
            self.records[start..]
                .iter()
                .chain(self.records[..start].iter())
        } else {
            self.records[..self.len()]
                .iter()
                .chain(self.records[..0].iter())
        }
    }

    /// Exports the held records as JSON Lines (one object per frame,
    /// oldest first, both clocks included) — the format for piping into
    /// `jq` or a log shipper.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.iter() {
            rec.to_json().write(&mut out);
            out.push('\n');
        }
        out
    }

    /// Exports the held records in the Chrome trace-event format on the
    /// modeled clock: one `"frame"` span plus one span per phase, with
    /// the energy split and the frame's wall-clock start and duration
    /// attached as args. `otherData` reports the frames the ring dropped.
    /// Load in Perfetto or `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        let mut events: Vec<JsonValue> = vec![JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str("process_name".into())),
            ("ph".into(), JsonValue::Str("M".into())),
            ("pid".into(), JsonValue::Num(1.0)),
            ("tid".into(), JsonValue::Num(0.0)),
            (
                "args".into(),
                JsonValue::Obj(vec![(
                    "name".into(),
                    JsonValue::Str("wavefuse flight recorder (modeled clock)".into()),
                )]),
            ),
        ])];
        for rec in self.iter() {
            let span =
                |name: String, cat: &str, ts_s: f64, dur_s: f64, args: Vec<(String, JsonValue)>| {
                    JsonValue::Obj(vec![
                        ("name".into(), JsonValue::Str(name)),
                        ("cat".into(), JsonValue::Str(cat.into())),
                        ("ph".into(), JsonValue::Str("X".into())),
                        ("pid".into(), JsonValue::Num(1.0)),
                        ("tid".into(), JsonValue::Num(0.0)),
                        ("ts".into(), JsonValue::Num(ts_s * 1e6)),
                        ("dur".into(), JsonValue::Num(dur_s * 1e6)),
                        ("args".into(), JsonValue::Obj(args)),
                    ])
                };
            events.push(span(
                format!("frame {} [{}]", rec.frame, rec.backend),
                "flight",
                rec.model_start_s,
                rec.model_dur_s,
                vec![
                    ("energy_mj".into(), JsonValue::Num(rec.energy_mj)),
                    ("ps_mj".into(), JsonValue::Num(rec.ps_mj)),
                    ("pl_mj".into(), JsonValue::Num(rec.pl_mj)),
                    ("predicted_s".into(), JsonValue::Num(rec.predicted_s)),
                    ("decision".into(), JsonValue::Str(rec.decision.into())),
                    ("kernel".into(), JsonValue::Str(rec.kernel.into())),
                    ("wall_start_us".into(), JsonValue::Num(rec.wall_start_us)),
                    ("wall_dur_us".into(), JsonValue::Num(rec.wall_dur_us)),
                ],
            ));
            let mut ts = rec.model_start_s;
            for (i, phase) in PHASES.iter().enumerate() {
                events.push(span(
                    (*phase).into(),
                    "phase",
                    ts,
                    rec.phase_s[i],
                    vec![("energy_mj".into(), JsonValue::Num(rec.phase_mj[i]))],
                ));
                ts += rec.phase_s[i];
            }
        }
        let doc = JsonValue::Obj(vec![
            ("traceEvents".into(), JsonValue::Arr(events)),
            ("displayTimeUnit".into(), JsonValue::Str("ms".into())),
            (
                "otherData".into(),
                JsonValue::Obj(vec![
                    (
                        "dropped_frames".into(),
                        JsonValue::Num((self.total - self.len() as u64) as f64),
                    ),
                    ("total_frames".into(), JsonValue::Num(self.total as f64)),
                ]),
            ),
        ]);
        doc.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(frame: u64) -> FrameRecord {
        FrameRecord {
            frame,
            backend: "NEON",
            kernel: "neon-simd",
            decision: "fixed",
            energy_mj: frame as f64 * 0.5,
            phase_s: [5e-4, 1e-3, 2e-3, 3e-3, 4e-4],
            model_dur_s: 6.9e-3,
            wall_start_us: frame as f64 * 100.0,
            wall_dur_us: 42.0,
            ..FrameRecord::default()
        }
    }

    #[test]
    fn fills_then_wraps_keeping_newest() {
        let mut r = FlightRecorder::new(4);
        assert!(r.is_empty() && !r.wrapped());
        for f in 0..3 {
            r.record(rec(f));
        }
        assert_eq!(r.len(), 3);
        assert!(!r.wrapped());
        let got: Vec<u64> = r.iter().map(|x| x.frame).collect();
        assert_eq!(got, [0, 1, 2]);

        for f in 3..11 {
            r.record(rec(f));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total(), 11);
        assert!(r.wrapped());
        // Oldest→newest ordering survives an arbitrary number of wraps.
        let got: Vec<u64> = r.iter().map(|x| x.frame).collect();
        assert_eq!(got, [7, 8, 9, 10]);
    }

    #[test]
    fn exact_capacity_boundary_is_not_wrapped() {
        let mut r = FlightRecorder::new(3);
        for f in 0..3 {
            r.record(rec(f));
        }
        assert!(!r.wrapped());
        assert_eq!(r.iter().map(|x| x.frame).collect::<Vec<_>>(), [0, 1, 2]);
        r.record(rec(3));
        assert!(r.wrapped());
        assert_eq!(r.iter().map(|x| x.frame).collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn jsonl_lines_parse_and_match_records() {
        let mut r = FlightRecorder::new(8);
        for f in 0..5 {
            r.record(rec(f));
        }
        let text = r.jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for (f, line) in lines.iter().enumerate() {
            let v = JsonValue::parse(line).expect("valid JSONL line");
            assert_eq!(v.get("frame").and_then(JsonValue::as_f64), Some(f as f64));
            assert_eq!(v.get("backend").and_then(JsonValue::as_str), Some("NEON"));
            assert_eq!(
                v.get("energy_mj").and_then(JsonValue::as_f64),
                Some(f as f64 * 0.5)
            );
            assert!(v.get("forward_s").is_some());
            assert!(v.get("overhead_mj").is_some());
            assert_eq!(v.get("depth").and_then(JsonValue::as_f64), Some(1.0));
            assert_eq!(v.get("slot").and_then(JsonValue::as_f64), Some(-1.0));
        }
    }

    #[test]
    fn chrome_trace_has_frame_and_phase_spans() {
        let mut r = FlightRecorder::new(8);
        r.record(rec(0));
        let doc = JsonValue::parse(&r.chrome_trace()).expect("valid trace JSON");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array");
        // 1 metadata + 1 frame span + 5 phase spans.
        assert_eq!(events.len(), 7);
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
            .collect();
        assert!(names.contains(&"frame 0 [NEON]"));
        for phase in PHASES {
            assert!(names.contains(&phase), "missing {phase} span");
        }
    }

    #[test]
    fn jsonl_lines_carry_both_clocks() {
        let mut r = FlightRecorder::new(2);
        r.record(FrameRecord {
            model_start_s: 0.25,
            ..rec(3)
        });
        let line = r.jsonl();
        let v = JsonValue::parse(line.trim_end()).expect("valid JSONL line");
        let num = |k: &str| v.get(k).and_then(JsonValue::as_f64);
        assert_eq!(num("wall_start_us"), Some(300.0));
        assert_eq!(num("wall_dur_us"), Some(42.0));
        assert_eq!(num("model_start_s"), Some(0.25));
        assert_eq!(num("model_dur_s"), Some(6.9e-3));
    }

    #[test]
    fn chrome_frame_spans_carry_both_clocks() {
        let mut r = FlightRecorder::new(2);
        r.record(rec(1));
        let doc = JsonValue::parse(&r.chrome_trace()).expect("valid trace JSON");
        let frame = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .and_then(|evs| {
                evs.iter()
                    .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("frame 1 [NEON]"))
            })
            .expect("frame span");
        // `dur` is on the modeled clock (µs); the wall clock rides in args.
        let dur = frame.get("dur").and_then(JsonValue::as_f64).expect("dur");
        assert!((dur - 6.9e3).abs() < 1e-6, "dur {dur}");
        let args = frame.get("args").expect("args");
        let num = |k: &str| args.get(k).and_then(JsonValue::as_f64);
        assert_eq!(num("wall_start_us"), Some(100.0));
        assert_eq!(num("wall_dur_us"), Some(42.0));
    }

    #[test]
    fn wrapped_ring_reports_dropped_frames() {
        let mut r = FlightRecorder::new(3);
        for f in 0..8 {
            r.record(rec(f));
        }
        let doc = JsonValue::parse(&r.chrome_trace()).expect("valid trace JSON");
        let other = doc.get("otherData").expect("otherData");
        let num = |k: &str| other.get(k).and_then(JsonValue::as_f64);
        assert_eq!(num("dropped_frames"), Some(5.0));
        assert_eq!(num("total_frames"), Some(8.0));
        // Only the three newest frames are exported.
        let frames = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents")
            .iter()
            .filter(|e| e.get("cat").and_then(JsonValue::as_str) == Some("flight"))
            .count();
        assert_eq!(frames, 3);
    }
}
