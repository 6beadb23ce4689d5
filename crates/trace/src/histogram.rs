//! Allocation-free, lock-free log-bucketed histogram.
//!
//! [`LogHistogram`] is the workspace's one histogram type: every
//! [`MetricsRegistry`](crate::MetricsRegistry) histogram series is one,
//! and the serving fleet keeps one per stream for its latency quantiles.
//! All allocation happens at construction time, and `observe()` is a
//! handful of relaxed atomic operations.
//!
//! Contention is kept off the hot path by *sharding*: each observing
//! thread is assigned a stable ordinal (process-wide, handed out on first
//! observation) and writes to `ordinal % shards`. Readers merge the shard
//! counters on the fly — quantile estimation walks at most
//! `buckets × shards` atomic loads and never allocates either.
//!
//! Buckets are a power-of-two ladder (`min_bound · 2^i`), and
//! [`LogHistogram::snapshot`] converts to a [`HistogramData`] for
//! Prometheus export.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::metrics::HistogramData;

/// Default histogram floor: 1 µs — per-phase latencies at the paper's
/// smallest frames sit around tens of µs.
pub const DEFAULT_HISTOGRAM_MIN: f64 = 1e-6;
/// Default bucket count: 1 µs · 2^27 ≈ 134 s, covering whole-run totals.
pub const DEFAULT_HISTOGRAM_BUCKETS: usize = 28;

/// Default number of per-thread shards (worker pools top out well below
/// this, and excess shards only cost idle cache lines).
pub const DEFAULT_SHARDS: usize = 8;

/// Process-wide thread ordinal source. Ordinals are dense and stable for
/// the life of a thread, so every [`LogHistogram`] maps a given thread to
/// the same shard index.
static NEXT_THREAD_ORDINAL: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_ORDINAL: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Returns the calling thread's stable observation ordinal, assigning one
/// on first use. Assignment allocates nothing; it is a single relaxed
/// `fetch_add` on a process-wide counter.
fn thread_ordinal() -> usize {
    THREAD_ORDINAL.with(|cell| {
        let cur = cell.get();
        if cur != usize::MAX {
            return cur;
        }
        let assigned = NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
        cell.set(assigned);
        assigned
    })
}

/// Adds `v` to an `f64` accumulator stored as bits in an `AtomicU64`.
fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Raises an `f64` maximum stored as bits in an `AtomicU64` to at least `v`.
fn atomic_f64_max(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    while v > f64::from_bits(cur) {
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// One thread-shard of counters. Padding is deliberately not attempted —
/// the observation rate is one sample per frame, far below the contention
/// regime where false sharing matters.
#[derive(Debug)]
struct Shard {
    /// Per-bucket sample counts; the final slot is the +Inf overflow bucket.
    counts: Box<[AtomicU64]>,
    /// Total samples recorded in this shard.
    count: AtomicU64,
    /// Sum of samples, stored as `f64` bits.
    sum_bits: AtomicU64,
    /// Largest sample, stored as `f64` bits.
    max_bits: AtomicU64,
}

impl Shard {
    fn new(buckets: usize) -> Self {
        let counts: Vec<AtomicU64> = (0..=buckets).map(|_| AtomicU64::new(0)).collect();
        Shard {
            counts: counts.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            max_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }
}

/// Allocation-free, lock-free log-bucketed histogram.
///
/// Bucket upper bounds follow `min_bound · 2^i` for `i in 0..buckets`,
/// plus one overflow bucket. `observe` is wait-free apart from two short CAS loops on the
/// shard's sum/max cells; quantiles are estimated by linear interpolation
/// inside the covering bucket.
///
/// # Examples
///
/// ```
/// use wavefuse_trace::LogHistogram;
///
/// let h = LogHistogram::with_defaults();
/// for i in 1..=100u32 {
///     h.observe(i as f64 * 1e-3);
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.quantile(0.5);
/// // The true median (0.0505) lies in the (0.032, 0.064] bucket.
/// assert!(p50 > 0.032 && p50 <= 0.064);
/// assert!((h.max() - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct LogHistogram {
    /// Upper bound of the first bucket.
    min_bound: f64,
    /// Number of finite buckets (the overflow bucket is extra).
    buckets: usize,
    shards: Box<[Shard]>,
}

impl LogHistogram {
    /// Creates a histogram with explicit shard count, first bucket bound
    /// and finite bucket count. All allocation happens here.
    ///
    /// `shards` and `buckets` are clamped to at least 1; `min_bound` must
    /// be positive and finite.
    pub fn new(shards: usize, min_bound: f64, buckets: usize) -> Self {
        assert!(
            min_bound.is_finite() && min_bound > 0.0,
            "min_bound must be positive and finite"
        );
        let shards = shards.max(1);
        let buckets = buckets.max(1);
        let built: Vec<Shard> = (0..shards).map(|_| Shard::new(buckets)).collect();
        LogHistogram {
            min_bound,
            buckets,
            shards: built.into_boxed_slice(),
        }
    }

    /// Creates a histogram with the default ladder (1 µs · 2^i, 28
    /// buckets) and [`DEFAULT_SHARDS`] shards.
    pub fn with_defaults() -> Self {
        LogHistogram::new(
            DEFAULT_SHARDS,
            DEFAULT_HISTOGRAM_MIN,
            DEFAULT_HISTOGRAM_BUCKETS,
        )
    }

    /// Upper bound of finite bucket `i` (`min_bound · 2^i`).
    fn bound(&self, i: usize) -> f64 {
        self.min_bound * f64::powi(2.0, i as i32)
    }

    /// Index of the bucket covering `value`: the first bucket whose upper
    /// bound is `>= value` (bounds are inclusive), or the overflow bucket.
    fn bucket_index(&self, value: f64) -> usize {
        if value.is_nan() || value <= self.min_bound {
            return 0;
        }
        let guess = (value / self.min_bound).log2().ceil();
        let mut i = if guess.is_finite() && guess > 0.0 {
            (guess as usize).min(self.buckets)
        } else {
            0
        };
        // log2 rounding can land one bucket off near the power-of-two
        // boundaries; nudge until the invariant bounds[i-1] < v <= bounds[i]
        // holds (or we sit in the overflow bucket).
        while i > 0 && value <= self.bound(i - 1) {
            i -= 1;
        }
        while i < self.buckets && value > self.bound(i) {
            i += 1;
        }
        i
    }

    /// Records one sample. Allocation-free and lock-free.
    pub fn observe(&self, value: f64) {
        let shard = &self.shards[thread_ordinal() % self.shards.len()];
        let idx = self.bucket_index(value);
        shard.counts[idx].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&shard.sum_bits, value);
        atomic_f64_max(&shard.max_bits, value);
    }

    /// Total samples across all shards. Allocation-free.
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Returns `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Sum of all samples across shards. Allocation-free.
    pub fn sum(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| f64::from_bits(s.sum_bits.load(Ordering::Relaxed)))
            .sum()
    }

    /// Largest sample observed (0.0 when empty). Allocation-free.
    pub fn max(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| f64::from_bits(s.max_bits.load(Ordering::Relaxed)))
            .fold(0.0, f64::max)
    }

    /// Merged count of finite bucket `i` (or the overflow bucket when
    /// `i == buckets`).
    fn merged_bucket(&self, i: usize) -> u64 {
        self.shards
            .iter()
            .map(|s| s.counts[i].load(Ordering::Relaxed))
            .sum()
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) by linear
    /// interpolation within the covering log bucket. Returns 0.0 when
    /// empty; the overflow bucket reports the observed maximum.
    /// Allocation-free.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut below = 0u64;
        for i in 0..=self.buckets {
            let c = self.merged_bucket(i);
            if c > 0 && below + c >= rank {
                let lo = if i == 0 { 0.0 } else { self.bound(i - 1) };
                let hi = if i == self.buckets {
                    self.max().max(lo)
                } else {
                    self.bound(i)
                };
                let frac = (rank - below) as f64 / c as f64;
                return lo + frac * (hi - lo);
            }
            below += c;
        }
        self.max()
    }

    /// Materializes the merged shard counters into a [`HistogramData`] for
    /// Prometheus export. This path allocates; call it from export code,
    /// not from the frame loop.
    pub fn snapshot(&self) -> HistogramData {
        let bounds: Vec<f64> = (0..self.buckets).map(|i| self.bound(i)).collect();
        let counts: Vec<u64> = (0..=self.buckets).map(|i| self.merged_bucket(i)).collect();
        HistogramData {
            bounds,
            counts,
            sum: self.sum(),
            count: self.count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* stream for oracle sampling.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    #[test]
    fn bucket_index_matches_a_linear_scan() {
        let h = LogHistogram::new(2, DEFAULT_HISTOGRAM_MIN, DEFAULT_HISTOGRAM_BUCKETS);
        let bounds: Vec<f64> = (0..DEFAULT_HISTOGRAM_BUCKETS)
            .map(|i| DEFAULT_HISTOGRAM_MIN * f64::powi(2.0, i as i32))
            .collect();
        let linear = |v: f64| bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            let r = xorshift(&mut state) as f64 / u64::MAX as f64;
            // Span well below the first bound to well above the last.
            let v = 1e-8 * f64::powf(10.0, r * 12.0);
            assert_eq!(h.bucket_index(v), linear(v), "value {v}");
        }
        // Exact bucket boundaries are inclusive.
        for i in 0..DEFAULT_HISTOGRAM_BUCKETS {
            let b = DEFAULT_HISTOGRAM_MIN * f64::powi(2.0, i as i32);
            assert_eq!(h.bucket_index(b), linear(b), "boundary {b}");
        }
        assert_eq!(h.bucket_index(0.0), 0);
        assert_eq!(h.bucket_index(-1.0), 0);
        assert_eq!(h.bucket_index(f64::NAN), 0);
    }

    #[test]
    fn quantiles_bracket_the_sorted_sample_oracle() {
        let h = LogHistogram::new(4, 1e-6, 28);
        let mut state = 2016u64;
        let mut samples = Vec::new();
        for _ in 0..5_000 {
            let r = xorshift(&mut state) as f64 / u64::MAX as f64;
            // Log-uniform over [1 µs, ~1 s] — every bucket gets traffic.
            let v = 1e-6 * f64::powf(10.0, r * 6.0);
            samples.push(v);
            h.observe(v);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1) - 1;
            let truth = samples[rank];
            let est = h.quantile(q);
            // The estimate must land within the truth's covering bucket,
            // i.e. within a factor of 2 of the exact order statistic.
            assert!(
                est >= truth / 2.0 && est <= truth * 2.0,
                "q={q}: estimate {est} vs oracle {truth}"
            );
        }
        assert_eq!(h.count(), 5_000);
        let sum: f64 = samples.iter().sum();
        assert!((h.sum() - sum).abs() / sum < 1e-9);
        assert!((h.max() - samples[samples.len() - 1]).abs() < 1e-18);
    }

    #[test]
    fn quantile_edges_and_empty_are_defined() {
        let h = LogHistogram::new(1, 1e-6, 8);
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(h.is_empty());
        h.observe(1.0); // overflow bucket (last bound = 128 µs)
        assert_eq!(h.quantile(1.0), 1.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert!(!h.is_empty());
    }

    #[test]
    fn concurrent_observations_are_all_counted() {
        let h = std::sync::Arc::new(LogHistogram::with_defaults());
        let threads = 4;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.observe((t * per_thread + i) as f64 * 1e-7 + 1e-7);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.count(), threads * per_thread);
        let snap = h.snapshot();
        assert_eq!(snap.count, threads * per_thread);
        assert_eq!(snap.counts.iter().sum::<u64>(), threads * per_thread);
    }

    #[test]
    fn snapshot_mirrors_merged_counters() {
        let h = LogHistogram::new(3, 1e-3, 6);
        for v in [5e-4, 1e-3, 3e-3, 0.02, 10.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.bounds.len(), 6);
        assert_eq!(snap.counts.len(), 7);
        assert_eq!(snap.count, 5);
        assert_eq!(snap.counts[0], 2); // 5e-4 and the inclusive 1e-3 bound
        assert_eq!(*snap.counts.last().unwrap(), 1); // 10.0 overflows
        assert!((snap.sum - (5e-4 + 1e-3 + 3e-3 + 0.02 + 10.0)).abs() < 1e-12);
    }
}
