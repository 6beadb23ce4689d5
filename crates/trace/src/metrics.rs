//! Counters, gauges and histograms with labels.
//!
//! The registry is a flat map from `(name, sorted labels)` to a metric
//! series, behind one mutex — the hot paths here are a few `HashMap`-free
//! `BTreeMap` lookups per fused frame, far below the modeled work they
//! measure. `BTreeMap` keeps the Prometheus exposition deterministic.
//! Histogram series are [`LogHistogram`]s; [`HistogramData`] is their
//! snapshot for export.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::histogram::LogHistogram;

/// A metric series key: metric name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric name (Prometheus conventions: `wavefuse_frames_total`).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl SeriesKey {
    /// Builds a key with the labels sorted.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        SeriesKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramData {
    /// Upper bounds of the finite buckets, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; `counts[bounds.len()]` is the
    /// overflow (`+Inf`) bucket.
    pub counts: Vec<u64>,
    /// Sum of observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

/// Snapshot of one metric series.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing.
    Counter(f64),
    /// Last-set value.
    Gauge(f64),
    /// Log2-bucketed distribution.
    Histogram(HistogramData),
}

/// A live metric series.
#[derive(Debug)]
enum Series {
    Counter(f64),
    Gauge(f64),
    Histogram(LogHistogram),
}

impl Series {
    fn value(&self) -> MetricValue {
        match self {
            Series::Counter(c) => MetricValue::Counter(*c),
            Series::Gauge(g) => MetricValue::Gauge(*g),
            Series::Histogram(h) => MetricValue::Histogram(h.snapshot()),
        }
    }
}

/// The metrics registry.
///
/// # Examples
///
/// ```
/// use wavefuse_trace::MetricsRegistry;
///
/// let m = MetricsRegistry::new();
/// m.counter_add("wavefuse_frames_total", &[("backend", "NEON")], 1.0);
/// m.gauge_set("wavefuse_power_watts", &[], 0.533);
/// m.observe("wavefuse_frame_seconds", &[("backend", "NEON")], 0.012);
/// assert_eq!(m.counter_value("wavefuse_frames_total", &[("backend", "NEON")]), 1.0);
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    series: Mutex<BTreeMap<SeriesKey, Series>>,
    help: Mutex<BTreeMap<String, String>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers help text rendered as `# HELP` in the exposition.
    pub fn describe(&self, name: &str, help: &str) {
        self.help
            .lock()
            .expect("help map")
            .insert(name.to_string(), help.to_string());
    }

    /// Adds `v` to a counter series, creating it at zero first.
    ///
    /// # Panics
    ///
    /// Panics if the series already exists with a different type.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        let mut series = self.series.lock().expect("series map");
        let entry = series
            .entry(SeriesKey::new(name, labels))
            .or_insert(Series::Counter(0.0));
        match entry {
            Series::Counter(c) => *c += v,
            other => panic!("{name} is not a counter: {other:?}"),
        }
    }

    /// Sets a gauge series to `v`.
    ///
    /// # Panics
    ///
    /// Panics if the series already exists with a different type.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        let mut series = self.series.lock().expect("series map");
        let entry = series
            .entry(SeriesKey::new(name, labels))
            .or_insert(Series::Gauge(0.0));
        match entry {
            Series::Gauge(g) => *g = v,
            other => panic!("{name} is not a gauge: {other:?}"),
        }
    }

    /// Observes `v` into a histogram series, creating it as a
    /// [`LogHistogram::with_defaults`] (1 µs · 2^i, 28 buckets) first.
    ///
    /// # Panics
    ///
    /// Panics if the series already exists with a different type.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        let mut series = self.series.lock().expect("series map");
        let entry = series
            .entry(SeriesKey::new(name, labels))
            .or_insert_with(|| Series::Histogram(LogHistogram::with_defaults()));
        match entry {
            Series::Histogram(h) => h.observe(v),
            other => panic!("{name} is not a histogram: {other:?}"),
        }
    }

    /// Current value of a counter (0 if the series does not exist).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        match self
            .series
            .lock()
            .expect("series map")
            .get(&SeriesKey::new(name, labels))
        {
            Some(Series::Counter(c)) => *c,
            _ => 0.0,
        }
    }

    /// Snapshot of a histogram series.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramData> {
        match self
            .series
            .lock()
            .expect("series map")
            .get(&SeriesKey::new(name, labels))
        {
            Some(Series::Histogram(h)) => Some(h.snapshot()),
            _ => None,
        }
    }

    /// Snapshot of every series, sorted by key.
    pub fn snapshot(&self) -> Vec<(SeriesKey, MetricValue)> {
        self.series
            .lock()
            .expect("series map")
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect()
    }

    /// Registered help texts.
    pub fn help_texts(&self) -> BTreeMap<String, String> {
        self.help.lock().expect("help map").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let m = MetricsRegistry::new();
        m.counter_add("f", &[("b", "neon")], 1.0);
        m.counter_add("f", &[("b", "neon")], 2.0);
        m.counter_add("f", &[("b", "fpga")], 5.0);
        assert_eq!(m.counter_value("f", &[("b", "neon")]), 3.0);
        assert_eq!(m.counter_value("f", &[("b", "fpga")]), 5.0);
        assert_eq!(m.counter_value("f", &[]), 0.0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let m = MetricsRegistry::new();
        m.counter_add("f", &[("a", "1"), ("b", "2")], 1.0);
        m.counter_add("f", &[("b", "2"), ("a", "1")], 1.0);
        assert_eq!(m.counter_value("f", &[("a", "1"), ("b", "2")]), 2.0);
    }

    #[test]
    fn histogram_observations_accumulate() {
        let m = MetricsRegistry::new();
        for v in [0.5e-6, 3e-6, 1e3] {
            m.observe("lat", &[], v);
        }
        let h = m.histogram("lat", &[]).unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.bounds.len(), 28);
        assert_eq!(h.counts[0], 1, "at or below the 1 µs floor");
        assert_eq!(h.counts[2], 1, "3 µs lands in (2, 4] µs");
        assert_eq!(h.counts[28], 1, "overflow bucket");
        assert!((h.sum - (0.5e-6 + 3e-6 + 1e3)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "is not a histogram")]
    fn observing_a_counter_panics() {
        let m = MetricsRegistry::new();
        m.counter_add("x", &[], 1.0);
        m.observe("x", &[], 1.0);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn type_confusion_panics() {
        let m = MetricsRegistry::new();
        m.gauge_set("x", &[], 1.0);
        m.counter_add("x", &[], 1.0);
    }
}
