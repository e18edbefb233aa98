//! Std-only, lock-cheap metrics for the NASAIC reproduction.
//!
//! Three metric kinds, all updated with relaxed atomics so instrumented
//! hot paths never take a lock:
//!
//! * [`Counter`] — monotonically increasing `u64`;
//! * [`Gauge`] — an `f64` sampled point value (stored as bits);
//! * [`Histogram`] — fixed log₂-bucket distribution with a
//!   [`HistogramSnapshot`] carrying count, sum, mean and estimated
//!   p50/p90/p99.
//!
//! Metrics live in a [`MetricsRegistry`] keyed by name plus a sorted
//! label set.  Registration takes a mutex; the returned `Arc` handles are
//! lock-free to update, so callers cache them (a `OnceLock` static per
//! instrumentation site) and pay one registry lookup ever.
//!
//! Observation is *passive by contract*: nothing in this crate feeds back
//! into the instrumented computation, and the process-wide switch
//! ([`set_enabled`]/[`enabled`]) lets cold binaries skip even the atomic
//! updates — a disabled site costs one relaxed load.  `telemetry_baseline`
//! gates the enabled overhead (< 2% on the w1 full run, see
//! `docs/observability.md`).
//!
//! The [`global`] registry is what the daemon's `show metrics`, the
//! Prometheus endpoint and `nasaic profile` read.  [`MetricsRegistry::reset`]
//! zeroes values *in place* — cached handles stay valid.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Process-wide enable switch
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn instrumentation on or off process-wide.  Off (the default) makes
/// every instrumentation site a single relaxed load; on, sites record into
/// the [`global`] registry.  Outcomes are bit-identical either way.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation sites should record (one relaxed load).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide registry instrumented code records into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time `f64` value (queue depth, hit ratio, episodes/s).
/// Stored as IEEE-754 bits in an atomic; `add` is a compare-exchange loop
/// so concurrent in/decrements never lose updates.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, and the last bucket absorbs
/// everything larger.  63 value buckets cover the full `u64` range, so a
/// nanosecond-resolution timer histogram spans 1 ns to ~292 years at a
/// fixed 2× resolution.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket log₂-scale histogram of `u64` samples.
///
/// Recording is three relaxed `fetch_add`s (count, sum, bucket); snapshots
/// estimate percentiles by walking the cumulative bucket counts and
/// reporting the geometric midpoint of the bucket the rank lands in, so
/// p50/p90/p99 carry at most the bucket's 2× quantisation error.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The bucket index a value lands in (0 for 0, else `floor(log2 v) + 1`,
/// saturated to the last bucket).
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The representative (geometric midpoint) value reported for a bucket.
fn bucket_midpoint(index: usize) -> f64 {
    if index == 0 {
        0.0
    } else {
        // Bucket i covers [2^(i-1), 2^i); midpoint 1.5 * 2^(i-1).
        1.5 * (index as f64 - 1.0).exp2()
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Start a [`TimerSpan`] that records elapsed nanoseconds into this
    /// histogram when dropped.
    pub fn time(self: &Arc<Self>) -> TimerSpan {
        TimerSpan {
            histogram: Some(Arc::clone(self)),
            start: Instant::now(),
        }
    }

    /// Exact sum of all samples recorded so far (one relaxed load).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A consistent-enough snapshot (relaxed loads; exact once writers are
    /// quiescent).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let percentile = |p: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let rank = ((p * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (index, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return bucket_midpoint(index);
                }
            }
            bucket_midpoint(HISTOGRAM_BUCKETS - 1)
        };
        HistogramSnapshot {
            count,
            sum,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: percentile(0.50),
            p90: percentile(0.90),
            p99: percentile(0.99),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Exact mean (`sum / count`; 0 when empty).
    pub mean: f64,
    /// Estimated median (bucket midpoint, ≤ 2× quantisation).
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

/// A scoped timing guard: created by [`Histogram::time`] (or
/// [`TimerSpan::disabled`] when telemetry is off), records elapsed
/// nanoseconds into its histogram on drop.
#[must_use = "a TimerSpan records on drop; binding it to `_span` keeps the scope timed"]
pub struct TimerSpan {
    histogram: Option<Arc<Histogram>>,
    start: Instant,
}

impl TimerSpan {
    /// A no-op span for the disabled path, so call sites stay branch-free:
    /// `let _span = if enabled { h.time() } else { TimerSpan::disabled() };`
    pub fn disabled() -> Self {
        Self {
            histogram: None,
            start: Instant::now(),
        }
    }
}

impl Drop for TimerSpan {
    fn drop(&mut self) {
        if let Some(histogram) = &self.histogram {
            histogram.record(self.start.elapsed().as_nanos() as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// What a registry slot holds.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The value part of a [`MetricSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's current total.
    Counter(u64),
    /// A gauge's current value.
    Gauge(f64),
    /// A histogram summary.
    Histogram(HistogramSnapshot),
}

/// One metric, frozen for exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric family name (`nasaic_serve_queue_depth`, ...).
    pub name: String,
    /// Sorted `(key, value)` label pairs; empty for unlabelled metrics.
    pub labels: Vec<(String, String)>,
    /// The frozen value.
    pub value: MetricValue,
}

impl MetricSnapshot {
    /// The `{k="v",...}` label suffix (empty string when unlabelled).
    pub fn label_suffix(&self) -> String {
        if self.labels.is_empty() {
            return String::new();
        }
        let parts: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        format!("{{{}}}", parts.join(","))
    }
}

/// A metric's registry key: family name plus sorted label pairs.
type MetricKey = (String, Vec<(String, String)>);

/// A named collection of metrics.  `counter`/`gauge`/`histogram` register
/// on first use and return the existing handle afterwards; mixing kinds
/// under one (name, labels) key panics — that is always an instrumentation
/// bug, never data-dependent.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<MetricKey, Metric>>,
}

fn label_key(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut key: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    key.sort();
    key
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `(name, labels)`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let slot = metrics
            .entry((name.to_string(), label_key(labels)))
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())));
        match slot {
            Metric::Counter(counter) => Arc::clone(counter),
            _ => panic!("metric `{name}` is already registered with another kind"),
        }
    }

    /// The gauge registered under `(name, labels)`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let slot = metrics
            .entry((name.to_string(), label_key(labels)))
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())));
        match slot {
            Metric::Gauge(gauge) => Arc::clone(gauge),
            _ => panic!("metric `{name}` is already registered with another kind"),
        }
    }

    /// The histogram registered under `(name, labels)`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let slot = metrics
            .entry((name.to_string(), label_key(labels)))
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())));
        match slot {
            Metric::Histogram(histogram) => Arc::clone(histogram),
            _ => panic!("metric `{name}` is already registered with another kind"),
        }
    }

    /// Freeze every metric, sorted by `(name, labels)` so output is
    /// deterministic.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        metrics
            .iter()
            .map(|((name, labels), metric)| MetricSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }

    /// Zero every metric **in place** — handles cached by instrumentation
    /// sites stay registered and valid (`nasaic profile` resets before its
    /// measured run).
    pub fn reset(&self) {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        for metric in metrics.values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// The registry in Prometheus text exposition format (version 0.0.4).
    /// Histograms are exposed as `summary` families: `{quantile="…"}`
    /// series plus `_sum`, `_count` and a `_mean` gauge.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for snap in self.snapshot() {
            let suffix = snap.label_suffix();
            match snap.value {
                MetricValue::Counter(v) => {
                    if last_family != snap.name {
                        out.push_str(&format!("# TYPE {} counter\n", snap.name));
                        last_family = snap.name.clone();
                    }
                    out.push_str(&format!("{}{} {}\n", snap.name, suffix, v));
                }
                MetricValue::Gauge(v) => {
                    if last_family != snap.name {
                        out.push_str(&format!("# TYPE {} gauge\n", snap.name));
                        last_family = snap.name.clone();
                    }
                    out.push_str(&format!("{}{} {}\n", snap.name, suffix, render_f64(v)));
                }
                MetricValue::Histogram(h) => {
                    if last_family != snap.name {
                        out.push_str(&format!("# TYPE {} summary\n", snap.name));
                        last_family = snap.name.clone();
                    }
                    for (q, value) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                        let mut labels = snap.labels.clone();
                        labels.push(("quantile".to_string(), q.to_string()));
                        let parts: Vec<String> =
                            labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
                        out.push_str(&format!(
                            "{}{{{}}} {}\n",
                            snap.name,
                            parts.join(","),
                            render_f64(value)
                        ));
                    }
                    out.push_str(&format!("{}_sum{} {}\n", snap.name, suffix, h.sum));
                    out.push_str(&format!("{}_count{} {}\n", snap.name, suffix, h.count));
                }
            }
        }
        out
    }
}

/// Prometheus-friendly float rendering: integral values without an
/// exponent, everything else via the shortest `{}` form.
fn render_f64(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset_in_place() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("jobs_total", &[]);
        let b = registry.counter("jobs_total", &[]);
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5, "both handles hit the same counter");
        registry.reset();
        assert_eq!(a.get(), 0, "reset zeroes in place");
        a.inc();
        assert_eq!(registry.counter("jobs_total", &[]).get(), 1);
    }

    #[test]
    fn labels_distinguish_series_and_order_does_not() {
        let registry = MetricsRegistry::new();
        let ab = registry.counter("hits", &[("cache", "accuracy"), ("engine", "w1")]);
        let ba = registry.counter("hits", &[("engine", "w1"), ("cache", "accuracy")]);
        let other = registry.counter("hits", &[("cache", "hardware"), ("engine", "w1")]);
        ab.inc();
        ba.inc();
        other.add(10);
        assert_eq!(ab.get(), 2, "label order is normalised");
        assert_eq!(other.get(), 10);
        assert_eq!(registry.snapshot().len(), 2);
    }

    #[test]
    fn gauges_set_and_add_concurrently_safe() {
        let registry = MetricsRegistry::new();
        let gauge = registry.gauge("queue_depth", &[]);
        gauge.set(3.0);
        gauge.add(2.0);
        gauge.add(-4.0);
        assert_eq!(gauge.get(), 1.0);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let g = Arc::clone(&gauge);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        g.add(1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(gauge.get(), 8001.0, "concurrent adds never lose updates");
    }

    #[test]
    fn histogram_snapshot_reports_exact_count_sum_mean() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 110);
        assert_eq!(snap.mean, 22.0);
    }

    #[test]
    fn histogram_percentiles_land_in_the_right_bucket() {
        let h = Histogram::default();
        // 90 fast samples around 1 µs, 10 slow around 1 ms.
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let snap = h.snapshot();
        // p50 within the 2x bucket around 1_000.
        assert!((512.0..2048.0).contains(&snap.p50), "p50 = {}", snap.p50);
        // p99 lands in the slow mode.
        assert!(snap.p99 > 500_000.0, "p99 = {}", snap.p99);
        assert!(snap.p90 >= snap.p50);
        assert!(snap.p99 >= snap.p90);
    }

    #[test]
    fn zero_and_huge_values_do_not_panic() {
        let h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.p50, 0.0, "the zero bucket reports 0");
    }

    #[test]
    fn empty_histogram_snapshot_is_all_zero() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.mean, 0.0);
        assert_eq!(snap.p99, 0.0);
    }

    #[test]
    fn timer_span_records_elapsed_nanoseconds() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("span_ns", &[]);
        {
            let _span = h.time();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.sum >= 2_000_000, "span under-reported: {}", snap.sum);
        // The disabled span records nothing.
        drop(TimerSpan::disabled());
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn enable_switch_defaults_off_and_toggles() {
        // Default state in a fresh process is disabled; this test runs in
        // the library's own process, so restore whatever it found.
        let before = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(before);
    }

    #[test]
    fn prometheus_rendering_covers_all_three_kinds() {
        let registry = MetricsRegistry::new();
        registry
            .counter("requests_total", &[("code", "200")])
            .add(7);
        registry.gauge("queue_depth", &[]).set(3.0);
        let h = registry.histogram("latency_ns", &[("job", "w1")]);
        h.record(1000);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE requests_total counter"), "{text}");
        assert!(text.contains("requests_total{code=\"200\"} 7"), "{text}");
        assert!(text.contains("# TYPE queue_depth gauge"), "{text}");
        assert!(text.contains("queue_depth 3"), "{text}");
        assert!(text.contains("# TYPE latency_ns summary"), "{text}");
        assert!(
            text.contains("latency_ns{job=\"w1\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("latency_ns_sum{job=\"w1\"} 1000"), "{text}");
        assert!(text.contains("latency_ns_count{job=\"w1\"} 1"), "{text}");
    }

    #[test]
    fn snapshot_is_deterministically_sorted() {
        let registry = MetricsRegistry::new();
        registry.counter("zeta", &[]).inc();
        registry.counter("alpha", &[("b", "2")]).inc();
        registry.counter("alpha", &[("b", "1")]).inc();
        let names: Vec<String> = registry
            .snapshot()
            .iter()
            .map(|s| format!("{}{}", s.name, s.label_suffix()))
            .collect();
        assert_eq!(names, vec!["alpha{b=\"1\"}", "alpha{b=\"2\"}", "zeta"]);
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn kind_mismatch_is_an_instrumentation_bug() {
        let registry = MetricsRegistry::new();
        registry.counter("x", &[]);
        registry.gauge("x", &[]);
    }
}
