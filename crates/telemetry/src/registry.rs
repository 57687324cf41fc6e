//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms with a lock-free hot path.
//!
//! Registration (`[MetricsRegistry::counter]` and friends) takes a
//! mutex once per `(name, labels)` series and hands back a cheap
//! clonable handle; every update after that is a single atomic
//! operation, so instrumented hot paths (admission queues, dispatch
//! loops, per-lane result routing) pay no lock. Rendering walks the
//! registered series under the same mutex — scrapes are rare and cheap.
//!
//! Conventions:
//!
//! * Metric names are `snake_case` with a unit suffix where one applies
//!   (`_us` for microseconds, `_total` for monotone counters).
//! * Histograms store **microsecond** (or plain count) observations in
//!   fixed buckets chosen at registration; bucket edges are *inclusive
//!   upper bounds* (`value <= bound`), matching Prometheus `le`.
//! * Every gauge also exports a `<name>_high_water` series — the
//!   largest value the gauge ever held — because queue-depth style
//!   gauges are most useful with their high-water mark.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::json::JsonValue;

/// A monotonically increasing counter. Handles are cheap clones sharing
/// one atomic cell; incrementing never locks.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicI64,
    high_water: AtomicI64,
}

/// An instantaneous value (queue depth, occupancy). Tracks its
/// high-water mark on every update; both series are rendered (the mark
/// as `<name>_high_water`). Updates never lock.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<GaugeCell>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.value.store(v, Ordering::Relaxed);
        self.0.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds `d` (which may be negative) and returns the new value.
    pub fn add(&self, d: i64) -> i64 {
        let now = self.0.value.fetch_add(d, Ordering::Relaxed) + d;
        self.0.high_water.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// The largest value the gauge ever held.
    pub fn high_water(&self) -> i64 {
        self.0.high_water.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCell {
    /// Inclusive upper bounds of the finite buckets, ascending.
    bounds: Vec<u64>,
    /// Per-bucket observation counts (NOT cumulative); one extra slot
    /// for the `+Inf` bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    total: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket histogram of non-negative integer observations
/// (latencies in microseconds, batch sizes). Observing is a binary
/// search plus three atomic adds — no lock.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    /// Creates a standalone histogram (not attached to any registry —
    /// useful for study-local percentile accounting). `bounds` are the
    /// inclusive upper bucket edges; they are sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "a histogram needs at least one bucket");
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramCell {
            bounds,
            counts,
            sum: AtomicU64::new(0),
            total: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }

    /// Records one observation. A value exactly on a bucket edge lands
    /// in that bucket (edges are inclusive upper bounds, like
    /// Prometheus `le`).
    pub fn observe(&self, value: u64) {
        let cell = &self.0;
        let idx = cell.bounds.partition_point(|&b| b < value);
        cell.counts[idx].fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(value, Ordering::Relaxed);
        cell.total.fetch_add(1, Ordering::Relaxed);
        cell.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a `std::time::Duration` in microseconds (saturating at
    /// `u64::MAX`).
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// A consistent-enough point-in-time copy of the histogram state.
    /// (Counts are read one atomic at a time; a scrape racing an
    /// observation may be off by that single observation, which is the
    /// usual Prometheus contract.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        let cell = &self.0;
        HistogramSnapshot {
            bounds: cell.bounds.clone(),
            counts: cell
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: cell.sum.load(Ordering::Relaxed),
            count: cell.total.load(Ordering::Relaxed),
            max: cell.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s buckets, with quantile
/// estimation — what the perf-trajectory (`BENCH_*.json`) files derive
/// their latency percentiles from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the finite buckets, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (not cumulative); the last slot is
    /// the `+Inf` bucket.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
    /// Largest observation.
    pub max: u64,
}

impl HistogramSnapshot {
    /// The estimated `p`-th percentile (0..=100): the inclusive upper
    /// bound of the first bucket whose cumulative count reaches the
    /// rank. Observations in the `+Inf` bucket report the observed
    /// maximum. Returns `None` on an empty histogram.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = if p.is_finite() {
            p.clamp(0.0, 100.0)
        } else {
            0.0
        };
        // Nearest-rank on the cumulative bucket counts.
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i < self.bounds.len() {
                    self.bounds[i].min(self.max)
                } else {
                    self.max
                });
            }
        }
        Some(self.max)
    }

    /// Mean of the observations, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

/// The default microsecond-latency bucket edges: roughly logarithmic
/// from 1 µs to 1 s. Shared by every latency histogram in the serve
/// pipeline so percentiles stay comparable across metrics and PRs.
pub fn default_latency_buckets_us() -> &'static [u64] {
    &[
        1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
        200_000, 500_000, 1_000_000,
    ]
}

/// The default batch-size bucket edges (powers of two up to 1024) for
/// coalescing-group histograms.
pub fn default_size_buckets() -> &'static [u64] {
    &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
}

/// One registered series and its handle.
enum SeriesKind {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl SeriesKind {
    fn type_name(&self) -> &'static str {
        match self {
            SeriesKind::Counter(_) => "counter",
            SeriesKind::Gauge(_) => "gauge",
            SeriesKind::Histogram(_) => "histogram",
        }
    }
}

struct Series {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    kind: SeriesKind,
}

/// The registry of every metric a process exports: get-or-create
/// handles by `(name, labels)`, render the whole set as Prometheus text
/// or JSON.
///
/// # Examples
///
/// ```
/// use problp_telemetry::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let served = registry.counter("requests_total", "requests admitted");
/// served.inc();
/// let rendered = registry.render_prometheus();
/// assert!(rendered.contains("# TYPE requests_total counter"));
/// assert!(rendered.contains("requests_total 1"));
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    series: Mutex<Vec<Series>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Series>> {
        // Registration and rendering hold no invariants across a panic
        // point; recover rather than poison every future scrape.
        self.series
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn get_or_insert<F>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        make: F,
    ) -> SeriesKind
    where
        F: FnOnce() -> SeriesKind,
    {
        let mut series = self.lock();
        if let Some(s) = series
            .iter()
            .find(|s| s.name == name && labels_eq(&s.labels, labels))
        {
            return match &s.kind {
                SeriesKind::Counter(c) => SeriesKind::Counter(c.clone()),
                SeriesKind::Gauge(g) => SeriesKind::Gauge(g.clone()),
                SeriesKind::Histogram(h) => SeriesKind::Histogram(h.clone()),
            };
        }
        let kind = make();
        let handle = match &kind {
            SeriesKind::Counter(c) => SeriesKind::Counter(c.clone()),
            SeriesKind::Gauge(g) => SeriesKind::Gauge(g.clone()),
            SeriesKind::Histogram(h) => SeriesKind::Histogram(h.clone()),
        };
        series.push(Series {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            help: help.to_string(),
            kind,
        });
        handle
    }

    /// Get-or-create an unlabelled counter.
    ///
    /// # Panics
    ///
    /// Panics if the same `(name, labels)` series was already registered
    /// with a different metric type.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, &[], help)
    }

    /// Get-or-create a counter with labels.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type clash (see [`MetricsRegistry::counter`]).
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        match self.get_or_insert(name, labels, help, || {
            SeriesKind::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            SeriesKind::Counter(c) => c,
            other => panic!("{name} is registered as a {}", other.type_name()),
        }
    }

    /// Get-or-create an unlabelled gauge.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type clash (see [`MetricsRegistry::counter`]).
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, &[], help)
    }

    /// Get-or-create a gauge with labels.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type clash (see [`MetricsRegistry::counter`]).
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        match self.get_or_insert(name, labels, help, || {
            SeriesKind::Gauge(Gauge(Arc::new(GaugeCell::default())))
        }) {
            SeriesKind::Gauge(g) => g,
            other => panic!("{name} is registered as a {}", other.type_name()),
        }
    }

    /// Get-or-create an unlabelled histogram with the given inclusive
    /// upper bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type clash or empty `bounds`.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Histogram {
        self.histogram_with(name, &[], help, bounds)
    }

    /// Get-or-create a histogram with labels.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type clash or empty `bounds`.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        bounds: &[u64],
    ) -> Histogram {
        match self.get_or_insert(name, labels, help, || {
            SeriesKind::Histogram(Histogram::new(bounds))
        }) {
            SeriesKind::Histogram(h) => h,
            other => panic!("{name} is registered as a {}", other.type_name()),
        }
    }

    /// Renders every registered series in the Prometheus text exposition
    /// format (version 0.0.4): `# HELP` / `# TYPE` once per metric name,
    /// then one sample line per series (histograms expand to cumulative
    /// `_bucket{le=...}` lines plus `_sum` and `_count`; gauges add a
    /// `<name>_high_water` series).
    pub fn render_prometheus(&self) -> String {
        let series = self.lock();
        let mut out = String::new();
        let mut seen_header: Vec<&str> = Vec::new();
        for s in series.iter() {
            if !seen_header.contains(&s.name.as_str()) {
                seen_header.push(&s.name);
                out.push_str(&format!("# HELP {} {}\n", s.name, s.help));
                out.push_str(&format!("# TYPE {} {}\n", s.name, s.kind.type_name()));
            }
            match &s.kind {
                SeriesKind::Counter(c) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        s.name,
                        label_block(&s.labels, &[]),
                        c.get()
                    ));
                }
                SeriesKind::Gauge(g) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        s.name,
                        label_block(&s.labels, &[]),
                        g.get()
                    ));
                    out.push_str(&format!(
                        "{}_high_water{} {}\n",
                        s.name,
                        label_block(&s.labels, &[]),
                        g.high_water()
                    ));
                }
                SeriesKind::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cumulative = 0u64;
                    for (i, bound) in snap.bounds.iter().enumerate() {
                        cumulative += snap.counts[i];
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            s.name,
                            label_block(&s.labels, &[("le", &bound.to_string())]),
                            cumulative
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        s.name,
                        label_block(&s.labels, &[("le", "+Inf")]),
                        snap.count
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        s.name,
                        label_block(&s.labels, &[]),
                        snap.sum
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        s.name,
                        label_block(&s.labels, &[]),
                        snap.count
                    ));
                }
            }
        }
        out
    }

    /// Renders every registered series as a JSON object (the `/statz`
    /// payload): `{"series": [{"name", "labels", "type", ...}]}` with
    /// counters/gauges carrying `value` (gauges also `high_water`) and
    /// histograms their buckets, `sum`, `count`, `max` and the
    /// p50/p90/p99 estimates.
    pub fn render_json(&self) -> JsonValue {
        let series = self.lock();
        let items: Vec<JsonValue> = series
            .iter()
            .map(|s| {
                let mut obj = vec![
                    ("name".to_string(), JsonValue::from(s.name.as_str())),
                    (
                        "labels".to_string(),
                        JsonValue::Object(
                            s.labels
                                .iter()
                                .map(|(k, v)| (k.clone(), JsonValue::from(v.as_str())))
                                .collect(),
                        ),
                    ),
                    ("type".to_string(), JsonValue::from(s.kind.type_name())),
                ];
                match &s.kind {
                    SeriesKind::Counter(c) => {
                        obj.push(("value".to_string(), JsonValue::from(c.get())));
                    }
                    SeriesKind::Gauge(g) => {
                        obj.push(("value".to_string(), JsonValue::from(g.get())));
                        obj.push(("high_water".to_string(), JsonValue::from(g.high_water())));
                    }
                    SeriesKind::Histogram(h) => {
                        let snap = h.snapshot();
                        obj.push((
                            "buckets".to_string(),
                            JsonValue::Array(
                                snap.bounds
                                    .iter()
                                    .zip(&snap.counts)
                                    .map(|(b, c)| {
                                        JsonValue::Object(vec![
                                            ("le".to_string(), JsonValue::from(*b)),
                                            ("count".to_string(), JsonValue::from(*c)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ));
                        obj.push(("sum".to_string(), JsonValue::from(snap.sum)));
                        obj.push(("count".to_string(), JsonValue::from(snap.count)));
                        obj.push(("max".to_string(), JsonValue::from(snap.max)));
                        for p in [50.0, 90.0, 99.0] {
                            obj.push((
                                format!("p{}", p as u32),
                                snap.quantile(p).map_or(JsonValue::Null, JsonValue::from),
                            ));
                        }
                    }
                }
                JsonValue::Object(obj)
            })
            .collect();
        JsonValue::Object(vec![("series".to_string(), JsonValue::Array(items))])
    }
}

/// The value of the series named exactly `series` (metric name plus
/// its rendered label block, e.g. `name{status="200"}`) in a Prometheus
/// text scrape, or `None` when no sample line carries it. Whole lines
/// are compared, so an expected `12` never matches a rendered `120`.
pub fn scrape_value(scrape: &str, series: &str) -> Option<f64> {
    scrape.lines().find_map(|line| match line.rsplit_once(' ') {
        Some((name, value)) if name == series => value.parse().ok(),
        _ => None,
    })
}

fn labels_eq(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have
            .iter()
            .zip(want)
            .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

/// Renders `{k1="v1",k2="v2"}` (or the empty string with no labels),
/// with `extra` pairs appended — used for histogram `le` labels.
fn label_block(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))),
    );
    format!("{{{}}}", parts.join(","))
}

/// Escapes a label value per the Prometheus text format (backslash,
/// double quote, newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}
