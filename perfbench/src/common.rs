//! What every workload shares: the metric catalog, the run outcome,
//! the ledger cross-check against `Server::stats()`, and small
//! measurement helpers.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use problp_engine::ServerStats;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload does not pass through reads 0 there.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("ac.compile_ms", "ms"),
    ("core.design_ms", "ms"),
    ("bounds.analysis_ms", "ms"),
    ("bounds.search_ms", "ms"),
    ("energy.estimate_ms", "ms"),
    ("hw.netlist_ms", "ms"),
    ("hw.verilog_ms", "ms"),
    ("core.selected_bits", "bits"),
    ("engine.register_ms", "ms"),
    ("engine.lane_us", "us"),
    ("engine.tape_instrs", "instrs/lane"),
    ("engine.fused_instrs", "instrs/lane"),
    ("engine.batch_us", "us"),
    ("engine.busy_share", "ratio"),
    ("serve.submit_us.p50", "us"),
    ("serve.submit_us.p90", "us"),
    ("serve.batch_lanes", "lanes"),
    ("serve.cache_hit_share", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.miss_wait_us.p50", "us"),
    ("serve.miss_wait_us.p90", "us"),
    ("serve.queue_wait_us", "us"),
    ("http.connect_us", "us"),
    ("http.send_us", "us"),
    ("http.wait_us", "us"),
    ("http.recv_us", "us"),
    ("httpd.parse_us", "us"),
    ("json.render_us", "us"),
    ("serve.roundtrip_us", "us"),
    ("gateway.accept_wait_us", "us"),
    ("driver.late_us.p50", "us"),
    ("driver.late_us.p90", "us"),
    ("trace.spans", "count"),
    ("trace.record_ns", "ns"),
    ("trace.throughput_rps", "1/s"),
    ("trace.latency_p50_us", "us"),
    ("trace.latency_p90_us", "us"),
];

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// The result of one run: the correctness verdict, operation counts,
/// and every metric measured (by catalog name).
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// The end-to-end figures every workload measures in its window.
pub struct EndToEnd {
    pub throughput_rps: f64,
    pub latency_p50_us: f64,
    pub latency_p90_us: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Files the figures under their catalog names. A traced run files
    /// its window figures under `trace.*` instead, so they can be set
    /// against the untraced runs to show the tracing overhead.
    pub fn file(&self, metrics: &mut BTreeMap<&'static str, f64>, traced: bool) {
        if traced {
            metrics.insert("trace.throughput_rps", self.throughput_rps);
            metrics.insert("trace.latency_p50_us", self.latency_p50_us);
            metrics.insert("trace.latency_p90_us", self.latency_p90_us);
        } else {
            metrics.insert("throughput_rps", self.throughput_rps);
            metrics.insert("latency_p50_us", self.latency_p50_us);
            metrics.insert("latency_p90_us", self.latency_p90_us);
            metrics.insert("setup_s", self.setup_s);
            metrics.insert("peak_rss_mb", self.peak_rss_mb);
        }
    }
}

/// Counts dispatches as the load generator sees them: every lane of one
/// coalesced batch carries the same completion instant, so distinct
/// completion instants of dispatched (non-cached) answers are distinct
/// dispatches. Instants more than a second older than the newest are
/// forgotten, which keeps the set small; the load generator drains each batch's
/// lanes within milliseconds of each other.
pub struct DispatchCounter {
    recent: BTreeSet<Instant>,
    count: u64,
}

impl DispatchCounter {
    pub fn new() -> Self {
        DispatchCounter {
            recent: BTreeSet::new(),
            count: 0,
        }
    }

    pub fn note(&mut self, completed: Instant) {
        if self.recent.insert(completed) {
            self.count += 1;
        }
        while let Some(&oldest) = self.recent.first() {
            let newest = *self.recent.last().expect("set is not empty");
            if newest.duration_since(oldest) <= Duration::from_secs(1) {
                break;
            }
            self.recent.pop_first();
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }
}

/// The load generator's own count of what it asked of the server, checked
/// against `Server::stats()` after the window.
#[derive(Default)]
pub struct Ledger {
    pub requests: u64,
    pub admitted: u64,
    pub dispatches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Ledger {
    /// Every disagreement with the server's counters, as messages.
    pub fn disagreements(&self, stats: &ServerStats) -> Vec<String> {
        let pairs = [
            ("requests", self.requests, stats.requests),
            ("admitted", self.admitted, stats.admitted),
            ("dispatches", self.dispatches, stats.dispatches),
            ("cache_hits", self.cache_hits, stats.cache_hits),
            ("cache_misses", self.cache_misses, stats.cache_misses),
        ];
        pairs
            .iter()
            .filter(|(_, ours, theirs)| ours != theirs)
            .map(|(name, ours, theirs)| format!("ledger: benchmark {name}={ours}, server {theirs}"))
            .collect()
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every sample of `name` in a Prometheus text rendering, as
/// `(label block, value)`.
pub fn prom_series(text: &str, name: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let rest = line.strip_prefix(name)?;
            let (labels, value) = match rest.strip_prefix('{') {
                Some(tail) => {
                    let (labels, value) = tail.split_once("} ")?;
                    (labels.to_string(), value)
                }
                None => (String::new(), rest.strip_prefix(' ')?),
            };
            Some((labels, value.trim().parse().ok()?))
        })
        .collect()
}

/// Median of several set-up durations, in seconds.
pub fn median_secs(durations: &[Duration]) -> f64 {
    let values: Vec<f64> = durations.iter().map(|d| d.as_secs_f64()).collect();
    crate::trace::median(&values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_series_reads_labelled_and_bare_samples() {
        let text = "# HELP x_total help\n# TYPE x_total counter\n\
                    x_total{status=\"200\"} 12\nx_total{status=\"503\"} 1\n\
                    x_total_other 5\ny 3\n";
        assert_eq!(
            prom_series(text, "x_total"),
            vec![
                ("status=\"200\"".to_string(), 12.0),
                ("status=\"503\"".to_string(), 1.0)
            ]
        );
        assert_eq!(prom_series(text, "y"), vec![(String::new(), 3.0)]);
    }

    #[test]
    fn dispatch_counter_counts_distinct_instants() {
        let mut c = DispatchCounter::new();
        let t = Instant::now();
        for d in [0u64, 0, 5, 5, 5, 9] {
            c.note(t + Duration::from_micros(d));
        }
        assert_eq!(c.count(), 3);
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = problp_telemetry::JsonValue::parse(&text).expect("valid JSON");
        for (key, catalog) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalog
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
