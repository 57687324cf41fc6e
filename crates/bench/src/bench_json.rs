//! The machine-readable perf trajectory: `BENCH_<scenario>.json` files
//! emitted by `reproduce`, `serve-sim` and `serve-http --self-drive`, so
//! every change can diff its serving performance against its parent's
//! instead of eyeballing stdout tables.
//!
//! One file per scenario, schema [`BENCH_SCHEMA`]. The required keys —
//! enforced by [`validate_bench_json`], which CI runs on every emitted
//! file — are:
//!
//! | key | type | meaning |
//! |-----|------|---------|
//! | `schema` | string | exactly `"problp-bench/v1"` |
//! | `scenario` | string | which study produced the file |
//! | `requests` | number | requests (or lanes) the study drove |
//! | `throughput_rps` | number | requests per second end to end |
//! | `latency_us` | object | `p50`/`p90`/`p99`/`max` latency, µs (each a number, or null with no sample) |
//! | `rejects` | number | typed admission rejects |
//!
//! Everything else (`extra` fields like speedups, quota settings,
//! per-backend work stats) is scenario-specific and additive — readers
//! must ignore keys they do not know.
//!
//! The validator also enforces the invariants of the self-checking
//! studies, so a stale or red record cannot pass CI on its schema
//! alone: the non-null percentiles must read `p50 ≤ p90 ≤ p99 ≤ max`, a
//! record that carries `admitted` must carry an equal `identical` (every
//! answered request passed the checker), a `conformance` record must
//! list exactly one row per backend of
//! [`problp_conformance::BackendKind::ALL`] and carry `all_match: true`,
//! and a `kernels` record must carry `identical: true`.

use std::io;
use std::path::{Path, PathBuf};

use problp_conformance::BackendKind;
use problp_telemetry::JsonValue;

use crate::workload::{Latency, Report};

/// The schema tag every `BENCH_*.json` carries; bump on breaking
/// changes to the required keys.
pub const BENCH_SCHEMA: &str = "problp-bench/v1";

/// One benchmark scenario's machine-readable result.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Scenario name — becomes the `BENCH_<scenario>.json` file name,
    /// so keep it `snake_case`.
    pub scenario: String,
    /// Requests (or lanes) the scenario drove.
    pub requests: u64,
    /// End-to-end requests per second.
    pub throughput_rps: f64,
    /// The latency percentiles (`None` for scenarios without a latency
    /// dimension).
    pub latency: Option<Latency>,
    /// Typed admission rejects (quota, unknown model, ...).
    pub rejects: u64,
    /// Scenario-specific additions, appended to the JSON object as-is.
    pub extra: Vec<(String, JsonValue)>,
}

impl BenchRecord {
    /// The canonical file name: `BENCH_<scenario>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.scenario)
    }

    /// The record as a JSON document with the schema's required keys
    /// first and `extra` appended.
    pub fn to_json(&self) -> JsonValue {
        let l = self.latency.unwrap_or_default();
        let us = |v: Option<u64>| v.map_or(JsonValue::Null, JsonValue::from);
        let latency = JsonValue::Object(vec![
            ("p50".to_string(), us(l.p50)),
            ("p90".to_string(), us(l.p90)),
            ("p99".to_string(), us(l.p99)),
            ("max".to_string(), us(l.max)),
        ]);
        let mut fields = vec![
            ("schema".to_string(), JsonValue::from(BENCH_SCHEMA)),
            (
                "scenario".to_string(),
                JsonValue::from(self.scenario.as_str()),
            ),
            ("requests".to_string(), JsonValue::from(self.requests)),
            (
                "throughput_rps".to_string(),
                JsonValue::from(self.throughput_rps),
            ),
            ("latency_us".to_string(), latency),
            ("rejects".to_string(), JsonValue::from(self.rejects)),
        ];
        fields.extend(self.extra.iter().cloned());
        JsonValue::Object(fields)
    }

    /// Writes `BENCH_<scenario>.json` (pretty-printed) into `dir` and
    /// returns the path.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error on failure.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json().render_pretty())?;
        Ok(path)
    }
}

/// Checks that `text` parses as JSON, carries every required
/// `problp-bench/v1` key with the right type, and holds its scenario's
/// invariants (see the [module docs](self)); the error string names the
/// first violation.
///
/// # Errors
///
/// Returns a description of the first missing/mistyped key or broken
/// invariant, or the parse error.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing string key \"schema\"")?;
    if schema != BENCH_SCHEMA {
        return Err(format!("schema is {schema:?}, expected {BENCH_SCHEMA:?}"));
    }
    let scenario = doc
        .get("scenario")
        .and_then(JsonValue::as_str)
        .ok_or("missing string key \"scenario\"")?;
    for key in ["requests", "throughput_rps", "rejects"] {
        doc.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing numeric key {key:?}"))?;
    }
    let latency = doc
        .get("latency_us")
        .ok_or("missing object key \"latency_us\"")?;
    let mut prev: Option<(&str, f64)> = None;
    for key in ["p50", "p90", "p99", "max"] {
        match latency.get(key) {
            Some(JsonValue::Number(v)) => {
                if let Some((lower, w)) = prev.filter(|(_, w)| v < w) {
                    return Err(format!(
                        "latency_us.{key} ({v}) is below latency_us.{lower} ({w})"
                    ));
                }
                prev = Some((key, *v));
            }
            Some(JsonValue::Null) => {}
            Some(other) => {
                return Err(format!(
                    "latency_us.{key} must be a number or null, got {other:?}"
                ))
            }
            None => return Err(format!("missing latency_us key {key:?}")),
        }
    }
    if let Some(admitted) = doc.get("admitted") {
        let identical = doc.get("identical");
        let counts = (admitted.as_f64(), identical.and_then(JsonValue::as_f64));
        if counts.0.is_none() || counts.0 != counts.1 {
            return Err(format!(
                "identical ({identical:?}) differs from admitted ({admitted:?})"
            ));
        }
    }
    let verdict = match scenario {
        "conformance" => {
            let listed = doc.get("backends").and_then(JsonValue::as_array);
            let (listed, matrix) = (listed.map_or(0, |b| b.len()), BackendKind::ALL.len());
            if listed != matrix {
                return Err(format!(
                    "conformance record lists {listed} backends, the matrix has {matrix}"
                ));
            }
            "all_match"
        }
        "kernels" => "identical",
        _ => return Ok(()),
    };
    match doc.get(verdict) {
        Some(JsonValue::Bool(true)) => Ok(()),
        other => Err(format!("{verdict} must be true, got {other:?}")),
    }
}

/// [`BenchRecord`] for one checked workload run
/// (`BENCH_<scenario>.json`): answered requests per second of wall time,
/// the run's latency percentiles and its quota rejects, with the
/// checker's counts, the timings, the cache books, the per-lane
/// percentiles and (over HTTP) the status ledger as extras.
pub fn workload_bench_record(report: &Report) -> BenchRecord {
    let classes = report
        .classes
        .iter()
        .map(|c| {
            let us = |v: Option<u64>| v.map_or(JsonValue::Null, JsonValue::from);
            JsonValue::Object(vec![
                ("class".to_string(), JsonValue::from(c.class.to_string())),
                ("requests".to_string(), JsonValue::from(c.requests)),
                ("admitted".to_string(), JsonValue::from(c.admitted)),
                ("p50_us".to_string(), us(c.latency.p50)),
                ("p99_us".to_string(), us(c.latency.p99)),
            ])
        })
        .collect();
    let mut extra: Vec<(String, JsonValue)> = [
        ("models", JsonValue::from(report.models.len())),
        ("workers", JsonValue::from(report.scenario.config.workers)),
        ("rounds", JsonValue::from(report.scenario.rounds.max(1))),
        ("admitted", JsonValue::from(report.admitted)),
        ("identical", JsonValue::from(report.identical)),
        ("scalar_secs", JsonValue::from(report.scalar_secs)),
        ("served_secs", JsonValue::from(report.served_secs)),
        ("speedup", JsonValue::from(report.speedup())),
        ("cache_hits", JsonValue::from(report.stats.cache_hits)),
        ("cache_misses", JsonValue::from(report.stats.cache_misses)),
        (
            "cache_evictions",
            JsonValue::from(report.stats.cache_evictions),
        ),
        ("hit_rate", JsonValue::from(report.hit_rate())),
        ("classes", JsonValue::Array(classes)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    if let Some(cold) = report.cold_secs {
        extra.push(("cold_secs".to_string(), JsonValue::from(cold)));
    }
    if !report.statuses.is_empty() {
        let ledger = report
            .statuses
            .iter()
            .map(|(code, n)| (code.to_string(), JsonValue::from(*n)))
            .collect();
        extra.push(("statuses".to_string(), JsonValue::Object(ledger)));
    }
    BenchRecord {
        scenario: report.scenario.name.clone(),
        requests: report.requests as u64,
        throughput_rps: report.throughput_rps(),
        latency: Some(report.latency),
        rejects: report.quota_rejected as u64,
        extra,
    }
}

/// [`BenchRecord`] for the differential conformance study
/// (`BENCH_conformance.json`): total compared lanes as `requests`, and
/// per-backend work/wall stats aggregated over the cases as extras.
pub fn conformance_bench_record(report: &problp_conformance::ConformanceReport) -> BenchRecord {
    // Aggregate per backend over every (model, arith, semiring) case.
    let mut backends: Vec<(String, u64, f64, usize)> = Vec::new();
    let mut total_lanes = 0usize;
    for case in &report.cases {
        for run in &case.backends {
            total_lanes += case.lanes;
            let name = format!("{}", run.backend);
            match backends.iter_mut().find(|(n, ..)| *n == name) {
                Some((_, work, wall, lanes)) => {
                    *work += run.work;
                    *wall += run.wall.as_secs_f64();
                    *lanes += case.lanes;
                }
                None => backends.push((name, run.work, run.wall.as_secs_f64(), case.lanes)),
            }
        }
    }
    let backend_rows = backends
        .iter()
        .map(|(name, work, wall, lanes)| {
            JsonValue::Object(vec![
                ("backend".to_string(), JsonValue::from(name.as_str())),
                ("work".to_string(), JsonValue::from(*work)),
                ("wall_secs".to_string(), JsonValue::from(*wall)),
                ("lanes".to_string(), JsonValue::from(*lanes)),
                (
                    "lanes_per_sec".to_string(),
                    if *wall > 0.0 {
                        JsonValue::from(*lanes as f64 / *wall)
                    } else {
                        JsonValue::Null
                    },
                ),
            ])
        })
        .collect();
    BenchRecord {
        scenario: "conformance".to_string(),
        requests: total_lanes as u64,
        throughput_rps: 0.0,
        latency: None,
        rejects: 0,
        extra: vec![
            ("seed".to_string(), JsonValue::from(report.seed)),
            (
                "lanes_per_case".to_string(),
                JsonValue::from(report.lanes_per_case),
            ),
            ("cases".to_string(), JsonValue::from(report.cases.len())),
            (
                "mismatches".to_string(),
                JsonValue::from(report.total_mismatches()),
            ),
            ("all_match".to_string(), JsonValue::Bool(report.all_match())),
            ("backends".to_string(), JsonValue::Array(backend_rows)),
        ],
    }
}

/// [`BenchRecord`] for the static-analysis study (`BENCH_verify.json`):
/// analyzed tape instructions as `requests`, the aggregate
/// instructions-per-second of verification + analysis as the headline
/// throughput, per-model verdicts and minimal formats as extras.
pub fn verify_bench_record(study: &crate::VerifyStudy) -> BenchRecord {
    let rows = study
        .rows
        .iter()
        .map(|r| {
            JsonValue::Object(vec![
                ("model".to_string(), JsonValue::from(r.model.as_str())),
                ("instrs".to_string(), JsonValue::from(r.instrs)),
                (
                    "verify_us".to_string(),
                    JsonValue::from(r.verifier_wall.as_secs_f64() * 1e6),
                ),
                (
                    "analyze_us".to_string(),
                    JsonValue::from(r.analysis_wall.as_secs_f64() * 1e6),
                ),
                ("safe_formats".to_string(), JsonValue::from(r.safe_formats)),
                (
                    "minimal_fixed".to_string(),
                    JsonValue::from(
                        format!(
                            "fixed:{}.{}",
                            r.minimal_format.int_bits(),
                            r.minimal_format.frac_bits()
                        )
                        .as_str(),
                    ),
                ),
            ])
        })
        .collect();
    let total_instrs: usize = study.rows.iter().map(|r| r.instrs).sum();
    let total_wall: f64 = study
        .rows
        .iter()
        .map(|r| r.verifier_wall.as_secs_f64() + r.analysis_wall.as_secs_f64())
        .sum();
    BenchRecord {
        scenario: "verify".to_string(),
        requests: total_instrs as u64,
        throughput_rps: if total_wall > 0.0 {
            total_instrs as f64 / total_wall
        } else {
            0.0
        },
        latency: None,
        rejects: 0,
        extra: vec![
            (
                "formats".to_string(),
                JsonValue::Array(
                    study
                        .specs
                        .iter()
                        .map(|s| JsonValue::from(s.to_string().as_str()))
                        .collect(),
                ),
            ),
            ("models".to_string(), JsonValue::Array(rows)),
        ],
    }
}

/// [`BenchRecord`] for the evaluator-kernel study (`BENCH_kernels.json`):
/// lanes per sweep as `requests`, the fused f64 rate as the headline
/// throughput, per-arithmetic rates and speedups plus the fusion
/// statistics as extras.
pub fn kernels_bench_record(study: &crate::KernelStudy) -> BenchRecord {
    let rows = study
        .rows
        .iter()
        .map(|r| {
            JsonValue::Object(vec![
                ("arith".to_string(), JsonValue::from(r.arith)),
                ("scalar_eps".to_string(), JsonValue::from(r.scalar_eps)),
                ("fused_eps".to_string(), JsonValue::from(r.fused_eps)),
                (
                    "fused_speedup".to_string(),
                    JsonValue::from(r.fused_speedup()),
                ),
            ])
        })
        .collect();
    let headline = study.rows.first();
    BenchRecord {
        scenario: "kernels".to_string(),
        requests: study.batch as u64,
        throughput_rps: headline.map_or(0.0, |r| r.fused_eps),
        latency: None,
        rejects: 0,
        extra: vec![
            ("batch".to_string(), JsonValue::from(study.batch)),
            ("threads".to_string(), JsonValue::from(1u64)),
            ("identical".to_string(), JsonValue::Bool(study.identical)),
            ("rows".to_string(), JsonValue::Array(rows)),
            (
                "source_instrs".to_string(),
                JsonValue::from(study.fuse.source_instrs),
            ),
            (
                "fused_instrs".to_string(),
                JsonValue::from(study.fuse.fused_instrs),
            ),
            ("mul_accs".to_string(), JsonValue::from(study.fuse.mul_accs)),
            ("reduces".to_string(), JsonValue::from(study.fuse.reduces)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{run, Scenario};
    use crate::SEED;

    #[test]
    fn serving_record_round_trips_and_validates() {
        let report = run(&Scenario::serving(40)).expect("serving runs");
        let record = workload_bench_record(&report);
        assert_eq!(record.file_name(), "BENCH_serving.json");
        let text = record.to_json().render_pretty();
        validate_bench_json(&text).expect("emitted record validates");
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(BENCH_SCHEMA)
        );
        assert_eq!(doc.get("requests").and_then(JsonValue::as_f64), Some(40.0));
        // 40 served requests → 40 latency samples, so the percentiles
        // are real numbers.
        assert!(doc
            .get("latency_us")
            .and_then(|l| l.get("p50"))
            .and_then(JsonValue::as_f64)
            .is_some());
    }

    #[test]
    fn cache_record_validates_and_the_books_are_deterministic() {
        let report = run(&Scenario {
            rounds: 3,
            ..Scenario::cache(18)
        })
        .expect("cache runs");
        assert_eq!(report.requests - report.replayed, 18);
        assert_eq!(report.requests, 54);
        // Round one misses each of the 18 distinct keys once; the drain
        // barrier guarantees rounds two and three hit all of them.
        assert_eq!(report.stats.cache_misses, 18);
        assert_eq!(report.stats.cache_hits, 36);
        assert_eq!(report.stats.cache_evictions, 0);
        // A hit replays the memoized payload: every cached answer must
        // be bit-identical to the uncached reference.
        assert_eq!(report.identical, report.requests);
        let record = workload_bench_record(&report);
        assert_eq!(record.file_name(), "BENCH_cache.json");
        let text = record.to_json().render_pretty();
        validate_bench_json(&text).expect("cache record validates");
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(
            doc.get("hit_rate").and_then(JsonValue::as_f64),
            Some(36.0 / 54.0)
        );
    }

    #[test]
    fn qos_and_conformance_records_validate() {
        let qos = workload_bench_record(&run(&Scenario::qos(80)).expect("qos runs"));
        validate_bench_json(&qos.to_json().render()).expect("qos record validates");
        assert!(qos.rejects > 0, "the QoS study must exercise the quota");
        let conf = conformance_bench_record(&crate::conformance_study(8, SEED));
        let text = conf.to_json().render_pretty();
        validate_bench_json(&text).expect("conformance record validates");
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(doc.get("all_match"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            doc.get("backends")
                .and_then(JsonValue::as_array)
                .map(|b| b.len()),
            Some(BackendKind::ALL.len()),
            "one row per backend of the matrix"
        );
    }

    #[test]
    fn validator_rejects_stale_or_red_study_records() {
        let head = r#""schema": "problp-bench/v1", "requests": 1,
            "throughput_rps": 2.0, "rejects": 0,
            "latency_us": {"p50": null, "p90": null, "p99": null, "max": null}"#;
        let rows = |n: usize| vec![r#"{"backend": "x"}"#; n].join(", ");
        let all = BackendKind::ALL.len();
        let conformance = |n: usize, all_match: bool| {
            format!(
                r#"{{{head}, "scenario": "conformance", "all_match": {all_match},
                "backends": [{}]}}"#,
                rows(n)
            )
        };
        validate_bench_json(&conformance(all, true)).expect("current matrix validates");
        assert!(validate_bench_json(&conformance(5, true))
            .unwrap_err()
            .contains("lists 5 backends"));
        assert!(validate_bench_json(&conformance(all, false))
            .unwrap_err()
            .contains("all_match"));
        let kernels = |identical: bool| {
            format!(r#"{{{head}, "scenario": "kernels", "identical": {identical}}}"#)
        };
        validate_bench_json(&kernels(true)).expect("identical kernels validate");
        assert!(validate_bench_json(&kernels(false))
            .unwrap_err()
            .contains("identical"));
        let no_flag = format!(r#"{{{head}, "scenario": "kernels"}}"#);
        assert!(validate_bench_json(&no_flag).is_err());
        let serving = |latency: &str, admitted: u64, identical: u64| {
            format!(
                r#"{{"schema": "problp-bench/v1", "scenario": "serving", "requests": 4,
                "throughput_rps": 2.0, "rejects": 0, "latency_us": {latency},
                "admitted": {admitted}, "identical": {identical}}}"#
            )
        };
        let ordered = r#"{"p50": 5, "p90": 7, "p99": null, "max": 9}"#;
        validate_bench_json(&serving(ordered, 4, 4)).expect("ordered percentiles validate");
        let inverted = r#"{"p50": 5, "p90": 7, "p99": 6, "max": 9}"#;
        assert!(validate_bench_json(&serving(inverted, 4, 4))
            .unwrap_err()
            .contains("latency_us.p99"));
        let over_max = r#"{"p50": 5, "p90": null, "p99": null, "max": 4}"#;
        assert!(validate_bench_json(&serving(over_max, 4, 4))
            .unwrap_err()
            .contains("latency_us.max"));
        assert!(validate_bench_json(&serving(ordered, 4, 3))
            .unwrap_err()
            .contains("differs from admitted"));
    }

    #[test]
    fn kernels_record_validates_and_carries_fusion_stats() {
        let study = crate::kernel_study(64);
        let record = kernels_bench_record(&study);
        assert_eq!(record.file_name(), "BENCH_kernels.json");
        let text = record.to_json().render_pretty();
        validate_bench_json(&text).expect("kernels record validates");
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(doc.get("identical"), Some(&JsonValue::Bool(true)));
        assert!(
            doc.get("mul_accs")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
                > 0.0,
            "the Alarm tape must fuse MulAccs"
        );
        assert!(doc
            .get("rows")
            .and_then(JsonValue::as_array)
            .is_some_and(|r| r.len() == 2));
    }

    #[test]
    fn validator_rejects_missing_and_mistyped_keys() {
        assert!(validate_bench_json("not json").is_err());
        assert!(validate_bench_json("{}").unwrap_err().contains("schema"));
        let wrong_schema = r#"{"schema": "problp-bench/v0"}"#;
        assert!(validate_bench_json(wrong_schema)
            .unwrap_err()
            .contains("v0"));
        let no_latency = r#"{"schema": "problp-bench/v1", "scenario": "x",
            "requests": 1, "throughput_rps": 2.0, "rejects": 0}"#;
        assert!(validate_bench_json(no_latency)
            .unwrap_err()
            .contains("latency_us"));
        let bad_percentile = r#"{"schema": "problp-bench/v1", "scenario": "x",
            "requests": 1, "throughput_rps": 2.0, "rejects": 0,
            "latency_us": {"p50": "fast", "p90": 1, "p99": 2, "max": 3}}"#;
        assert!(validate_bench_json(bad_percentile)
            .unwrap_err()
            .contains("p50"));
    }
}
