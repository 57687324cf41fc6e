//! Drives `problp serve-sim` and `problp serve-http --self-drive` as
//! processes with the flags of each CI serve smoke, at 128 requests:
//! each run must exit 0 (every self-check passed), print the checked
//! report, and write a record `check-bench` accepts.

use std::path::PathBuf;
use std::process::Command;

/// The smokes' shared policy: two small models, a small batch, a short
/// wait and two dispatcher workers.
const POLICY: [&str; 8] = [
    "--models",
    "sprinkler,asia",
    "--max-batch",
    "16",
    "--max-wait-us",
    "200",
    "--workers",
    "2",
];

/// Runs the CLI and returns its stdout, failing the test with both
/// streams unless it exits 0.
fn problp(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_problp"))
        .args(args)
        .output()
        .expect("the problp binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "problp {args:?} failed\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn serve_sim(extra: &[&str]) -> String {
    let mut args = vec!["serve-sim", "--requests", "128"];
    args.extend(POLICY);
    args.extend(extra);
    problp(&args)
}

/// A per-test record path under Cargo's scratch directory for tests.
fn record_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn assert_record_validates(path: &PathBuf, scenario: &str) {
    let text = std::fs::read_to_string(path).expect("the record was written");
    problp::bench::validate_bench_json(&text).expect("the record validates");
    assert!(
        text.contains(&format!("\"scenario\": \"{scenario}\"")),
        "{text}"
    );
    std::fs::remove_file(path).expect("the record is removable");
}

#[test]
fn mixed_tenant_serve_sim_is_bit_identical() {
    let out = serve_sim(&[]);
    assert!(out.contains("serve_sim: 128 requests in process"), "{out}");
    assert!(
        out.contains("verification: 128/128 answers bit-identical"),
        "{out}"
    );
}

#[test]
fn qos_serve_sim_books_its_quota_rejects() {
    let out = serve_sim(&[
        "--tenant-quota",
        "24",
        "--batch-share",
        "30",
        "--aging-us",
        "2000",
        "--adaptive-wait",
    ]);
    assert!(
        out.contains("tenant_quota: 24, priority_aging: 2ms, adaptive_wait: true"),
        "{out}"
    );
    assert!(out.contains("quota rejects: "), "{out}");
    assert!(out.contains("latency (batch)"), "{out}");
}

#[test]
fn cached_serve_sim_replays_hit_across_a_mid_trace_reload() {
    let out = serve_sim(&["--cache-capacity", "512", "--reload-mid-trace"]);
    assert!(out.contains("2 round(s)"), "{out}");
    assert!(
        out.contains("mid-trace reload: model sprinkler cut over to version 2"),
        "{out}"
    );
    assert!(
        out.contains("model versions: asia=v1 sprinkler=v2"),
        "{out}"
    );
    let books = out
        .lines()
        .find(|l| l.contains("cache books"))
        .expect("a cache books line");
    let (replays, hits) = books
        .split_once("; ")
        .and_then(|(_, r)| r.trim_end_matches(" hits").split_once(" replays, "))
        .expect("replays and hits");
    assert_eq!(replays, hits, "{books}");
}

#[test]
fn serve_sim_scrapes_its_sidecar_and_writes_a_valid_record() {
    let path = record_path("BENCH_serve_sim_cli.json");
    let out = serve_sim(&[
        "--tenant-quota",
        "24",
        "--metrics-addr",
        "127.0.0.1:0",
        "--bench-json",
        path.to_str().expect("a UTF-8 path"),
    ]);
    assert!(out.contains("metrics sidecar: http://127.0.0.1:"), "{out}");
    assert!(
        out.contains("sidecar: /healthz 200 mid-trace, /metrics books agree"),
        "{out}"
    );
    assert_record_validates(&path, "serve_sim");
}

#[test]
fn serve_http_self_drive_is_bit_identical_over_sockets() {
    let path = record_path("BENCH_serve_http_cli.json");
    let mut args = vec!["serve-http", "--self-drive", "128", "--seed", "11"];
    args.extend(POLICY);
    args.extend([
        "--metrics-addr",
        "127.0.0.1:0",
        "--bench-json",
        path.to_str().expect("a UTF-8 path"),
    ]);
    let out = problp(&args);
    assert!(
        out.contains("token token-sprinkler -> model sprinkler"),
        "{out}"
    );
    assert!(out.contains("gateway: 128 requests over http"), "{out}");
    assert!(
        out.contains("verification: 128/128 answers bit-identical"),
        "{out}"
    );
    assert!(out.contains("http statuses: 200 x"), "{out}");
    assert_record_validates(&path, "gateway");
}
