//! The `problp` command-line interface: run the framework on a network
//! file and emit the report, the Verilog and a self-checking testbench.
//!
//! ```text
//! problp info       --network model.bn
//! problp run        --network model.bn --query marginal --tolerance abs:0.01 \
//!                   --out-dir build/
//! problp export     --network model.bn --dot circuit.dot
//! problp throughput --network model.bn --batch 1024 --threads 0 \
//!                   --query marginal|mpe|conditional [--query-var NAME]
//!                   [--kernel scalar|fused]
//! problp accuracy   [--dataset HAR|UNIMIB|UIWADS] [--instances 300]
//! problp serve-sim  --models sprinkler,asia [--requests 512] [--max-batch 32]
//!                   [--max-wait-us 500] [--workers 4] [--seed 7]
//!                   [--tenant-quota 0] [--batch-share 0] [--aging-us 20000]
//!                   [--adaptive-wait] [--cache-capacity 0] [--reload-mid-trace]
//!                   [--metrics-addr 127.0.0.1:0] [--linger-ms 0] [--bench-json FILE]
//! problp serve-http --models sprinkler,asia [--addr 127.0.0.1:0]
//!                   [--tokens TOK=MODEL,...] [--http-workers 4] [--self-drive N]
//!                   (plus serve-sim's --max-batch ... --cache-capacity, --seed,
//!                    --metrics-addr, --linger-ms and --bench-json)
//! problp conformance [--models alarm,asia] [--random 2] [--batch 256]
//!                   [--seed 7] [--repr f64,fixed:2.14,float:8.13]
//!                   [--inject-fault scalar|tape|tape-full|fused-compact|
//!                    fused-full|schedule|pipeline]
//! problp verify     [--models sprinkler,asia] [--repr f64,fixed:2.14,float:8.23]
//!                   [--seed 7] [--corrupt oob-reg|slot-oob|param-write|truncate]
//! problp lint-src   [--allow ci/lint-allow.txt]
//! ```
//!
//! Networks use the plain-text `.bn` format of [`problp::bayes::io`].
//! `throughput` measures bulk-inference rates — the scalar tree-walk
//! versus the batched execution engine (`problp::engine`) at the given
//! batch size (`--threads 0` = all cores) — for all three query kinds:
//! marginal sweeps, MPE decoding (max-product argmax traceback) and
//! conditional posteriors (joint/marginal lane pairs). `--kernel`
//! selects the engine's evaluator core: the fused superinstruction
//! stream the serving pool runs (the default) or the scalar reference
//! walk (bit-identical; see `problp::engine::KernelKind`).
//! `accuracy` runs the engine-served per-precision classifier accuracy
//! study of `problp::bench` on the synthetic sensing datasets.
//! `--models` takes built-in network names
//! (`figure1|sprinkler|asia|student|earthquake|cancer|alarm`) or `.bn`
//! paths, comma-separated.
//!
//! `serve-sim` and `serve-http` parse their flags into one workload
//! scenario (`problp::bench::workload::Scenario`) and run it with the
//! one workload driver, which checks every answer bit-identical to the
//! pool's uncached `serve_one` and the tree-walk, and the server's books
//! against its own ledger; any failed check exits non-zero. `serve-sim`
//! submits a seeded mixed-tenant trace in process under the QoS flags
//! (`--batch-share` routes that percentage to the `Batch` lane); with
//! `--cache-capacity` a second round replays the served requests, which
//! must all hit. `serve-http` hosts the models behind the HTTP query
//! gateway; `--self-drive N` sends an N-request trace through it,
//! without it the gateway serves until killed (or for `--linger-ms`).
//! `--metrics-addr` starts the `/metrics` + `/healthz` sidecar, which the
//! run scrapes mid-trace and at the end; `--linger-ms` keeps the stack
//! up after the trace, and `--bench-json FILE` writes the run's
//! `problp-bench/v1` record (validated by `reproduce check-bench`).
//!
//! `conformance` runs the differential cross-check of
//! `problp::conformance`: the same seeded evidence batch is evaluated on
//! the scalar tree-walk, the compact and full-values engine tapes, the
//! fused superinstruction streams of both tape modes, the sequential
//! ALU schedule and the cycle-accurate pipelined datapath
//! (streaming one lane per cycle), and every stream must be
//! bit-identical per arithmetic (`--repr`) and semiring. Without
//! `--models` it checks `sprinkler,asia` plus `--random` seeded random
//! networks (default 2). The exit code is non-zero on any divergence;
//! `--inject-fault` deliberately corrupts one backend's stream to prove
//! the harness detects it.
//!
//! `verify` runs the static-analysis subsystem (`problp::verify`) over
//! each model's tape: the Layer-1 structural verifier (compact and
//! fused streams), the Layer-2 fixed/float range analysis per `--repr`
//! arithmetic, and the minimal-safe-fixed-format search. It prints one
//! row per model plus the `problp_verify_*` counter totals and ends
//! with `verdict: PASS` / `verdict: FAIL` (non-zero exit). `--corrupt`
//! mutates each tape before verification — the verifier must reject it
//! with a typed error, so a corrupted run *failing* is the expected CI
//! outcome.
//!
//! `lint-src` enforces the serving-path panic policy: no `.unwrap()` /
//! `.expect(` in the non-test code of `crates/engine/src/serve.rs` and
//! `crates/telemetry/src` (scanning stops at the first `#[cfg(test)]`
//! line of each file). Exceptions live in `ci/lint-allow.txt` as
//! `file-suffix: line-substring` entries. Run it from the repository
//! root; non-zero exit on any violation.

use std::path::PathBuf;
use std::process::ExitCode;

use problp::ac::transform::binarize;
use problp::bench::workload::{Scenario, Stack};
use problp::prelude::*;

struct RunArgs {
    network: PathBuf,
    query: QueryType,
    tolerance: Tolerance,
    out_dir: PathBuf,
    optimize: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  problp info       --network FILE [--optimize]
  problp run        --network FILE [--query marginal|conditional|mpe]
                    [--tolerance abs:X|rel:X] [--out-dir DIR] [--optimize]
  problp export     --network FILE --dot FILE
  problp throughput --network FILE [--batch N] [--threads N] [--optimize]
                    [--query marginal|mpe|conditional] [--query-var NAME]
                    [--kernel scalar|fused]
  problp accuracy   [--dataset HAR|UNIMIB|UIWADS] [--instances N]
  problp serve-sim  --models NAME|FILE[,NAME|FILE...] [--requests N]
                    [--max-batch N] [--max-wait-us N] [--workers N] [--seed N]
                    [--tenant-quota N] [--batch-share PCT] [--aging-us N]
                    [--adaptive-wait] [--cache-capacity N]
                    [--reload-mid-trace] [--metrics-addr HOST:PORT]
                    [--linger-ms N] [--bench-json FILE]
  problp serve-http --models NAME|FILE[,NAME|FILE...] [--addr HOST:PORT]
                    [--tokens TOK=MODEL[,TOK=MODEL...]] [--http-workers N]
                    [--max-batch N] [--max-wait-us N] [--workers N]
                    [--tenant-quota N] [--cache-capacity N] [--seed N]
                    [--self-drive N] [--metrics-addr HOST:PORT]
                    [--linger-ms N] [--bench-json FILE]
  problp conformance [--models NAME|FILE[,...]] [--random N] [--batch N]
                    [--seed N] [--repr LIST] [--inject-fault BACKEND]
                    (LIST entries: f64 | fixed:I.F | float:E.M;
                     BACKEND: scalar|tape|tape-full|fused-compact|
                     fused-full|schedule|pipeline)
  problp verify     [--models NAME|FILE[,...]] [--repr LIST] [--seed N]
                    [--corrupt oob-reg|slot-oob|param-write|truncate]
  problp lint-src   [--allow FILE]"
    );
    ExitCode::from(2)
}

fn parse_tolerance(spec: &str) -> Option<Tolerance> {
    let (kind, value) = spec.split_once(':')?;
    let value: f64 = value.parse().ok()?;
    match kind {
        "abs" => Some(Tolerance::Absolute(value)),
        "rel" => Some(Tolerance::Relative(value)),
        _ => None,
    }
}

fn parse_query(spec: &str) -> Option<QueryType> {
    match spec {
        "marginal" => Some(QueryType::Marginal),
        "conditional" => Some(QueryType::Conditional),
        "mpe" => Some(QueryType::Mpe),
        _ => None,
    }
}

fn load_network(path: &PathBuf) -> Result<BayesNet, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    problp::bayes::io::from_text(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let mut network: Option<PathBuf> = None;
    let mut query = QueryType::Marginal;
    let mut query_var: Option<String> = None;
    let mut tolerance = Tolerance::Absolute(0.01);
    let mut out_dir = PathBuf::from(".");
    let mut dot: Option<PathBuf> = None;
    let mut optimize = false;
    // `--batch`: throughput defaults to 1024 lanes, conformance to 256.
    let mut batch: Option<usize> = None;
    let mut threads = 0usize;
    let mut dataset: Option<String> = None;
    let mut instances = 300usize;
    let mut models: Option<String> = None;
    let mut requests = 512usize;
    let mut max_batch = 32usize;
    let mut max_wait_us = 500u64;
    let mut workers = 4usize;
    let mut seed = 7u64;
    let mut tenant_quota = 0usize;
    let mut batch_share = 0u32;
    let mut aging_us = 20_000u64;
    let mut adaptive_wait = false;
    let mut cache_capacity = 0usize;
    let mut reload_mid_trace = false;
    let mut metrics_addr: Option<String> = None;
    let mut linger_ms = 0u64;
    let mut bench_json: Option<PathBuf> = None;
    let mut random: Option<usize> = None;
    let mut repr: Option<String> = None;
    let mut inject_fault: Option<String> = None;
    let mut corrupt: Option<String> = None;
    let mut allow = PathBuf::from("ci/lint-allow.txt");
    let mut kernel = problp::engine::KernelKind::Fused;
    let mut addr = "127.0.0.1:0".to_string();
    let mut tokens: Option<String> = None;
    let mut http_workers = 4usize;
    let mut self_drive: Option<usize> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--network" => network = it.next().map(PathBuf::from),
            "--models" => {
                let Some(m) = it.next() else {
                    return usage();
                };
                models = Some(m.clone());
            }
            "--requests" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                requests = n;
            }
            "--max-batch" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                max_batch = n;
            }
            "--max-wait-us" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                max_wait_us = n;
            }
            "--workers" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                workers = n;
            }
            "--seed" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                seed = n;
            }
            "--tenant-quota" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                tenant_quota = n;
            }
            "--batch-share" => {
                let Some(n) = it.next().and_then(|s| s.parse::<u32>().ok()) else {
                    return usage();
                };
                if n > 100 {
                    return usage();
                }
                batch_share = n;
            }
            "--aging-us" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                aging_us = n;
            }
            "--adaptive-wait" => adaptive_wait = true,
            "--cache-capacity" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                cache_capacity = n;
            }
            "--reload-mid-trace" => reload_mid_trace = true,
            "--addr" => {
                let Some(a) = it.next() else {
                    return usage();
                };
                addr = a.clone();
            }
            "--tokens" => {
                let Some(t) = it.next() else {
                    return usage();
                };
                tokens = Some(t.clone());
            }
            "--http-workers" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                http_workers = n;
            }
            "--self-drive" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                self_drive = Some(n);
            }
            "--metrics-addr" => {
                let Some(a) = it.next() else {
                    return usage();
                };
                metrics_addr = Some(a.clone());
            }
            "--linger-ms" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                linger_ms = n;
            }
            "--bench-json" => {
                let Some(p) = it.next() else {
                    return usage();
                };
                bench_json = Some(PathBuf::from(p));
            }
            "--random" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                random = Some(n);
            }
            "--repr" => {
                let Some(r) = it.next() else {
                    return usage();
                };
                repr = Some(r.clone());
            }
            "--inject-fault" => {
                let Some(b) = it.next() else {
                    return usage();
                };
                inject_fault = Some(b.clone());
            }
            "--corrupt" => {
                let Some(c) = it.next() else {
                    return usage();
                };
                corrupt = Some(c.clone());
            }
            "--allow" => {
                let Some(p) = it.next() else {
                    return usage();
                };
                allow = PathBuf::from(p);
            }
            "--kernel" => {
                let Some(k) = it.next().and_then(|s| problp::engine::KernelKind::parse(s)) else {
                    return usage();
                };
                kernel = k;
            }
            "--batch" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                batch = Some(n);
            }
            "--threads" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                threads = n;
            }
            "--instances" => {
                let Some(n) = it.next().and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                instances = n;
            }
            "--query" => {
                let Some(q) = it.next().and_then(|s| parse_query(s)) else {
                    return usage();
                };
                query = q;
            }
            "--query-var" => {
                let Some(v) = it.next() else {
                    return usage();
                };
                query_var = Some(v.clone());
            }
            "--dataset" => {
                let Some(v) = it.next() else {
                    return usage();
                };
                dataset = Some(v.clone());
            }
            "--tolerance" => {
                let Some(t) = it.next().and_then(|s| parse_tolerance(s)) else {
                    return usage();
                };
                tolerance = t;
            }
            "--out-dir" => out_dir = it.next().map(PathBuf::from).unwrap_or(out_dir),
            "--dot" => dot = it.next().map(PathBuf::from),
            "--optimize" => optimize = true,
            _ => return usage(),
        }
    }

    // `serve-sim` and `serve-http` host many models at once (built-in
    // names or .bn files) and run them as a workload scenario.
    if command == "serve-sim" || command == "serve-http" {
        use problp::bench::workload::{Scenario, Shape, Transport};
        use problp::engine::{GatewayConfig, ServeConfig};
        use std::time::Duration;

        let Some(models) = models else {
            return usage();
        };
        let sim = command == "serve-sim";
        let scenario = load_models(&models, seed).and_then(|models| {
            if sim && models.len() < 2 {
                return Err("serve-sim needs at least two models (--models a,b)".to_string());
            }
            let config = ServeConfig {
                max_batch: max_batch.max(1),
                max_wait: Duration::from_micros(max_wait_us),
                workers: workers.max(1),
                tenant_quota,
                cache_capacity,
                ..ServeConfig::default()
            };
            let sim_scenario = Scenario {
                name: "serve_sim".to_string(),
                models,
                requests,
                seed,
                shape: Shape::Mixed { batch_share },
                // With the cache on, one replay round resubmits the
                // served requests, which must all hit.
                rounds: if cache_capacity > 0 { 2 } else { 1 },
                reload_mid_trace,
                cold_pass: false,
                config: ServeConfig {
                    priority_aging: Duration::from_micros(aging_us),
                    adaptive_wait,
                    ..config
                },
                transport: Transport::InProcess,
                metrics_addr,
            };
            if sim {
                return Ok(sim_scenario);
            }
            // `--tokens TOK=MODEL[,TOK=MODEL...]`: the gateway's auth table.
            let tokens = tokens
                .iter()
                .flat_map(|spec| spec.split(','))
                .filter(|entry| !entry.is_empty())
                .map(|entry| {
                    let pair = entry.trim().split_once('=');
                    let pair = pair.map(|(tok, model)| (tok.to_string(), model.to_string()));
                    pair.ok_or_else(|| format!("--tokens entry {entry:?} is not TOK=MODEL"))
                })
                .collect::<Result<_, _>>()?;
            Ok(Scenario {
                name: "gateway".to_string(),
                requests: self_drive.unwrap_or(0),
                shape: Shape::Mixed { batch_share: 25 },
                rounds: 1,
                reload_mid_trace: false,
                config,
                transport: Transport::Http(GatewayConfig {
                    addr,
                    tokens,
                    http_workers: http_workers.max(1),
                    ..GatewayConfig::default()
                }),
                ..sim_scenario
            })
        });
        let drive = sim || self_drive.is_some();
        let served = scenario
            .map_err(Into::into)
            .and_then(|scenario| serve(&scenario, drive, linger_ms, bench_json.as_deref()));
        return match served {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // `conformance` hosts many models too (named, file-based or
    // generated), so it shares serve-sim's loading path.
    if command == "conformance" {
        let args = ConformanceArgs {
            models,
            random,
            batch: batch.unwrap_or(256),
            seed,
            repr,
            inject_fault,
        };
        return match conformance(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // `verify` shares serve-sim's model loading (built-in names or .bn
    // files) and never evaluates anything — it is pure static analysis.
    if command == "verify" {
        let args = VerifyArgs {
            models,
            repr,
            seed,
            corrupt,
        };
        return match verify_tapes(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // `lint-src` needs no models at all; it reads workspace sources.
    if command == "lint-src" {
        return match lint_src(&allow) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // `accuracy` runs on the packaged classifier benchmarks, no network
    // file involved.
    if command == "accuracy" {
        let names: Vec<&str> = match &dataset {
            Some(d) => vec![d.as_str()],
            None => vec!["HAR", "UNIMIB", "UIWADS"],
        };
        if let Some(bad) = names
            .iter()
            .find(|n| !matches!(**n, "HAR" | "UNIMIB" | "UIWADS"))
        {
            eprintln!("error: unknown dataset {bad} (expected HAR, UNIMIB or UIWADS)");
            return ExitCode::FAILURE;
        }
        print!(
            "{}",
            problp::bench::accuracy_study_report(&names, instances)
        );
        return ExitCode::SUCCESS;
    }

    let Some(network_path) = network else {
        return usage();
    };
    let net = match load_network(&network_path) {
        Ok(net) => net,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let circuit = match compile(&net) {
        Ok(ac) => ac,
        Err(e) => {
            eprintln!("error: compilation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let circuit = if optimize {
        match problp::ac::optimize(&circuit) {
            Ok((opt, stats)) => {
                eprintln!("optimized: {stats}");
                opt
            }
            Err(e) => {
                eprintln!("error: optimisation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        circuit
    };

    match command.as_str() {
        "info" => {
            println!("network: {net}");
            println!("circuit: {}", circuit.stats());
            match binarize(&circuit) {
                Ok(bin) => println!("binarized: {}", bin.stats()),
                Err(e) => eprintln!("error: {e}"),
            }
            ExitCode::SUCCESS
        }
        "export" => {
            let Some(dot_path) = dot else {
                return usage();
            };
            if let Err(e) = std::fs::write(&dot_path, circuit.to_dot()) {
                eprintln!("error: cannot write {}: {e}", dot_path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", dot_path.display());
            ExitCode::SUCCESS
        }
        "throughput" => {
            match throughput(
                &net,
                &circuit,
                query,
                query_var.as_deref(),
                batch.unwrap_or(1024),
                threads,
                kernel,
            ) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "run" => {
            let run = RunArgs {
                network: network_path,
                query,
                tolerance,
                out_dir,
                optimize,
            };
            match execute(&net, &circuit, &run) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

/// Measures bulk-inference throughput of the circuit — the scalar
/// tree-walk versus the batched execution engine — over `batch` evidence
/// instances cycling through the single-variable observations, for the
/// requested query kind (marginal sweeps, MPE decoding, or conditional
/// posteriors on `query_var`, defaulting to the network's first root).
/// `kernel` selects the engine's evaluator core (the scalar reference
/// or the fused superinstruction stream — bit-identical).
#[allow(clippy::too_many_arguments)]
fn throughput(
    net: &BayesNet,
    circuit: &AcGraph,
    query: QueryType,
    query_var: Option<&str>,
    batch: usize,
    threads: usize,
    kernel: problp::engine::KernelKind,
) -> Result<(), Box<dyn std::error::Error>> {
    use problp::bench::rate_of;
    use problp::engine::Engine;

    let var_count = circuit.var_count();
    let pool = problp::bayes::single_variable_evidences(circuit.var_arities());
    let instances: Vec<Evidence> = (0..batch.max(1))
        .map(|i| pool[i % pool.len()].clone())
        .collect();
    let mut evidence_batch = problp::bayes::EvidenceBatch::new(var_count);
    for e in &instances {
        evidence_batch.push(e);
    }
    let n = instances.len();
    let cap_threads = |mut engine: Engine<F64Arith>| {
        if threads > 0 {
            engine = engine.with_threads(threads);
        }
        engine = engine.with_kernel(kernel);
        if let Some(fused) = engine.fused_tape() {
            println!("fusion: {}", fused.stats());
        }
        engine
    };
    println!("kernel: {kernel}");

    let (label, scalar, batched) = match query {
        QueryType::Marginal => {
            let engine = cap_threads(Engine::from_graph(
                circuit,
                Semiring::SumProduct,
                F64Arith::new(),
            )?);
            println!("tape: {}", engine.tape());
            let scalar = rate_of(
                || {
                    for e in &instances {
                        std::hint::black_box(circuit.evaluate(e).expect("evaluates"));
                    }
                },
                n,
            );
            let batched = rate_of(
                || {
                    std::hint::black_box(engine.evaluate_batch(&evidence_batch).expect("serves"));
                },
                n,
            );
            ("marginals", scalar, batched)
        }
        QueryType::Mpe => {
            let engine = cap_threads(Engine::from_graph_full(
                circuit,
                Semiring::MaxProduct,
                F64Arith::new(),
            )?);
            println!("tape: {}", engine.tape());
            // The scalar decoder needs Σ arity evaluations per instance;
            // time it on a prefix so huge batches stay responsive.
            let prefix = &instances[..n.min(64)];
            let scalar = rate_of(
                || {
                    for e in prefix {
                        std::hint::black_box(circuit.mpe_assignment(e).expect("decodes"));
                    }
                },
                prefix.len(),
            );
            let batched = rate_of(
                || {
                    std::hint::black_box(engine.mpe_batch(&evidence_batch).expect("decodes"));
                },
                n,
            );
            ("MPE decodes", scalar, batched)
        }
        QueryType::Conditional => {
            let qv = match query_var {
                Some(name) => net
                    .find(name)
                    .ok_or_else(|| format!("no variable named {name}"))?,
                None => net.roots().first().copied().unwrap_or(VarId::from_index(0)),
            };
            let states = net.variable(qv).arity();
            println!(
                "query variable: {} ({} states)",
                net.variable(qv).name(),
                states
            );
            let engine = cap_threads(Engine::from_graph(
                circuit,
                Semiring::SumProduct,
                F64Arith::new(),
            )?);
            println!("tape: {}", engine.tape());
            let scalar = rate_of(
                || {
                    for e in &instances {
                        let den = circuit.evaluate(e).expect("evaluates");
                        for s in 0..states {
                            let mut with_q = e.clone();
                            with_q.observe(qv, s);
                            let num = circuit.evaluate(&with_q).expect("evaluates");
                            std::hint::black_box(num / den);
                        }
                    }
                },
                n,
            );
            let batched = rate_of(
                || {
                    std::hint::black_box(
                        engine
                            .conditional_batch(&evidence_batch, qv)
                            .expect("serves"),
                    );
                },
                n,
            );
            ("conditional queries", scalar, batched)
        }
    };
    println!("scalar tree-walk: {scalar:>12.0} {label}/s");
    println!(
        "batched engine:   {batched:>12.0} {label}/s  ({:.1}x)",
        batched / scalar
    );
    Ok(())
}

/// Resolves a whole comma-separated `--models` list, rejecting duplicate
/// names up front (both `serve-sim`'s pool and the conformance report
/// are keyed by name, so a collision would silently merge two tenants).
fn load_models(spec: &str, seed: u64) -> Result<Vec<(String, BayesNet)>, String> {
    let mut models: Vec<(String, BayesNet)> = Vec::new();
    for entry in spec.split(',').filter(|s| !s.is_empty()) {
        let (name, net) = load_model(entry.trim(), seed)?;
        if models.iter().any(|(n, _)| n == &name) {
            return Err(format!(
                "duplicate model name {name:?} in --models (built-in names and .bn file \
                 stems must be unique)"
            ));
        }
        models.push((name, net));
    }
    Ok(models)
}

/// Resolves one `--models` entry: a built-in network name or a `.bn`
/// file path.
fn load_model(spec: &str, seed: u64) -> Result<(String, BayesNet), String> {
    use problp::bayes::networks;
    let net = match spec {
        "figure1" => Some(networks::figure1()),
        "sprinkler" => Some(networks::sprinkler()),
        "asia" => Some(networks::asia()),
        "student" => Some(networks::student()),
        "earthquake" => Some(networks::earthquake()),
        "cancer" => Some(networks::cancer()),
        "alarm" => Some(networks::alarm(seed)),
        _ => None,
    };
    if let Some(net) = net {
        return Ok((spec.to_string(), net));
    }
    let path = PathBuf::from(spec);
    let net = load_network(&path)?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| spec.to_string());
    Ok((name, net))
}

/// Starts the scenario's serving stack and prints where it listens.
/// With `drive`, runs the scenario's trace, prints the checked report
/// and writes its `problp-bench/v1` record to `bench_json`; without, it
/// only serves. Either way the stack stays up `linger_ms` longer; serving
/// without driving or lingering runs until killed.
fn serve(
    scenario: &Scenario,
    drive: bool,
    linger_ms: u64,
    bench_json: Option<&std::path::Path>,
) -> Result<(), Box<dyn std::error::Error>> {
    use std::time::Duration;

    let stack = Stack::start(scenario)?;
    if let Some((addr, tokens)) = stack.gateway() {
        println!(
            "serve-http: {} models behind POST http://{addr}/v1/query",
            scenario.models.len()
        );
        for (tok, model) in tokens {
            println!("  token {tok} -> model {model}");
        }
    }
    if let Some(addr) = stack.metrics_addr() {
        println!("  metrics sidecar: http://{addr}/metrics");
    }
    if drive {
        let report = stack.drive()?;
        print!("{}", report.render());
        if let Some(path) = bench_json {
            let text = problp::bench::workload_bench_record(&report)
                .to_json()
                .render_pretty();
            problp::bench::validate_bench_json(&text)
                .map_err(|e| format!("emitted bench record is invalid: {e}"))?;
            std::fs::write(path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("  wrote {}", path.display());
        }
    } else if linger_ms == 0 {
        loop {
            std::thread::sleep(Duration::from_secs(1));
        }
    }
    std::thread::sleep(Duration::from_millis(linger_ms));
    Ok(())
}

struct ConformanceArgs {
    /// Comma-separated built-in network names or `.bn` paths (`None`
    /// defaults to `sprinkler,asia`).
    models: Option<String>,
    /// Seeded random networks to append (`None` = 2 when no `--models`
    /// given, else 0).
    random: Option<usize>,
    batch: usize,
    seed: u64,
    /// Comma-separated arithmetics (`f64 | fixed:I.F | float:E.M`);
    /// `None` = all three defaults.
    repr: Option<String>,
    /// Corrupt this backend's stream (harness self-test).
    inject_fault: Option<String>,
}

/// Runs the differential conformance cross-check of
/// `problp::conformance` and fails (non-zero exit) on any backend
/// diverging from the scalar reference.
fn conformance(args: &ConformanceArgs) -> Result<(), Box<dyn std::error::Error>> {
    use problp::conformance::{
        random_models, run_conformance, ArithSpec, BackendKind, ConformanceConfig,
    };

    let mut models: Vec<(String, BayesNet)> = match &args.models {
        Some(spec) => load_models(spec, args.seed)?,
        None => Vec::new(),
    };
    let random = args.random.unwrap_or(if models.is_empty() { 2 } else { 0 });
    if models.is_empty() && random == 0 {
        return Err("conformance needs at least one model (--models or --random)".into());
    }
    if models.is_empty() {
        models.push((
            "sprinkler".to_string(),
            problp::bayes::networks::sprinkler(),
        ));
        models.push(("asia".to_string(), problp::bayes::networks::asia()));
    }
    models.extend(random_models(args.seed, random));

    let mut config = ConformanceConfig {
        batch: args.batch.max(1),
        seed: args.seed,
        ..ConformanceConfig::default()
    };
    if let Some(spec) = &args.repr {
        let mut ariths = Vec::new();
        for entry in spec.split(',').filter(|s| !s.is_empty()) {
            let Some(a) = ArithSpec::parse(entry.trim()) else {
                return Err(format!(
                    "bad --repr entry {entry:?} (expected f64, fixed:I.F or float:E.M)"
                )
                .into());
            };
            ariths.push(a);
        }
        if ariths.is_empty() {
            return Err("--repr lists no arithmetics".into());
        }
        config.ariths = ariths;
    }
    if let Some(backend) = &args.inject_fault {
        let Some(b) = BackendKind::parse(backend) else {
            let names: Vec<&str> = BackendKind::ALL.iter().map(|b| b.name()).collect();
            return Err(format!(
                "bad --inject-fault backend {backend:?} (expected one of {})",
                names.join(", ")
            )
            .into());
        };
        config.inject_fault = Some(b);
        eprintln!("injecting a fault into the {b} stream (harness self-test)");
    }

    let report = run_conformance(&models, &config)?;
    print!("{report}");
    if report.all_match() {
        Ok(())
    } else {
        Err(format!(
            "{} result lanes diverged from the scalar reference",
            report.total_mismatches()
        )
        .into())
    }
}

struct VerifyArgs {
    /// Comma-separated built-in network names or `.bn` paths (`None`
    /// defaults to `sprinkler,asia`).
    models: Option<String>,
    /// Comma-separated arithmetics for the range analysis (`None` =
    /// `f64,fixed:2.14,float:8.23`).
    repr: Option<String>,
    seed: u64,
    /// Mutate each tape before verification (red-path self-test); the
    /// run then *must* fail.
    corrupt: Option<String>,
}

/// Applies one named corruption class to a compiled tape through the
/// test-only mutation hook, so the CLI can demonstrate (and CI can
/// grep for) the verifier's typed rejections.
fn apply_corruption(tape: &mut problp::engine::Tape, class: &str) -> Result<(), String> {
    use problp::engine::Instr;
    let num_regs = tape.num_regs() as u32;
    let param = tape.param_regs().first().copied();
    let instrs = tape.raw_instrs_mut();
    match class {
        // An operand register past the register file: RegisterOutOfBounds.
        "oob-reg" => {
            let bin = instrs
                .iter_mut()
                .find_map(|i| match i {
                    Instr::Add { rhs, .. }
                    | Instr::Mul { rhs, .. }
                    | Instr::Max { rhs, .. }
                    | Instr::MinNz { rhs, .. } => Some(rhs),
                    Instr::LoadIndicator { .. } => None,
                })
                .ok_or("tape has no binary instruction to corrupt")?;
            *bin = num_regs + 7;
        }
        // An indicator slot past the evidence table: SlotOutOfBounds.
        "slot-oob" => {
            let slot = instrs
                .iter_mut()
                .find_map(|i| match i {
                    Instr::LoadIndicator { slot, .. } => Some(slot),
                    _ => None,
                })
                .ok_or("tape has no indicator load to corrupt")?;
            *slot = u32::MAX / 2;
        }
        // A write into the immutable parameter table: ParamRegisterWrite.
        "param-write" => {
            let reg = param.ok_or("tape has no parameter registers")?;
            let dst = instrs
                .first_mut()
                .map(|i| match i {
                    Instr::LoadIndicator { dst, .. }
                    | Instr::Add { dst, .. }
                    | Instr::Mul { dst, .. }
                    | Instr::Max { dst, .. }
                    | Instr::MinNz { dst, .. } => dst,
                })
                .ok_or("tape is empty")?;
            *dst = reg;
        }
        // No instruction ever defines the root: RootUndefined.
        "truncate" => instrs.clear(),
        other => {
            return Err(format!(
                "unknown --corrupt class {other:?} (expected oob-reg, slot-oob, \
                 param-write or truncate)"
            ));
        }
    }
    Ok(())
}

/// Runs the static-analysis subsystem (`problp::verify`) over each
/// model's tape: Layer-1 structural verification of the compact and
/// fused streams, Layer-2 range analysis per arithmetic, and the
/// minimal-safe-fixed-format search. Returns `Ok(false)` (and prints
/// `verdict: FAIL`) if any tape is rejected.
fn verify_tapes(args: &VerifyArgs) -> Result<bool, Box<dyn std::error::Error>> {
    use problp::engine::Tape;
    use problp::telemetry::{metric_names, MetricsRegistry};
    use problp::verify::{analyze, minimal_fixed_format, ArithSpec, VerifyMetrics};

    let models = load_models(
        args.models.as_deref().unwrap_or("sprinkler,asia"),
        args.seed,
    )?;
    if models.is_empty() {
        return Err("verify needs at least one model (--models)".into());
    }
    let spec = args.repr.as_deref().unwrap_or("f64,fixed:2.14,float:8.23");
    let mut ariths: Vec<ArithSpec> = Vec::new();
    for entry in spec.split(',').filter(|s| !s.is_empty()) {
        let Some(a) = ArithSpec::parse(entry.trim()) else {
            return Err(format!(
                "bad --repr entry {entry:?} (expected f64, fixed:I.F or float:E.M)"
            )
            .into());
        };
        ariths.push(a);
    }
    if ariths.is_empty() {
        return Err("--repr lists no arithmetics".into());
    }

    let registry = MetricsRegistry::new();
    let metrics = VerifyMetrics::new(&registry);
    if let Some(class) = &args.corrupt {
        eprintln!("corrupting every tape with class {class} (verifier self-test)");
    }

    let arith_width = 16usize;
    let mut header = format!("{:<12} {:>7}  ", "model", "instrs");
    for a in &ariths {
        header.push_str(&format!("{:<arith_width$}", a.to_string()));
    }
    header.push_str("minimal fixed");
    println!("{header}");
    println!("{}", "-".repeat(header.len().max(60)));

    let mut clean = true;
    for (name, net) in &models {
        let ac = compile(net)?;
        let mut tape = Tape::compile(&ac, Semiring::SumProduct)?;
        if let Some(class) = &args.corrupt {
            apply_corruption(&mut tape, class)?;
        }

        // Layer 1 first; a corrupted tape must not reach fusion or the
        // range analysis (both assume structural well-formedness).
        if let Err(e) = tape.verify() {
            metrics.observe_reject();
            println!("{name:<12} {:>7}  REJECTED ({e})", tape.instrs().len());
            clean = false;
            continue;
        }
        tape.verify_fused(&tape.fuse())?;
        metrics.observe_pass();

        let mut row = format!("{name:<12} {:>7}  ", tape.instrs().len());
        for &arith in &ariths {
            let report = analyze(&tape, arith)?;
            metrics.observe_report(&report);
            let cell = if report.all_safe() {
                "safe".to_string()
            } else {
                format!("sat:{} unf:{}", report.may_saturate, report.may_underflow)
            };
            row.push_str(&format!("{cell:<arith_width$}"));
        }
        let rec = minimal_fixed_format(&tape)?;
        row.push_str(&format!(
            "fixed:{}.{}{}",
            rec.format.int_bits(),
            rec.format.frac_bits(),
            // The width search is capped; `*` marks a recommendation
            // that still may saturate or underflow at the cap.
            if rec.saturation_free && rec.underflow_free {
                ""
            } else {
                "*"
            }
        ));
        println!("{row}");
    }

    let counter = |name: &str| registry.counter(name, "").get();
    println!(
        "\ncounters: runs={} rejects={} safe={} may-saturate={} may-underflow={}",
        counter(metric_names::VERIFY_RUNS_TOTAL),
        counter(metric_names::VERIFY_REJECTS_TOTAL),
        counter(metric_names::VERIFY_INSTRS_SAFE_TOTAL),
        counter(metric_names::VERIFY_INSTRS_MAY_SATURATE_TOTAL),
        counter(metric_names::VERIFY_INSTRS_MAY_UNDERFLOW_TOTAL),
    );
    if clean {
        println!("verdict: PASS — every tape verified");
    } else {
        println!("verdict: FAIL — the verifier rejected at least one tape");
    }
    Ok(clean)
}

/// The files `lint-src` scans: the whole serving module tree plus the
/// whole telemetry crate — the code that runs inside long-lived
/// servers, where a stray panic takes the process down.
const LINT_SCOPE_DIRS: [&str; 2] = ["crates/engine/src/serve", "crates/telemetry/src"];

/// Enforces the serving-path panic policy: no `.unwrap()` / `.expect(`
/// outside test code in the lint scope. Allowlist entries are
/// `file-suffix: line-substring` lines in `allow_path`; `#` comments
/// and blank lines are skipped. Returns `Ok(false)` on violations.
fn lint_src(allow_path: &std::path::Path) -> Result<bool, Box<dyn std::error::Error>> {
    let mut files = Vec::new();
    for scope in LINT_SCOPE_DIRS {
        let dir = std::fs::read_dir(scope)
            .map_err(|e| format!("cannot read {scope} (run from the repository root): {e}"))?;
        for entry in dir {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();

    let allow: Vec<(String, String)> = match std::fs::read_to_string(allow_path) {
        Ok(text) => text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                l.split_once(':')
                    .map(|(f, p)| (f.trim().to_string(), p.trim().to_string()))
            })
            .collect(),
        // A missing allowlist just means "no exceptions".
        Err(_) => Vec::new(),
    };

    let mut violations = 0usize;
    for path in &files {
        let text = std::fs::read_to_string(path)?;
        let rel = path.to_string_lossy().replace('\\', "/");
        for (idx, line) in text.lines().enumerate() {
            // Everything from the first `#[cfg(test)]` on is test code
            // (the scoped files keep their test module last).
            if line.contains("#[cfg(test)]") {
                break;
            }
            let code = line.trim_start();
            // Doc text may legitimately *mention* unwrap().
            if code.starts_with("//") {
                continue;
            }
            if !code.contains(".unwrap()") && !code.contains(".expect(") {
                continue;
            }
            if allow
                .iter()
                .any(|(f, pat)| rel.ends_with(f.as_str()) && line.contains(pat.as_str()))
            {
                continue;
            }
            println!(
                "{rel}:{}: unwrap()/expect() in non-test code: {code}",
                idx + 1
            );
            violations += 1;
        }
    }

    if violations == 0 {
        println!(
            "lint-src: clean — no unwrap()/expect() in the non-test code of {} files",
            files.len()
        );
        Ok(true)
    } else {
        println!(
            "lint-src: {violations} violation(s); fix them or add a \
             `file-suffix: line-substring` entry to {}",
            allow_path.display()
        );
        Ok(false)
    }
}

fn execute(
    net: &BayesNet,
    circuit: &AcGraph,
    args: &RunArgs,
) -> Result<(), Box<dyn std::error::Error>> {
    let report = Problp::new(circuit)
        .query(args.query)
        .tolerance(args.tolerance)
        .run()?;
    println!("{report}");

    std::fs::create_dir_all(&args.out_dir)?;
    let report_path = args.out_dir.join("report.txt");
    std::fs::write(
        &report_path,
        format!(
            "network: {}\noptimized: {}\n{report}\n",
            args.network.display(),
            args.optimize
        ),
    )?;
    let rtl_path = args.out_dir.join("problp_ac_top.v");
    std::fs::write(&rtl_path, &report.hardware.verilog)?;

    // A self-checking testbench over a few canonical vectors.
    let bin = binarize(circuit)?;
    let netlist = Netlist::from_ac(&bin, report.selected.repr)?;
    let mut vectors = vec![Evidence::empty(net.var_count())];
    for v in 0..net.var_count().min(4) {
        let mut e = Evidence::empty(net.var_count());
        e.observe(VarId::from_index(v), 0);
        vectors.push(e);
    }
    let tb_path = args.out_dir.join("problp_ac_tb.v");
    std::fs::write(&tb_path, problp::hw::emit_testbench(&netlist, &vectors)?)?;

    println!(
        "\nwrote {}, {}, {}",
        report_path.display(),
        rtl_path.display(),
        tb_path.display()
    );
    Ok(())
}
