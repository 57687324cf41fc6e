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
//!                   [--adaptive-wait] [--metrics-addr 127.0.0.1:0]
//!                   [--linger-ms 0] [--bench-json FILE]
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
//! `accuracy` runs
//! the engine-served per-precision classifier accuracy study of
//! `problp::bench` on the synthetic sensing datasets. `serve-sim`
//! replays a seeded mixed-tenant request trace through the sharded
//! multi-circuit serving layer (`problp::engine::serve`: a
//! `CircuitPool` behind an admission queue and dispatcher shards),
//! verifies every admitted answer bit-identical against per-request
//! evaluation, and reports per-priority-class latency percentiles,
//! quota-reject counts and the batched-vs-scalar speedup. The QoS
//! policy knobs mirror `ServeConfig`: `--tenant-quota` caps each
//! model's queued + in-flight lanes (0 = off), `--batch-share` routes
//! that percentage of the trace to the `Batch` priority lane,
//! `--aging-us` is the anti-starvation promotion bound, and
//! `--adaptive-wait` shrinks the coalescing wait of hot streams.
//! `--models` takes built-in network names
//! (`figure1|sprinkler|asia|student|earthquake|cancer|alarm`) or `.bn`
//! paths, comma-separated.
//!
//! With `--metrics-addr HOST:PORT` (port 0 picks a free port),
//! `serve-sim` also starts the `problp::telemetry` observability
//! sidecar on that address — `/metrics` (Prometheus text),
//! `/healthz`, `/statz` (JSON) — backed by the server's live metric
//! registry, scrapes it once itself mid-trace as a self-check, and
//! prints the bound address so external scrapers can follow.
//! `--linger-ms N` keeps the sidecar (and the server) up for N extra
//! milliseconds after the trace completes, and `--bench-json FILE`
//! writes the run's machine-readable `problp-bench/v1` perf record
//! (validated by `reproduce check-bench`).
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
    let mut batch_share = 0u64;
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
                let Some(n) = it.next().and_then(|s| s.parse::<u64>().ok()) else {
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

    // `serve-sim` hosts many models at once; it has its own loading
    // path (built-in names or .bn files) instead of `--network`.
    if command == "serve-sim" {
        let Some(models) = models else {
            return usage();
        };
        let sim = ServeSimArgs {
            models,
            requests,
            max_batch,
            max_wait_us,
            workers,
            seed,
            tenant_quota,
            batch_share,
            aging_us,
            adaptive_wait,
            cache_capacity,
            reload_mid_trace,
            metrics_addr,
            linger_ms,
            bench_json,
        };
        return match serve_sim(&sim) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // `serve-http` puts the query gateway in front of the same pooled
    // serving stack; it shares serve-sim's model loading.
    if command == "serve-http" {
        let Some(models) = models else {
            return usage();
        };
        let http = ServeHttpArgs {
            models,
            addr,
            tokens,
            http_workers,
            max_batch,
            max_wait_us,
            workers,
            seed,
            tenant_quota,
            cache_capacity,
            self_drive,
            metrics_addr,
            linger_ms,
            bench_json,
        };
        return match serve_http(&http) {
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

/// Runs `f` repeatedly for at least ~0.3 s and returns its rate in units
/// of `per_call` outputs per second.
fn rate_of(mut f: impl FnMut(), per_call: usize) -> f64 {
    use std::time::Instant;
    f();
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_secs_f64() < 0.3 {
        f();
        calls += 1;
    }
    calls as f64 * per_call as f64 / start.elapsed().as_secs_f64()
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

struct ServeSimArgs {
    /// Comma-separated built-in network names or `.bn` paths.
    models: String,
    requests: usize,
    max_batch: usize,
    max_wait_us: u64,
    workers: usize,
    seed: u64,
    /// Per-model cap on queued + in-flight lanes (0 = no quota).
    tenant_quota: usize,
    /// Percentage of the trace routed to the `Batch` priority lane.
    batch_share: u64,
    /// Anti-starvation promotion bound of the priority lanes, µs.
    aging_us: u64,
    /// Shrink the coalescing wait of hot streams (EWMA-driven).
    adaptive_wait: bool,
    /// Exact answer-cache capacity in entries (0 = cache off).
    cache_capacity: usize,
    /// Hot-swap the first model halfway through the trace
    /// ([`Server::reload`]): recompiles the same graph, so answers stay
    /// bit-identical while the version bumps and the cut-over runs.
    reload_mid_trace: bool,
    /// Bind the `/metrics` + `/healthz` sidecar here (port 0 = any).
    metrics_addr: Option<String>,
    /// Keep the sidecar and server alive this long after the trace.
    linger_ms: u64,
    /// Write the run's `problp-bench/v1` perf record here.
    bench_json: Option<PathBuf>,
}

/// A tiny deterministic xorshift64* stream — the trace mixer (the CLI
/// binary carries no RNG dependency).
struct TraceRng(u64);

impl TraceRng {
    fn new(seed: u64) -> Self {
        TraceRng(seed.wrapping_mul(2685821657736338717).max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
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

use problp::bench::percentile_us as percentile;

/// Renders an `Option<u128>` microseconds percentile for the latency
/// lines (`-` when the lane is empty).
fn fmt_us(p: Option<u128>) -> String {
    p.map_or_else(|| "-".to_string(), |us| us.to_string())
}

/// The scalar (per-request, tree-walk) answer a served response must
/// reproduce bit for bit, plus its prediction for conditionals.
enum ScalarReply {
    Marginal(f64),
    Mpe(f64),
    Conditional {
        posteriors: Vec<f64>,
        prediction: usize,
    },
    Impossible,
}

/// Replays a mixed-tenant trace through the sharded serving layer
/// (`problp::engine::serve`) under the configured QoS policy, checks
/// every admitted answer bit-identical to per-request evaluation, and
/// reports per-class latency percentiles, quota rejects and the
/// batched-vs-scalar speedup.
fn serve_sim(args: &ServeSimArgs) -> Result<(), Box<dyn std::error::Error>> {
    use problp::engine::{
        CircuitPool, Priority, ServeConfig, ServeError, ServeRequest, ServeResponse, Server,
    };
    use problp::telemetry::{http_get, metric_names, MetricsRegistry, Sidecar};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let mut tenants: Vec<(String, BayesNet, AcGraph)> = Vec::new();
    for (name, net) in load_models(&args.models, args.seed)? {
        let ac = compile(&net)?;
        tenants.push((name, net, ac));
    }
    if tenants.len() < 2 {
        return Err("serve-sim needs at least two models (--models a,b)".into());
    }

    // The seeded mixed-tenant trace: random model, random query kind,
    // random instance from the model's canonical evidence pool.
    let pools: Vec<Vec<Evidence>> = tenants
        .iter()
        .map(|(_, _, ac)| problp::bayes::single_variable_evidences(ac.var_arities()))
        .collect();
    let mut rng = TraceRng::new(args.seed);
    let trace: Vec<(usize, ServeRequest)> = (0..args.requests.max(1))
        .map(|_| {
            let t = rng.below(tenants.len());
            let (name, net, _) = &tenants[t];
            let query = match rng.below(3) {
                0 => BatchQuery::Marginal,
                1 => BatchQuery::Mpe,
                _ => BatchQuery::Conditional {
                    query_var: net.roots().first().copied().unwrap_or(VarId::from_index(0)),
                },
            };
            let evidence = pools[t][rng.below(pools[t].len())].clone();
            let priority = if (rng.below(100) as u64) < args.batch_share {
                Priority::Batch
            } else {
                Priority::Interactive
            };
            (
                t,
                ServeRequest {
                    model: name.clone(),
                    evidence,
                    query,
                    priority,
                },
            )
        })
        .collect();

    println!(
        "serve-sim: {} models, {} requests (seed {})",
        tenants.len(),
        trace.len(),
        args.seed
    );
    for (name, net, _) in &tenants {
        let share = trace.iter().filter(|(_, r)| &r.model == name).count();
        println!(
            "  model {name}: {} variables, {share} requests",
            net.var_count()
        );
    }
    println!(
        "  policy: max_batch {}, max_wait {}us, workers {}, engine threads 1",
        args.max_batch, args.max_wait_us, args.workers
    );
    println!(
        "  qos: tenant_quota {} ({}), batch share {}%, aging {}us, adaptive wait {}",
        args.tenant_quota,
        if args.tenant_quota == 0 { "off" } else { "on" },
        args.batch_share,
        args.aging_us,
        if args.adaptive_wait { "on" } else { "off" }
    );
    println!(
        "  cache: capacity {} ({}), mid-trace reload {}",
        args.cache_capacity,
        if args.cache_capacity == 0 {
            "off"
        } else {
            "on"
        },
        if args.reload_mid_trace { "on" } else { "off" }
    );

    // Scalar replay: every request answered alone by the per-instance
    // tree-walk (the paper's software baseline) — also the bit-identity
    // reference for the pooled answers. Per-request timings let the
    // speedup compare like with like when a quota rejects part of the
    // trace.
    let scalar_start = Instant::now();
    let scalar: Vec<(ScalarReply, Duration)> = trace
        .iter()
        .map(|(t, req)| {
            let req_start = Instant::now();
            let ac = &tenants[*t].2;
            let e = &req.evidence;
            let reply = match req.query {
                BatchQuery::Marginal => Ok(ScalarReply::Marginal(ac.evaluate(e)?)),
                BatchQuery::Mpe => {
                    let (_, value) = ac.mpe_assignment(e)?;
                    Ok(ScalarReply::Mpe(value))
                }
                BatchQuery::Conditional { query_var } => {
                    let den = ac.evaluate(e)?;
                    if den == 0.0 {
                        return Ok((ScalarReply::Impossible, req_start.elapsed()));
                    }
                    let states = ac.var_arities()[query_var.index()];
                    let mut posteriors = Vec::with_capacity(states);
                    let mut prediction = 0usize;
                    let mut best = f64::NEG_INFINITY;
                    for s in 0..states {
                        let mut with_q = e.clone();
                        with_q.observe(query_var, s);
                        let num = ac.evaluate(&with_q)?;
                        posteriors.push(num / den);
                        if num > best {
                            best = num;
                            prediction = s;
                        }
                    }
                    Ok(ScalarReply::Conditional {
                        posteriors,
                        prediction,
                    })
                }
            };
            reply.map(|r| (r, req_start.elapsed()))
        })
        .collect::<Result<_, problp::ac::AcError>>()?;
    let scalar_total = scalar_start.elapsed();

    // Pooled serving: admission queue + dispatcher shards over the
    // multi-model CircuitPool.
    let mut pool = CircuitPool::new(F64Arith::new());
    for (name, _, ac) in &tenants {
        pool.register(name, ac)?;
    }
    let registry = Arc::new(MetricsRegistry::new());
    let server = Server::start_instrumented(
        pool,
        ServeConfig {
            max_batch: args.max_batch.max(1),
            max_wait: Duration::from_micros(args.max_wait_us),
            workers: args.workers.max(1),
            tenant_quota: args.tenant_quota,
            priority_aging: Duration::from_micros(args.aging_us),
            adaptive_wait: args.adaptive_wait,
            cache_capacity: args.cache_capacity,
        },
        Arc::clone(&registry),
    );
    // The observability sidecar scrapes the same registry the server
    // writes to; port 0 picks a free port, printed for external
    // scrapers (and the CI smoke test).
    let sidecar = match &args.metrics_addr {
        Some(addr) => {
            let s = Sidecar::start(addr, Arc::clone(&registry), server.health_fn())
                .map_err(|e| format!("cannot bind metrics sidecar on {addr}: {e}"))?;
            println!("  metrics sidecar: http://{}/metrics", s.local_addr());
            Some(s)
        }
        None => None,
    };
    let served_start = Instant::now();
    // With --reload-mid-trace, the first model is hot-swapped while the
    // first half of the trace is still in flight: admissions after this
    // point run on tape version 2 (recompiled from the same graph, so
    // every bit-identity check below still holds), in-flight work stays
    // pinned to version 1, and nothing is drained for the cut-over.
    let reload_at = if args.reload_mid_trace {
        Some(trace.len() / 2)
    } else {
        None
    };
    let mut submitted = Vec::with_capacity(trace.len());
    for (i, (_, req)) in trace.iter().enumerate() {
        if Some(i) == reload_at {
            let (name, _, ac) = &tenants[0];
            let version = server.reload(name, ac)?;
            println!("  mid-trace reload: model {name} cut over to version {version}");
        }
        submitted.push((Instant::now(), server.submit(req.clone())));
    }
    // Self-check while the trace is in flight: the sidecar must report
    // healthy (workers alive, not shut down) mid-run.
    if let Some(s) = &sidecar {
        let (status, body) = http_get(&s.local_addr(), "/healthz")
            .map_err(|e| format!("mid-trace /healthz scrape failed: {e}"))?;
        if status != 200 {
            return Err(format!("mid-trace /healthz returned {status}: {}", body.trim()).into());
        }
        println!("  mid-trace /healthz: {status} ok");
    }
    let mut quota_rejects = 0usize;
    let sojourn =
        problp::telemetry::Histogram::new(problp::telemetry::default_latency_buckets_us());
    let mut latencies_us: Vec<(Priority, u128)> = Vec::with_capacity(submitted.len());
    // One slot per trace entry: `None` marks a quota-rejected request
    // (a policy outcome, excluded from the bit-identity denominator).
    let mut served: Vec<Option<problp::engine::LaneResult<f64>>> =
        Vec::with_capacity(submitted.len());
    // One shared drain budget: a wedged dispatcher fails the sim in
    // ~30s total, not 30s per ticket.
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    for ((enqueued, ticket), (_, req)) in submitted.into_iter().zip(&trace) {
        // Latency is submit → dispatcher completion (the timestamp the
        // ticket carries), not submit → whenever this drain loop gets
        // around to the ticket. The deadline means a wedged dispatcher
        // fails the sim instead of hanging it.
        match ticket {
            Ok(t) => {
                let (reply, completed) =
                    t.wait_deadline_timed(drain_deadline.saturating_duration_since(Instant::now()));
                let waited = completed.saturating_duration_since(enqueued);
                sojourn.observe_duration(waited);
                latencies_us.push((req.priority, waited.as_micros()));
                served.push(Some(reply));
            }
            Err(ServeError::QuotaExceeded { .. }) => {
                quota_rejects += 1;
                served.push(None);
            }
            Err(e) => return Err(format!("admission failed: {e}").into()),
        }
    }
    let served_total = served_start.elapsed();

    // Bit-identity: the coalesced answer must reproduce the scalar reply
    // exactly — value bits, posterior bits, predictions — and the typed
    // impossible-evidence lanes must line up.
    let mut mismatches = 0usize;
    for (i, ((t, req), (outcome, (want, _)))) in
        trace.iter().zip(served.iter().zip(&scalar)).enumerate()
    {
        let Some(reply) = outcome else {
            continue; // quota-rejected at admission, counted above
        };
        let ac = &tenants[*t].2;
        let ok = match (reply, want) {
            (Ok(ServeResponse::Marginal { value, .. }), ScalarReply::Marginal(w)) => {
                value.to_bits() == w.to_bits()
            }
            (
                Ok(ServeResponse::Mpe {
                    value, assignment, ..
                }),
                ScalarReply::Mpe(w),
            ) => {
                // The decoded assignment must achieve the max-product
                // value exactly (ties may pick a different argmax than
                // the scalar decoder, but never a different value) and
                // respect the request's evidence.
                value.to_bits() == w.to_bits()
                    && assignment.len() == req.evidence.len()
                    && ac
                        .evaluate(&Evidence::from_assignment(assignment))
                        .is_ok_and(|joint| joint.to_bits() == w.to_bits())
                    && req
                        .evidence
                        .iter()
                        .all(|(var, s)| assignment[var.index()] == s)
            }
            (
                Ok(ServeResponse::Conditional {
                    posteriors,
                    prediction,
                    ..
                }),
                ScalarReply::Conditional {
                    posteriors: wp,
                    prediction: wpred,
                },
            ) => {
                prediction == wpred
                    && posteriors.len() == wp.len()
                    && posteriors
                        .iter()
                        .zip(wp)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            (Err(problp::engine::ServeError::ImpossibleEvidence), ScalarReply::Impossible) => true,
            _ => false,
        };
        // The pooled answer must also match the same request served
        // alone through the pool (coalescing-independence; flags are
        // batch-scope, so the payload comparison is the right one).
        let alone = server.pool().serve_one(req);
        if !ok || !problp::engine::lane_answer_eq(&alone, reply) {
            mismatches += 1;
            if mismatches <= 3 {
                eprintln!("mismatch at request {i}: {req:?}");
            }
        }
    }
    // The server's own counters must agree with the CLI's bookkeeping:
    // the stats snapshot is the authoritative record (the sidecar and
    // tests read the same atomics), the local counts are the check.
    let stats = server.stats();
    if stats.requests != trace.len() as u64 {
        return Err(format!(
            "server counted {} requests, the trace submitted {}",
            stats.requests,
            trace.len()
        )
        .into());
    }
    if stats.rejected_quota != quota_rejects as u64 {
        return Err(format!(
            "server counted {} quota rejects, admission returned {quota_rejects}",
            stats.rejected_quota
        )
        .into());
    }
    // Cache accounting: with the cache on, every well-formed submission
    // either hit or missed (hits bypass the quota; quota rejects still
    // count a miss first), so the two counters partition the trace.
    let expected_lookups = if args.cache_capacity > 0 {
        trace.len() as u64
    } else {
        0
    };
    if stats.cache_hits + stats.cache_misses != expected_lookups {
        return Err(format!(
            "cache books off: {} hits + {} misses != {expected_lookups} lookups",
            stats.cache_hits, stats.cache_misses
        )
        .into());
    }

    let admitted = trace.len() - quota_rejects;
    println!(
        "\n  verification: {}/{} admitted answers bit-identical to per-request evaluation",
        admitted - mismatches,
        admitted
    );
    if args.tenant_quota > 0 {
        println!(
            "  quota rejects: {quota_rejects}/{} (tenant_quota {})",
            trace.len(),
            args.tenant_quota
        );
    }
    println!(
        "  server stats: {} admitted, {} dispatches, queue-depth high water {}, {} workers live",
        stats.admitted, stats.dispatches, stats.queue_depth_high_water, stats.live_workers
    );
    // Overall sojourn percentiles, then per priority class when the
    // trace actually mixes classes.
    let mut all: Vec<u128> = latencies_us.iter().map(|(_, us)| *us).collect();
    all.sort_unstable();
    println!(
        "  latency (sojourn): p50 {}us  p90 {}us  p99 {}us  max {}us",
        fmt_us(percentile(&all, 50.0)),
        fmt_us(percentile(&all, 90.0)),
        fmt_us(percentile(&all, 99.0)),
        all.last().copied().unwrap_or(0)
    );
    for class in [Priority::Interactive, Priority::Batch] {
        let mut lane: Vec<u128> = latencies_us
            .iter()
            .filter(|(p, _)| *p == class)
            .map(|(_, us)| *us)
            .collect();
        if lane.is_empty() || lane.len() == all.len() {
            continue; // single-class trace: the overall line covers it
        }
        lane.sort_unstable();
        println!(
            "  latency ({class}): p50 {}us  p90 {}us  p99 {}us  max {}us  ({} requests)",
            fmt_us(percentile(&lane, 50.0)),
            fmt_us(percentile(&lane, 90.0)),
            fmt_us(percentile(&lane, 99.0)),
            lane.last().copied().unwrap_or(0),
            lane.len()
        );
    }
    let n = trace.len() as f64;
    println!(
        "  scalar replay:   {:>9.2} ms total  ({:>10.0} req/s)",
        scalar_total.as_secs_f64() * 1e3,
        n / scalar_total.as_secs_f64()
    );
    println!(
        "  pooled serving:  {:>9.2} ms total  ({:>10.0} req/s over {admitted} admitted)",
        served_total.as_secs_f64() * 1e3,
        admitted as f64 / served_total.as_secs_f64()
    );
    // Like for like: the scalar side of the speedup only counts the
    // requests the pooled side actually served (quota rejects are
    // work the scalar baseline would also not have done).
    let scalar_admitted: Duration = served
        .iter()
        .zip(&scalar)
        .filter(|(outcome, _)| outcome.is_some())
        .map(|(_, (_, d))| *d)
        .sum();
    println!(
        "  speedup: {:.2}x{}",
        scalar_admitted.as_secs_f64() / served_total.as_secs_f64(),
        if quota_rejects > 0 {
            " (over the admitted requests)"
        } else {
            ""
        }
    );
    if mismatches > 0 {
        return Err(format!("{mismatches} served answers diverged from scalar replay").into());
    }
    if quota_rejects > 0 && args.tenant_quota == 0 {
        return Err("quota rejects without a configured quota".into());
    }

    // Cache study: resubmit a slice of already-served requests. Every
    // replay must come back bit-identical to the first pass, and with a
    // cache big enough that nothing was evicted, every one must be a
    // hit. After a mid-trace reload only post-reload requests replay —
    // the swap invalidated the old version's entries by design.
    let mut replay_submissions = 0usize;
    if args.cache_capacity > 0 {
        let before = server.stats();
        let replay: Vec<usize> = served
            .iter()
            .enumerate()
            .filter(|(i, outcome)| outcome.is_some() && reload_at.is_none_or(|at| *i >= at))
            .map(|(i, _)| i)
            .collect();
        let replay = &replay[replay.len().saturating_sub(32)..];
        replay_submissions = replay.len();
        let replay_deadline = Instant::now() + Duration::from_secs(30);
        let mut replayed = 0usize;
        for &i in replay {
            let req = &trace[i].1;
            let ticket = match server.submit(req.clone()) {
                Ok(t) => t,
                // A miss (small cache) can still bounce off the quota;
                // that is the quota doing its job, not a cache bug.
                Err(ServeError::QuotaExceeded { .. }) => continue,
                Err(e) => return Err(format!("replay admission failed: {e}").into()),
            };
            let reply =
                ticket.wait_deadline(replay_deadline.saturating_duration_since(Instant::now()));
            replayed += 1;
            let first = served[i].as_ref().expect("replay set is served");
            if !problp::engine::lane_answer_eq(first, &reply) {
                return Err(format!("cache replay diverged at request {i}").into());
            }
        }
        let after = server.stats();
        let hits = after.cache_hits - before.cache_hits;
        println!(
            "  cache replay: {replayed} resubmissions, {hits} hits \
             ({} hits / {} misses / {} evictions overall)",
            after.cache_hits, after.cache_misses, after.cache_evictions
        );
        if args.cache_capacity >= admitted && hits != replayed as u64 {
            return Err(format!(
                "expected all {replayed} replays to hit an unevicted cache, got {hits}"
            )
            .into());
        }
    }
    let stats = server.stats();
    let versions: Vec<String> = stats
        .model_versions
        .iter()
        .map(|(m, v)| format!("{m}=v{v}"))
        .collect();
    println!("  model versions: {}", versions.join("  "));
    if args.reload_mid_trace {
        let (name0, _, _) = &tenants[0];
        let v0 = stats
            .model_versions
            .iter()
            .find(|(m, _)| m == name0)
            .map(|(_, v)| *v);
        if v0 != Some(2) {
            return Err(format!(
                "model {name0} should be at version 2 after the reload, stats say {v0:?}"
            )
            .into());
        }
    }

    // Final self-scrape: the Prometheus rendering must carry the series
    // the run produced — the request counter at the trace size, the
    // queue-depth gauge and the typed reject counters.
    if let Some(s) = &sidecar {
        let (status, body) = http_get(&s.local_addr(), "/metrics")
            .map_err(|e| format!("/metrics scrape failed: {e}"))?;
        if status != 200 {
            return Err(format!("/metrics returned {status}").into());
        }
        let want_counter = format!(
            "{} {}",
            metric_names::SERVE_REQUESTS_TOTAL,
            trace.len() + replay_submissions
        );
        let want_hits = format!(
            "{} {}",
            metric_names::SERVE_CACHE_HITS_TOTAL,
            stats.cache_hits
        );
        for needle in [
            want_counter.as_str(),
            want_hits.as_str(),
            metric_names::SERVE_CACHE_MISSES_TOTAL,
            metric_names::POOL_MODEL_VERSION,
            metric_names::SERVE_QUEUE_DEPTH,
            metric_names::SERVE_REJECTED_TOTAL,
            metric_names::SERVE_SOJOURN_US,
        ] {
            if !body.contains(needle) {
                return Err(format!("/metrics scrape is missing {needle:?}").into());
            }
        }
        println!(
            "  /metrics self-check: {} bytes, all expected series present",
            body.len()
        );
    }

    // The machine-readable perf record (`reproduce check-bench` format).
    if let Some(path) = &args.bench_json {
        let record = problp::bench::BenchRecord {
            scenario: "serve_sim".to_string(),
            requests: trace.len() as u64,
            throughput_rps: admitted as f64 / served_total.as_secs_f64(),
            latency: Some(sojourn.snapshot()),
            rejects: quota_rejects as u64,
            extra: vec![
                (
                    "models".to_string(),
                    problp::telemetry::JsonValue::from(tenants.len()),
                ),
                (
                    "workers".to_string(),
                    problp::telemetry::JsonValue::from(args.workers.max(1)),
                ),
                (
                    "identical".to_string(),
                    problp::telemetry::JsonValue::from(admitted - mismatches),
                ),
                (
                    "scalar_secs".to_string(),
                    problp::telemetry::JsonValue::from(scalar_total.as_secs_f64()),
                ),
                (
                    "served_secs".to_string(),
                    problp::telemetry::JsonValue::from(served_total.as_secs_f64()),
                ),
            ],
        };
        let text = record.to_json().render_pretty();
        problp::bench::validate_bench_json(&text)
            .map_err(|e| format!("emitted bench record is invalid: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("  wrote {}", path.display());
    }

    // Keep the sidecar (and the healthy server behind it) up for
    // external scrapers before tearing down.
    if args.linger_ms > 0 {
        std::thread::sleep(Duration::from_millis(args.linger_ms));
    }
    server.shutdown();
    drop(sidecar);
    Ok(())
}

struct ServeHttpArgs {
    /// Comma-separated built-in network names or `.bn` paths.
    models: String,
    /// Gateway bind address (`host:port`; port 0 = OS-assigned).
    addr: String,
    /// `TOK=MODEL` pairs; `None` mints `token-<model>` per model.
    tokens: Option<String>,
    /// Gateway connection-handling worker threads.
    http_workers: usize,
    max_batch: usize,
    max_wait_us: u64,
    workers: usize,
    seed: u64,
    tenant_quota: usize,
    cache_capacity: usize,
    /// `Some(n)`: replay an `n`-request seeded trace through real
    /// sockets, self-check and exit. `None`: serve until killed.
    self_drive: Option<usize>,
    metrics_addr: Option<String>,
    /// Self-drive / bounded-serve linger before exiting.
    linger_ms: u64,
    /// Write the run's `problp-bench/v1` perf record here.
    bench_json: Option<PathBuf>,
}

/// Renders a [`problp::engine::ServeRequest`] as the gateway's POST
/// body. The model never appears — it is carried by the bearer token.
fn gateway_body(req: &problp::engine::ServeRequest) -> String {
    let lanes: Vec<String> = (0..req.evidence.len())
        .map(|i| match req.evidence.state(VarId::from_index(i)) {
            Some(s) => s.to_string(),
            None => "null".to_string(),
        })
        .collect();
    let priority = match req.priority {
        problp::engine::Priority::Interactive => "interactive",
        problp::engine::Priority::Batch => "batch",
    };
    match req.query {
        BatchQuery::Marginal => format!(
            r#"{{"query": "marginal", "evidence": [{}], "priority": "{priority}"}}"#,
            lanes.join(", ")
        ),
        BatchQuery::Mpe => format!(
            r#"{{"query": "mpe", "evidence": [{}], "priority": "{priority}"}}"#,
            lanes.join(", ")
        ),
        BatchQuery::Conditional { query_var } => format!(
            r#"{{"query": "conditional", "query_var": {}, "evidence": [{}], "priority": "{priority}"}}"#,
            query_var.index(),
            lanes.join(", ")
        ),
    }
}

/// Whether a parsed 200 body reproduces the uncached `serve_one`
/// reference bit for bit (values, posteriors, assignments,
/// predictions — flags are batch-scope and excluded by design).
fn gateway_reply_matches(
    doc: &problp::telemetry::JsonValue,
    want: &problp::engine::ServeResponse<f64>,
) -> bool {
    use problp::engine::ServeResponse;
    use problp::telemetry::JsonValue;
    let f64_field = |name: &str| doc.get(name).and_then(JsonValue::as_f64);
    let usize_array = |name: &str| -> Option<Vec<usize>> {
        doc.get(name)?
            .as_array()?
            .iter()
            .map(|v| v.as_f64().map(|f| f as usize))
            .collect()
    };
    match want {
        ServeResponse::Marginal { value, .. } => {
            f64_field("value").is_some_and(|got| got.to_bits() == value.to_bits())
        }
        ServeResponse::Mpe {
            assignment, value, ..
        } => {
            f64_field("value").is_some_and(|got| got.to_bits() == value.to_bits())
                && usize_array("assignment").is_some_and(|got| &got == assignment)
        }
        ServeResponse::Conditional {
            posteriors,
            prediction,
            ..
        } => {
            let got: Option<Vec<f64>> = doc
                .get("posteriors")
                .and_then(JsonValue::as_array)
                .map(|a| a.iter().filter_map(JsonValue::as_f64).collect());
            got.is_some_and(|got| {
                got.len() == posteriors.len()
                    && got
                        .iter()
                        .zip(posteriors)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }) && f64_field("prediction").is_some_and(|p| p as usize == *prediction)
        }
    }
}

/// Hosts the multi-model pool behind the HTTP query gateway
/// (`problp::gateway`). Without `--self-drive` it serves until killed
/// (or for `--linger-ms`); with it, a seeded mixed-query trace is
/// replayed through real sockets, every admitted answer checked
/// bit-identical to per-request `serve_one` evaluation, the typed
/// error → status mapping probed (401/404/405/400/413/429), and the
/// `problp_gateway_*` series cross-checked against the client's own
/// status counts.
fn serve_http(args: &ServeHttpArgs) -> Result<(), Box<dyn std::error::Error>> {
    use problp::engine::{
        CircuitPool, Gateway, GatewayConfig, Priority, ServeConfig, ServeError, ServeRequest,
        Server,
    };
    use problp::telemetry::{
        http_post, http_request, metric_names, JsonValue, MetricsRegistry, Sidecar,
    };
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let mut tenants: Vec<(String, BayesNet, AcGraph)> = Vec::new();
    for (name, net) in load_models(&args.models, args.seed)? {
        let ac = compile(&net)?;
        tenants.push((name, net, ac));
    }
    if tenants.is_empty() {
        return Err("serve-http needs at least one model (--models a,b)".into());
    }

    // The auth table: explicit TOK=MODEL pairs, or one minted
    // `token-<model>` per hosted model.
    let tokens: Vec<(String, String)> = match &args.tokens {
        Some(spec) => {
            let mut table = Vec::new();
            for entry in spec.split(',').filter(|s| !s.is_empty()) {
                let Some((tok, model)) = entry.trim().split_once('=') else {
                    return Err(format!("--tokens entry {entry:?} is not TOK=MODEL").into());
                };
                if !tenants.iter().any(|(n, _, _)| n == model) {
                    return Err(format!("--tokens names unhosted model {model:?}").into());
                }
                table.push((tok.to_string(), model.to_string()));
            }
            table
        }
        None => tenants
            .iter()
            .map(|(n, _, _)| (format!("token-{n}"), n.clone()))
            .collect(),
    };

    let mut pool = CircuitPool::new(F64Arith::new());
    for (name, _, ac) in &tenants {
        pool.register(name, ac)?;
    }
    let registry = Arc::new(MetricsRegistry::new());
    let server = Arc::new(Server::start_instrumented(
        pool,
        ServeConfig {
            max_batch: args.max_batch.max(1),
            max_wait: Duration::from_micros(args.max_wait_us),
            workers: args.workers.max(1),
            tenant_quota: args.tenant_quota,
            cache_capacity: args.cache_capacity,
            ..ServeConfig::default()
        },
        Arc::clone(&registry),
    ));
    let mut gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            addr: args.addr.clone(),
            tokens: tokens.clone(),
            http_workers: args.http_workers.max(1),
            ..GatewayConfig::default()
        },
    )
    .map_err(|e| format!("cannot bind gateway on {}: {e}", args.addr))?;
    let addr = gateway.local_addr();
    println!(
        "serve-http: {} models behind POST http://{addr}/v1/query",
        tenants.len()
    );
    for (tok, model) in &tokens {
        println!("  token {tok} -> model {model}");
    }
    let sidecar = match &args.metrics_addr {
        Some(maddr) => {
            let s = Sidecar::start(maddr, Arc::clone(&registry), server.health_fn())
                .map_err(|e| format!("cannot bind metrics sidecar on {maddr}: {e}"))?;
            println!("  metrics sidecar: http://{}/metrics", s.local_addr());
            Some(s)
        }
        None => None,
    };

    let Some(drive) = args.self_drive else {
        // Plain serving mode: stay up until killed, or for a bounded
        // window when --linger-ms is given (the CI smoke uses this).
        if args.linger_ms > 0 {
            std::thread::sleep(Duration::from_millis(args.linger_ms));
            gateway.shutdown();
            drop(server); // the Arc's last drop joins the serve workers
            drop(sidecar);
            return Ok(());
        }
        loop {
            std::thread::sleep(Duration::from_secs(1));
        }
    };

    // --- Self-drive: a seeded mixed trace over real sockets. ---
    let pools: Vec<Vec<Evidence>> = tenants
        .iter()
        .map(|(_, _, ac)| problp::bayes::single_variable_evidences(ac.var_arities()))
        .collect();
    let mut rng = TraceRng::new(args.seed);
    let trace: Vec<(usize, ServeRequest)> = (0..drive.max(1))
        .map(|_| {
            let t = rng.below(tenants.len());
            let (name, net, _) = &tenants[t];
            let query = match rng.below(3) {
                0 => BatchQuery::Marginal,
                1 => BatchQuery::Mpe,
                _ => BatchQuery::Conditional {
                    query_var: net.roots().first().copied().unwrap_or(VarId::from_index(0)),
                },
            };
            let evidence = pools[t][rng.below(pools[t].len())].clone();
            let priority = if rng.below(4) == 0 {
                Priority::Batch
            } else {
                Priority::Interactive
            };
            (
                t,
                ServeRequest {
                    model: name.clone(),
                    evidence,
                    query,
                    priority,
                },
            )
        })
        .collect();
    println!(
        "  self-drive: {} requests (seed {})",
        trace.len(),
        args.seed
    );

    let token_for = |model: &str| -> Result<&str, String> {
        tokens
            .iter()
            .find(|(_, m)| m == model)
            .map(|(t, _)| t.as_str())
            .ok_or_else(|| format!("no token grants model {model:?}"))
    };
    let bearer = |tok: &str| [("Authorization", format!("Bearer {tok}"))];
    // The client's own status ledger: the run's last self-check holds
    // the gateway's counters to exactly these numbers.
    let mut statuses: Vec<(u16, u64)> = Vec::new();
    let mut count = |code: u16| match statuses.iter_mut().find(|(c, _)| *c == code) {
        Some((_, n)) => *n += 1,
        None => statuses.push((code, 1)),
    };
    let latency =
        problp::telemetry::Histogram::new(problp::telemetry::default_latency_buckets_us());
    let mut latencies_us: Vec<u128> = Vec::with_capacity(trace.len());
    let mut identical = 0usize;
    let mut mismatches = 0usize;
    let mut impossible = 0usize;
    let drive_start = Instant::now();
    for (i, (_, req)) in trace.iter().enumerate() {
        let body = gateway_body(req);
        let tok = token_for(&req.model)?;
        let sent = Instant::now();
        let (code, _headers, text) = http_post(&addr, "/v1/query", &bearer(tok), &body)
            .map_err(|e| format!("request {i} failed: {e}"))?;
        let waited = sent.elapsed();
        latency.observe_duration(waited);
        latencies_us.push(waited.as_micros());
        count(code);
        // The uncached per-request reference the socket answer must
        // reproduce bit for bit.
        let reference = server.pool().serve_one(req);
        let ok = match (code, &reference) {
            (200, Ok(want)) => JsonValue::parse(&text)
                .ok()
                .is_some_and(|doc| gateway_reply_matches(&doc, want)),
            (422, Err(ServeError::ImpossibleEvidence)) => {
                impossible += 1;
                text.contains("\"impossible_evidence\"")
            }
            _ => false,
        };
        if ok {
            identical += 1;
        } else {
            mismatches += 1;
            if mismatches <= 3 {
                eprintln!("mismatch at request {i}: HTTP {code} {text} vs {reference:?}");
            }
        }
    }
    let drive_total = drive_start.elapsed();
    println!(
        "  verification: {identical}/{} socket answers bit-identical to serve_one \
         ({impossible} typed impossible-evidence)",
        trace.len()
    );

    // Typed-error probes: each must surface as its mapped status with
    // the stable error slug in a JSON body.
    let (ref_model, _, _) = &tenants[0];
    let ref_token = token_for(ref_model)?.to_string();
    let good = gateway_body(&ServeRequest {
        model: ref_model.clone(),
        evidence: Evidence::empty(tenants[0].2.var_arities().len()),
        query: BatchQuery::Marginal,
        priority: Priority::Interactive,
    });
    let bad_shape = r#"{"query": "marginal", "evidence": [null]}"#;
    let oversized = format!(
        r#"{{"query": "marginal", "evidence": [{}null]}}"#,
        "null, ".repeat(20_000)
    );
    let probes: Vec<(&str, u16, &str, problp::telemetry::HttpResponse)> = vec![
        (
            "missing auth",
            401,
            "unauthorized",
            http_post(&addr, "/v1/query", &[], &good)?,
        ),
        (
            "unknown token",
            401,
            "unauthorized",
            http_post(&addr, "/v1/query", &bearer("definitely-wrong"), &good)?,
        ),
        (
            "unknown path",
            404,
            "not_found",
            http_post(&addr, "/v2/query", &bearer(&ref_token), &good)?,
        ),
        (
            "bad method",
            405,
            "method_not_allowed",
            http_request(&addr, "GET", "/v1/query", &bearer(&ref_token), &[])?,
        ),
        (
            "bad json",
            400,
            "bad_json",
            http_post(&addr, "/v1/query", &bearer(&ref_token), "{nope")?,
        ),
        (
            "bad shape",
            400,
            "bad_shape",
            http_post(&addr, "/v1/query", &bearer(&ref_token), bad_shape)?,
        ),
        (
            "oversized body",
            413,
            "body_too_large",
            http_post(&addr, "/v1/query", &bearer(&ref_token), &oversized)?,
        ),
    ];
    let mut parse_rejects = 0u64;
    for (what, want_code, want_slug, (code, _headers, text)) in probes {
        count(code);
        if code == 413 {
            parse_rejects += 1; // rejected before the body counters
        }
        if code != want_code || !text.contains(&format!("\"{want_slug}\"")) {
            return Err(format!(
                "{what} probe: expected {want_code} {want_slug}, got {code}: {}",
                text.trim()
            )
            .into());
        }
        println!("  probe {what}: {code} {want_slug}");
    }

    // Deterministic quota probe on a dedicated single-worker instance:
    // a long coalescing window holds two requests in flight, so the
    // third must bounce off tenant_quota=2 as a 429 with Retry-After.
    {
        let mut qpool = CircuitPool::new(F64Arith::new());
        qpool.register(ref_model, &tenants[0].2)?;
        // The coalescing wait must outlast the 600ms fill window below
        // (so both fillers are still occupying the quota when the probe
        // lands) but stay well under the HTTP client's 2s read timeout,
        // or the fillers time out waiting for their own answers.
        let qserver = Arc::new(Server::start(
            qpool,
            ServeConfig {
                max_batch: 1024,
                max_wait: Duration::from_millis(1200),
                workers: 1,
                tenant_quota: 2,
                ..ServeConfig::default()
            },
        ));
        let mut qgateway = Gateway::start(
            Arc::clone(&qserver),
            GatewayConfig {
                tokens: vec![("quota-probe".to_string(), ref_model.clone())],
                ..GatewayConfig::default()
            },
        )?;
        let qaddr = qgateway.local_addr();
        let fill_body = good.clone();
        let fillers: Vec<_> = (0..2)
            .map(|_| {
                let body = fill_body.clone();
                std::thread::spawn(move || {
                    http_post(
                        &qaddr,
                        "/v1/query",
                        &[("Authorization", "Bearer quota-probe".to_string())],
                        &body,
                    )
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(600));
        let (code, headers, text) = http_post(
            &qaddr,
            "/v1/query",
            &[("Authorization", "Bearer quota-probe".to_string())],
            &good,
        )?;
        if code != 429 || !text.contains("\"quota_exceeded\"") {
            return Err(format!("quota probe: expected 429, got {code}: {}", text.trim()).into());
        }
        let retry_after = headers
            .iter()
            .find(|(n, _)| n == "retry-after")
            .map(|(_, v)| v.clone());
        if retry_after.is_none() {
            return Err("quota probe: 429 without a Retry-After header".into());
        }
        for filler in fillers {
            let (code, _h, text) = filler
                .join()
                .map_err(|_| "quota filler thread panicked")?
                .map_err(|e| format!("quota filler failed: {e}"))?;
            if code != 200 {
                return Err(format!("quota filler got {code}: {}", text.trim()).into());
            }
        }
        let scrape = qserver.metrics().render_prometheus();
        let needle = format!(
            "{}{{status=\"429\"}} 1",
            metric_names::GATEWAY_REQUESTS_TOTAL
        );
        if !scrape.contains(&needle) {
            return Err(format!("quota instance scrape is missing {needle:?}").into());
        }
        println!(
            "  probe quota: 429 quota_exceeded (Retry-After {})",
            retry_after.unwrap_or_default()
        );
        qgateway.shutdown();
        drop(qserver); // last Arc: Drop joins the quota instance
    }

    // Metrics self-check: the gateway's own counters must agree with
    // the client-side status ledger, and every request that got past
    // HTTP parsing must appear in the body/latency histograms.
    let scrape = registry.render_prometheus();
    for (code, n) in &statuses {
        let needle = format!(
            "{}{{status=\"{code}\"}} {n}",
            metric_names::GATEWAY_REQUESTS_TOTAL
        );
        if !scrape.contains(&needle) {
            return Err(format!("gateway scrape is missing {needle:?}").into());
        }
    }
    let total: u64 = statuses.iter().map(|(_, n)| *n).sum();
    let parsed = total - parse_rejects;
    for histogram in [
        metric_names::GATEWAY_BODY_BYTES,
        metric_names::GATEWAY_HANDLER_US,
    ] {
        let needle = format!("{histogram}_count {parsed}");
        if !scrape.contains(&needle) {
            return Err(format!("gateway scrape is missing {needle:?}").into());
        }
    }
    println!(
        "  metrics self-check: {total} requests across {} statuses",
        statuses.len()
    );

    let mut all = latencies_us.clone();
    all.sort_unstable();
    println!(
        "  latency (round-trip): p50 {}us  p90 {}us  p99 {}us  max {}us",
        fmt_us(percentile(&all, 50.0)),
        fmt_us(percentile(&all, 90.0)),
        fmt_us(percentile(&all, 99.0)),
        all.last().copied().unwrap_or(0)
    );
    println!(
        "  trace: {:>9.2} ms total  ({:>10.0} req/s over sockets)",
        drive_total.as_secs_f64() * 1e3,
        trace.len() as f64 / drive_total.as_secs_f64()
    );
    if mismatches > 0 {
        return Err(format!("{mismatches} socket answers diverged from serve_one").into());
    }

    if let Some(path) = &args.bench_json {
        let statuses_json = JsonValue::Object(
            statuses
                .iter()
                .map(|(c, n)| (c.to_string(), JsonValue::from(*n as usize)))
                .collect(),
        );
        let rejects: u64 = statuses
            .iter()
            .filter(|(c, _)| *c != 200)
            .map(|(_, n)| *n)
            .sum();
        let record = problp::bench::BenchRecord {
            scenario: "gateway".to_string(),
            requests: trace.len() as u64,
            throughput_rps: trace.len() as f64 / drive_total.as_secs_f64(),
            latency: Some(latency.snapshot()),
            rejects,
            extra: vec![
                ("models".to_string(), JsonValue::from(tenants.len())),
                (
                    "http_workers".to_string(),
                    JsonValue::from(args.http_workers.max(1)),
                ),
                ("identical".to_string(), JsonValue::from(identical)),
                ("statuses".to_string(), statuses_json),
            ],
        };
        let text = record.to_json().render_pretty();
        problp::bench::validate_bench_json(&text)
            .map_err(|e| format!("emitted bench record is invalid: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("  wrote {}", path.display());
    }

    if args.linger_ms > 0 {
        std::thread::sleep(Duration::from_millis(args.linger_ms));
    }
    gateway.shutdown();
    drop(server); // the Arc's last drop joins the serve workers
    drop(sidecar);
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
