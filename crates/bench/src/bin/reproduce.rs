//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p problp-bench --bin reproduce -- all
//! cargo run --release -p problp-bench --bin reproduce -- table2 --instances 1000
//! cargo run --release -p problp-bench --bin reproduce -- all --write-experiments
//! ```
//!
//! Subcommands: `table1`, `fig5a`, `fig5b`, `table2`, `ablations`,
//! `accuracy`, `missing`, `throughput`, `kernels`, `serving`,
//! `conformance`, `all`, plus `check-bench FILE...` (validate emitted
//! `BENCH_*.json` files). Options: `--instances N` (test instances per
//! benchmark, default 300; the paper uses 1000 for Alarm),
//! `--write-experiments` (rewrite `EXPERIMENTS.md` from the measured
//! results). The `kernels`, `serving`, `conformance` and `verify`
//! sections also write machine-readable perf records into the working
//! directory: `serving` runs the four preset workload scenarios of
//! `problp_bench::workload::Scenario` and writes
//! `BENCH_serving.json`, `BENCH_qos.json`, `BENCH_cache.json` and
//! `BENCH_gateway.json`; the others write `BENCH_kernels.json`,
//! `BENCH_conformance.json` and `BENCH_verify.json`.

use problp_bench::workload::{self, Scenario};
use problp_bench::{
    alarm_fixture, conformance_bench_record, figure5a, figure5b, kernels_bench_record,
    render_conformance_report, render_kernel_study, render_sweep, render_table2, table1, table2,
    validate_bench_json, verify_bench_record, workload_bench_record, BenchRecord, SEED,
};

struct Options {
    command: String,
    instances: usize,
    write_experiments: bool,
    check_files: Vec<String>,
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        command: "all".to_string(),
        instances: 300,
        write_experiments: false,
        check_files: Vec::new(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--instances" => {
                opts.instances = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--instances needs a number"));
            }
            "--write-experiments" => opts.write_experiments = true,
            "check-bench" => {
                opts.command = arg;
                opts.check_files = args.by_ref().collect();
                if opts.check_files.is_empty() {
                    die("check-bench needs at least one BENCH_*.json path");
                }
            }
            "table1" | "fig5a" | "fig5b" | "table2" | "ablations" | "accuracy" | "missing"
            | "throughput" | "kernels" | "serving" | "conformance" | "verify" | "all" => {
                opts.command = arg
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    opts
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: reproduce [table1|fig5a|fig5b|table2|ablations|accuracy|missing|throughput|kernels|serving|conformance|verify|all] [--instances N] [--write-experiments]");
    eprintln!("       reproduce check-bench FILE...");
    std::process::exit(2);
}

/// Validates `BENCH_*.json` files against the `problp-bench/v1` schema;
/// exits non-zero on the first invalid file.
fn check_bench(paths: &[String]) {
    for path in paths {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        match validate_bench_json(&text) {
            Ok(()) => println!("{path}: ok"),
            Err(e) => die(&format!("{path}: {e}")),
        }
    }
}

/// Writes one `BENCH_<scenario>.json` into the working directory.
fn emit_bench(record: &BenchRecord) {
    match record.write_to(std::path::Path::new(".")) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", record.file_name()),
    }
}

/// The sweep grid of Figure 5 (the paper sweeps 8..=40).
const SWEEP_BITS: [u32; 9] = [8, 12, 16, 20, 24, 28, 32, 36, 40];

fn main() {
    let opts = parse_args();
    if opts.command == "check-bench" {
        check_bench(&opts.check_files);
        return;
    }
    let mut sections: Vec<String> = Vec::new();

    if matches!(opts.command.as_str(), "table1" | "all") {
        let t = table1();
        println!("{t}");
        sections.push(format!(
            "## Table 1 — operator energy models\n\n```text\n{t}```\n"
        ));
    }

    let need_alarm = matches!(opts.command.as_str(), "fig5a" | "fig5b" | "all");
    let fixture = need_alarm.then(|| {
        eprintln!(
            "building alarm fixture (seed {SEED}, {} instances)...",
            opts.instances
        );
        alarm_fixture(opts.instances)
    });

    if matches!(opts.command.as_str(), "fig5a" | "all") {
        let fixture = fixture.as_ref().expect("fixture built");
        let points = figure5a(fixture, &SWEEP_BITS);
        let t = render_sweep(
            &format!(
                "Figure 5(a): fixed-point marginal on Alarm, I=1, {} test instances — absolute error",
                fixture.bench.test_len()
            ),
            "max obs.",
            &points,
        );
        println!("{t}");
        sections.push(format!(
            "## Figure 5(a) — fixed-point bound vs observed error\n\n```text\n{t}```\n"
        ));
    }

    if matches!(opts.command.as_str(), "fig5b" | "all") {
        let fixture = fixture.as_ref().expect("fixture built");
        let points = figure5b(fixture, &SWEEP_BITS);
        let t = render_sweep(
            &format!(
                "Figure 5(b): floating-point marginal on Alarm, {} test instances — relative error",
                fixture.bench.test_len()
            ),
            "max obs.",
            &points,
        );
        println!("{t}");
        sections.push(format!(
            "## Figure 5(b) — floating-point bound vs observed error\n\n```text\n{t}```\n"
        ));
    }

    if matches!(opts.command.as_str(), "table2" | "all") {
        eprintln!(
            "running the full framework on all benchmarks ({} instances each)...",
            opts.instances
        );
        let rows = table2(opts.instances);
        let t = render_table2(&rows);
        println!("{t}");
        sections.push(format!(
            "## Table 2 — overall performance\n\n```text\n{t}```\n"
        ));
    }

    if matches!(opts.command.as_str(), "accuracy" | "all") {
        let t = problp_bench::accuracy_report(opts.instances);
        println!("{t}");
        sections.push(format!("## Classification impact\n\n```text\n{t}```\n"));
        let t = problp_bench::accuracy_study_report(&["HAR", "UNIMIB", "UIWADS"], opts.instances);
        println!("{t}");
        sections.push(format!(
            "## Per-precision classifier accuracy (engine-served)\n\n```text\n{t}```\n"
        ));
    }

    if matches!(opts.command.as_str(), "missing" | "all") {
        let t = problp_bench::missing_data_report(opts.instances.min(100), 0.01);
        println!("{t}");
        sections.push(format!("## Missing-data robustness\n\n```text\n{t}```\n"));
    }

    if matches!(opts.command.as_str(), "throughput" | "all") {
        let t = problp_bench::throughput_report(0);
        println!("{t}");
        sections.push(format!(
            "## Engine throughput — batched vs scalar evaluation\n\n```text\n{t}```\n"
        ));
    }

    if matches!(opts.command.as_str(), "kernels" | "all") {
        let study = problp_bench::kernel_study(1024);
        let t = render_kernel_study(&study);
        println!("{t}");
        sections.push(format!(
            "## Evaluator kernels — scalar vs fused tape\n\n```text\n{t}```\n"
        ));
        emit_bench(&kernels_bench_record(&study));
    }

    if matches!(opts.command.as_str(), "serving" | "all") {
        let presets = [
            Scenario::serving(512),
            Scenario::qos(256),
            Scenario::cache(64),
            Scenario::gateway(256),
        ];
        for scenario in presets {
            let report = workload::run(&scenario).unwrap_or_else(|e| {
                eprintln!("error: the {} scenario failed: {e}", scenario.name);
                std::process::exit(1)
            });
            let t = report.render();
            println!("{t}");
            sections.push(format!(
                "## Serving workload — `{}` scenario\n\n```text\n{t}```\n",
                scenario.name
            ));
            emit_bench(&workload_bench_record(&report));
        }
    }

    if matches!(opts.command.as_str(), "conformance" | "all") {
        let study = problp_bench::conformance_study(256, SEED);
        let t = render_conformance_report(&study);
        println!("{t}");
        sections.push(format!(
            "## Differential conformance — engine vs hardware backends\n\n```text\n{t}```\n"
        ));
        emit_bench(&conformance_bench_record(&study));
    }

    if matches!(opts.command.as_str(), "verify" | "all") {
        let study = problp_bench::verify_study();
        let t = problp_bench::render_verify_study(&study);
        println!("{t}");
        sections.push(format!(
            "## Static analysis — tape verifier + range analysis\n\n```text\n{t}```\n"
        ));
        emit_bench(&verify_bench_record(&study));
    }

    if matches!(opts.command.as_str(), "ablations" | "all") {
        let t = problp_bench::ablation_report();
        println!("{t}");
        sections.push(format!(
            "## Ablations — design choices\n\n```text\n{t}```\n"
        ));
    }

    if opts.write_experiments {
        let doc = format!(
            "# EXPERIMENTS — measured reproduction results\n\n\
             Generated by `cargo run --release -p problp-bench --bin reproduce -- {} --instances {}`\n\
             (seed {SEED}). See `DESIGN.md` for the substitutions relative to the paper's setup\n\
             and the bottom of this file for the paper-vs-measured discussion.\n\n{}",
            opts.command,
            opts.instances,
            sections.join("\n")
        );
        std::fs::write("EXPERIMENTS.generated.md", doc).expect("write EXPERIMENTS.generated.md");
        eprintln!("wrote EXPERIMENTS.generated.md");
    }
}
