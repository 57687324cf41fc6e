//! The ProbLP serving benchmark: three workloads on the paper's sensing
//! benchmarks, each printing its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `alarm-fixed-saturate` (closed loop, fixed-point Alarm
//! marginals, cache off), `sensor-open-cached` (open loop, UniMiB and
//! UIWADS classifiers behind the answer cache) and `gateway-serial`
//! (one HTTP client through the query gateway). `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the same window with spans
//! recorded and prints the per-layer metrics, writing the spans to
//! `perfbench/out/`. Every answer is checked bit for bit against
//! `CircuitPool::serve_one`, and the load generator's counts against the
//! server's. See `README.md` for the metric definitions.

mod alarm;
mod common;
mod gateway;
mod hist;
mod inproc;
mod inputs;
mod layers;
mod sensor;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use common::{Args, Outcome, END_TO_END, PER_LAYER};
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <alarm-fixed-saturate|sensor-open-cached|gateway-serial> \
     --seed <n> --seconds <1..=120> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=120).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=120"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other} is neither 0 nor 1")),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ran = match args.workload.as_str() {
        "alarm-fixed-saturate" => alarm::run(&args),
        "sensor-open-cached" => sensor::run(&args),
        "gateway-serial" => gateway::run(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let (mut outcome, tracer) = match ran {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if args.trace {
        if let Err(e) = finish_trace(&args, &tracer, &mut outcome) {
            eprintln!("perfbench: writing spans: {e}");
            std::process::exit(1);
        }
    }
    print_outcome(&args, &outcome);
}

/// Writes the spans out and adds the trace's own figures: how many
/// spans were kept and what recording one costs.
fn finish_trace(args: &Args, tracer: &Tracer, outcome: &mut Outcome) -> std::io::Result<()> {
    let path = PathBuf::from("perfbench/out")
        .join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
    tracer.write_tsv(&path)?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.len(),
        path.display()
    );
    outcome.metrics.insert("trace.spans", tracer.len() as f64);
    outcome.metrics.insert("trace.record_ns", record_cost_ns());
    Ok(())
}

/// Nanoseconds to record one span, timed on a scratch tracer.
fn record_cost_ns() -> f64 {
    const N: usize = 200_000;
    let mut samples = Vec::new();
    for _ in 0..5 {
        let mut scratch = Tracer::new(true);
        let now = Instant::now();
        let start = Instant::now();
        for i in 0..N {
            std::hint::black_box(scratch.record("x", i as u32, i as u32, now, now));
        }
        samples.push(start.elapsed().as_nanos() as f64 / N as f64);
    }
    trace::median(&samples)
}

/// Prints every metric by name and unit, then the result as the last
/// line of standard output.
fn print_outcome(args: &Args, outcome: &Outcome) {
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(catalog.len());
    for (name, unit) in catalog {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{:<28} {value:>16.4} {unit}", name);
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
}
