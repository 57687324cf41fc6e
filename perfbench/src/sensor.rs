//! `sensor-open-cached`: the UniMiB and UIWADS classifiers behind the
//! exact answer cache, driven open-loop at one arrival every 200 µs.
//! Admission, the coalescing wait and both sides of the cache dominate
//! here; the sweep itself uses a small share of one core.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use problp_ac::{compile, AcGraph};
use problp_bayes::{BatchQuery, Evidence, VarId};
use problp_engine::{CircuitPool, LaneResult, Priority, ServeConfig, ServeRequest, Server};
use problp_num::F64Arith;

use crate::common::{median_secs, peak_rss_mb, Args, EndToEnd, Outcome};
use crate::inproc::{serving_layers, Pending, Tally, ANSWER_DEADLINE};
use crate::inputs::{self, Stream, MODEL_SEED, SENSORS};
use crate::layers;
use crate::trace::Tracer;

/// Arrivals per second, evenly spaced.
const RATE_HZ: u64 = 5000;
/// Cache entries: more than the distinct readings a stream repeats
/// from, so the hit share does not drift with run length.
const CACHE_CAPACITY: usize = 4096;
/// Fresh set-ups before the window and again after it; `setup_s` is
/// the median of all of them.
pub const SETUPS: usize = 15;
/// The last stretch before an arrival is spun rather than slept: a
/// sleeping thread wakes up to ~50 µs late (the kernel's timer slack),
/// which would put the timer, not the server, on the hit path.
const SPIN: Duration = Duration::from_micros(100);

/// One served classifier.
pub struct Classifier {
    pub model: &'static str,
    pub var_count: usize,
    pub class_var: VarId,
    pub features: Vec<VarId>,
    pub ac: AcGraph,
}

impl Classifier {
    /// The classifier query: every feature observed.
    pub fn evidence(&self, reading: &[usize]) -> Evidence {
        inputs::evidence(self.var_count, &self.features, reading)
    }

    pub fn conditional(&self) -> BatchQuery {
        BatchQuery::Conditional {
            query_var: self.class_var,
        }
    }

    /// The classifier request for one reading.
    pub fn request(&self, reading: &[usize]) -> ServeRequest {
        ServeRequest {
            model: self.model.to_string(),
            evidence: self.evidence(reading),
            query: self.conditional(),
            priority: Priority::Interactive,
        }
    }
}

/// Timed stages of one set-up, for the span log.
pub type Stages = Vec<(&'static str, Instant, Instant)>;

/// Classifier construction, compile, register and start, with the
/// workload's deliberate settings: one dispatcher worker and
/// `cache_capacity` cache entries; every other knob at its default.
pub fn start_server(
    cache_capacity: usize,
) -> Result<(Server<F64Arith>, Vec<Classifier>, Stages), String> {
    let mut stages = Stages::new();
    let t0 = Instant::now();
    let benches: Vec<_> = SENSORS.iter().map(|s| (s.build)(MODEL_SEED)).collect();
    let t1 = Instant::now();
    stages.push(("classifier.build", t0, t1));
    let mut classifiers = Vec::with_capacity(benches.len());
    for (sensor, bench) in SENSORS.iter().zip(benches) {
        classifiers.push(Classifier {
            model: sensor.model,
            var_count: bench.net.var_count(),
            class_var: bench.query_var,
            features: bench.evidence_vars,
            ac: compile(&bench.net).map_err(|e| e.to_string())?,
        });
    }
    let t2 = Instant::now();
    stages.push(("ac.compile", t1, t2));
    let mut pool = CircuitPool::new(F64Arith::new());
    for c in &classifiers {
        pool.register(c.model, &c.ac).map_err(|e| e.to_string())?;
    }
    let t3 = Instant::now();
    stages.push(("engine.register", t2, t3));
    let server = Server::start(
        pool,
        ServeConfig {
            workers: 1,
            cache_capacity,
            ..ServeConfig::default()
        },
    );
    stages.push(("serve.start", t3, Instant::now()));
    Ok((server, classifiers, stages))
}

/// Records one set-up's spans under a root `setup` span.
pub fn record_setup(tracer: &mut Tracer, start: Instant, end: Instant, stages: &Stages) {
    let root = tracer.record("setup", 0, 0, start, end);
    for &(name, a, b) in stages {
        tracer.record(name, root, 0, a, b);
    }
}

/// The readings of both streams for `n` requests, interleaved: request
/// `i` goes to classifier `i % 2`.
pub fn readings(seed: u64, n: usize) -> Vec<Stream<Vec<usize>>> {
    SENSORS
        .iter()
        .enumerate()
        .map(|(m, s)| inputs::sensor_readings(s, seed, (n + 1 - m) / 2))
        .collect()
}

pub fn run(args: &Args) -> Result<(Outcome, Tracer), String> {
    let n = (args.seconds * RATE_HZ) as usize;
    let streams = readings(args.seed, n);
    let mut tracer = Tracer::new(args.trace);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let (server, classifiers, stages) = start_server(CACHE_CAPACITY)?;
        let t1 = Instant::now();
        setups.push(t1 - t0);
        record_setup(&mut tracer, t0, t1, &stages);
        if let Some((old, _)) = live.replace((server, classifiers)) {
            let old: Server<F64Arith> = old;
            old.shutdown();
        }
    }
    let (server, classifiers) = live.expect("at least one set-up");

    // One reference per distinct (classifier, reading), computed before
    // the window.
    let mut references: Vec<Vec<LaneResult<f64>>> = Vec::new();
    for (c, stream) in classifiers.iter().zip(&streams) {
        let refs: Vec<_> = stream
            .distinct
            .iter()
            .map(|reading| server.pool().serve_one(&c.request(reading)))
            .collect();
        if let Some(bad) = refs.iter().find(|r| r.is_err()) {
            return Err(format!("reference evaluation failed: {bad:?}"));
        }
        references.push(refs);
    }

    // Open loop: request i is due at start + i × interval, whether or
    // not earlier answers have arrived. Between arrivals the load generator
    // waits on the oldest ticket, then spins up to the due instant.
    let interval = Duration::from_nanos(1_000_000_000 / RATE_HZ);
    let start = Instant::now();
    let mut tally = Tally::new(&server, true, start, args.seconds);
    let mut inflight: VecDeque<(usize, Pending<f64>)> = VecDeque::new();
    let settle = |tally: &mut Tally, tracer: &mut Tracer, m: usize, p: Pending<f64>, a| {
        let reference = &references[m][p.input as usize];
        tally.settle(p, a, reference, tracer);
    };
    for i in 0..n {
        let due = start + interval * i as u32;
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let nap = (due - now).saturating_sub(SPIN);
            match inflight.front() {
                Some((m, p)) => match p.poll(nap) {
                    Some(answer) => {
                        let m = *m;
                        let (_, p) = inflight.pop_front().expect("front exists");
                        settle(&mut tally, &mut tracer, m, p, answer);
                    }
                    None if nap.is_zero() => std::hint::spin_loop(),
                    None => {}
                },
                None if nap.is_zero() => std::hint::spin_loop(),
                None => std::thread::sleep(nap),
            }
        }
        let m = i % 2;
        let input = streams[m].seq[i / 2];
        let request = classifiers[m].request(&streams[m].distinct[input as usize]);
        if let Some(p) = tally.submit(&server, request, input, Some(due)) {
            inflight.push_back((m, p));
        }
    }
    while let Some((m, p)) = inflight.pop_front() {
        match p.poll(ANSWER_DEADLINE) {
            Some(answer) => settle(&mut tally, &mut tracer, m, p, answer),
            None => tally.lost(&p),
        }
    }
    let wall = tally.span_s(start);
    let peak = peak_rss_mb();
    let stats = server.stats();
    let disagreements = tally.ledger.disagreements(&stats);
    let mut e2e = EndToEnd {
        throughput_rps: tally.window.throughput(),
        latency_p50_us: tally.window.latency_us(0.5),
        latency_p90_us: tally.window.latency_us(0.9),
        setup_s: 0.0,
        peak_rss_mb: peak,
    };
    let mut metrics = BTreeMap::new();
    if args.trace {
        serving_layers(&server, &tracer, &mut metrics);
        let observed = metrics["serve.batch_lanes"].round() as usize;
        let kernel = server.pool().kernel();
        let ctx = F64Arith::new();
        let (mut lane_us, mut batch_us) = (0.0, 0.0);
        for (c, stream) in classifiers.iter().zip(&streams) {
            let evidence: Vec<Evidence> = stream.distinct.iter().map(|r| c.evidence(r)).collect();
            lane_us += layers::lane_us(&c.ac, &ctx, kernel, &evidence, &mut tracer)?;
            batch_us += layers::sweep_us(
                &c.ac,
                &ctx,
                kernel,
                c.conditional(),
                &evidence,
                observed,
                &mut tracer,
            )?;
        }
        // Both streams carry half the requests: plain means.
        let k = classifiers.len() as f64;
        let (lane_us, batch_us) = (lane_us / k, batch_us / k);
        metrics.insert("engine.lane_us", lane_us);
        metrics.insert("engine.batch_us", batch_us);
        metrics.insert(
            "engine.busy_share",
            batch_us * stats.dispatches as f64 / 1e6 / wall,
        );
        metrics.insert(
            "serve.queue_wait_us",
            metrics["serve.miss_wait_us.p50"] - batch_us,
        );
    }
    server.shutdown();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let (server, _, stages) = start_server(CACHE_CAPACITY)?;
        let t1 = Instant::now();
        setups.push(t1 - t0);
        record_setup(&mut tracer, t0, t1, &stages);
        server.shutdown();
    }
    e2e.setup_s = median_secs(&setups);
    e2e.file(&mut metrics, args.trace);
    for d in &disagreements {
        eprintln!("perfbench: {d}");
    }
    let outcome = Outcome {
        correct: tally.failed == 0 && disagreements.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    };
    Ok((outcome, tracer))
}
