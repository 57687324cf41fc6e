//! `alarm-fixed-saturate`: the Alarm network served in the fixed-point
//! format the design flow picks for marginals at an absolute tolerance
//! of 0.01, driven closed-loop with 128 requests outstanding. The cache
//! is off, so every request costs a full tape sweep: engine and kernel
//! work shows here at full strength.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use problp_ac::{compile, AcGraph};
use problp_bayes::{networks, BatchQuery, BayesNet, Evidence};
use problp_bounds::{QueryType, Tolerance};
use problp_core::Problp;
use problp_engine::{CircuitPool, KernelSet, Priority, ServeConfig, ServeRequest, Server};
use problp_num::{FixedArith, FloatArith, Representation};

use crate::common::{median_secs, peak_rss_mb, Args, EndToEnd, Outcome};
use crate::inproc::{serving_layers, Tally, ANSWER_DEADLINE};
use crate::inputs::{self, MODEL_SEED};
use crate::layers;
use crate::trace::Tracer;

const MODEL: &str = "alarm";
/// Distinct forward samples in the request pool.
const POOL: usize = 512;
/// Requests the closed loop keeps outstanding.
const OUTSTANDING: usize = 128;
/// Fresh set-ups before the window and again after it; `setup_s` is
/// the median of all of them.
const SETUPS: usize = 9;

/// The paper's Table 2 Alarm row: marginals within 0.01 absolute.
const QUERY: QueryType = QueryType::Marginal;
const TOLERANCE: Tolerance = Tolerance::Absolute(0.01);

pub fn run(args: &Args) -> Result<(Outcome, Tracer), String> {
    let net = networks::alarm(MODEL_SEED);
    let stream = inputs::alarm_evidence(&net, args.seed, POOL);
    let leaves = net.leaves();
    let evidence: Vec<Evidence> = stream
        .distinct
        .iter()
        .map(|states| inputs::evidence(net.var_count(), &leaves, states))
        .collect();
    // The format the design flow picks decides the arithmetic the pool
    // is built on; every timed set-up below runs the flow again and must
    // arrive at the same format.
    let ac = compile(&net).map_err(|e| e.to_string())?;
    let repr = design(&ac)?;
    match repr {
        Representation::Fixed(f) => {
            serve(args, &net, &evidence, &stream.seq, repr, FixedArith::new(f))
        }
        Representation::Float(f) => {
            serve(args, &net, &evidence, &stream.seq, repr, FloatArith::new(f))
        }
    }
}

/// `Problp::run` for the workload's query and tolerance, everything else
/// at its defaults (RTL included): the selected representation.
fn design(ac: &AcGraph) -> Result<Representation, String> {
    Problp::new(ac)
        .query(QUERY)
        .tolerance(TOLERANCE)
        .run()
        .map(|report| report.selected.repr)
        .map_err(|e| e.to_string())
}

/// One fresh set-up from the network to a ready server: compile, design,
/// register, start.
fn setup<A>(
    net: &BayesNet,
    ctx: &A,
    expected: Representation,
    tracer: &mut Tracer,
) -> Result<(Duration, Server<A>, AcGraph), String>
where
    A: KernelSet + Clone + Send + Sync + 'static,
    A::Value: Clone + Send + Sync + 'static,
{
    let t0 = Instant::now();
    let ac = compile(net).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let repr = design(&ac)?;
    let t2 = Instant::now();
    if repr != expected {
        return Err(format!("the design flow picked {repr}, then {expected}"));
    }
    let mut pool = CircuitPool::new(ctx.clone());
    pool.register(MODEL, &ac).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let server = Server::start(
        pool,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let t4 = Instant::now();
    let root = tracer.record("setup", 0, 0, t0, t4);
    tracer.record("ac.compile", root, 0, t0, t1);
    tracer.record("core.design", root, 0, t1, t2);
    tracer.record("engine.register", root, 0, t2, t3);
    tracer.record("serve.start", root, 0, t3, t4);
    Ok((t4 - t0, server, ac))
}

fn serve<A>(
    args: &Args,
    net: &BayesNet,
    evidence: &[Evidence],
    seq: &[u32],
    repr: Representation,
    ctx: A,
) -> Result<(Outcome, Tracer), String>
where
    A: KernelSet + Clone + Send + Sync + 'static,
    A::Value: Clone + Send + Sync + PartialEq + std::fmt::Debug + 'static,
{
    let mut tracer = Tracer::new(args.trace);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live: Option<(Server<A>, AcGraph)> = None;
    for _ in 0..SETUPS {
        let (took, server, ac) = setup(net, &ctx, repr, &mut tracer)?;
        setups.push(took);
        if let Some((old, _)) = live.replace((server, ac)) {
            old.shutdown();
        }
    }
    let (server, ac) = live.expect("at least one set-up");

    let requests: Vec<ServeRequest> = evidence
        .iter()
        .map(|e| ServeRequest {
            model: MODEL.to_string(),
            evidence: e.clone(),
            query: BatchQuery::Marginal,
            priority: Priority::Interactive,
        })
        .collect();
    let references: Vec<_> = requests
        .iter()
        .map(|r| server.pool().serve_one(r))
        .collect();
    if let Some(bad) = references.iter().find(|r| r.is_err()) {
        return Err(format!("reference evaluation failed: {bad:?}"));
    }

    // Closed loop: one load-generator thread keeps OUTSTANDING requests in
    // flight, waiting on the oldest before sending the next.
    let start = Instant::now();
    let mut tally = Tally::new(&server, false, start, args.seconds);
    let mut inflight = VecDeque::with_capacity(OUTSTANDING);
    let mut next = 0usize;
    let end = start + args.window();
    let mut send = |tally: &mut Tally, inflight: &mut VecDeque<_>| {
        let input = seq[next % seq.len()];
        next += 1;
        if let Some(p) = tally.submit(&server, requests[input as usize].clone(), input, None) {
            inflight.push_back(p);
        }
    };
    while inflight.len() < OUTSTANDING {
        send(&mut tally, &mut inflight);
    }
    while let Some(p) = inflight.pop_front() {
        match p.poll(ANSWER_DEADLINE) {
            Some(answer) => {
                let reference = &references[p.input as usize];
                tally.settle(p, answer, reference, &mut tracer);
            }
            None => tally.lost(&p),
        }
        if Instant::now() < end {
            send(&mut tally, &mut inflight);
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
        let miss_wait_p50 = metrics["serve.miss_wait_us.p50"];
        let kernel = server.pool().kernel();
        layers::design_stages(&ac, QUERY, TOLERANCE, repr, &mut tracer, &mut metrics)?;
        let lane_us = layers::lane_us(&ac, &ctx, kernel, evidence, &mut tracer)?;
        let batch_us = layers::sweep_us(
            &ac,
            &ctx,
            kernel,
            BatchQuery::Marginal,
            evidence,
            observed,
            &mut tracer,
        )?;
        metrics.insert("engine.lane_us", lane_us);
        metrics.insert("engine.batch_us", batch_us);
        metrics.insert(
            "engine.busy_share",
            lane_us * tally.answered as f64 / 1e6 / wall,
        );
        metrics.insert("serve.queue_wait_us", miss_wait_p50 - batch_us);
    }
    server.shutdown();
    for _ in 0..SETUPS {
        let (took, server, _) = setup(net, &ctx, repr, &mut tracer)?;
        setups.push(took);
        server.shutdown();
    }
    e2e.setup_s = median_secs(&setups);
    e2e.file(&mut metrics, args.trace);
    for d in &disagreements {
        eprintln!("perfbench: {d}");
    }
    eprintln!("perfbench: alarm-fixed-saturate served {repr}");
    let outcome = Outcome {
        correct: tally.failed == 0 && disagreements.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    };
    Ok((outcome, tracer))
}
