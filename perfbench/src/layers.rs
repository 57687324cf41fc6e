//! Layer timings the traced run takes outside the window, each on the
//! workload's own circuit and inputs: the design flow's stages one by
//! one, and engine sweeps at the batch shapes the server ran.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use problp_ac::{transform, AcGraph, Semiring};
use problp_bayes::{BatchQuery, Evidence, EvidenceBatch};
use problp_bounds::{
    optimize_fixed, optimize_float, AcAnalysis, LeafErrorModel, QueryType, Tolerance,
    DEFAULT_MAX_PRECISION_BITS,
};
use problp_energy::{fixed_ac_energy, float_ac_energy, Tsmc65Model};
use problp_engine::{Engine, KernelKind, KernelSet};
use problp_hw::{emit_verilog, Netlist};
use problp_num::Representation;

use crate::trace::{median, Tracer};

/// Repetitions of each separately timed layer call.
const REPS: usize = 5;
/// Lanes of the batches `engine.lane_us` is measured on.
const LANES: usize = 64;

/// Times `f` `REPS` times, recording one span per call, and returns
/// the median in milliseconds.
fn time_ms<T>(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
    let mut ms = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        black_box(f());
        let end = Instant::now();
        tracer.record(name, 0, 0, start, end);
        ms.push(secs_ms(end - start));
    }
    median(&ms)
}

fn secs_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The design flow `Problp::run` performs, stage by stage, on `ac` for
/// the given query and tolerance, and the selected representation.
pub fn design_stages(
    ac: &AcGraph,
    query: QueryType,
    tolerance: Tolerance,
    selected: Representation,
    tracer: &mut Tracer,
    metrics: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let analysis_ms = time_ms(tracer, "bounds.analysis", || {
        let bin = transform::binarize(ac).expect("the served circuit binarizes");
        AcAnalysis::new(&bin).map(|_| ())
    });
    let bin = transform::binarize(ac).map_err(|e| e.to_string())?;
    let analysis = AcAnalysis::new(&bin).map_err(|e| e.to_string())?;
    let search = || {
        let fixed = optimize_fixed(
            &bin,
            &analysis,
            query,
            tolerance,
            LeafErrorModel::WorstCase,
            DEFAULT_MAX_PRECISION_BITS,
        );
        let float = optimize_float(
            &bin,
            &analysis,
            query,
            tolerance,
            DEFAULT_MAX_PRECISION_BITS,
        );
        (fixed, float)
    };
    let search_ms = time_ms(tracer, "bounds.search", search);
    let (fixed, float) = search();
    let model = Tsmc65Model;
    let energy_ms = time_ms(tracer, "energy.estimate", || {
        let f = fixed
            .as_ref()
            .ok()
            .map(|c| fixed_ac_energy(&bin, c.format, &model));
        let g = float
            .as_ref()
            .ok()
            .map(|c| float_ac_energy(&bin, c.format, &model));
        (f, g)
    });
    let netlist_ms = time_ms(tracer, "hw.netlist", || {
        Netlist::from_ac(&bin, selected).expect("the selected format synthesizes")
    });
    let netlist = Netlist::from_ac(&bin, selected).map_err(|e| e.to_string())?;
    let verilog_ms = time_ms(tracer, "hw.verilog", || emit_verilog(&netlist));
    metrics.insert("bounds.analysis_ms", analysis_ms);
    metrics.insert("bounds.search_ms", search_ms);
    metrics.insert("energy.estimate_ms", energy_ms);
    metrics.insert("hw.netlist_ms", netlist_ms);
    metrics.insert("hw.verilog_ms", verilog_ms);
    metrics.insert("core.selected_bits", f64::from(selected.word_bits()));
    Ok(())
}

/// Median microseconds of one `evaluate_query` on `lanes`-lane batches
/// cut from `evidence` (cycled), on one thread, with `kernel`.
pub fn sweep_us<A>(
    ac: &AcGraph,
    ctx: &A,
    kernel: KernelKind,
    query: BatchQuery,
    evidence: &[Evidence],
    lanes: usize,
    tracer: &mut Tracer,
) -> Result<f64, String>
where
    A: KernelSet + Clone + Send + Sync,
    A::Value: Clone + Send + Sync,
{
    let engine = match query {
        BatchQuery::Mpe => Engine::from_graph_full(ac, Semiring::MaxProduct, ctx.clone()),
        _ => Engine::from_graph(ac, Semiring::SumProduct, ctx.clone()),
    }
    .map_err(|e| e.to_string())?
    .with_threads(1)
    .with_kernel(kernel);
    let lanes = lanes.max(1);
    let batches: Vec<EvidenceBatch> = (0..8)
        .map(|b| {
            let mut batch = EvidenceBatch::new(engine.tape().var_count());
            for l in 0..lanes {
                batch.push(&evidence[(b * lanes + l) % evidence.len()]);
            }
            batch
        })
        .collect();
    // Enough calls for a steady median, at most ~0.2 s per shape.
    let probe = Instant::now();
    engine
        .evaluate_query(&batches[0], query)
        .map_err(|e| e.to_string())?;
    let per_call = probe.elapsed().as_secs_f64().max(1e-7);
    let calls = ((0.2 / per_call) as usize).clamp(16, 2000);
    let mut us = Vec::with_capacity(calls);
    for i in 0..calls {
        let batch = &batches[i % batches.len()];
        let start = Instant::now();
        black_box(
            engine
                .evaluate_query(black_box(batch), query)
                .map_err(|e| e.to_string())?,
        );
        let end = Instant::now();
        tracer.record("engine.sweep", 0, 0, start, end);
        us.push((end - start).as_secs_f64() * 1e6);
    }
    Ok(median(&us))
}

/// `engine.lane_us`: per-lane cost of 64-lane marginal sweeps.
pub fn lane_us<A>(
    ac: &AcGraph,
    ctx: &A,
    kernel: KernelKind,
    evidence: &[Evidence],
    tracer: &mut Tracer,
) -> Result<f64, String>
where
    A: KernelSet + Clone + Send + Sync,
    A::Value: Clone + Send + Sync,
{
    Ok(sweep_us(
        ac,
        ctx,
        kernel,
        BatchQuery::Marginal,
        evidence,
        LANES,
        tracer,
    )? / LANES as f64)
}
