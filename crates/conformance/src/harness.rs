//! The differential harness: build every backend from the same binarized
//! circuit, evaluate the same seeded evidence batch on each, and compare
//! the result streams bit for bit.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use problp_ac::{compile, transform::binarize, AcGraph, Semiring};
use problp_bayes::{BayesNet, Evidence, EvidenceBatch, VarId};
use problp_engine::{Engine, KernelKind, KernelSet};
use problp_hw::{Netlist, PipelineSim, Schedule};
use problp_num::{
    F64Arith, FixedArith, FixedFormat, Flags, FloatArith, FloatFormat, Representation,
};

use crate::report::{BackendRun, CaseReport, ConformanceReport};
use crate::spec::{ArithSpec, BackendKind, ConformanceConfig, ConformanceError};

/// Full-value node vectors are spot-checked on this many lanes per case
/// (the root value is checked on *every* lane).
const NODE_CHECK_LANES: usize = 3;

/// Generates `count` seeded random Bayesian networks of varying shape —
/// the harness's model source when no named models are given.
///
/// Sizes cycle through 4..=8 variables with up to 2 parents and arities
/// up to 3: large enough to exercise balancing registers, fan-out and
/// register recycling, small enough that the cycle-accurate simulation
/// of `count × |ariths| × |semirings|` cases stays fast.
pub fn random_models(seed: u64, count: usize) -> Vec<(String, BayesNet)> {
    (0..count)
        .map(|i| {
            let vars = 4 + (i % 5);
            let net =
                problp_bayes::networks::random_network(seed.wrapping_add(i as u64), vars, 2, 3);
            (format!("rand{i}(v{vars})"), net)
        })
        .collect()
}

/// Builds a seeded evidence batch over `net`'s variables: each lane
/// observes every variable independently with probability 1/2, in a
/// uniformly random state. The same `(net, lanes, seed)` always yields
/// the same batch.
pub fn random_batch(net: &BayesNet, lanes: usize, seed: u64) -> EvidenceBatch {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = EvidenceBatch::new(net.var_count());
    for _ in 0..lanes {
        let mut e = Evidence::empty(net.var_count());
        for v in 0..net.var_count() {
            if rng.random_bool(0.5) {
                let arity = net.variable(VarId::from_index(v)).arity();
                e.observe(VarId::from_index(v), rng.random_range(0..arity));
            }
        }
        batch.push(&e);
    }
    batch
}

/// Runs the full differential cross-check: every `(model, arithmetic,
/// semiring)` combination becomes one case whose backends must agree
/// bit for bit with the scalar reference.
///
/// # Errors
///
/// Returns [`ConformanceError`] if any backend fails to build or
/// evaluate — a backend that errors where another succeeds is itself a
/// conformance violation, surfaced with the source error.
pub fn run_conformance(
    models: &[(String, BayesNet)],
    config: &ConformanceConfig,
) -> Result<ConformanceReport, ConformanceError> {
    let mut cases = Vec::new();
    for (index, (name, net)) in models.iter().enumerate() {
        let bin = binarize(&compile(net)?)?;
        let batch = random_batch(net, config.batch, config.seed.wrapping_add(index as u64));
        for arith in &config.ariths {
            for &semiring in &config.semirings {
                let case = match arith {
                    ArithSpec::F64 => run_case(
                        name,
                        &bin,
                        &batch,
                        *arith,
                        semiring,
                        config,
                        F64Arith::new(),
                    )?,
                    ArithSpec::Fixed(f) => run_case(
                        name,
                        &bin,
                        &batch,
                        *arith,
                        semiring,
                        config,
                        FixedArith::new(*f),
                    )?,
                    ArithSpec::Float(f) => run_case(
                        name,
                        &bin,
                        &batch,
                        *arith,
                        semiring,
                        config,
                        FloatArith::new(*f),
                    )?,
                };
                cases.push(case);
            }
        }
    }
    Ok(ConformanceReport {
        seed: config.seed,
        lanes_per_case: config.batch,
        cases,
    })
}

/// The structural representation tag of the netlist for an arithmetic.
/// Execution semantics come from the [`Arith`] context, not the tag; the
/// tag only sizes the word width in the netlist's reports, so the `f64`
/// reference borrows the widest stock float format.
fn netlist_repr(arith: ArithSpec) -> Representation {
    match arith {
        ArithSpec::F64 => Representation::Float(FloatFormat::ieee_single()),
        ArithSpec::Fixed(f) => Representation::Fixed(normalize_fixed(f)),
        ArithSpec::Float(f) => Representation::Float(f),
    }
}

/// `Netlist::from_ac` rejects fraction-free fixed formats (the emitted
/// multiplier idiom needs `F >= 1`); the conformance arithmetic still
/// runs in the exact requested format, only the structural tag is
/// widened.
fn normalize_fixed(f: FixedFormat) -> FixedFormat {
    if f.frac_bits() >= 1 {
        f
    } else {
        FixedFormat::new(f.int_bits(), 1).expect("widening by one bit stays valid")
    }
}

/// Flips the low bit of lane 0 when this backend is the configured fault
/// target — the test-only corruption that proves the harness goes red.
fn maybe_inject(bits: &mut [u64], backend: BackendKind, config: &ConformanceConfig) {
    if config.inject_fault == Some(backend) {
        if let Some(b) = bits.first_mut() {
            *b ^= 1;
        }
    }
}

/// Whether a backend counts as having raised a runtime range flag:
/// its sticky `overflow`/`underflow` bits, or the test-only flag fault
/// that proves the static/runtime cross-check goes red.
fn range_flag(flags: Flags, backend: BackendKind, config: &ConformanceConfig) -> bool {
    flags.range_violation() || config.inject_flag_fault == Some(backend)
}

/// Compares one backend's stream against the reference bits.
fn diff(reference: &[u64], got: &[u64]) -> (usize, Option<usize>) {
    let mismatched = reference.iter().zip(got).filter(|(a, b)| a != b).count()
        + reference.len().abs_diff(got.len());
    let first = reference
        .iter()
        .zip(got)
        .position(|(a, b)| a != b)
        .or((reference.len() != got.len()).then_some(reference.len().min(got.len())));
    (mismatched, first)
}

/// One `(model, arithmetic, semiring)` case: evaluate every applicable
/// backend and compare bit patterns lane by lane.
fn run_case<A>(
    model: &str,
    bin: &AcGraph,
    batch: &EvidenceBatch,
    arith: ArithSpec,
    semiring: Semiring,
    config: &ConformanceConfig,
    ctx: A,
) -> Result<CaseReport, ConformanceError>
where
    A: KernelSet + Clone + Send + Sync,
    A::Value: Clone + Send + Sync,
{
    let lanes = batch.lanes();
    let stats = bin.stats();
    let scalar_ops = (stats.sums + stats.products) as u64;
    let mut backends = Vec::new();

    // Scalar reference: one tree-walk per lane.
    let start = Instant::now();
    let mut reference: Vec<u64> = Vec::with_capacity(lanes);
    let mut scalar_flags = Flags::default();
    for lane in 0..lanes {
        let mut c = ctx.clone();
        c.clear_flags();
        let v = bin.evaluate_with(&mut c, &batch.evidence(lane), semiring)?;
        scalar_flags.merge(c.flags());
        reference.push(c.to_f64(&v).to_bits());
    }
    let scalar_wall = start.elapsed();
    maybe_inject(&mut reference, BackendKind::Scalar, config);
    backends.push(BackendRun {
        backend: BackendKind::Scalar,
        mismatched_lanes: 0,
        first_mismatch: None,
        wall: scalar_wall,
        work: scalar_ops * lanes as u64,
        range_flag: range_flag(scalar_flags, BackendKind::Scalar, config),
    });

    // Compact tape: the serving engine's production path. Its tape is
    // also what the static range analysis reads for the flag
    // cross-check — the verdicts hold for every backend because all of
    // them compute the same operations in the same format.
    let engine = Engine::from_graph(bin, semiring, ctx.clone())?;
    let static_report = problp_verify::analyze(engine.tape(), arith)?;
    let static_safe = config.force_static_safe || static_report.all_safe();
    let start = Instant::now();
    let result = engine.evaluate_batch(batch)?;
    let wall = start.elapsed();
    let mut bits: Vec<u64> = result
        .values
        .iter()
        .map(|v| engine.context().to_f64(v).to_bits())
        .collect();
    maybe_inject(&mut bits, BackendKind::TapeCompact, config);
    let (mismatched, first) = diff(&reference, &bits);
    backends.push(BackendRun {
        backend: BackendKind::TapeCompact,
        mismatched_lanes: mismatched,
        first_mismatch: first,
        wall,
        work: engine.tape().stats().instrs as u64 * lanes as u64,
        range_flag: range_flag(result.flags, BackendKind::TapeCompact, config),
    });

    // Full-values tape: root bits on every lane, whole node vectors on a
    // few (register i = node i, so the spot check pins the entire sweep,
    // not just the root).
    let full = Engine::from_graph_full(bin, semiring, ctx.clone())?;
    let start = Instant::now();
    let result = full.evaluate_batch(batch)?;
    let wall = start.elapsed();
    let full_flags = result.flags;
    let mut bits: Vec<u64> = result
        .values
        .iter()
        .map(|v| full.context().to_f64(v).to_bits())
        .collect();
    maybe_inject(&mut bits, BackendKind::TapeFull, config);
    let (mut mismatched, mut first) = diff(&reference, &bits);
    for lane in 0..lanes.min(NODE_CHECK_LANES) {
        let e = batch.evidence(lane);
        let (node_values, _) = full.evaluate_nodes_one(&e)?;
        let mut c = ctx.clone();
        c.clear_flags();
        let scalar_nodes = bin.evaluate_nodes(&mut c, &e, semiring)?;
        let diverged = node_values
            .iter()
            .zip(&scalar_nodes)
            .any(|(a, b)| full.context().to_f64(a).to_bits() != c.to_f64(b).to_bits());
        if diverged && bits.get(lane) == reference.get(lane) {
            // Root agreed but an internal node diverged: still a
            // conformance failure of this lane.
            mismatched += 1;
            first = first.or(Some(lane));
        }
    }
    backends.push(BackendRun {
        backend: BackendKind::TapeFull,
        mismatched_lanes: mismatched,
        first_mismatch: first,
        wall,
        work: full.tape().stats().instrs as u64 * lanes as u64,
        range_flag: range_flag(full_flags, BackendKind::TapeFull, config),
    });

    // Fused superinstruction streams: the compact tape gets MulAcc +
    // Reduce, the full-values tape chain collapse only — both must
    // reproduce the scalar reference's values bit for bit. Their flags
    // are checked only as every backend's are: a runtime range flag on
    // a case the static analysis proves safe fails it. Per-lane flag
    // identity is pinned by the engine's `tests/kernels.rs`.
    for (kind, base) in [
        (BackendKind::FusedCompact, &engine),
        (BackendKind::FusedFull, &full),
    ] {
        let fused_engine = base.clone().with_kernel(KernelKind::Fused);
        let start = Instant::now();
        let result = fused_engine.evaluate_batch(batch)?;
        let wall = start.elapsed();
        let mut bits: Vec<u64> = result
            .values
            .iter()
            .map(|v| fused_engine.context().to_f64(v).to_bits())
            .collect();
        maybe_inject(&mut bits, kind, config);
        let (mismatched, first) = diff(&reference, &bits);
        let fused_instrs = fused_engine
            .fused_tape()
            .map_or(0, |f| f.instrs().len() as u64);
        backends.push(BackendRun {
            backend: kind,
            mismatched_lanes: mismatched,
            first_mismatch: first,
            wall,
            work: fused_instrs * lanes as u64,
            range_flag: range_flag(result.flags, kind, config),
        });
    }

    // The hardware executors implement the sum/product datapath only.
    if semiring == Semiring::SumProduct {
        let netlist = Netlist::from_ac(bin, netlist_repr(arith))?;

        let schedule = Schedule::from_netlist(&netlist)?;
        let mut c = ctx.clone();
        c.clear_flags();
        let start = Instant::now();
        let values = schedule.execute_batch(&mut c, batch)?;
        let wall = start.elapsed();
        let mut bits: Vec<u64> = values.iter().map(|v| c.to_f64(v).to_bits()).collect();
        maybe_inject(&mut bits, BackendKind::Schedule, config);
        let (mismatched, first) = diff(&reference, &bits);
        backends.push(BackendRun {
            backend: BackendKind::Schedule,
            mismatched_lanes: mismatched,
            first_mismatch: first,
            wall,
            work: schedule.stats().instructions as u64 * lanes as u64,
            range_flag: range_flag(c.flags(), BackendKind::Schedule, config),
        });

        let mut fresh = ctx.clone();
        fresh.clear_flags();
        let mut sim = PipelineSim::new(&netlist, fresh);
        let cycles_before = sim.cycle();
        let start = Instant::now();
        let values = sim.run_batch(batch)?;
        let wall = start.elapsed();
        let mut bits: Vec<u64> = values
            .iter()
            .map(|v| sim.context().to_f64(v).to_bits())
            .collect();
        maybe_inject(&mut bits, BackendKind::Pipeline, config);
        let (mismatched, first) = diff(&reference, &bits);
        backends.push(BackendRun {
            backend: BackendKind::Pipeline,
            mismatched_lanes: mismatched,
            first_mismatch: first,
            wall,
            work: sim.cycle() - cycles_before,
            range_flag: range_flag(sim.context().flags(), BackendKind::Pipeline, config),
        });
    }

    Ok(CaseReport {
        model: model.to_string(),
        arith,
        semiring,
        lanes,
        backends,
        static_safe,
        static_may_saturate: static_report.may_saturate,
        static_may_underflow: static_report.may_underflow,
    })
}
