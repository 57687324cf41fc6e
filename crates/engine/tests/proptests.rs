//! Property tests for the execution engine: tape evaluation (compact
//! and full-values modes) is bit-identical to the scalar tree-walk,
//! batch results are independent of how lanes are sharded, and the
//! batched MPE/conditional serving paths agree with the scalar oracles.

use proptest::prelude::*;

use problp_ac::{compile, transform::binarize, Semiring};
use problp_bayes::{networks, Evidence, EvidenceBatch, VarId};
use problp_engine::{ConditionalLaneStatus, Engine, KernelKind, KernelSet, Tape};
use problp_num::{Arith, F64Arith, FixedArith, FixedFormat, FloatArith, FloatFormat};

/// A random network's seed plus per-variable observation picks.
fn net_and_picks() -> impl Strategy<Value = (u64, Vec<usize>)> {
    (0u64..500, proptest::collection::vec(0usize..100, 7))
}

/// Builds evidence observing roughly half the variables, like the
/// cross-crate suite does.
fn evidence_from_picks(net: &problp_bayes::BayesNet, picks: &[usize]) -> Evidence {
    let mut e = Evidence::empty(net.var_count());
    for (v, p) in picks.iter().enumerate().take(net.var_count()) {
        if p % 2 == 0 {
            let var = VarId::from_index(v);
            e.observe(var, p % net.variable(var).arity());
        }
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: for every semiring, evaluating the compiled
    /// tape under `F64Arith` returns the root value of
    /// `AcGraph::evaluate_nodes` bit for bit — the `optimize` pass and
    /// the binary-chain lowering change no bits.
    #[test]
    fn tape_is_bit_identical_to_evaluate_nodes((seed, picks) in net_and_picks()) {
        let net = networks::random_network(seed, 7, 3, 3);
        let ac = compile(&net).unwrap();
        let e = evidence_from_picks(&net, &picks);
        for semiring in [Semiring::SumProduct, Semiring::MaxProduct, Semiring::MinProduct] {
            let mut ctx = F64Arith::new();
            let scalar = {
                let values = ac.evaluate_nodes(&mut ctx, &e, semiring).unwrap();
                values[ac.root().unwrap().index()]
            };
            let engine = Engine::from_graph(&ac, semiring, F64Arith::new()).unwrap();
            let (tape_value, _) = engine.evaluate_one(&e).unwrap();
            prop_assert_eq!(
                scalar.to_bits(),
                tape_value.to_bits(),
                "semiring {:?}: scalar {} vs tape {}",
                semiring, scalar, tape_value
            );
        }
    }

    /// The same holds on binarized circuits (the hardware form the
    /// pipeline measures on).
    #[test]
    fn tape_is_bit_identical_on_binarized_circuits((seed, picks) in net_and_picks()) {
        let net = networks::random_network(seed, 6, 2, 3);
        let ac = binarize(&compile(&net).unwrap()).unwrap();
        let e = evidence_from_picks(&net, &picks);
        let scalar = ac.evaluate(&e).unwrap();
        let engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new()).unwrap();
        let (tape_value, _) = engine.evaluate_one(&e).unwrap();
        prop_assert_eq!(scalar.to_bits(), tape_value.to_bits());
    }

    /// Low-precision contexts run the identical operation sequence, so
    /// the tape matches the scalar walk there too (raw bit compare),
    /// for every semiring.
    #[test]
    fn tape_matches_scalar_walk_under_low_precision(
        (seed, picks) in net_and_picks(),
        frac in 6u32..20,
    ) {
        let net = networks::random_network(seed, 6, 2, 3);
        let ac = compile(&net).unwrap();
        let e = evidence_from_picks(&net, &picks);
        for semiring in [Semiring::SumProduct, Semiring::MaxProduct, Semiring::MinProduct] {
            let format = FixedFormat::new(1, frac).unwrap();
            let mut fx = FixedArith::new(format);
            let scalar = ac.evaluate_with(&mut fx, &e, semiring).unwrap();
            let scalar = fx.to_f64(&scalar);
            let engine = Engine::from_graph(&ac, semiring, FixedArith::new(format)).unwrap();
            let (v, _) = engine.evaluate_one(&e).unwrap();
            prop_assert_eq!(scalar.to_bits(), v.to_f64().to_bits(), "fixed, {:?}", semiring);

            let format = FloatFormat::new(8, frac).unwrap();
            let mut fl = FloatArith::new(format);
            let scalar = ac.evaluate_with(&mut fl, &e, semiring).unwrap();
            let scalar = fl.to_f64(&scalar);
            let engine = Engine::from_graph(&ac, semiring, FloatArith::new(format)).unwrap();
            let (v, _) = engine.evaluate_one(&e).unwrap();
            prop_assert_eq!(scalar.to_bits(), v.to_f64().to_bits(), "float, {:?}", semiring);
        }
    }

    /// Deterministic CPTs (Asia's OR gate) make `optimize` fold 0/1
    /// constants; those folds must change no bits in any arithmetic or
    /// semiring either.
    #[test]
    fn constant_folding_preserves_bits_on_deterministic_networks(
        picks in proptest::collection::vec(0usize..100, 8),
        frac in 6u32..20,
    ) {
        let net = networks::asia();
        let ac = compile(&net).unwrap();
        let e = evidence_from_picks(&net, &picks);
        for semiring in [Semiring::SumProduct, Semiring::MaxProduct, Semiring::MinProduct] {
            let mut ctx = F64Arith::new();
            let values = ac.evaluate_nodes(&mut ctx, &e, semiring).unwrap();
            let scalar = values[ac.root().unwrap().index()];
            let engine = Engine::from_graph(&ac, semiring, F64Arith::new()).unwrap();
            let (v, _) = engine.evaluate_one(&e).unwrap();
            prop_assert_eq!(scalar.to_bits(), v.to_bits(), "f64, {:?}", semiring);

            let format = FixedFormat::new(1, frac).unwrap();
            let mut fx = FixedArith::new(format);
            let scalar = ac.evaluate_with(&mut fx, &e, semiring).unwrap();
            let scalar = fx.to_f64(&scalar);
            let engine = Engine::from_graph(&ac, semiring, FixedArith::new(format)).unwrap();
            let (v, _) = engine.evaluate_one(&e).unwrap();
            prop_assert_eq!(scalar.to_bits(), v.to_f64().to_bits(), "fixed, {:?}", semiring);
        }
    }

    /// The full-values tape returns the value of *every* node
    /// bit-identically to `AcGraph::evaluate_nodes`, for every semiring
    /// and every arithmetic — the contract the engine-backed
    /// `AcAnalysis` in `problp-bounds` rests on.
    #[test]
    fn full_tape_node_values_match_evaluate_nodes(
        (seed, picks) in net_and_picks(),
        frac in 6u32..20,
    ) {
        let net = networks::random_network(seed, 7, 3, 3);
        let ac = compile(&net).unwrap();
        let e = evidence_from_picks(&net, &picks);
        for semiring in [Semiring::SumProduct, Semiring::MaxProduct, Semiring::MinProduct] {
            // Exact f64.
            let mut ctx = F64Arith::new();
            let scalar = ac.evaluate_nodes(&mut ctx, &e, semiring).unwrap();
            let engine = Engine::from_graph_full(&ac, semiring, F64Arith::new()).unwrap();
            let (tape, _) = engine.evaluate_nodes_one(&e).unwrap();
            prop_assert_eq!(scalar.len(), tape.len());
            for (i, (s, t)) in scalar.iter().zip(&tape).enumerate() {
                prop_assert_eq!(s.to_bits(), t.to_bits(), "f64 {:?} node {}", semiring, i);
            }

            // Fixed point.
            let format = FixedFormat::new(1, frac).unwrap();
            let mut fx = FixedArith::new(format);
            let scalar = ac.evaluate_nodes(&mut fx, &e, semiring).unwrap();
            let engine = Engine::from_graph_full(&ac, semiring, FixedArith::new(format)).unwrap();
            let (tape, _) = engine.evaluate_nodes_one(&e).unwrap();
            for (i, (s, t)) in scalar.iter().zip(&tape).enumerate() {
                prop_assert_eq!(
                    fx.to_f64(s).to_bits(),
                    fx.to_f64(t).to_bits(),
                    "fixed {:?} node {}", semiring, i
                );
            }

            // Floating point.
            let format = FloatFormat::new(8, frac).unwrap();
            let mut fl = FloatArith::new(format);
            let scalar = ac.evaluate_nodes(&mut fl, &e, semiring).unwrap();
            let engine = Engine::from_graph_full(&ac, semiring, FloatArith::new(format)).unwrap();
            let (tape, _) = engine.evaluate_nodes_one(&e).unwrap();
            for (i, (s, t)) in scalar.iter().zip(&tape).enumerate() {
                prop_assert_eq!(
                    fl.to_f64(s).to_bits(),
                    fl.to_f64(t).to_bits(),
                    "float {:?} node {}", semiring, i
                );
            }
        }
    }

    /// Full-values batch evaluation (root values) agrees with the
    /// compact tape, so the mode only changes register layout, never
    /// results.
    #[test]
    fn full_and_compact_tapes_agree_on_roots((seed, picks) in net_and_picks()) {
        let net = networks::random_network(seed, 6, 2, 3);
        let ac = compile(&net).unwrap();
        let e = evidence_from_picks(&net, &picks);
        let mut batch = EvidenceBatch::new(net.var_count());
        for _ in 0..3 {
            batch.push(&e);
        }
        for semiring in [Semiring::SumProduct, Semiring::MaxProduct, Semiring::MinProduct] {
            let compact = Engine::from_graph(&ac, semiring, F64Arith::new()).unwrap();
            let full = Engine::from_graph_full(&ac, semiring, F64Arith::new()).unwrap();
            let a = compact.evaluate_batch(&batch).unwrap();
            let b = full.evaluate_batch(&batch).unwrap();
            for (x, y) in a.values.iter().zip(&b.values) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{:?}", semiring);
            }
        }
    }

    /// Batched MPE decoding matches the scalar sequential-conditioning
    /// decoder: identical max-product values (bit for bit) and decoded
    /// assignments that achieve them. Every lane of a multi-lane batch
    /// decodes exactly what its evidence decodes alone in a 1-lane
    /// batch, on a fresh engine (which builds its traceback table on
    /// that call) and on a clone of the engine that already decoded.
    #[test]
    fn mpe_batch_matches_the_scalar_decoder_on_random_networks(
        seed in 0u64..120,
        picks in proptest::collection::vec(0usize..100, 6),
        lanes in 1usize..24,
    ) {
        let net = networks::random_network(seed, 6, 2, 3);
        let ac = compile(&net).unwrap();
        let evidences: Vec<Evidence> = (0..lanes)
            .map(|lane| evidence_from_picks(&net, &lane_picks(&picks, lane)))
            .collect();
        let batch = EvidenceBatch::from_evidences(net.var_count(), &evidences).unwrap();
        let engine = Engine::from_graph_full(&ac, Semiring::MaxProduct, F64Arith::new()).unwrap();
        let mpe = engine.mpe_batch(&batch).unwrap();
        let clone = engine.clone();
        for (lane, e) in evidences.iter().enumerate() {
            let (_, oracle_value) = ac.mpe_assignment(e).unwrap();
            prop_assert_eq!(mpe.values[lane].to_bits(), oracle_value.to_bits(), "lane {}", lane);
            let joint = net.joint_probability(&mpe.assignments[lane]);
            prop_assert!((joint - oracle_value).abs() <= 1e-12 * oracle_value.max(1.0));
            for (var, s) in e.iter() {
                prop_assert_eq!(mpe.assignments[lane][var.index()], s);
            }
            let alone = EvidenceBatch::from_evidences(net.var_count(), std::slice::from_ref(e))
                .unwrap();
            let fresh = Engine::from_graph_full(&ac, Semiring::MaxProduct, F64Arith::new())
                .unwrap();
            for (which, one) in [("fresh", &fresh), ("clone", &clone)] {
                let one = one.mpe_batch(&alone).unwrap();
                prop_assert_eq!(&one.assignments[0], &mpe.assignments[lane], "{} lane {}", which, lane);
                prop_assert_eq!(one.values[0].to_bits(), mpe.values[lane].to_bits());
            }
        }
    }

    /// Batched conditional serving matches the per-state oracle — one
    /// `evaluate_batch` for the marginals with the query variable
    /// unobserved, one per clamped state — lane by lane and bit for bit,
    /// at 0–70 lanes, on 1 and 3 threads, under both kernels, in `f64`
    /// and in a fixed format narrow enough to underflow some marginals.
    /// Lanes may observe the query variable; the marginal ignores it.
    #[test]
    fn conditional_batch_matches_scalar_ratios(
        seed in 0u64..120,
        picks in proptest::collection::vec(0usize..100, 6),
        qv in 0usize..6,
        lanes in 0usize..71,
    ) {
        let net = networks::random_network(seed, 6, 2, 3);
        let ac = compile(&net).unwrap();
        let query_var = VarId::from_index(qv % net.var_count());
        let evidences: Vec<Evidence> = (0..lanes)
            .map(|lane| evidence_from_picks(&net, &lane_picks(&picks, lane)))
            .collect();
        let batch = EvidenceBatch::from_evidences(net.var_count(), &evidences).unwrap();
        let narrow = FixedArith::new(FixedFormat::new(1, 6).unwrap());
        for threads in [1, 3] {
            for kernel in [KernelKind::Scalar, KernelKind::Fused] {
                let engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new())
                    .unwrap()
                    .with_threads(threads)
                    .with_kernel(kernel);
                check_conditional(&engine, &evidences, &batch, query_var)?;
                let engine = Engine::from_graph(&ac, Semiring::SumProduct, narrow)
                    .unwrap()
                    .with_threads(threads)
                    .with_kernel(kernel);
                check_conditional(&engine, &evidences, &batch, query_var)?;
            }
        }
    }

    /// Sharded batch evaluation returns exactly the same values whatever
    /// the thread count or lane-block size.
    #[test]
    fn batches_are_independent_of_sharding(
        seed in 0u64..200,
        lanes in 1usize..300,
        threads in 1usize..9,
        chunk in 1usize..80,
    ) {
        let net = networks::random_network(seed, 6, 2, 3);
        let ac = compile(&net).unwrap();
        // Lanes cycle through every single-variable observation.
        let mut batch = EvidenceBatch::new(net.var_count());
        for i in 0..lanes {
            let mut e = Evidence::empty(net.var_count());
            let var = VarId::from_index(i % net.var_count());
            e.observe(var, i % net.variable(var).arity());
            batch.push(&e);
        }
        let engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new()).unwrap();
        let reference = engine.clone().with_threads(1).with_chunk(256)
            .evaluate_batch(&batch).unwrap();
        let sharded = engine.with_threads(threads).with_chunk(chunk)
            .evaluate_batch(&batch).unwrap();
        prop_assert_eq!(&reference.values, &sharded.values);
        prop_assert_eq!(reference.flags, sharded.flags);
        // And every lane agrees with the single-evidence path.
        for lane in 0..lanes.min(5) {
            let (one, _) = engine_eval_one(&ac, &batch, lane);
            prop_assert_eq!(one.to_bits(), sharded.values[lane].to_bits());
        }
    }
}

/// Per-lane observation picks: the shared picks shifted by the lane
/// index, so lanes observe different variables and states.
fn lane_picks(picks: &[usize], lane: usize) -> Vec<usize> {
    picks
        .iter()
        .enumerate()
        .map(|(v, p)| p + lane * (v + 1))
        .collect()
}

/// Holds `engine.conditional_batch(batch, query_var)` to the per-state
/// oracle: the marginals are one `evaluate_batch` of the lanes with
/// `query_var` forgotten, each joint block one with it clamped.
fn check_conditional<A>(
    engine: &Engine<A>,
    evidences: &[Evidence],
    batch: &EvidenceBatch,
    query_var: VarId,
) -> Result<(), TestCaseError>
where
    A: KernelSet + Clone + Send + Sync,
    A::Value: Clone + Send + Sync,
{
    let var_count = batch.var_count();
    let clamped = |state: Option<usize>| {
        let lanes: Vec<Evidence> = evidences
            .iter()
            .map(|e| {
                let mut e = e.clone();
                match state {
                    Some(s) => e.observe(query_var, s),
                    None => e.forget(query_var),
                }
                e
            })
            .collect();
        EvidenceBatch::from_evidences(var_count, &lanes).unwrap()
    };
    let bits = |v: &A::Value| engine.context().to_f64(v).to_bits();
    let states = engine.tape().var_arities()[query_var.index()];
    let cond = engine.conditional_batch(batch, query_var).unwrap();
    let marginals = engine.evaluate_batch(&clamped(None)).unwrap();
    let mut flags = marginals.flags;
    let joints: Vec<Vec<A::Value>> = (0..states)
        .map(|s| {
            let joint = engine.evaluate_batch(&clamped(Some(s))).unwrap();
            flags.merge(joint.flags);
            joint.values
        })
        .collect();
    prop_assert_eq!(cond.flags, flags);
    prop_assert_eq!(cond.joints.len(), states);
    prop_assert_eq!(cond.marginals.len(), evidences.len());
    for lane in 0..evidences.len() {
        prop_assert_eq!(bits(&cond.marginals[lane]), bits(&marginals.values[lane]));
        for (s, (got, want)) in cond.joints.iter().zip(&joints).enumerate() {
            prop_assert_eq!(
                bits(&got[lane]),
                bits(&want[lane]),
                "lane {} state {}",
                lane,
                s
            );
        }
        let den = engine.context().to_f64(&marginals.values[lane]);
        if den == 0.0 {
            prop_assert_eq!(
                cond.lane_status[lane],
                ConditionalLaneStatus::ImpossibleEvidence
            );
            prop_assert!(cond.posteriors[lane].iter().all(|p| p.is_nan()));
            continue;
        }
        prop_assert_eq!(cond.lane_status[lane], ConditionalLaneStatus::Ok);
        let mut prediction = (0, f64::NEG_INFINITY);
        for (s, joint) in joints.iter().enumerate() {
            let num = engine.context().to_f64(&joint[lane]);
            prop_assert_eq!(cond.posteriors[lane][s].to_bits(), (num / den).to_bits());
            if num > prediction.1 {
                prediction = (s, num);
            }
        }
        prop_assert_eq!(cond.predictions[lane], prediction.0, "lane {}", lane);
    }
    Ok(())
}

/// Helper: evaluate one reconstructed lane through a fresh engine.
fn engine_eval_one(
    ac: &problp_ac::AcGraph,
    batch: &EvidenceBatch,
    lane: usize,
) -> (f64, problp_num::Flags) {
    let engine = Engine::from_graph(ac, Semiring::SumProduct, F64Arith::new()).unwrap();
    engine.evaluate_one(&batch.evidence(lane)).unwrap()
}

/// Batch results also agree with `measure`-style per-lane flag capture.
#[test]
fn flagged_and_plain_batches_agree() {
    let net = networks::alarm(7);
    let ac = compile(&net).unwrap();
    let tape = Tape::compile(&ac, Semiring::SumProduct).unwrap();
    let format = FixedFormat::new(1, 12).unwrap();
    let engine = Engine::new(tape, FixedArith::new(format));
    let mut batch = EvidenceBatch::new(net.var_count());
    for v in 0..net.var_count() {
        let mut e = Evidence::empty(net.var_count());
        e.observe(VarId::from_index(v), 0);
        batch.push(&e);
    }
    let plain = engine.evaluate_batch(&batch).unwrap();
    let flagged = engine.evaluate_batch_flagged(&batch).unwrap();
    assert_eq!(plain.values.len(), flagged.values.len());
    for (a, b) in plain.values.iter().zip(&flagged.values) {
        assert_eq!(a, b);
    }
    assert_eq!(plain.flags, flagged.flags);
    assert_eq!(flagged.lane_flags.len(), batch.lanes());
}
