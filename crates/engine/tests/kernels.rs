//! Kernel-dispatch conformance tests: the fused superinstruction stream
//! over the lane-chunked row kernels must be bit-identical to the scalar
//! tape walk — same values, same sticky flags, per lane — for every
//! semiring, every arithmetic, every chunk size and every remainder
//! lane count. The scalar walk stays the reference; these tests are the
//! license for the production kernel to exist. Register-file reuse
//! across sweeps is pinned here too: a sweep never sees what an earlier
//! one left behind.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use problp_ac::{compile, transform::binarize, AcGraph, Semiring};
use problp_bayes::{networks, BayesNetBuilder, Evidence, EvidenceBatch, VarId};
use problp_engine::{
    BinOp, Engine, FusedInstr, FusedTape, KernelKind, KernelSet, Tape, LANE_WIDTH,
};
use problp_num::{Arith, F64Arith, FixedArith, FixedFormat, Flags};

const SEMIRINGS: [Semiring; 3] = [
    Semiring::SumProduct,
    Semiring::MaxProduct,
    Semiring::MinProduct,
];

/// A random network's seed plus per-variable observation picks.
fn net_and_picks() -> impl Strategy<Value = (u64, Vec<usize>)> {
    (0u64..500, proptest::collection::vec(0usize..100, 7))
}

/// Builds a batch whose lanes cycle through single-variable
/// observations plus an empty-evidence lane, so remainder lanes carry
/// distinct values (a clobbered or skipped tail lane cannot hide).
fn varied_batch(net: &problp_bayes::BayesNet, lanes: usize) -> EvidenceBatch {
    let mut batch = EvidenceBatch::new(net.var_count());
    for i in 0..lanes {
        let mut e = Evidence::empty(net.var_count());
        if i % 3 != 0 {
            let var = VarId::from_index(i % net.var_count());
            e.observe(var, i % net.variable(var).arity());
        }
        batch.push(&e);
    }
    batch
}

/// Structurally validates a fused stream against its source tape: every
/// register read must have been written earlier in the stream (or be a
/// pinned parameter register), the root register must be written, and
/// no instruction may read a register the fuser elided. This is the
/// "no clobbered registers" half of the fusion contract — value
/// identity is pinned separately by the evaluation properties.
fn assert_fused_stream_well_formed(tape: &Tape, fused: &FusedTape) {
    let mut written = vec![false; tape.num_regs()];
    for &p in tape.param_regs() {
        written[p as usize] = true;
    }
    let read = |reg: u32, written: &[bool], what: &str, idx: usize| {
        assert!(
            written[reg as usize],
            "fused instr {idx} reads {what} r{reg} before any write"
        );
    };
    for (idx, instr) in fused.instrs().iter().enumerate() {
        match *instr {
            FusedInstr::LoadIndicator { dst, slot } => {
                assert!((slot as usize) < tape.indicator_slots().count());
                written[dst as usize] = true;
            }
            FusedInstr::Bin { dst, lhs, rhs, .. } => {
                read(lhs, &written, "lhs", idx);
                read(rhs, &written, "rhs", idx);
                written[dst as usize] = true;
            }
            FusedInstr::MulAcc { dst, acc, a, b, .. } => {
                read(acc, &written, "acc", idx);
                read(a, &written, "a", idx);
                read(b, &written, "b", idx);
                written[dst as usize] = true;
            }
            FusedInstr::Reduce {
                dst, first, lo, hi, ..
            } => {
                read(first, &written, "first", idx);
                for &r in fused.operands(lo, hi) {
                    read(r, &written, "operand", idx);
                }
                written[dst as usize] = true;
            }
        }
    }
    assert!(
        written[tape.root_reg() as usize],
        "fused stream never writes the root register"
    );
    let stats = fused.stats();
    assert_eq!(stats.fused_instrs, fused.instrs().len());
    assert!(stats.fused_instrs <= stats.source_instrs);
}

/// Asserts that `flagged` per-lane flags OR together into the aggregate
/// — the sticky-flag contract `evaluate_batch_flagged` documents.
fn assert_lane_flags_consistent(flags: Flags, lane_flags: &[Flags]) {
    let mut merged = Flags::new();
    for &f in lane_flags {
        merged.merge(f);
    }
    assert_eq!(merged, flags, "aggregate flags != OR of per-lane flags");
}

/// The comparison behind the fixed-point tests: on every semiring, a
/// fused engine's flagged sweep returns the scalar engine's values bit
/// for bit and its per-lane sticky flags.
fn assert_fused_flagged_matches_scalar(ac: &AcGraph, batch: &EvidenceBatch, format: FixedFormat) {
    for semiring in SEMIRINGS {
        let engine = Engine::from_graph(ac, semiring, FixedArith::new(format)).unwrap();
        let reference = engine.evaluate_batch_flagged(batch).unwrap();
        assert_lane_flags_consistent(reference.flags, &reference.lane_flags);
        let got = engine
            .with_kernel(KernelKind::Fused)
            .evaluate_batch_flagged(batch)
            .unwrap();
        assert_eq!(got.lane_flags, reference.lane_flags, "{semiring:?}");
        assert_eq!(got.flags, reference.flags, "{semiring:?}");
        for (lane, (r, g)) in reference.values.iter().zip(&got.values).enumerate() {
            assert_eq!(
                r.to_f64().to_bits(),
                g.to_f64().to_bits(),
                "{semiring:?} lanes {} lane {lane}",
                batch.lanes()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline property: on random circuits, the fused kernel
    /// returns the scalar walk's f64 values bit for bit, with identical
    /// sticky flags, for every semiring.
    #[test]
    fn fused_matches_scalar_f64(
        (seed, _picks) in net_and_picks(),
        lanes in 1usize..130,
    ) {
        let net = networks::random_network(seed, 7, 3, 3);
        let ac = compile(&net).unwrap();
        let batch = varied_batch(&net, lanes);
        for semiring in SEMIRINGS {
            let engine = Engine::from_graph(&ac, semiring, F64Arith::new()).unwrap();
            let reference = engine.evaluate_batch(&batch).unwrap();
            let fast = engine.clone().with_kernel(KernelKind::Fused);
            let got = fast.evaluate_batch(&batch).unwrap();
            prop_assert_eq!(got.flags, reference.flags);
            for (lane, (r, g)) in reference.values.iter().zip(&got.values).enumerate() {
                prop_assert_eq!(
                    r.to_bits(), g.to_bits(),
                    "{:?} lane {}: scalar {} vs {}",
                    semiring, lane, r, g
                );
            }
        }
    }

    /// The same under fixed-point arithmetic, where the u128 fast path
    /// replaces the wide-integer reference multiply: values and
    /// *per-lane* sticky flags (inexact, overflow) are identical.
    #[test]
    fn fused_matches_scalar_fixed(
        (seed, _picks) in net_and_picks(),
        lanes in 1usize..80,
        frac in 6u32..20,
    ) {
        let net = networks::random_network(seed, 6, 2, 3);
        let ac = compile(&net).unwrap();
        let format = FixedFormat::new(1, frac).unwrap();
        assert_fused_flagged_matches_scalar(&ac, &varied_batch(&net, lanes), format);
    }

    /// Fusion on full-values tapes must keep every register's final
    /// write (`MulAcc` is compact-only), and the fused stream stays
    /// structurally sound on both modes: no read of an unwritten or
    /// elided register, root always written.
    #[test]
    fn fused_streams_are_well_formed_and_full_mode_keeps_registers(
        seed in 0u64..500,
    ) {
        let net = networks::random_network(seed, 7, 3, 3);
        let ac = compile(&net).unwrap();
        for semiring in SEMIRINGS {
            let compact = Tape::compile(&ac, semiring).unwrap();
            let fused = compact.fuse();
            assert_fused_stream_well_formed(&compact, &fused);

            let full = Tape::compile_full(&ac, semiring).unwrap();
            let fused_full = full.fuse();
            assert_fused_stream_well_formed(&full, &fused_full);
            prop_assert_eq!(fused_full.stats().mul_accs, 0, "MulAcc must be compact-only");
        }
    }

    /// Results are independent of the lane-chunk size for every kernel:
    /// chunk 1 (every lane is a remainder), 3 (odd), 8 (exactly one
    /// vector chunk) and 1024 (whole batch in one chunk) agree bit for
    /// bit, flags included.
    #[test]
    fn chunk_size_never_changes_results(
        seed in 0u64..200,
        lanes in 1usize..100,
    ) {
        let net = networks::random_network(seed, 6, 2, 3);
        let ac = binarize(&compile(&net).unwrap()).unwrap();
        let batch = varied_batch(&net, lanes);
        let engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new()).unwrap();
        let reference = engine.evaluate_batch(&batch).unwrap();
        for kernel in KernelKind::ALL {
            for chunk in [1usize, 3, LANE_WIDTH, 1024] {
                let e = engine.clone().with_kernel(kernel).with_chunk(chunk).with_threads(1);
                let got = e.evaluate_batch(&batch).unwrap();
                prop_assert_eq!(got.flags, reference.flags);
                for (r, g) in reference.values.iter().zip(&got.values) {
                    prop_assert_eq!(
                        r.to_bits(), g.to_bits(),
                        "{:?} chunk {}", kernel, chunk
                    );
                }
            }
        }
    }
}

/// Remainder-lane regression: lane counts that leave 1, `LANE_WIDTH`-1
/// or `LANE_WIDTH`+1 lanes (and primes that never divide the width)
/// must produce the same per-lane values *and* per-lane sticky flags as
/// the scalar walk — the scalar tail after the vector body covers
/// exactly the right lanes.
#[test]
fn remainder_lanes_match_scalar_values_and_flags() {
    let net = networks::alarm(7);
    let ac = compile(&net).unwrap();
    let format = FixedFormat::new(1, 10).unwrap();
    for lanes in [1, LANE_WIDTH - 1, LANE_WIDTH, LANE_WIDTH + 1, 13, 31, 97] {
        assert_fused_flagged_matches_scalar(&ac, &varied_batch(&net, lanes), format);
    }
    // The low-precision format actually exercises the sticky path: at
    // 10 fractional bits the Alarm CPTs cannot all be exact.
    let engine = Engine::from_graph(&ac, Semiring::SumProduct, FixedArith::new(format))
        .unwrap()
        .with_kernel(KernelKind::Fused);
    let got = engine.evaluate_batch(&varied_batch(&net, 97)).unwrap();
    assert!(got.flags.inexact, "regression batch never went inexact");

    // Every Alarm lane is inexact from converting its parameters, which
    // would hide a kernel that drops its flags. A 12-variable chain of
    // dyadic CPTs is exact in this format: the empty evidence evaluates
    // to exactly 1.0, flag-clean, while the fully observed lane reaches
    // 2^-12, below the format, so only its own sweep raises flags.
    let mut b = BayesNetBuilder::new();
    let mut prev = b.variable("X0", 2);
    b.cpt(prev, [], [0.5, 0.5]).unwrap();
    for i in 1..12 {
        let v = b.variable(format!("X{i}"), 2);
        b.cpt(v, [prev], [0.5, 0.5, 0.5, 0.5]).unwrap();
        prev = v;
    }
    let chain = compile(&b.build().unwrap()).unwrap();
    let lanes = [Evidence::empty(12), Evidence::from_assignment(&[0; 12])];
    let batch = EvidenceBatch::from_evidences(12, &lanes).unwrap();
    assert_fused_flagged_matches_scalar(&chain, &batch, format);
    let sum = Engine::from_graph(&chain, Semiring::SumProduct, FixedArith::new(format)).unwrap();
    let lane_flags = sum.evaluate_batch_flagged(&batch).unwrap().lane_flags;
    assert_ne!(
        lane_flags[0], lane_flags[1],
        "the chain's lanes raise the same flags"
    );
}

/// The fused engine on a real circuit actually fuses something — the
/// throughput claim rests on superinstructions existing, so an
/// accidentally-empty pass must fail loudly here, not in the bench.
#[test]
fn fusion_finds_superinstructions_on_alarm() {
    let net = networks::alarm(7);
    let ac = compile(&net).unwrap();
    let engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new())
        .unwrap()
        .with_kernel(KernelKind::Fused);
    let stats = engine
        .fused_tape()
        .expect("fused engine carries a stream")
        .stats();
    assert!(stats.mul_accs > 0, "no MulAcc fused on alarm: {stats}");
    assert!(stats.reduces > 0, "no Reduce fused on alarm: {stats}");
    assert!(stats.fused_instrs < stats.source_instrs);
    assert_eq!(engine.kernel(), KernelKind::Fused);
    // A scalar engine reports no fused tape.
    let scalar = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new()).unwrap();
    assert!(scalar.fused_tape().is_none());
    assert_eq!(scalar.kernel(), KernelKind::Scalar);
}

/// MPE and conditional serving agree across kernels: the scalar
/// engine's answers are the oracle, and the fused engine runs every
/// sweep on the fused stream, the one its MPE traceback reads included.
#[test]
fn queries_agree_across_kernels() {
    let net = networks::asia();
    let ac = compile(&net).unwrap();
    let batch = varied_batch(&net, 11);
    let query_var = VarId::from_index(1);
    let mut cond_batch = EvidenceBatch::new(net.var_count());
    for lane in 0..batch.lanes() {
        let mut e = batch.evidence(lane);
        e.forget(query_var);
        cond_batch.push(&e);
    }

    let mpe_ref = Engine::from_graph_full(&ac, Semiring::MaxProduct, F64Arith::new())
        .unwrap()
        .mpe_batch(&batch)
        .unwrap();
    let cond_ref = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new())
        .unwrap()
        .conditional_batch(&cond_batch, query_var)
        .unwrap();
    let mpe = Engine::from_graph_full(&ac, Semiring::MaxProduct, F64Arith::new())
        .unwrap()
        .with_kernel(KernelKind::Fused)
        .mpe_batch(&batch)
        .unwrap();
    assert_eq!(mpe.assignments, mpe_ref.assignments);
    for (a, b) in mpe.values.iter().zip(&mpe_ref.values) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let cond = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new())
        .unwrap()
        .with_kernel(KernelKind::Fused)
        .conditional_batch(&cond_batch, query_var)
        .unwrap();
    assert_eq!(cond.predictions, cond_ref.predictions);
    for (p, q) in cond.posteriors.iter().zip(&cond_ref.posteriors) {
        for (a, b) in p.iter().zip(q) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// `f64` arithmetic that logs the lane count of every row-kernel
/// dispatch, shared across the clones each sweep takes.
#[derive(Clone, Debug, Default)]
struct CountingArith {
    inner: F64Arith,
    dispatches: Arc<Mutex<Vec<usize>>>,
}

impl CountingArith {
    fn log(&self, n: usize) {
        self.dispatches.lock().unwrap().push(n);
    }
}

impl Arith for CountingArith {
    type Value = f64;

    fn from_f64(&mut self, x: f64) -> f64 {
        self.inner.from_f64(x)
    }
    fn to_f64(&self, v: &f64) -> f64 {
        self.inner.to_f64(v)
    }
    fn zero(&mut self) -> f64 {
        self.inner.zero()
    }
    fn one(&mut self) -> f64 {
        self.inner.one()
    }
    fn add(&mut self, a: &f64, b: &f64) -> f64 {
        self.inner.add(a, b)
    }
    fn mul(&mut self, a: &f64, b: &f64) -> f64 {
        self.inner.mul(a, b)
    }
    fn max(&mut self, a: &f64, b: &f64) -> f64 {
        self.inner.max(a, b)
    }
    fn min(&mut self, a: &f64, b: &f64) -> f64 {
        self.inner.min(a, b)
    }
    fn flags(&self) -> Flags {
        self.inner.flags()
    }
    fn clear_flags(&mut self) {
        self.inner.clear_flags()
    }
}

impl KernelSet for CountingArith {
    fn bin_rows(&mut self, op: BinOp, regs: &mut [f64], d: usize, a: usize, b: usize, n: usize) {
        self.log(n);
        self.inner.bin_rows(op, regs, d, a, b, n);
    }

    #[allow(clippy::too_many_arguments)]
    fn mul_acc_rows(
        &mut self,
        op: BinOp,
        regs: &mut [f64],
        d: usize,
        acc: usize,
        a: usize,
        b: usize,
        n: usize,
    ) {
        self.log(n);
        self.inner.mul_acc_rows(op, regs, d, acc, a, b, n);
    }

    #[allow(clippy::too_many_arguments)]
    fn reduce_rows(
        &mut self,
        op: BinOp,
        regs: &mut [f64],
        chunk: usize,
        d: usize,
        first: usize,
        rest: &[u32],
        n: usize,
    ) {
        self.log(n);
        self.inner.reduce_rows(op, regs, chunk, d, first, rest, n);
    }
}

/// A 1-lane conditional is one sweep, as the pool builds its engines
/// (fused, one thread): every row kernel of the fused stream is
/// dispatched once, over the marginal lane plus one joint lane per
/// state, not once per state.
#[test]
fn a_one_lane_conditional_is_one_sweep() {
    let net = networks::sprinkler();
    let ac = compile(&net).unwrap();
    let ctx = CountingArith::default();
    let engine = Engine::from_graph(&ac, Semiring::SumProduct, ctx.clone())
        .unwrap()
        .with_threads(1)
        .with_kernel(KernelKind::Fused);
    let row_ops = engine
        .fused_tape()
        .unwrap()
        .instrs()
        .iter()
        .filter(|i| !matches!(i, FusedInstr::LoadIndicator { .. }))
        .count();
    let rain = net.find("Rain").unwrap();
    let batch = EvidenceBatch::from_evidences(net.var_count(), &[Evidence::empty(net.var_count())])
        .unwrap();
    ctx.dispatches.lock().unwrap().clear();
    let cond = engine.conditional_batch(&batch, rain).unwrap();
    assert!(cond.lane_status[0].is_ok());
    assert_eq!(*ctx.dispatches.lock().unwrap(), vec![3; row_ops]);
}

/// One batch of the register-file reuse test with its reference
/// answers: the root bits of a fresh engine's sweep (cross-checked
/// against the scalar tree-walk) and that sweep's sticky flags.
struct ReuseCase {
    batch: EvidenceBatch,
    want: Vec<u64>,
    flags: Flags,
}

/// Evidence for `lanes` lanes that differs per `round`: every lane
/// observes a round-dependent subset of the variables, so a value a
/// previous sweep left in a reused register file would change a root.
fn round_batch(net: &problp_bayes::BayesNet, lanes: usize, round: usize) -> EvidenceBatch {
    let mut batch = EvidenceBatch::new(net.var_count());
    for lane in 0..lanes {
        let mut e = Evidence::empty(net.var_count());
        for v in 0..net.var_count() {
            let pick = lane * 7 + v * 3 + round * 5;
            if !pick.is_multiple_of(4) {
                let var = VarId::from_index(v);
                e.observe(var, pick % net.variable(var).arity());
            }
        }
        batch.push(&e);
    }
    batch
}

/// Drives one fused engine through alternating batch sizes and evidence
/// at 1 and 3 engine threads, then from 4 caller threads at once, and
/// pins every answer to a fresh engine's and to `AcGraph::evaluate_with`.
fn assert_register_reuse_leaks_nothing<A>(net: &problp_bayes::BayesNet, ctx: A)
where
    A: problp_engine::KernelSet + Clone + Send + Sync,
    A::Value: Clone + Send + Sync,
{
    let ac = compile(net).unwrap();
    let build = || {
        Engine::from_graph(&ac, Semiring::SumProduct, ctx.clone())
            .unwrap()
            .with_kernel(KernelKind::Fused)
    };
    let bits = |e: &Engine<A>, values: &[A::Value]| -> Vec<u64> {
        values
            .iter()
            .map(|v| e.context().to_f64(v).to_bits())
            .collect()
    };
    let cases: Vec<ReuseCase> = (0..3)
        .flat_map(|round| [1usize, 13, 64, 200].map(|lanes| (round, lanes)))
        .map(|(round, lanes)| {
            let batch = round_batch(net, lanes, round);
            let fresh = build().with_threads(1);
            let got = fresh.evaluate_batch(&batch).unwrap();
            let want = bits(&fresh, &got.values);
            for (lane, w) in want.iter().enumerate() {
                let mut c = ctx.clone();
                let walk = ac
                    .evaluate_with(&mut c, &batch.evidence(lane), Semiring::SumProduct)
                    .unwrap();
                assert_eq!(c.to_f64(&walk).to_bits(), *w, "tree-walk lane {lane}");
            }
            ReuseCase {
                batch,
                want,
                flags: got.flags,
            }
        })
        .collect();
    let check = |engine: &Engine<A>, order: &[usize]| {
        for &i in order {
            let case = &cases[i];
            let got = engine.evaluate_batch(&case.batch).unwrap();
            assert_eq!(bits(engine, &got.values), case.want, "case {i}");
            assert_eq!(got.flags, case.flags, "case {i}");
        }
    };
    // One engine throughout (`with_threads` moves it, free list and
    // all), so every phase inherits the files the previous one left.
    let forward: Vec<usize> = (0..cases.len()).collect();
    let backward: Vec<usize> = forward.iter().rev().copied().collect();
    let mut engine = build();
    for threads in [1, 3] {
        engine = engine.with_threads(threads);
        check(&engine, &forward);
        check(&engine, &backward);
    }
    let engine = engine.with_threads(1);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let order: Vec<usize> = (0..cases.len())
                .map(|i| (i * (t + 1) + t) % cases.len())
                .collect();
            let (engine, check) = (&engine, &check);
            scope.spawn(move || check(engine, &order));
        }
    });
}

/// Reused register files leak nothing between sweeps: f64 and the
/// fixed-point serving format, across batch sizes that resize the file,
/// thread counts that split it into shards, and concurrent callers
/// sharing one engine's free list.
#[test]
fn register_file_reuse_leaks_nothing() {
    let net = networks::asia();
    assert_register_reuse_leaks_nothing(&net, F64Arith::new());
    assert_register_reuse_leaks_nothing(&net, FixedArith::new(FixedFormat::new(1, 16).unwrap()));
}
