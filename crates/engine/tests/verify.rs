//! Mutation tests for the static tape verifier: each test corrupts a
//! freshly-compiled (and therefore provably well-formed) tape or fused
//! stream in one specific way and asserts the verifier rejects it with
//! the matching typed [`VerifyError`] — the red paths the builtin-network
//! sweep can never reach.

use problp_ac::{compile, transform::binarize, AcGraph, Semiring};
use problp_bayes::{networks, VarId};
use problp_engine::{
    CircuitPool, Engine, EngineError, FusedInstr, Instr, KernelKind, Tape, VerifyError,
};
use problp_num::F64Arith;

fn v(i: usize) -> VarId {
    VarId::from_index(i)
}

/// Σ_s λ_{a,s}·θ_s over a 4-state variable: enough states that the sum
/// lowers to a chain with continuations (head + 2 chain steps).
fn chained() -> AcGraph {
    let mut g = AcGraph::new(vec![4]);
    let mut prods = Vec::new();
    for s in 0..4 {
        let ind = g.indicator(v(0), s).unwrap();
        let p = g.param(0.1 + s as f64 * 0.2).unwrap();
        prods.push(g.product(vec![ind, p]).unwrap());
    }
    let root = g.sum(prods).unwrap();
    g.set_root(root);
    g
}

fn compact() -> Tape {
    Tape::compile(&chained(), Semiring::SumProduct).unwrap()
}

/// Index of the first chain continuation (`lhs == dst`) on the tape.
fn first_continuation(tape: &Tape) -> usize {
    tape.instrs()
        .iter()
        .position(|i| matches!(*i, Instr::Add { dst, lhs, .. } if dst == lhs))
        .expect("a 4-ary sum chain has continuations")
}

#[test]
fn mutation_use_before_def() {
    let mut tape = compact();
    // Swap the first load with the multiply consuming it: the multiply
    // now reads the indicator register before anything defines it.
    let instrs = tape.raw_instrs_mut();
    assert!(matches!(instrs[0], Instr::LoadIndicator { .. }));
    assert!(matches!(instrs[1], Instr::Mul { .. }));
    instrs.swap(0, 1);
    assert!(matches!(
        tape.verify(),
        Err(VerifyError::UseBeforeDef { instr: 0, .. })
    ));
}

#[test]
fn mutation_clobbered_live_register_via_aliased_rhs() {
    let mut tape = compact();
    let i = first_continuation(&tape);
    // Point the continuation's rhs at its own destination row: the fused
    // fold would observe a stale value, so the alias is a clobber.
    let instrs = tape.raw_instrs_mut();
    let Instr::Add { dst, rhs, .. } = &mut instrs[i] else {
        unreachable!("first_continuation found an Add")
    };
    *rhs = *dst;
    assert!(matches!(
        tape.verify(),
        Err(VerifyError::ClobberedLiveRegister { .. })
    ));
}

#[test]
fn mutation_clobbered_live_register_via_orphaned_continuation() {
    let mut tape = compact();
    let i = first_continuation(&tape);
    // Steal the chain head's destination: the continuation at `i` now
    // accumulates onto a register no immediately-preceding write defines
    // — exactly a live-value clobber between two nodes' chains.
    let spare = tape.num_regs() as u32;
    let instrs = tape.raw_instrs_mut();
    let Instr::Add { dst, .. } = &mut instrs[i - 1] else {
        panic!("a continuation is preceded by its chain head");
    };
    *dst = spare; // also out of the file, but the chain break is at `i`
    let Instr::Add { dst, lhs, .. } = instrs[i] else {
        unreachable!()
    };
    assert_eq!(dst, lhs, "still shaped like a continuation");
    assert!(matches!(
        tape.verify(),
        Err(VerifyError::RegisterOutOfBounds { .. })
            | Err(VerifyError::ClobberedLiveRegister { .. })
    ));
}

#[test]
fn mutation_param_register_write() {
    let mut tape = compact();
    let param_reg = tape.param_regs()[0];
    let instrs = tape.raw_instrs_mut();
    let Instr::Mul { dst, .. } = &mut instrs[1] else {
        panic!("instr 1 is the first product");
    };
    *dst = param_reg;
    assert!(matches!(
        tape.verify(),
        Err(VerifyError::ParamRegisterWrite { instr: 1, .. })
    ));
}

#[test]
fn mutation_register_out_of_bounds() {
    let mut tape = compact();
    let oob = tape.num_regs() as u32 + 10;
    let instrs = tape.raw_instrs_mut();
    let Instr::Mul { rhs, .. } = &mut instrs[1] else {
        panic!("instr 1 is the first product");
    };
    *rhs = oob;
    assert_eq!(
        tape.verify(),
        Err(VerifyError::RegisterOutOfBounds { instr: 1, reg: oob })
    );
}

#[test]
fn mutation_slot_out_of_bounds() {
    let mut tape = compact();
    let instrs = tape.raw_instrs_mut();
    let Instr::LoadIndicator { slot, .. } = &mut instrs[0] else {
        panic!("instr 0 is a load");
    };
    *slot = 999;
    assert_eq!(
        tape.verify(),
        Err(VerifyError::SlotOutOfBounds {
            instr: 0,
            slot: 999
        })
    );
}

#[test]
fn mutation_unreachable_instr() {
    let mut tape = compact();
    let root = tape.root_reg();
    let spare = tape.num_regs() as u32 - 1;
    // An extra product after the root write that nothing consumes. (The
    // root register itself keeps its chain-head shape, so only the dead
    // scan can notice.)
    assert_ne!(spare, root, "the last allocated scratch is not the root");
    tape.raw_instrs_mut().push(Instr::Mul {
        dst: spare,
        lhs: root,
        rhs: root,
    });
    let last = tape.instrs().len() - 1;
    assert_eq!(
        tape.verify(),
        Err(VerifyError::UnreachableInstr { instr: last })
    );
}

#[test]
fn mutation_root_undefined() {
    let mut tape = compact();
    tape.raw_instrs_mut().clear();
    assert!(matches!(
        tape.verify(),
        Err(VerifyError::RootUndefined { .. })
    ));
}

#[test]
fn mutation_full_mode_elision() {
    let mut g = AcGraph::new(vec![4, 2]);
    let mut prods = Vec::new();
    for s in 0..4 {
        let ind = g.indicator(v(0), s).unwrap();
        let p = g.param(0.1 + s as f64 * 0.2).unwrap();
        prods.push(g.product(vec![ind, p]).unwrap());
    }
    let root = g.sum(prods).unwrap();
    g.set_root(root);
    // A dead indicator over the second variable: kept by the full-values
    // mode, consumed by nobody.
    let _ = g.indicator(v(1), 0).unwrap();
    let mut tape = Tape::compile_full(&g, Semiring::SumProduct).unwrap();
    let dead_load = tape
        .instrs()
        .iter()
        .rposition(|i| matches!(i, Instr::LoadIndicator { .. }))
        .unwrap();
    tape.raw_instrs_mut().remove(dead_load);
    assert!(matches!(
        tape.verify(),
        Err(VerifyError::FullModeElision { .. })
    ));
}

#[test]
fn mutation_side_table_out_of_bounds() {
    let tape = compact();
    let mut fused = tape.fuse();
    let table_len = {
        let instrs = fused.raw_instrs_mut();
        let i = instrs
            .iter()
            .position(|i| matches!(i, FusedInstr::Reduce { .. }))
            .expect("the sum chain collapses to a Reduce");
        let FusedInstr::Reduce { hi, .. } = &mut instrs[i] else {
            unreachable!()
        };
        *hi += 1000;
        i
    };
    assert!(matches!(
        tape.verify_fused(&fused),
        Err(VerifyError::SideTableOutOfBounds { instr, .. }) if instr == table_len
    ));
}

#[test]
fn mutation_reordered_reduce_operands() {
    let tape = compact();
    let mut fused = tape.fuse();
    // Same operand multiset, different fold order: bitwise results change
    // for non-associative arithmetic, and the symbolic equivalence check
    // must refuse it.
    let ops = fused.raw_operands_mut();
    assert!(ops.len() >= 2, "the 4-ary chain leaves reduce operands");
    ops.swap(0, 1);
    assert!(matches!(
        tape.verify_fused(&fused),
        Err(VerifyError::FusedStreamDivergence { .. })
    ));
}

/// The bugfix sweep: every builtin network, in both circuit shapes
/// (n-ary and binarized), through every tape mode and every semiring,
/// with the fused stream proven equivalent on top. A latent emission
/// irregularity in any compiler path would surface here as a typed
/// error naming the instruction.
#[test]
fn builtin_network_sweep_verifies_every_mode_and_semiring() {
    let nets = [
        ("figure1", networks::figure1()),
        ("sprinkler", networks::sprinkler()),
        ("asia", networks::asia()),
        ("student", networks::student()),
        ("earthquake", networks::earthquake()),
        ("cancer", networks::cancer()),
        ("alarm", networks::alarm(11)),
    ];
    for (name, net) in nets {
        let nary = compile(&net).unwrap();
        let bin = binarize(&nary).unwrap();
        for (shape, g) in [("nary", &nary), ("bin", &bin)] {
            for semiring in [
                Semiring::SumProduct,
                Semiring::MaxProduct,
                Semiring::MinProduct,
            ] {
                let compact = Tape::compile(g, semiring).unwrap();
                compact
                    .verify()
                    .unwrap_or_else(|e| panic!("{name}/{shape}/{semiring:?} compact: {e}"));
                compact
                    .verify_fused(&compact.fuse())
                    .unwrap_or_else(|e| panic!("{name}/{shape}/{semiring:?} fused: {e}"));

                let full = Tape::compile_full(g, semiring).unwrap();
                full.verify()
                    .unwrap_or_else(|e| panic!("{name}/{shape}/{semiring:?} full: {e}"));
                full.verify_fused(&full.fuse())
                    .unwrap_or_else(|e| panic!("{name}/{shape}/{semiring:?} fused-full: {e}"));
            }
        }
    }
}

#[test]
fn pool_admission_rejects_a_corrupted_tape_with_a_typed_error() {
    let g = chained();
    // Both cores: a fused engine is gated by `verify_fused` alone, which
    // must still run every structural check on the source tape.
    for kernel in KernelKind::ALL {
        let mut sum = Engine::from_graph(&g, Semiring::SumProduct, F64Arith::new())
            .unwrap()
            .with_kernel(kernel);
        let mpe = Engine::from_graph_full(&g, Semiring::MaxProduct, F64Arith::new())
            .unwrap()
            .with_kernel(kernel);

        // Corrupt the serving engine's tape after compilation (and
        // fusion) — the moment the debug-build auto-checks can no longer
        // help.
        sum.raw_tape_mut().raw_instrs_mut().swap(0, 1);

        let mut pool: CircuitPool<F64Arith> = CircuitPool::new(F64Arith::new());
        let err = pool.register_engines("alarm-v2", sum, mpe).unwrap_err();
        assert!(
            matches!(err, EngineError::Verify(VerifyError::UseBeforeDef { .. })),
            "{kernel}: {err}"
        );
        assert!(pool.is_empty(), "a rejected tape never joins the pool");
    }

    // The compile-and-admit path still accepts the clean circuit.
    let mut pool: CircuitPool<F64Arith> = CircuitPool::new(F64Arith::new());
    pool.register("alarm-v2", &g).unwrap();
    assert_eq!(pool.len(), 1);
}
