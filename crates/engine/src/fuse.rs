//! The tape peephole fuser: instruction stream → superinstructions.
//!
//! # Why fuse
//!
//! [`crate::Tape`] lowers n-ary sums and products to left-to-right binary
//! accumulator chains, emitted **contiguously** — a k-ary node is k−1
//! adjacent instructions accumulating into one destination register. The
//! batch evaluator pays one dispatch plus one full destination-row
//! write-back per step. [`Tape::fuse`] collapses those shapes back into
//! superinstructions so the evaluator does one dispatch (and one
//! destination write) per *node* instead of per *edge*:
//!
//! ```text
//!   Mul  t  ← a, b                        MulAcc d ← acc, a, b
//!   Add  d  ← acc, t        ====>           (d = acc + a·b; t elided)
//!
//!   Add  d  ← c0, c1
//!   Add  d  ← d,  c2        ====>         Reduce d ← c0, [c1, c2, c3]
//!   Add  d  ← d,  c3                        (one fold, one write-back)
//! ```
//!
//! # Bit-identity
//!
//! Fusion never reorders or re-associates arithmetic: a [`FusedInstr::Reduce`]
//! performs exactly the unfused chain's left-to-right fold, and a
//! [`FusedInstr::MulAcc`] keeps the multiply and the accumulate as two
//! separate roundings (it is **not** an FMA — contracting them would
//! change `f64` bits). The only rewrite is *where intermediate values
//! live*: chain partials stay in a local accumulator instead of being
//! round-tripped through the destination row (exact for every `Arith` —
//! values are plain bit patterns), and a fused multiply's scratch
//! register is elided only when provably dead. `tests/kernels.rs`
//! proptests pin fused == unfused bit for bit across all three semirings
//! and arithmetics.
//!
//! # Mode awareness
//!
//! In [`TapeMode::Full`] every register is an *observable* per-node
//! output (the MPE traceback and the bounds analyses read them all), so
//! the fuser only applies chain collapse there — every register keeps
//! its final value. `MulAcc`, which elides a scratch register entirely,
//! is restricted to [`TapeMode::Compact`] tapes where liveness is known.

use crate::tape::{Instr, Tape, TapeMode};

/// The elementwise operation a fused instruction applies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Sum-product addition.
    Add,
    /// Product (all semirings).
    Mul,
    /// Max-product maximum.
    Max,
    /// Skip-zero minimum (min-value analysis, paper §3.1.4).
    MinNz,
}

impl BinOp {
    /// Decodes a binary tape instruction into `(op, dst, lhs, rhs)`;
    /// `None` for [`Instr::LoadIndicator`].
    pub(crate) fn decode(instr: Instr) -> Option<(BinOp, u32, u32, u32)> {
        match instr {
            Instr::LoadIndicator { .. } => None,
            Instr::Add { dst, lhs, rhs } => Some((BinOp::Add, dst, lhs, rhs)),
            Instr::Mul { dst, lhs, rhs } => Some((BinOp::Mul, dst, lhs, rhs)),
            Instr::Max { dst, lhs, rhs } => Some((BinOp::Max, dst, lhs, rhs)),
            Instr::MinNz { dst, lhs, rhs } => Some((BinOp::MinNz, dst, lhs, rhs)),
        }
    }
}

/// One fused superinstruction. Register semantics match [`Instr`];
/// `Reduce` operand lists live in the owning [`FusedTape`]'s side table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FusedInstr {
    /// `reg[dst] = indicator(slot)` — unchanged from [`Instr::LoadIndicator`].
    LoadIndicator {
        /// Destination register.
        dst: u32,
        /// Index into the tape's indicator slot table.
        slot: u32,
    },
    /// `reg[dst] = op(reg[lhs], reg[rhs])`: an unfused binary instruction.
    Bin {
        /// The elementwise operation.
        op: BinOp,
        /// Destination register.
        dst: u32,
        /// Left operand register.
        lhs: u32,
        /// Right operand register.
        rhs: u32,
    },
    /// `reg[dst] = op(reg[acc], reg[a] * reg[b])`: a multiply fused into
    /// its sole consumer. The multiply and the outer op are two separate
    /// roundings (never an FMA); the original multiply's destination
    /// register is elided.
    MulAcc {
        /// The outer (accumulating) operation.
        op: BinOp,
        /// Destination register.
        dst: u32,
        /// Accumulator operand register.
        acc: u32,
        /// Multiplicand register.
        a: u32,
        /// Multiplier register.
        b: u32,
    },
    /// `reg[dst] = fold(op, reg[first], operands[lo..hi])`: a collapsed
    /// k-ary accumulator chain, folding left to right in the unfused
    /// chain's exact order. `lo..hi` indexes [`FusedTape::operands`].
    Reduce {
        /// The fold operation.
        op: BinOp,
        /// Destination register.
        dst: u32,
        /// First (leftmost) operand register.
        first: u32,
        /// Start of the remaining operand registers in the side table.
        lo: u32,
        /// End (exclusive) of the operand range.
        hi: u32,
    },
}

/// Aggregate statistics of one fusion pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FuseStats {
    /// Instructions on the unfused source tape.
    pub source_instrs: usize,
    /// Superinstructions after fusion.
    pub fused_instrs: usize,
    /// `MulAcc` superinstructions emitted (one elided scratch register
    /// write each).
    pub mul_accs: usize,
    /// `Reduce` superinstructions emitted.
    pub reduces: usize,
}

impl std::fmt::Display for FuseStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} instrs -> {} fused ({} mulacc, {} reduce)",
            self.source_instrs, self.fused_instrs, self.mul_accs, self.reduces
        )
    }
}

/// A fused superinstruction stream over the same register file, root and
/// indicator slots as the [`Tape`] it was derived from.
///
/// Built by [`Tape::fuse`]; evaluated by
/// [`crate::Engine::with_kernel`]`(`[`crate::KernelKind::Fused`]`)`.
#[derive(Clone, Debug)]
pub struct FusedTape {
    instrs: Vec<FusedInstr>,
    /// Flattened `Reduce` operand registers, indexed by `lo..hi`.
    operands: Vec<u32>,
    stats: FuseStats,
}

impl FusedTape {
    /// The fused instruction stream.
    pub fn instrs(&self) -> &[FusedInstr] {
        &self.instrs
    }

    /// The operand registers of a [`FusedInstr::Reduce`] range.
    #[inline]
    pub fn operands(&self, lo: u32, hi: u32) -> &[u32] {
        &self.operands[lo as usize..hi as usize]
    }

    /// Statistics of the fusion pass that built this tape.
    pub fn stats(&self) -> FuseStats {
        self.stats
    }

    /// The whole flattened operand side table (the verifier bounds-checks
    /// `Reduce` ranges against it before slicing).
    pub(crate) fn operand_table(&self) -> &[u32] {
        &self.operands
    }

    /// Mutable access to the raw superinstruction stream. Exists so that
    /// verifier mutation tests can corrupt a stream on purpose; use
    /// [`Tape::verify_fused`] to re-check. Not a stable API.
    #[doc(hidden)]
    pub fn raw_instrs_mut(&mut self) -> &mut Vec<FusedInstr> {
        &mut self.instrs
    }

    /// Mutable access to the raw `Reduce` operand side table. Exists so
    /// that verifier mutation tests can corrupt fold order on purpose;
    /// use [`Tape::verify_fused`] to re-check. Not a stable API.
    #[doc(hidden)]
    pub fn raw_operands_mut(&mut self) -> &mut Vec<u32> {
        &mut self.operands
    }
}

impl std::fmt::Display for FusedTape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FusedTape({})", self.stats)
    }
}

/// Scratch-register liveness for the `MulAcc` rule, in one backward
/// pass over a flat per-register table. `dead[i]` says whether the
/// register instruction `i` writes is dead after instruction `i + 1`:
/// past that point it is overwritten before any read, or never touched
/// again. (Root registers are never dead — the caller excludes them.)
fn dead_after_next(instrs: &[Instr], num_regs: usize) -> Vec<bool> {
    // `read_next[r]`: the first access to `r` past the scan point is a
    // read (a write, or no access at all, leaves the value dead).
    let mut read_next = vec![false; num_regs];
    let mut dead = vec![true; instrs.len()];
    for k in (0..instrs.len()).rev() {
        if k > 0 {
            dead[k - 1] = !read_next[instrs[k - 1].dst() as usize];
        }
        // An instruction reads its operands before writing its
        // destination, so the reads are the earlier accesses and win.
        read_next[instrs[k].dst() as usize] = false;
        if let Some((_, _, lhs, rhs)) = BinOp::decode(instrs[k]) {
            read_next[lhs as usize] = true;
            read_next[rhs as usize] = true;
        }
    }
    dead
}

/// Extends `out`/`operands` with the maximal accumulator run continuing
/// `op` into `dst` starting at `instrs[from]`, returning the index past
/// the run. Emits nothing when the run is empty.
fn take_chain(
    instrs: &[Instr],
    from: usize,
    op: BinOp,
    dst: u32,
    out: &mut Vec<FusedInstr>,
    operands: &mut Vec<u32>,
    stats: &mut FuseStats,
) -> usize {
    let lo = operands.len() as u32;
    let mut j = from;
    while j < instrs.len() {
        match BinOp::decode(instrs[j]) {
            // A chain step accumulates the previous partial (`lhs == dst`)
            // with a register that is not the destination row (an aliased
            // rhs would observe the stale pre-chain value once the fold
            // keeps partials in a local accumulator).
            Some((o, d, l, r)) if o == op && d == dst && l == dst && r != dst => {
                operands.push(r);
                j += 1;
            }
            _ => break,
        }
    }
    let hi = operands.len() as u32;
    if hi == lo {
        return from;
    }
    // The run's fold starts from the destination's current value (it was
    // written by the instruction the caller already emitted).
    out.push(FusedInstr::Reduce {
        op,
        dst,
        first: dst,
        lo,
        hi,
    });
    stats.reduces += 1;
    j
}

impl Tape {
    /// Runs the peephole fusion pass, producing a superinstruction stream
    /// that evaluates bit-identically to this tape over the same register
    /// file (see the [module docs](crate::fuse) for the rewrite rules and
    /// the mode restrictions).
    pub fn fuse(&self) -> FusedTape {
        let instrs = self.instrs();
        let mut stats = FuseStats {
            source_instrs: instrs.len(),
            ..FuseStats::default()
        };
        let mut out: Vec<FusedInstr> = Vec::with_capacity(instrs.len());
        let mut operands: Vec<u32> = Vec::new();
        // MulAcc elides a scratch register, which is only legal where
        // registers are not observable per-node outputs.
        let mul_acc_ok = self.mode() == TapeMode::Compact;
        let dead = if mul_acc_ok {
            dead_after_next(instrs, self.num_regs())
        } else {
            Vec::new()
        };

        let mut i = 0;
        while i < instrs.len() {
            let Some((op, dst, lhs, rhs)) = BinOp::decode(instrs[i]) else {
                let Instr::LoadIndicator { dst, slot } = instrs[i] else {
                    unreachable!("decode returns None only for LoadIndicator")
                };
                out.push(FusedInstr::LoadIndicator { dst, slot });
                i += 1;
                continue;
            };

            // Rule B — MulAcc: a multiply whose result feeds the very next
            // instruction's rhs and is otherwise dead. `clhs != dst`
            // keeps the accumulator expressible; `cdst == dst` needs no
            // deadness proof (the fused op overwrites the scratch register
            // with the same value the unfused stream left there).
            if mul_acc_ok && op == BinOp::Mul && i + 1 < instrs.len() {
                if let Some((cop, cdst, clhs, crhs)) = BinOp::decode(instrs[i + 1]) {
                    let scratch_dead = cdst == dst || (dst != self.root_reg() && dead[i]);
                    if crhs == dst && clhs != dst && scratch_dead {
                        out.push(FusedInstr::MulAcc {
                            op: cop,
                            dst: cdst,
                            acc: clhs,
                            a: lhs,
                            b: rhs,
                        });
                        stats.mul_accs += 1;
                        // The consumer may have been the head of a longer
                        // chain; collapse the remaining steps.
                        i = take_chain(
                            instrs,
                            i + 2,
                            cop,
                            cdst,
                            &mut out,
                            &mut operands,
                            &mut stats,
                        );
                        continue;
                    }
                }
            }

            // Rule A — Reduce: collapse the maximal accumulator chain
            // headed by this instruction.
            let before = out.len();
            let j = take_chain(instrs, i + 1, op, dst, &mut out, &mut operands, &mut stats);
            if out.len() > before {
                // Merge the head into the emitted Reduce: its fold starts
                // from `lhs` and `rhs` joins the operand list front.
                let Some(FusedInstr::Reduce { first, lo, .. }) = out.last_mut() else {
                    unreachable!("take_chain emits a Reduce when it advances")
                };
                *first = lhs;
                // `rhs` must become the first folded operand. The side
                // table slice for this Reduce starts at `lo`; shift it.
                operands.insert(*lo as usize, rhs);
                let Some(FusedInstr::Reduce { hi, .. }) = out.last_mut() else {
                    unreachable!("just matched")
                };
                *hi += 1;
                i = j;
                continue;
            }
            out.push(FusedInstr::Bin { op, dst, lhs, rhs });
            i += 1;
        }

        stats.fused_instrs = out.len();
        let fused = FusedTape {
            instrs: out,
            operands,
            stats,
        };
        // Debug builds prove the fused stream equivalent to its source
        // (symbolic execution, fold order included) before handing it out.
        #[cfg(debug_assertions)]
        if let Err(e) = self.verify_fused(&fused) {
            panic!("fuse produced an ill-formed stream: {e}");
        }
        fused
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use problp_ac::{transform::binarize, AcGraph, Semiring};
    use problp_bayes::{networks, VarId};
    use proptest::prelude::*;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    /// λ_{a0}·0.3 + λ_{a1}·0.7 — two binary products into a binary sum.
    fn tiny() -> AcGraph {
        let mut g = AcGraph::new(vec![2]);
        let a0 = g.indicator(v(0), 0).unwrap();
        let a1 = g.indicator(v(0), 1).unwrap();
        let t0 = g.param(0.3).unwrap();
        let t1 = g.param(0.7).unwrap();
        let p0 = g.product(vec![a0, t0]).unwrap();
        let p1 = g.product(vec![a1, t1]).unwrap();
        let root = g.sum(vec![p0, p1]).unwrap();
        g.set_root(root);
        g
    }

    /// A 4-ary sum of binary products: chains worth collapsing.
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

    #[test]
    fn tiny_circuit_fuses_the_last_multiply() {
        let tape = Tape::compile(&tiny(), Semiring::SumProduct).unwrap();
        let fused = tape.fuse();
        // 2 loads + 2 muls + 1 add -> 2 loads + 1 mul + 1 mulacc.
        assert_eq!(fused.stats().source_instrs, 5);
        assert_eq!(fused.stats().mul_accs, 1);
        assert_eq!(fused.stats().fused_instrs, 4);
        assert!(fused
            .instrs()
            .iter()
            .any(|i| matches!(i, FusedInstr::MulAcc { op: BinOp::Add, .. })));
    }

    #[test]
    fn chains_collapse_to_reduce() {
        let tape = Tape::compile(&chained(), Semiring::SumProduct).unwrap();
        let fused = tape.fuse();
        let reduce = fused
            .instrs()
            .iter()
            .find_map(|i| match *i {
                FusedInstr::Reduce { op, lo, hi, .. } => Some((op, hi - lo)),
                _ => None,
            })
            .expect("the 4-ary sum collapses");
        assert_eq!(reduce.0, BinOp::Add);
        assert!(fused.stats().fused_instrs < fused.stats().source_instrs);
    }

    #[test]
    fn full_mode_never_elides_registers() {
        let tape = Tape::compile_full(&tiny(), Semiring::SumProduct).unwrap();
        let fused = tape.fuse();
        assert_eq!(fused.stats().mul_accs, 0, "every register is observable");
        // Every destination the unfused tape writes is still written.
        let mut written: Vec<bool> = vec![false; tape.num_regs()];
        for instr in fused.instrs() {
            match *instr {
                FusedInstr::LoadIndicator { dst, .. }
                | FusedInstr::Bin { dst, .. }
                | FusedInstr::MulAcc { dst, .. }
                | FusedInstr::Reduce { dst, .. } => written[dst as usize] = true,
            }
        }
        for instr in tape.instrs() {
            let dst = instr.dst();
            assert!(written[dst as usize], "register {dst} lost its write");
        }
    }

    #[test]
    fn semiring_ops_round_trip_through_fusion() {
        for (semiring, op) in [
            (Semiring::SumProduct, BinOp::Add),
            (Semiring::MaxProduct, BinOp::Max),
            (Semiring::MinProduct, BinOp::MinNz),
        ] {
            let tape = Tape::compile(&chained(), semiring).unwrap();
            let fused = tape.fuse();
            let has_op = fused.instrs().iter().any(|i| match *i {
                FusedInstr::Bin { op: o, .. }
                | FusedInstr::MulAcc { op: o, .. }
                | FusedInstr::Reduce { op: o, .. } => o == op,
                FusedInstr::LoadIndicator { .. } => false,
            });
            assert!(has_op, "{semiring:?} lowers sums to {op:?}");
        }
    }

    /// The per-register definition the backward pass replaces: walk the
    /// stream past `after` (an instruction's reads before its write) and
    /// let the first access to `reg` decide.
    fn dead_after_reference(instrs: &[Instr], reg: u32, after: usize) -> bool {
        for instr in instrs.iter().skip(after + 1) {
            if let Some((_, _, lhs, rhs)) = BinOp::decode(*instr) {
                if lhs == reg || rhs == reg {
                    return false;
                }
            }
            if instr.dst() == reg {
                return true;
            }
        }
        true
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On random circuits, raw and binarized, in both tape modes and
        /// all three semirings: the backward liveness pass agrees with
        /// the per-register definition at every instruction, and the
        /// stream it drives passes the fused-stream verifier.
        #[test]
        fn liveness_matches_the_per_register_definition(
            seed in 0u64..1000,
            vars in 3usize..9,
        ) {
            let net = networks::random_network(seed, vars, 3, 3);
            let raw = problp_ac::compile(&net).unwrap();
            let bin = binarize(&raw).unwrap();
            for ac in [&raw, &bin] {
                for semiring in [
                    Semiring::SumProduct,
                    Semiring::MaxProduct,
                    Semiring::MinProduct,
                ] {
                    for tape in [
                        Tape::compile(ac, semiring).unwrap(),
                        Tape::compile_full(ac, semiring).unwrap(),
                    ] {
                        let instrs = tape.instrs();
                        let dead = dead_after_next(instrs, tape.num_regs());
                        for (i, instr) in instrs.iter().enumerate() {
                            prop_assert_eq!(
                                dead[i],
                                dead_after_reference(instrs, instr.dst(), i + 1),
                                "instr {} of {:?} {:?}", i, tape.mode(), semiring
                            );
                        }
                        prop_assert_eq!(tape.verify_fused(&tape.fuse()), Ok(()));
                    }
                }
            }
        }
    }

    /// The Alarm fusion counts the serving figures rest on: the compact
    /// tape fuses one `MulAcc`, the full-values tape none (it elides no
    /// register), and both collapse the same 1300 chains.
    #[test]
    fn alarm_fuse_stats_are_pinned() {
        let ac = problp_ac::compile(&networks::alarm(7)).unwrap();
        let compact = Tape::compile(&ac, Semiring::SumProduct).unwrap().fuse();
        assert_eq!(
            compact.stats(),
            FuseStats {
                source_instrs: 3988,
                fused_instrs: 1900,
                mul_accs: 1,
                reduces: 1300,
            }
        );
        let full = Tape::compile_full(&ac, Semiring::SumProduct)
            .unwrap()
            .fuse();
        assert_eq!(
            full.stats(),
            FuseStats {
                source_instrs: 3988,
                fused_instrs: 1901,
                mul_accs: 0,
                reduces: 1300,
            }
        );
    }
}
