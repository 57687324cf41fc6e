//! Batched MPE and conditional serving on the execution engine.
//!
//! # MPE: argmax traceback on the full-values tape
//!
//! A max-product sweep yields the MPE *value* `max_x Pr(x, e)` in one
//! pass (paper §3.2.1); [`Engine::mpe_batch`] also recovers the
//! maximizing *assignment* per lane. It sweeps the batch through the
//! full-values tape (every node keeps a stable register, and fusion
//! keeps every register's final value), on the engine's kernel like any
//! other sweep. Then, on each finished lane block, it walks each lane's
//! registers backwards from the root: product chains descend into all
//! operands, max chains descend into the first operand whose value
//! equals the chain's result, and the indicator leaves reached on the
//! way name the chosen states. The walk reads a per-register table of
//! producing ops that the engine builds on its first decode and keeps,
//! and it converts to `f64` only the registers it compares. The decoded
//! assignment is then *verified*: all candidate lanes are re-evaluated
//! fully observed in one batched sweep, and any lane whose joint value
//! does not reproduce its max-product root value bit for bit (possible
//! only on circuits without the smoothness the BN→AC compiler
//! guarantees) falls back to exact sequential conditioning — so the
//! result is always exact, and the fast path is two sweeps instead of
//! the `Σ arity` sweeps of [`problp_ac::AcGraph::mpe_assignment`].
//!
//! # Conditional: one sweep over marginal and joint lanes
//!
//! [`Engine::conditional_batch`] serves `Pr(q = s | e)` the way the
//! paper's hardware does (§3.2.2): a *marginal* (denominator) `Pr(e)`
//! and one *joint* (numerator) `Pr(q = s, e)` per state `s`, each a
//! forward evaluation of the circuit, with the final ratio taken
//! outside it. All of them run as one sweep over a lane-expanded batch
//! ([`EvidenceBatch::with_state_blocks`]): a block of marginal lanes
//! with `q` unobserved, then one block per state with `q` clamped.
//! Every lane runs the instruction sequence it would run alone, so the
//! values, the flags and ProbLP's ratio bound are those of separate
//! sweeps. The per-lane argmax over the joints is the classifier
//! prediction, which is what the accuracy studies in `problp-bench`
//! consume.

use problp_ac::Semiring;
use problp_bayes::{BatchQuery, Evidence, EvidenceBatch, VarId};
use problp_num::Flags;

use crate::engine::{run_shards, BatchResult, Engine};
use crate::error::EngineError;
use crate::kernels::KernelSet;
use crate::tape::{Instr, Tape, TapeMode};

/// The result of a batched MPE decode ([`Engine::mpe_batch`]).
#[derive(Clone, Debug)]
pub struct MpeBatchResult<V> {
    /// The most probable completion of each lane's evidence: one state
    /// per variable, observed variables keeping their observed states.
    pub assignments: Vec<Vec<usize>>,
    /// The max-product root value `max_x Pr(x, e)` of each lane —
    /// bit-identical to [`problp_ac::AcGraph::evaluate_mpe`] under the
    /// engine's arithmetic.
    pub values: Vec<V>,
    /// Sticky flags aggregated across every lane and the engine's
    /// parameter conversions.
    pub flags: Flags,
}

/// Per-lane outcome of a batched conditional query: whether the
/// posterior ratio was well defined.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConditionalLaneStatus {
    /// The lane's marginal `Pr(e)` was non-zero; its posteriors are
    /// meaningful.
    Ok,
    /// The lane's marginal `Pr(e)` evaluated to exactly zero — the
    /// evidence is impossible under the model (or underflowed to zero in
    /// a low-precision format), so no posterior exists. The lane's
    /// posteriors are deliberately `NaN` and its prediction is
    /// meaningless; a serving layer should fail this lane, not the
    /// batch.
    ImpossibleEvidence,
}

impl ConditionalLaneStatus {
    /// `true` for [`ConditionalLaneStatus::Ok`].
    pub fn is_ok(self) -> bool {
        self == ConditionalLaneStatus::Ok
    }
}

/// The result of a batched conditional query
/// ([`Engine::conditional_batch`]).
#[derive(Clone, Debug)]
pub struct ConditionalBatchResult<V> {
    /// The denominator `Pr(e)` of each lane.
    pub marginals: Vec<V>,
    /// The numerators, `joints[s][lane] = Pr(q = s, e)`.
    pub joints: Vec<Vec<V>>,
    /// The posteriors, `posteriors[lane][s] = Pr(q = s | e)` — the ratio
    /// is taken outside the circuit, in `f64` (paper §3.2.2). All-`NaN`
    /// for lanes whose status is
    /// [`ConditionalLaneStatus::ImpossibleEvidence`].
    pub posteriors: Vec<Vec<f64>>,
    /// The argmax state of each lane's joints: the classifier
    /// prediction (numerators share a denominator, so the joint argmax
    /// is the posterior argmax). Meaningless for impossible-evidence
    /// lanes.
    pub predictions: Vec<usize>,
    /// Per-lane validity: [`ConditionalLaneStatus::ImpossibleEvidence`]
    /// marks lanes whose marginal was exactly zero.
    pub lane_status: Vec<ConditionalLaneStatus>,
    /// Sticky flags aggregated across the marginal and every joint
    /// batch.
    pub flags: Flags,
}

/// The result of [`Engine::evaluate_query`], one variant per
/// [`BatchQuery`] kind.
#[derive(Clone, Debug)]
pub enum QueryBatchResult<V> {
    /// `Pr(e)` per lane.
    Marginal(BatchResult<V>),
    /// Decoded MPE assignments and values per lane.
    Mpe(MpeBatchResult<V>),
    /// Posteriors, predictions and lane statuses for a conditional query.
    Conditional(ConditionalBatchResult<V>),
}

/// The traceback view of one full-tape register: what produced it and
/// from which operand registers. An engine builds its table of these on
/// its first MPE decode and keeps it.
#[derive(Clone, Debug)]
pub(crate) enum TraceOp {
    /// A pinned parameter register (no producing instruction).
    Const,
    /// Produced by `LoadIndicator` of this slot.
    Indicator(u32),
    /// A product chain over these operand registers.
    Prod(Vec<u32>),
    /// A max chain over these operand registers.
    Choice(Vec<u32>),
}

/// Reconstructs per-register trace ops from a full-values instruction
/// stream (chains write their destination repeatedly; the destination is
/// unique per node in full mode, so grouping by `dst` recovers the
/// operand list).
fn trace_table(tape: &Tape) -> Vec<TraceOp> {
    let mut ops: Vec<TraceOp> = (0..tape.num_regs()).map(|_| TraceOp::Const).collect();
    let chain = |ops: &mut Vec<TraceOp>, dst: u32, lhs: u32, rhs: u32, prod: bool| {
        if lhs == dst {
            match &mut ops[dst as usize] {
                TraceOp::Prod(c) | TraceOp::Choice(c) => c.push(rhs),
                _ => unreachable!("chain continuation follows a chain head"),
            }
        } else {
            ops[dst as usize] = if prod {
                TraceOp::Prod(vec![lhs, rhs])
            } else {
                TraceOp::Choice(vec![lhs, rhs])
            };
        }
    };
    for instr in tape.instrs() {
        match *instr {
            Instr::LoadIndicator { dst, slot } => {
                ops[dst as usize] = TraceOp::Indicator(slot);
            }
            Instr::Mul { dst, lhs, rhs } => chain(&mut ops, dst, lhs, rhs, true),
            Instr::Add { dst, lhs, rhs }
            | Instr::Max { dst, lhs, rhs }
            | Instr::MinNz { dst, lhs, rhs } => chain(&mut ops, dst, lhs, rhs, false),
        }
    }
    ops
}

/// Walks the chosen subcircuit from the root, collecting the indicator
/// states it commits to. `value(r)` is register `r`'s value as `f64`;
/// only the registers of the max chains the walk enters and their
/// operands are asked for. Returns `None` when the walk does not
/// determine a complete, evidence-consistent assignment (conflicting or
/// missing indicators), in which case the caller falls back to exact
/// sequential conditioning.
fn traceback(
    ops: &[TraceOp],
    tape: &Tape,
    value: impl Fn(u32) -> f64,
    observed: impl Fn(usize) -> i32,
) -> Option<Vec<usize>> {
    let mut chosen: Vec<Option<usize>> = vec![None; tape.var_count()];
    let mut stack = vec![tape.root_reg()];
    while let Some(r) = stack.pop() {
        match &ops[r as usize] {
            TraceOp::Const => {}
            TraceOp::Indicator(slot) => {
                let (var, state) = tape.slot(*slot);
                let (var, state) = (var as usize, state as usize);
                match chosen[var] {
                    Some(s) if s != state => return None,
                    _ => chosen[var] = Some(state),
                }
            }
            TraceOp::Prod(children) => stack.extend_from_slice(children),
            TraceOp::Choice(children) => {
                // Any operand achieving the chain's value witnesses the
                // max; verification catches the (non-smooth) cases where
                // the witness does not extend to a global assignment.
                let target = value(r).to_bits();
                let pick = children.iter().find(|&&c| value(c).to_bits() == target)?;
                stack.push(*pick);
            }
        }
    }
    let mut assignment = Vec::with_capacity(chosen.len());
    for (var, state) in chosen.into_iter().enumerate() {
        let o = observed(var);
        match state {
            // The chosen subcircuit must agree with the lane's evidence.
            Some(s) if o >= 0 && o != s as i32 => return None,
            Some(s) => assignment.push(s),
            // Untouched variable: keep the observed state if any; an
            // unobserved untouched variable means the circuit was not
            // smooth here — decode it exactly instead.
            None if o >= 0 => assignment.push(o as usize),
            None => return None,
        }
    }
    Some(assignment)
}

impl<A> Engine<A>
where
    A: KernelSet + Clone + Send + Sync,
    A::Value: Clone + Send + Sync,
{
    /// Decodes the most probable explanation of every lane: the
    /// completion of the lane's evidence with the highest joint
    /// probability, and that probability (see the module docs for the
    /// traceback-plus-verification scheme). The first call builds the
    /// engine's traceback table; later calls, and clones made after it,
    /// reuse it.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::SemiringMismatch`] unless the tape was
    /// compiled for [`Semiring::MaxProduct`],
    /// [`EngineError::NeedsFullValues`] unless it is a full-values tape,
    /// [`EngineError::BatchLengthMismatch`] on a batch shape mismatch,
    /// and [`EngineError::WorkerPanic`] if a shard worker panicked (the
    /// engine stays usable).
    ///
    /// # Examples
    ///
    /// ```
    /// use problp_ac::{compile, Semiring};
    /// use problp_bayes::{networks, Evidence, EvidenceBatch};
    /// use problp_engine::Engine;
    /// use problp_num::F64Arith;
    ///
    /// let net = networks::sprinkler();
    /// let ac = compile(&net)?;
    /// let engine = Engine::from_graph_full(&ac, Semiring::MaxProduct, F64Arith::new())?;
    ///
    /// let batch = EvidenceBatch::from_evidences(
    ///     net.var_count(),
    ///     &[Evidence::empty(net.var_count())],
    /// )?;
    /// let mpe = engine.mpe_batch(&batch)?;
    /// let (oracle, oracle_value) = net.mpe(&Evidence::empty(net.var_count()));
    /// assert_eq!(mpe.assignments[0], oracle);
    /// assert!((mpe.values[0] - oracle_value).abs() < 1e-12);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn mpe_batch(
        &self,
        batch: &EvidenceBatch,
    ) -> Result<MpeBatchResult<A::Value>, EngineError> {
        if self.tape.semiring() != Semiring::MaxProduct {
            return Err(EngineError::SemiringMismatch {
                expected: Semiring::MaxProduct,
                actual: self.tape.semiring(),
            });
        }
        if self.tape.mode() != TapeMode::Full {
            return Err(EngineError::NeedsFullValues);
        }
        self.check_batch(batch)?;
        let lanes = batch.lanes();
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); lanes];
        let mut values: Vec<A::Value> = vec![self.zero.clone(); lanes];
        let mut decoded: Vec<bool> = vec![false; lanes];
        let mut flags = self.const_flags;

        // Phase 1 (sharded): one full-tape sweep, with each lane's
        // traceback read off its finished block.
        let ops = self.trace.get_or_init(|| trace_table(&self.tape));
        let root = self.tape.root_reg() as usize;
        let per = self.shard_len(lanes);
        let shards = values
            .chunks_mut(per)
            .zip(assignments.chunks_mut(per))
            .zip(decoded.chunks_mut(per))
            .enumerate();
        let shard_flags = run_shards(shards, |(shard, ((vals, asgs), dones))| {
            let start = shard * per;
            self.sweep(
                batch,
                start,
                vals.len(),
                self.chunk,
                |regs, chunk, at, n, _| {
                    for l in 0..n {
                        let (i, lane) = (at + l, start + at + l);
                        vals[i] = regs[root * chunk + l].clone();
                        let value = |r: u32| self.ctx.to_f64(&regs[r as usize * chunk + l]);
                        let observed = |var: usize| batch.column(VarId::from_index(var))[lane];
                        if let Some(a) = traceback(ops, &self.tape, value, observed) {
                            asgs[i] = a;
                            dones[i] = true;
                        }
                    }
                },
            )
        })?;
        for f in shard_flags {
            flags.merge(f);
        }

        // Phase 2: verify every traceback candidate in one shared batched
        // sweep — the fully observed assignment must reproduce the lane's
        // max-product root value exactly.
        let var_count = self.tape.var_count();
        let mut candidates = EvidenceBatch::new(var_count);
        let mut candidate_lanes = Vec::new();
        for lane in 0..lanes {
            if decoded[lane] {
                let mut e = Evidence::empty(var_count);
                for (v, &s) in assignments[lane].iter().enumerate() {
                    e.observe(VarId::from_index(v), s);
                }
                candidates.push(&e);
                candidate_lanes.push(lane);
            }
        }
        if !candidates.is_empty() {
            let check = self.evaluate_batch(&candidates)?;
            for (k, &lane) in candidate_lanes.iter().enumerate() {
                let joint = self.ctx.to_f64(&check.values[k]);
                let root = self.ctx.to_f64(&values[lane]);
                if joint.to_bits() != root.to_bits() {
                    decoded[lane] = false;
                }
            }
        }

        // Phase 3: exact sequential-conditioning fallback for the lanes
        // the traceback could not decode (the root value stays the
        // authoritative phase-1 sweep result).
        for lane in 0..lanes {
            if !decoded[lane] {
                let (assignment, f) = self.mpe_sequential(&batch.evidence(lane))?;
                assignments[lane] = assignment;
                flags.merge(f);
            }
        }
        Ok(MpeBatchResult {
            assignments,
            values,
            flags,
        })
    }

    /// Exact MPE decoding by sequential conditioning (the scheme of
    /// [`problp_ac::AcGraph::mpe_assignment`], on the tape): clamp each
    /// unobserved variable to the state keeping the max-product value
    /// maximal, then move on.
    fn mpe_sequential(&self, evidence: &Evidence) -> Result<(Vec<usize>, Flags), EngineError> {
        let mut fixed = evidence.clone();
        let mut flags = Flags::new();
        let arities = self.tape.var_arities();
        for (v, &arity) in arities.iter().enumerate() {
            let var = VarId::from_index(v);
            if fixed.state(var).is_some() {
                continue;
            }
            let mut best_state = 0usize;
            let mut best_value = f64::NEG_INFINITY;
            for s in 0..arity {
                fixed.observe(var, s);
                let (value, f) = self.evaluate_one(&fixed)?;
                flags.merge(f);
                let value = self.ctx.to_f64(&value);
                if value > best_value {
                    best_value = value;
                    best_state = s;
                }
            }
            fixed.observe(var, best_state);
        }
        let assignment = (0..arities.len())
            .map(|v| fixed.state(VarId::from_index(v)).expect("all fixed"))
            .collect();
        Ok((assignment, flags))
    }

    /// Serves the conditional posterior `Pr(q = s | e)` for every lane
    /// and every state `s` of `query_var`: one sweep over the marginal
    /// (denominator) lanes and one block of joint (numerator) lanes per
    /// state, ratios taken outside the circuit in `f64` (paper §3.2.2).
    /// `predictions` holds each lane's joint argmax — the classifier
    /// decision.
    ///
    /// An observation of `query_var` in the batch is ignored: the
    /// marginal lanes leave it unobserved and the joint lanes clamp it,
    /// so such a lane answers exactly as it would without it.
    ///
    /// Lanes whose marginal `Pr(e)` is exactly zero (impossible
    /// evidence) are marked
    /// [`ConditionalLaneStatus::ImpossibleEvidence`] in `lane_status`,
    /// with all-`NaN` posteriors — the division is never performed, so
    /// no silent `inf`/`NaN` reaches the predictions unannounced.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::SemiringMismatch`] unless the tape was
    /// compiled for [`Semiring::SumProduct`],
    /// [`EngineError::QueryVarOutOfRange`] for an unknown query
    /// variable, and [`EngineError::BatchLengthMismatch`] on a batch
    /// shape mismatch.
    ///
    /// # Examples
    ///
    /// ```
    /// use problp_ac::{compile, Semiring};
    /// use problp_bayes::{networks, Evidence, EvidenceBatch};
    /// use problp_engine::Engine;
    /// use problp_num::F64Arith;
    ///
    /// let net = networks::sprinkler();
    /// let ac = compile(&net)?;
    /// let engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new())?;
    ///
    /// let rain = net.find("Rain").unwrap();
    /// let mut e = Evidence::empty(net.var_count());
    /// e.observe(net.find("WetGrass").unwrap(), 1);
    /// let batch = EvidenceBatch::from_evidences(net.var_count(), &[e.clone()])?;
    /// let cond = engine.conditional_batch(&batch, rain)?;
    /// let oracle = net.conditional(rain, 1, &e);
    /// assert!((cond.posteriors[0][1] - oracle).abs() < 1e-12);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn conditional_batch(
        &self,
        batch: &EvidenceBatch,
        query_var: VarId,
    ) -> Result<ConditionalBatchResult<A::Value>, EngineError> {
        if self.tape.semiring() != Semiring::SumProduct {
            return Err(EngineError::SemiringMismatch {
                expected: Semiring::SumProduct,
                actual: self.tape.semiring(),
            });
        }
        self.check_batch(batch)?;
        if query_var.index() >= self.tape.var_count() {
            return Err(EngineError::QueryVarOutOfRange {
                var: query_var.index(),
                vars: self.tape.var_count(),
            });
        }
        let states = self.tape.var_arities()[query_var.index()];
        let lanes = batch.lanes();
        // One sweep over `states + 1` blocks of `lanes` lanes: the
        // marginals, then one joint block per state.
        let swept = self.evaluate_batch(&batch.with_state_blocks(query_var, states))?;
        let flags = swept.flags;
        let mut marginals = swept.values;
        let joint_lanes = marginals.split_off(lanes);
        let joints: Vec<Vec<A::Value>> = (0..states)
            .map(|s| joint_lanes[s * lanes..(s + 1) * lanes].to_vec())
            .collect();
        let mut posteriors = vec![vec![0.0f64; states]; lanes];
        let mut predictions = vec![0usize; lanes];
        let mut lane_status = vec![ConditionalLaneStatus::Ok; lanes];
        for lane in 0..lanes {
            let den = self.ctx.to_f64(&marginals[lane]);
            if den == 0.0 {
                // Impossible (or fully underflowed) evidence: there is no
                // posterior. Mark the lane instead of letting `0/0` or
                // `x/0` leak NaN/inf into downstream predictions
                // unannounced.
                lane_status[lane] = ConditionalLaneStatus::ImpossibleEvidence;
                posteriors[lane].fill(f64::NAN);
                continue;
            }
            let mut best = f64::NEG_INFINITY;
            for (s, joint) in joints.iter().enumerate() {
                let num = self.ctx.to_f64(&joint[lane]);
                posteriors[lane][s] = num / den;
                if num > best {
                    best = num;
                    predictions[lane] = s;
                }
            }
        }
        Ok(ConditionalBatchResult {
            marginals,
            joints,
            posteriors,
            predictions,
            lane_status,
            flags,
        })
    }

    /// Serves a [`BatchQuery`] descriptor: dispatches to
    /// [`Engine::evaluate_batch`], [`Engine::mpe_batch`] or
    /// [`Engine::conditional_batch`].
    ///
    /// # Errors
    ///
    /// Whatever the dispatched operation returns.
    pub fn evaluate_query(
        &self,
        batch: &EvidenceBatch,
        query: BatchQuery,
    ) -> Result<QueryBatchResult<A::Value>, EngineError> {
        match query {
            BatchQuery::Marginal => Ok(QueryBatchResult::Marginal(self.evaluate_batch(batch)?)),
            BatchQuery::Mpe => Ok(QueryBatchResult::Mpe(self.mpe_batch(batch)?)),
            BatchQuery::Conditional { query_var } => Ok(QueryBatchResult::Conditional(
                self.conditional_batch(batch, query_var)?,
            )),
        }
    }

    /// The instructions serving `query` over `lanes` lanes executes, as
    /// `(tape, fused)`: source-tape instructions, and the fused
    /// superinstructions among them that ran as such. A marginal sweeps
    /// `lanes` lanes, a conditional `(states + 1) × lanes` and an MPE
    /// `2 × lanes` (the traceback sweep, then one verification sweep),
    /// each through the fused stream when the engine runs it. The MPE's
    /// sequential-conditioning fallback, which only circuits without the
    /// compiler's smoothness reach, is not counted.
    pub(crate) fn swept_instrs(&self, query: BatchQuery, lanes: usize) -> (u64, u64) {
        let sweep = |lanes: usize| {
            let fused = self.fused_tape().map_or(0, |f| f.instrs().len());
            (
                (self.tape.instrs().len() * lanes) as u64,
                (fused * lanes) as u64,
            )
        };
        match query {
            BatchQuery::Marginal => sweep(lanes),
            BatchQuery::Conditional { query_var } => {
                let states = self.tape.var_arities().get(query_var.index());
                sweep(states.map_or(0, |s| (s + 1) * lanes))
            }
            BatchQuery::Mpe => sweep(2 * lanes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use problp_ac::compile;
    use problp_bayes::networks;
    use problp_num::{Arith, F64Arith, FixedArith, FixedFormat};

    /// The canonical workload pool: empty evidence plus every
    /// single-variable observation.
    fn single_and_empty_evidences(net: &problp_bayes::BayesNet) -> Vec<Evidence> {
        let arities: Vec<usize> = (0..net.var_count())
            .map(|v| net.variable(VarId::from_index(v)).arity())
            .collect();
        problp_bayes::single_variable_evidences(&arities)
    }

    #[test]
    fn mpe_batch_matches_the_scalar_decoder() {
        for net in [networks::figure1(), networks::sprinkler(), networks::asia()] {
            let ac = compile(&net).unwrap();
            let evidences = single_and_empty_evidences(&net);
            let batch = EvidenceBatch::from_evidences(net.var_count(), &evidences).unwrap();
            let engine =
                Engine::from_graph_full(&ac, Semiring::MaxProduct, F64Arith::new()).unwrap();
            let mpe = engine.mpe_batch(&batch).unwrap();
            for (lane, e) in evidences.iter().enumerate() {
                let (_, oracle_value) = ac.mpe_assignment(e).unwrap();
                assert_eq!(
                    mpe.values[lane].to_bits(),
                    oracle_value.to_bits(),
                    "lane {lane}"
                );
                // The decoded assignment achieves the value.
                let joint = net.joint_probability(&mpe.assignments[lane]);
                assert!((joint - oracle_value).abs() < 1e-12, "lane {lane}");
                // And respects the evidence.
                for (var, s) in e.iter() {
                    assert_eq!(mpe.assignments[lane][var.index()], s);
                }
            }
        }
    }

    #[test]
    fn mpe_builds_its_trace_table_on_first_use() {
        let net = networks::sprinkler();
        let ac = compile(&net).unwrap();
        let engine = Engine::from_graph_full(&ac, Semiring::MaxProduct, F64Arith::new()).unwrap();
        let batch =
            EvidenceBatch::from_evidences(net.var_count(), &single_and_empty_evidences(&net))
                .unwrap();
        // Value sweeps never need the table.
        engine.evaluate_batch(&batch).unwrap();
        assert!(engine.trace.get().is_none());
        let first = engine.mpe_batch(&batch).unwrap();
        let table = engine.trace.get().expect("built by the first decode") as *const _;
        let again = engine.mpe_batch(&batch).unwrap();
        assert!(std::ptr::eq(table, engine.trace.get().unwrap()));
        assert_eq!(first.assignments, again.assignments);
    }

    #[test]
    fn mpe_batch_is_exact_in_low_precision_too() {
        let net = networks::sprinkler();
        let ac = compile(&net).unwrap();
        let format = FixedFormat::new(1, 10).unwrap();
        let engine =
            Engine::from_graph_full(&ac, Semiring::MaxProduct, FixedArith::new(format)).unwrap();
        let evidences = single_and_empty_evidences(&net);
        let batch = EvidenceBatch::from_evidences(net.var_count(), &evidences).unwrap();
        let mpe = engine.mpe_batch(&batch).unwrap();
        // The root value matches the scalar low-precision walk bit for bit.
        let mut ctx = FixedArith::new(format);
        for (lane, e) in evidences.iter().enumerate() {
            let scalar = ac.evaluate_with(&mut ctx, e, Semiring::MaxProduct).unwrap();
            assert_eq!(
                ctx.to_f64(&scalar).to_bits(),
                engine.ctx.to_f64(&mpe.values[lane]).to_bits(),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn mpe_batch_rejects_wrong_tapes() {
        let net = networks::figure1();
        let ac = compile(&net).unwrap();
        let batch = EvidenceBatch::new(net.var_count());
        let sum = Engine::from_graph_full(&ac, Semiring::SumProduct, F64Arith::new()).unwrap();
        assert!(matches!(
            sum.mpe_batch(&batch).unwrap_err(),
            EngineError::SemiringMismatch { .. }
        ));
        let compact = Engine::from_graph(&ac, Semiring::MaxProduct, F64Arith::new()).unwrap();
        assert!(matches!(
            compact.mpe_batch(&batch).unwrap_err(),
            EngineError::NeedsFullValues
        ));
    }

    #[test]
    fn conditional_batch_matches_the_enumeration_oracle() {
        let net = networks::sprinkler();
        let ac = compile(&net).unwrap();
        let engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new()).unwrap();
        let rain = net.find("Rain").unwrap();
        let wet = net.find("WetGrass").unwrap();
        let mut e = Evidence::empty(net.var_count());
        e.observe(wet, 1);
        // Lane 2 also observes the query variable itself.
        let mut e_rain = e.clone();
        e_rain.observe(rain, 1);
        let batch = EvidenceBatch::from_evidences(
            net.var_count(),
            &[e.clone(), Evidence::empty(4), e_rain],
        )
        .unwrap();
        let cond = engine.conditional_batch(&batch, rain).unwrap();
        assert_eq!(cond.joints.len(), 2);
        // The marginal leaves the query variable unobserved, so lane 2
        // answers exactly as lane 0 does.
        assert_eq!(cond.marginals[2].to_bits(), cond.marginals[0].to_bits());
        for s in 0..2 {
            assert_eq!(cond.joints[s][2].to_bits(), cond.joints[s][0].to_bits());
            assert_eq!(
                cond.posteriors[2][s].to_bits(),
                cond.posteriors[0][s].to_bits()
            );
        }
        assert_eq!(cond.predictions[2], cond.predictions[0]);
        assert_eq!(cond.lane_status[2], ConditionalLaneStatus::Ok);
        for s in 0..2 {
            let oracle = net.conditional(rain, s, &e);
            assert!(
                (cond.posteriors[0][s] - oracle).abs() < 1e-12,
                "state {s}: {} vs {oracle}",
                cond.posteriors[0][s]
            );
        }
        // Posteriors normalize.
        for lane in 0..batch.lanes() {
            let sum: f64 = cond.posteriors[lane].iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            // The prediction achieves the maximum posterior (ties keep
            // the lowest state).
            let best = cond.posteriors[lane]
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(cond.posteriors[lane][cond.predictions[lane]], best);
        }
    }

    #[test]
    fn conditional_batch_rejects_bad_inputs() {
        let net = networks::figure1();
        let ac = compile(&net).unwrap();
        let engine = Engine::from_graph(&ac, Semiring::MaxProduct, F64Arith::new()).unwrap();
        let batch = EvidenceBatch::new(net.var_count());
        assert!(matches!(
            engine
                .conditional_batch(&batch, VarId::from_index(0))
                .unwrap_err(),
            EngineError::SemiringMismatch { .. }
        ));
        let engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new()).unwrap();
        assert!(matches!(
            engine
                .conditional_batch(&batch, VarId::from_index(99))
                .unwrap_err(),
            EngineError::QueryVarOutOfRange { .. }
        ));
    }

    #[test]
    fn evaluate_query_dispatches_every_kind() {
        let net = networks::sprinkler();
        let ac = compile(&net).unwrap();
        let batch =
            EvidenceBatch::from_evidences(net.var_count(), &[Evidence::empty(net.var_count())])
                .unwrap();
        let sum = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new()).unwrap();
        assert!(matches!(
            sum.evaluate_query(&batch, BatchQuery::Marginal).unwrap(),
            QueryBatchResult::Marginal(_)
        ));
        assert!(matches!(
            sum.evaluate_query(
                &batch,
                BatchQuery::Conditional {
                    query_var: VarId::from_index(0)
                }
            )
            .unwrap(),
            QueryBatchResult::Conditional(_)
        ));
        let max = Engine::from_graph_full(&ac, Semiring::MaxProduct, F64Arith::new()).unwrap();
        assert!(matches!(
            max.evaluate_query(&batch, BatchQuery::Mpe).unwrap(),
            QueryBatchResult::Mpe(_)
        ));
    }
}
