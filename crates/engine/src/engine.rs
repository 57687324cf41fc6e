//! The batched, multi-threaded tape evaluator.
//!
//! # One sweep, lane sharding and the SoA register file
//!
//! Every entry point of the engine reads its answers out of one sweep,
//! `Engine::sweep`: it runs the kernel [`Engine::with_kernel`] selected
//! over a contiguous lane range in blocks of at most a given number of
//! lanes, and hands each finished block's register file to a read-out.
//! [`Engine::evaluate_batch`] copies the root row of each block,
//! [`Engine::evaluate_batch_flagged`] sweeps one-lane blocks,
//! [`Engine::evaluate_one`] is a one-lane [`Engine::evaluate_batch`],
//! [`Engine::evaluate_nodes_one`] copies a one-lane file, and
//! [`Engine::mpe_batch`] runs its traceback on each block's file.
//!
//! Lanes are split into contiguous shards of at least
//! [`MIN_LANES_PER_THREAD`] lanes, at most one per worker thread. One
//! shard runs inline on the caller's thread; several run on scoped
//! threads (`std::thread::scope`, no dependencies). [`run_shards`] is
//! the one runner behind every sharded entry point. Each shard sweeps a
//! structure-of-arrays register file laid out `[register][lane]`:
//!
//! ```text
//! regs: | r0 lane0 .. r0 laneB | r1 lane0 .. r1 laneB | ...
//! ```
//!
//! so every instruction becomes a tight loop over one destination row and
//! up to two source rows — contiguous streams the compiler can vectorize
//! and the prefetcher can follow. Batch sweeps tile a shard's lanes into
//! blocks of [`Engine::chunk`] lanes so the whole register file stays
//! cache-resident regardless of batch size. Parameter constants are
//! converted via [`Arith::from_f64`] once at engine construction and
//! broadcast into their pinned rows once per sweep.
//!
//! Register files are reused: a sweep takes one from a small free list
//! on the engine, re-initialises it (zero fill, parameter broadcast) and
//! hands it back when it ends, so steady-state serving allocates no
//! register memory. The list retains at most one file per concurrently
//! sweeping shard, and only files no larger than the default block's
//! (~512 KiB); a cloned engine starts with an empty list.
//!
//! Flag capture comes in two grades: [`Engine::evaluate_batch`] returns
//! the sticky [`Flags`] aggregated over the whole batch (what
//! `measure_errors` needs), while [`Engine::evaluate_batch_flagged`]
//! sweeps one lane per block, clearing the flags between blocks, and
//! reports per-lane flags — the input the fixed/float range analyses
//! need to pinpoint which instance violated a format's range.

use std::sync::{Mutex, MutexGuard, OnceLock};

use problp_ac::{AcGraph, Semiring};
use problp_bayes::{Evidence, EvidenceBatch, VarId};
use problp_num::{Arith, Flags};

use crate::error::{collect_worker_results, EngineError};
use crate::fuse::{BinOp, FusedInstr, FusedTape};
use crate::kernels::{scalar_bin_rows, KernelKind, KernelSet};
use crate::query::TraceOp;
use crate::tape::{Instr, Tape, TapeMode};

/// Target byte size of one worker's SoA register file: small enough to
/// stay L2-resident, large enough to amortise the per-block overhead.
const TARGET_REGFILE_BYTES: usize = 512 * 1024;

/// Picks the default lane-block size for a register file of `num_regs`
/// values of `value_bytes` each.
fn default_chunk(num_regs: usize, value_bytes: usize) -> usize {
    (TARGET_REGFILE_BYTES / (num_regs.max(1) * value_bytes.max(1))).clamp(16, 1024)
}

/// Below this many lanes per thread, sharding costs more than it saves.
const MIN_LANES_PER_THREAD: usize = 32;

/// Runs `work` once per shard and returns the results in shard order.
/// A single shard runs inline on the caller's thread, so a small batch
/// pays for no thread spawn; several run one per scoped thread. Either
/// way a panicking shard comes back as [`EngineError::WorkerPanic`]
/// once every shard has finished, and the engine stays usable.
pub(crate) fn run_shards<S, R>(
    shards: impl ExactSizeIterator<Item = S>,
    work: impl Fn(S) -> R + Sync,
) -> Result<Vec<R>, EngineError>
where
    S: Send,
    R: Send,
{
    let joined = if shards.len() <= 1 {
        shards
            .map(|shard| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(shard))))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = shards
                .map(|shard| scope.spawn(move || work(shard)))
                .collect();
            // Join every handle before leaving the scope so one
            // panicking shard cannot re-panic the scope exit.
            handles.into_iter().map(|h| h.join()).collect()
        })
    };
    collect_worker_results(joined)
}

/// The default worker-thread count: all available cores, queried once
/// per process (the query reads cgroup files on Linux, and every model
/// registration builds two engines).
fn all_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The free list of SoA register files behind [`Engine::evaluate_batch`]
/// (see the module docs). Files are scratch space, not engine state:
/// every sweep re-initialises the one it takes, and a clone starts
/// empty.
struct RegFiles<V>(Mutex<Vec<Vec<V>>>);

impl<V> RegFiles<V> {
    /// Locks the list, recovering from poisoning: it only ever holds
    /// whole files, and no code panics while holding the lock.
    fn lock(&self) -> MutexGuard<'_, Vec<Vec<V>>> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl<V> Clone for RegFiles<V> {
    fn clone(&self) -> Self {
        RegFiles(Mutex::default())
    }
}

impl<V> std::fmt::Debug for RegFiles<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RegFiles({} retained)", self.lock().len())
    }
}

/// The result of a batch evaluation.
#[derive(Clone, Debug)]
pub struct BatchResult<V> {
    /// The root value of each lane, in batch order.
    pub values: Vec<V>,
    /// Sticky flags aggregated across every lane and the engine's
    /// parameter conversions.
    pub flags: Flags,
}

/// The result of a flag-capturing batch evaluation.
#[derive(Clone, Debug)]
pub struct FlaggedBatchResult<V> {
    /// The root value of each lane, in batch order.
    pub values: Vec<V>,
    /// The sticky flags each individual lane raised (parameter-conversion
    /// flags included), in batch order.
    pub lane_flags: Vec<Flags>,
    /// The OR of `lane_flags`.
    pub flags: Flags,
}

/// A compiled circuit bound to a number system, ready for bulk
/// evaluation.
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
/// let batch = EvidenceBatch::from_evidences(
///     net.var_count(),
///     &[Evidence::empty(net.var_count())],
/// )?;
/// let result = engine.evaluate_batch(&batch)?;
/// assert!((result.values[0] - 1.0).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Engine<A: Arith> {
    pub(crate) tape: Tape,
    pub(crate) ctx: A,
    /// Parameter constants pre-converted into the engine's number system;
    /// `consts[p]` is broadcast into register row `param_regs[p]` before
    /// each sweep.
    pub(crate) consts: Vec<A::Value>,
    /// Flags raised converting the constants (merged into every result).
    pub(crate) const_flags: Flags,
    pub(crate) zero: A::Value,
    pub(crate) one: A::Value,
    pub(crate) threads: usize,
    pub(crate) chunk: usize,
    /// The fused superinstruction stream every sweep runs, present iff
    /// the engine runs the [`KernelKind::Fused`] core.
    fused: Option<FusedTape>,
    /// Retained SoA register files of finished sweeps.
    regfiles: RegFiles<A::Value>,
    /// The MPE traceback table, built by the first
    /// [`Engine::mpe_batch`]; engines that never decode MPE never build
    /// it.
    pub(crate) trace: OnceLock<Vec<TraceOp>>,
}

impl<A> Engine<A>
where
    A: KernelSet + Clone + Send + Sync,
    A::Value: Clone + Send + Sync,
{
    /// Builds an engine from a compiled tape and an arithmetic context.
    ///
    /// Parameter constants are converted through `ctx` here, once, rather
    /// than per evaluation as the scalar tree-walk does.
    pub fn new(tape: Tape, mut ctx: A) -> Self {
        ctx.clear_flags();
        let consts: Vec<A::Value> = tape.params().iter().map(|&p| ctx.from_f64(p)).collect();
        let const_flags = ctx.flags();
        let zero = ctx.zero();
        let one = ctx.one();
        ctx.clear_flags();
        let chunk = default_chunk(tape.num_regs(), std::mem::size_of::<A::Value>());
        Engine {
            tape,
            ctx,
            consts,
            const_flags,
            zero,
            one,
            threads: all_cores(),
            chunk,
            fused: None,
            regfiles: RegFiles(Mutex::default()),
            trace: OnceLock::new(),
        }
    }

    /// Compiles `ac` under `semiring` and builds an engine in one step.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Circuit`] for invalid circuits.
    pub fn from_graph(ac: &AcGraph, semiring: Semiring, ctx: A) -> Result<Self, EngineError> {
        Ok(Engine::new(Tape::compile(ac, semiring)?, ctx))
    }

    /// Like [`Engine::from_graph`], but on a **full-values** tape
    /// ([`Tape::compile_full`]): register `i` holds source node `i`'s
    /// value after a sweep, which [`Engine::evaluate_nodes_one`] and
    /// [`Engine::mpe_batch`] require.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Circuit`] for invalid circuits.
    pub fn from_graph_full(ac: &AcGraph, semiring: Semiring, ctx: A) -> Result<Self, EngineError> {
        Ok(Engine::new(Tape::compile_full(ac, semiring)?, ctx))
    }

    /// Caps the number of worker threads. `0` restores the default (all
    /// available cores — the CLI's `--threads 0` convention); `1` forces
    /// single-threaded evaluation.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 { all_cores() } else { threads };
        self
    }

    /// Sets the lane-block size of the SoA register file. The default is
    /// sized so the register file stays cache-resident
    /// (`~512 KiB / (registers x value size)`, clamped to 16..=1024).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Selects the evaluator core every entry point sweeps through (see
    /// [`KernelKind`] and the [`crate::kernels`] module docs). The
    /// default is [`KernelKind::Scalar`] — the reference path the fused
    /// core is proven bit-identical to. [`KernelKind::Fused`] runs the
    /// tape through the peephole fuser ([`Tape::fuse`]) here, once; it is
    /// what every [`crate::CircuitPool`] engine runs.
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.fused = match kernel {
            KernelKind::Fused => Some(self.tape.fuse()),
            KernelKind::Scalar => None,
        };
        self
    }

    /// The evaluator core selected by [`Engine::with_kernel`].
    pub fn kernel(&self) -> KernelKind {
        if self.fused.is_some() {
            KernelKind::Fused
        } else {
            KernelKind::Scalar
        }
    }

    /// The fused superinstruction stream, when the engine runs the
    /// [`KernelKind::Fused`] core.
    pub fn fused_tape(&self) -> Option<&FusedTape> {
        self.fused.as_ref()
    }

    /// The compiled tape backing this engine.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// Mutable access to the backing tape. Exists so verifier mutation
    /// tests can corrupt an engine's tape and prove the
    /// [`crate::CircuitPool`] admission gate rejects it; an engine edited
    /// through this computes garbage. Not a stable API.
    #[doc(hidden)]
    pub fn raw_tape_mut(&mut self) -> &mut Tape {
        self.trace = OnceLock::new();
        &mut self.tape
    }

    /// The engine's arithmetic context (a reference hook for differential
    /// harnesses that need to convert or compare engine values — e.g.
    /// `problp-conformance`'s bit-identity checks against the scalar
    /// evaluator and the hardware simulators).
    pub fn context(&self) -> &A {
        &self.ctx
    }

    /// Converts engine values back to `f64` for inspection.
    pub fn to_f64s(&self, values: &[A::Value]) -> Vec<f64> {
        values.iter().map(|v| self.ctx.to_f64(v)).collect()
    }

    pub(crate) fn check_batch(&self, batch: &EvidenceBatch) -> Result<(), EngineError> {
        if batch.var_count() != self.tape.var_count() {
            return Err(EngineError::BatchLengthMismatch {
                batch: batch.var_count(),
                circuit: self.tape.var_count(),
            });
        }
        Ok(())
    }

    /// Lanes per shard for a batch of `lanes` lanes: at most one shard
    /// per worker thread, none below [`MIN_LANES_PER_THREAD`] lanes
    /// unless the whole batch is, and never zero.
    pub(crate) fn shard_len(&self, lanes: usize) -> usize {
        let shards = self
            .threads
            .min(lanes.div_ceil(MIN_LANES_PER_THREAD))
            .max(1);
        lanes.div_ceil(shards).max(1)
    }

    /// Evaluates every lane of the batch, returning root values in batch
    /// order plus the aggregated sticky flags.
    ///
    /// Lanes are sharded across worker threads; results are independent
    /// of the thread count and of the chunk size (each lane's value is
    /// computed by exactly the same instruction sequence).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BatchLengthMismatch`] if the batch ranges
    /// over a different number of variables than the compiled circuit,
    /// and [`EngineError::WorkerPanic`] if a shard worker panicked (the
    /// engine itself stays usable).
    pub fn evaluate_batch(
        &self,
        batch: &EvidenceBatch,
    ) -> Result<BatchResult<A::Value>, EngineError> {
        self.check_batch(batch)?;
        let lanes = batch.lanes();
        let mut values: Vec<A::Value> = vec![self.zero.clone(); lanes];
        let mut flags = self.const_flags;
        let root = self.tape.root_reg() as usize;
        let per = self.shard_len(lanes);
        let shards = values.chunks_mut(per).enumerate();
        let shard_flags = run_shards(shards, |(i, out)| {
            self.sweep(
                batch,
                i * per,
                out.len(),
                self.chunk,
                |regs, chunk, at, n, _| {
                    out[at..at + n].clone_from_slice(&regs[root * chunk..root * chunk + n]);
                },
            )
        })?;
        for f in shard_flags {
            flags.merge(f);
        }
        Ok(BatchResult { values, flags })
    }

    /// Like [`Engine::evaluate_batch`], but captures the sticky flags of
    /// every lane individually — the per-instance range-violation report
    /// the fixed/float analyses consume.
    ///
    /// This sweeps one lane per block, so prefer
    /// [`Engine::evaluate_batch`] when aggregate flags suffice.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::evaluate_batch`].
    pub fn evaluate_batch_flagged(
        &self,
        batch: &EvidenceBatch,
    ) -> Result<FlaggedBatchResult<A::Value>, EngineError> {
        self.check_batch(batch)?;
        let lanes = batch.lanes();
        let mut values: Vec<A::Value> = vec![self.zero.clone(); lanes];
        let mut lane_flags: Vec<Flags> = vec![Flags::new(); lanes];
        let root = self.tape.root_reg() as usize;
        let per = self.shard_len(lanes);
        let shards = values
            .chunks_mut(per)
            .zip(lane_flags.chunks_mut(per))
            .enumerate();
        run_shards(shards, |(i, (vals, flgs))| {
            self.sweep(batch, i * per, vals.len(), 1, |regs, _, at, _, mut f| {
                vals[at] = regs[root].clone();
                f.merge(self.const_flags);
                flgs[at] = f;
            })
        })?;
        let mut flags = Flags::new();
        for f in &lane_flags {
            flags.merge(*f);
        }
        Ok(FlaggedBatchResult {
            values,
            lane_flags,
            flags,
        })
    }

    /// Evaluates a single evidence instance: a one-lane
    /// [`Engine::evaluate_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BatchLengthMismatch`] on an evidence length
    /// mismatch, and [`EngineError::WorkerPanic`] if the sweep panicked.
    pub fn evaluate_one(&self, evidence: &Evidence) -> Result<(A::Value, Flags), EngineError> {
        let BatchResult { mut values, flags } = self.evaluate_batch(&one_lane(evidence))?;
        let value = values.pop().expect("a one-lane batch has one root value");
        Ok((value, flags))
    }

    /// Evaluates a single evidence instance on a **full-values** tape,
    /// returning the value of *every* circuit node: `values[i]` is source
    /// node `i`'s value, bit-identical to
    /// [`problp_ac::AcGraph::evaluate_nodes`] under the same arithmetic
    /// and semiring. This is the engine entry point of the max/min value
    /// analyses (`problp_bounds::AcAnalysis`).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NeedsFullValues`] unless the engine was
    /// built from [`Tape::compile_full`], and
    /// [`EngineError::BatchLengthMismatch`] on an evidence length
    /// mismatch.
    pub fn evaluate_nodes_one(
        &self,
        evidence: &Evidence,
    ) -> Result<(Vec<A::Value>, Flags), EngineError> {
        if self.tape.mode() != TapeMode::Full {
            return Err(EngineError::NeedsFullValues);
        }
        let batch = one_lane(evidence);
        self.check_batch(&batch)?;
        let mut values = Vec::new();
        let mut flags = self.sweep(&batch, 0, 1, 1, |regs, _, _, _, _| values = regs.to_vec());
        flags.merge(self.const_flags);
        Ok((values, flags))
    }

    /// The engine's one sweep: runs the selected kernel over lanes
    /// `start..start + lanes` of `batch` in blocks of at most `block`
    /// lanes, through one register file from the free list, and hands
    /// each finished block to `read(regs, chunk, at, n, flags)`. The
    /// block holds the `n` lanes from `start + at` on; register `r` of
    /// its lane `l` is `regs[r * chunk + l]`, and `flags` are the sticky
    /// flags the block raised. Returns the OR of every block's flags
    /// (parameter-conversion flags not included).
    pub(crate) fn sweep(
        &self,
        batch: &EvidenceBatch,
        start: usize,
        lanes: usize,
        block: usize,
        mut read: impl FnMut(&[A::Value], usize, usize, usize, Flags),
    ) -> Flags {
        let mut ctx = self.ctx.clone();
        let num_regs = self.tape.num_regs();
        let chunk = block.min(lanes).max(1);
        // A reused file is re-initialised exactly as a fresh one would
        // be: zero everywhere, then the parameter rows.
        let mut regs = self.regfiles.lock().pop().unwrap_or_default();
        regs.clear();
        regs.reserve_exact(num_regs * chunk);
        regs.resize(num_regs * chunk, self.zero.clone());
        // Pinned parameter rows are written once: no instruction ever uses
        // them as a destination.
        for (c, &p) in self.consts.iter().zip(self.tape.param_regs()) {
            let p = p as usize;
            regs[p * chunk..p * chunk + chunk].fill(c.clone());
        }
        let mut flags = Flags::new();
        let mut at = 0;
        while at < lanes {
            let n = chunk.min(lanes - at);
            ctx.clear_flags();
            match &self.fused {
                Some(fused) => {
                    self.sweep_chunk_fused(&mut ctx, batch, fused, &mut regs, chunk, start + at, n);
                }
                None => self.sweep_chunk_scalar(&mut ctx, batch, &mut regs, chunk, start + at, n),
            }
            read(&regs, chunk, at, n, ctx.flags());
            flags.merge(ctx.flags());
            at += n;
        }
        // Retain only files no larger than the default block's.
        let value_bytes = std::mem::size_of::<A::Value>();
        if regs.capacity() <= num_regs * default_chunk(num_regs, value_bytes) {
            self.regfiles.lock().push(regs);
        }
        flags
    }

    /// Broadcasts one indicator slot into its destination row.
    #[allow(clippy::too_many_arguments)]
    fn load_indicator_chunk(
        &self,
        batch: &EvidenceBatch,
        regs: &mut [A::Value],
        chunk: usize,
        dst: u32,
        slot: u32,
        base: usize,
        n: usize,
    ) {
        let (var, state) = self.tape.slot(slot);
        let col = batch.column(VarId::from_index(var as usize));
        let d = dst as usize * chunk;
        for l in 0..n {
            let observed = col[base + l];
            regs[d + l] = if observed >= 0 && observed != state as i32 {
                self.zero.clone()
            } else {
                self.one.clone()
            };
        }
    }

    /// One lane block through the reference scalar core: per-instruction
    /// loops through the `Arith` context, exactly the semantics the fused
    /// core is proven bit-identical to.
    fn sweep_chunk_scalar(
        &self,
        ctx: &mut A,
        batch: &EvidenceBatch,
        regs: &mut [A::Value],
        chunk: usize,
        base: usize,
        n: usize,
    ) {
        for &instr in self.tape.instrs() {
            match BinOp::decode(instr) {
                Some((op, dst, lhs, rhs)) => scalar_bin_rows(
                    ctx,
                    op,
                    regs,
                    dst as usize * chunk,
                    lhs as usize * chunk,
                    rhs as usize * chunk,
                    n,
                ),
                None => {
                    let Instr::LoadIndicator { dst, slot } = instr else {
                        unreachable!("decode returns None only for LoadIndicator")
                    };
                    self.load_indicator_chunk(batch, regs, chunk, dst, slot, base, n);
                }
            }
        }
    }

    /// One lane block through the fused superinstruction stream
    /// ([`KernelKind::Fused`]): one kernel dispatch per fused op.
    #[allow(clippy::too_many_arguments)]
    fn sweep_chunk_fused(
        &self,
        ctx: &mut A,
        batch: &EvidenceBatch,
        fused: &FusedTape,
        regs: &mut [A::Value],
        chunk: usize,
        base: usize,
        n: usize,
    ) {
        for instr in fused.instrs() {
            match *instr {
                FusedInstr::LoadIndicator { dst, slot } => {
                    self.load_indicator_chunk(batch, regs, chunk, dst, slot, base, n);
                }
                FusedInstr::Bin { op, dst, lhs, rhs } => {
                    ctx.bin_rows(
                        op,
                        regs,
                        dst as usize * chunk,
                        lhs as usize * chunk,
                        rhs as usize * chunk,
                        n,
                    );
                }
                FusedInstr::MulAcc { op, dst, acc, a, b } => {
                    ctx.mul_acc_rows(
                        op,
                        regs,
                        dst as usize * chunk,
                        acc as usize * chunk,
                        a as usize * chunk,
                        b as usize * chunk,
                        n,
                    );
                }
                FusedInstr::Reduce {
                    op,
                    dst,
                    first,
                    lo,
                    hi,
                } => {
                    ctx.reduce_rows(
                        op,
                        regs,
                        chunk,
                        dst as usize * chunk,
                        first as usize * chunk,
                        fused.operands(lo, hi),
                        n,
                    );
                }
            }
        }
    }
}

/// A one-lane batch of `evidence`.
fn one_lane(evidence: &Evidence) -> EvidenceBatch {
    let mut batch = EvidenceBatch::new(evidence.len());
    batch.push(evidence);
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use problp_bayes::networks;
    use problp_num::{F64Arith, FixedArith, FixedFormat};

    fn sprinkler_engine() -> (problp_bayes::BayesNet, Engine<F64Arith>) {
        let net = networks::sprinkler();
        let ac = problp_ac::compile(&net).unwrap();
        let engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new()).unwrap();
        (net, engine)
    }

    fn single_var_evidences(net: &problp_bayes::BayesNet) -> Vec<Evidence> {
        let mut out = vec![Evidence::empty(net.var_count())];
        for v in 0..net.var_count() {
            for s in 0..net.variable(VarId::from_index(v)).arity() {
                let mut e = Evidence::empty(net.var_count());
                e.observe(VarId::from_index(v), s);
                out.push(e);
            }
        }
        out
    }

    #[test]
    fn batch_matches_scalar_tree_walk_bit_for_bit() {
        let (net, engine) = sprinkler_engine();
        let evidences = single_var_evidences(&net);
        let ac = problp_ac::compile(&net).unwrap();
        let batch = EvidenceBatch::from_evidences(net.var_count(), &evidences).unwrap();
        let result = engine.evaluate_batch(&batch).unwrap();
        for (e, got) in evidences.iter().zip(&result.values) {
            let want = ac.evaluate(e).unwrap();
            assert_eq!(want.to_bits(), got.to_bits(), "evidence {e}");
        }
    }

    #[test]
    fn results_are_independent_of_threads_and_chunks() {
        let (net, engine) = sprinkler_engine();
        let evidences: Vec<Evidence> = (0..200).flat_map(|_| single_var_evidences(&net)).collect();
        let batch = EvidenceBatch::from_evidences(net.var_count(), &evidences).unwrap();
        let reference = engine
            .clone()
            .with_threads(1)
            .evaluate_batch(&batch)
            .unwrap();
        for threads in [2, 3, 8] {
            for chunk in [1, 7, 64] {
                let got = engine
                    .clone()
                    .with_threads(threads)
                    .with_chunk(chunk)
                    .evaluate_batch(&batch)
                    .unwrap();
                assert_eq!(
                    reference.values, got.values,
                    "threads={threads} chunk={chunk}"
                );
                assert_eq!(reference.flags, got.flags);
            }
        }
    }

    #[test]
    fn evaluate_one_matches_the_batch_path() {
        let (net, engine) = sprinkler_engine();
        for e in single_var_evidences(&net) {
            let batch =
                EvidenceBatch::from_evidences(net.var_count(), std::slice::from_ref(&e)).unwrap();
            let batched = engine.evaluate_batch(&batch).unwrap();
            let (single, _) = engine.evaluate_one(&e).unwrap();
            assert_eq!(single.to_bits(), batched.values[0].to_bits());
        }
    }

    #[test]
    fn flagged_evaluation_reports_per_lane_flags() {
        let net = networks::sprinkler();
        let ac = problp_ac::compile(&net).unwrap();
        // A deliberately tiny format: conversions are inexact.
        let format = FixedFormat::new(1, 4).unwrap();
        let engine =
            Engine::from_graph(&ac, Semiring::SumProduct, FixedArith::new(format)).unwrap();
        let batch =
            EvidenceBatch::from_evidences(net.var_count(), &single_var_evidences(&net)).unwrap();
        let flagged = engine.evaluate_batch_flagged(&batch).unwrap();
        assert_eq!(flagged.lane_flags.len(), batch.lanes());
        assert!(flagged.flags.inexact, "4 fraction bits cannot be exact");
        // Aggregate equals the OR of the lanes.
        let agg = engine.evaluate_batch(&batch).unwrap();
        assert_eq!(agg.flags, flagged.flags);
    }

    #[test]
    fn empty_batches_are_fine() {
        let (net, engine) = sprinkler_engine();
        let batch = EvidenceBatch::new(net.var_count());
        let result = engine.evaluate_batch(&batch).unwrap();
        assert!(result.values.is_empty());
    }

    #[test]
    fn run_shards_keeps_shard_order_and_runs_one_shard_inline() {
        let caller = std::thread::current().id();
        let squares = run_shards(0..5usize, |i| i * i).unwrap();
        assert_eq!(squares, vec![0, 1, 4, 9, 16]);
        // One shard runs on the caller's thread, several on threads of
        // their own.
        let ran_on = run_shards(0..1usize, |_| std::thread::current().id()).unwrap();
        assert_eq!(ran_on, vec![caller]);
        let ran_on = run_shards(0..3usize, |_| std::thread::current().id()).unwrap();
        assert!(ran_on.iter().all(|&id| id != caller), "{ran_on:?}");
    }

    #[test]
    fn run_shards_surfaces_a_panic_inline_and_scoped() {
        for shards in [1usize, 3] {
            let got = run_shards(0..shards, |i| {
                if i + 1 == shards {
                    panic!("shard {i} of {shards} failed");
                }
                i
            });
            match got {
                Err(EngineError::WorkerPanic { message }) => {
                    assert_eq!(message, format!("shard {} of {shards} failed", shards - 1));
                }
                other => panic!("{shards} shard(s): expected WorkerPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn batch_length_mismatch_is_reported() {
        let (_, engine) = sprinkler_engine();
        let batch = EvidenceBatch::new(2);
        assert!(matches!(
            engine.evaluate_batch(&batch).unwrap_err(),
            EngineError::BatchLengthMismatch { .. }
        ));
    }
}
