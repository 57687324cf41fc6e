//! # problp-engine — batched arithmetic-circuit execution for ProbLP
//!
//! The scalar evaluator in `problp-ac` walks the circuit arena per
//! evidence instance, allocating a full per-node value vector each time —
//! fine for the analyses, far too slow for bulk workloads (test-set error
//! measurement, throughput serving). This crate is the execution
//! subsystem that amortises the traversal:
//!
//! 1. [`Tape::compile`] turns an [`problp_ac::AcGraph`] into a flat,
//!    register-allocated instruction tape: the `optimize` pass elides
//!    dead and duplicate nodes, parameter constants are hoisted into
//!    pinned registers, indicator leaves resolve to `(variable, state)`
//!    slots, and n-ary operators lower to binary accumulator chains in
//!    the scalar evaluator's exact fold order — so tape results are
//!    **bit-identical** to [`problp_ac::AcGraph::evaluate_nodes`] (the
//!    property tests in `tests/proptests.rs` pin this for all three
//!    [`problp_ac::Semiring`]s).
//! 2. [`Engine`] binds a tape to a number system
//!    ([`problp_num::Arith`]), pre-converting the constants once, and
//!    evaluates whole [`problp_bayes::EvidenceBatch`]es per tape sweep:
//!    values live in a structure-of-arrays register file laid out
//!    `[register][lane]`, lanes are sharded across `std::thread`
//!    workers, and sticky [`problp_num::Flags`] are captured per batch
//!    ([`Engine::evaluate_batch`]) or per lane
//!    ([`Engine::evaluate_batch_flagged`]). Every entry point, the
//!    single-instance ones and the MPE traceback included, reads its
//!    answer out of the same sweep.
//!
//! 3. Beyond marginals, the engine serves the paper's other two query
//!    kinds in bulk ([`query`], dispatched by [`Engine::evaluate_query`]
//!    on a [`problp_bayes::BatchQuery`] descriptor): **MPE** decoding
//!    via max-product argmax traceback on a *full-values* tape
//!    ([`Tape::compile_full`]: no register reuse, one stable slot per
//!    node) with exact verification, and **conditional** posteriors as
//!    one sweep over marginal and joint lanes. The full-values mode also gives the
//!    max/min value analyses of `problp-bounds` per-node vectors that
//!    are bit-identical to the scalar walk.
//!
//! 4. That sweep dispatches through one of two evaluator cores
//!    ([`kernels`], selected by [`Engine::with_kernel`]): the reference
//!    **scalar** per-instruction loops, and the **fused**
//!    superinstruction stream ([`Tape::fuse`] collapses accumulator
//!    chains to [`FusedInstr::Reduce`] and multiply-into-consumer pairs
//!    to [`FusedInstr::MulAcc`] — same fold order, two roundings, never
//!    an FMA) over lane-chunked row kernels ([`KernelSet`],
//!    [`LANE_WIDTH`]-wide chunks, no intrinsics). Every
//!    [`CircuitPool`] engine runs the fused core, which
//!    `tests/kernels.rs` and the `problp-conformance` differential matrix
//!    pin bit-identical to the scalar walk.
//!
//! See the module docs of [`tape`] (tape layout, tape modes), [`fuse`]
//! (the peephole rules and their bit-identity argument), [`kernels`]
//! (the dispatch model and the per-arithmetic vectorization table),
//! [`query`] (MPE traceback, conditional lane blocks) and the engine
//! source (`engine.rs`, the sweep and lane sharding) for the
//! representation details, and `problp-bench`'s `engine_throughput`
//! bench plus the `reproduce kernels` study for the measured speedups
//! over the scalar tree-walk.
//!
//! # Examples
//!
//! ```
//! use problp_ac::{compile, Semiring};
//! use problp_bayes::{networks, Evidence, EvidenceBatch};
//! use problp_engine::Engine;
//! use problp_num::{FixedArith, FixedFormat};
//!
//! let net = networks::sprinkler();
//! let ac = compile(&net)?;
//!
//! // A thousand instances per sweep instead of a thousand tree-walks.
//! let mut batch = EvidenceBatch::new(net.var_count());
//! for _ in 0..1000 {
//!     batch.push(&Evidence::empty(net.var_count()));
//! }
//!
//! let lp = FixedArith::new(FixedFormat::new(1, 12)?);
//! let engine = Engine::from_graph(&ac, Semiring::SumProduct, lp)?;
//! let result = engine.evaluate_batch(&batch)?;
//! assert_eq!(result.values.len(), 1000);
//! assert!(!result.flags.range_violation());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
pub mod fuse;
pub mod kernels;
pub mod query;
pub mod serve;
pub mod tape;
pub mod verify;

pub use engine::{BatchResult, Engine, FlaggedBatchResult};
pub use error::EngineError;
pub use fuse::{BinOp, FuseStats, FusedInstr, FusedTape};
pub use kernels::{KernelKind, KernelSet, LANE_WIDTH};
pub use query::{ConditionalBatchResult, ConditionalLaneStatus, MpeBatchResult, QueryBatchResult};
pub use serve::{
    lane_answer_eq, CircuitPool, Gateway, GatewayConfig, LaneResult, ModelVersion, Priority,
    ServeConfig, ServeError, ServeRequest, ServeResponse, Server, ServerStats, Ticket,
};
pub use tape::{Instr, Tape, TapeMode, TapeStats};
pub use verify::VerifyError;
