//! # ProbLP — a framework for low-precision probabilistic inference
//!
//! A from-scratch Rust reproduction of *ProbLP: A framework for
//! low-precision probabilistic inference* (Shah, Galindez Olascoaga,
//! Meert, Verhelst — DAC 2019).
//!
//! Given an arithmetic circuit compiled from a Bayesian network, a query
//! type and an error tolerance, ProbLP derives worst-case error bounds
//! for fixed- and floating-point arithmetic over the whole circuit, sizes
//! the minimal bit widths, selects the more energy-efficient
//! representation using TSMC 65 nm operator models, and generates
//! fully-pipelined custom-precision Verilog.
//!
//! This facade crate re-exports the workspace's sub-crates:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`num`] | `problp-num` | fixed-point / soft-float arithmetic, flags |
//! | [`bayes`] | `problp-bayes` | Bayesian networks, naive Bayes, ALARM |
//! | [`ac`] | `problp-ac` | arithmetic circuits, BN→AC compiler |
//! | [`bounds`] | `problp-bounds` | error analyses and bit-width search |
//! | [`engine`] | `problp-engine` | batched multi-threaded AC execution (tape compiler + SoA evaluator, marginal/MPE/conditional serving) |
//! | [`conformance`] | `problp-conformance` | differential cross-check: scalar vs tape vs schedule vs pipeline, bit for bit |
//! | [`energy`] | `problp-energy` | Table 1 models, gate-level estimator |
//! | [`hw`] | `problp-hw` | netlist, pipeline simulator, Verilog |
//! | [`data`] | `problp-data` | synthetic benchmarks, Alarm test sets |
//! | [`core`] | `problp-core` | the Fig. 2 pipeline and measurements |
//! | [`bench`](mod@bench) | `problp-bench` | tables/figures harness, accuracy studies, serving workload driver |
//! | [`telemetry`] | `problp-telemetry` | metrics registry, Prometheus rendering, `/metrics` sidecar |
//!
//! # Quickstart
//!
//! Build a network, compile it to an arithmetic circuit, and query it
//! (the paper's Fig. 1 example — `cargo run --example quickstart` walks
//! the same flow):
//!
//! ```
//! use problp::prelude::*;
//!
//! // 1. A Bayesian network: A -> B, A -> C (paper Fig. 1a).
//! let mut builder = BayesNetBuilder::new();
//! let a = builder.variable("A", 2);
//! let b = builder.variable("B", 2);
//! let c = builder.variable("C", 3);
//! builder.cpt(a, [], [0.6, 0.4])?;
//! builder.cpt(b, [a], [0.7, 0.3, 0.2, 0.8])?;
//! builder.cpt(c, [a], [0.5, 0.3, 0.2, 0.1, 0.4, 0.5])?;
//! let network = builder.build()?;
//!
//! // 2. Compile to an arithmetic circuit (Fig. 1b) and evaluate it.
//! let circuit = compile(&network)?;
//! let mut evidence = Evidence::empty(network.var_count());
//! evidence.observe(a, 0); // A = a1 in the paper's 1-based notation
//! evidence.observe(c, 2); // C = c3
//! assert!((circuit.evaluate(&evidence)? - 0.6 * 0.2).abs() < 1e-12);
//!
//! // 3. Run ProbLP: bounds, bit widths, energy, representation, RTL.
//! let report = Problp::new(&circuit)
//!     .query(QueryType::Marginal)
//!     .tolerance(Tolerance::Absolute(0.01))
//!     .run()?;
//! assert!(report.selected.bound <= 0.01);
//!
//! // 4. The low-precision circuit keeps the query within tolerance.
//! let stats = measure_errors(
//!     &problp::ac::transform::binarize(&circuit)?,
//!     report.selected.repr,
//!     QueryType::Marginal,
//!     a,
//!     &[evidence],
//! )?;
//! assert!(stats.max_abs <= report.selected.bound);
//!
//! // 5. And the hardware is part of the report.
//! assert!(report.hardware.verilog.contains("problp_ac_top"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Batched serving
//!
//! Bulk workloads go through the execution engine: pack the instances
//! into one columnar [`EvidenceBatch`](bayes::EvidenceBatch) and serve
//! marginal, MPE or conditional queries per tape sweep:
//!
//! ```
//! use problp::prelude::*;
//!
//! let network = problp::bayes::networks::sprinkler();
//! let circuit = compile(&network)?;
//! let batch = EvidenceBatch::from_evidences(
//!     network.var_count(),
//!     &[Evidence::empty(network.var_count())],
//! )?;
//!
//! // Marginals: Pr(e) per lane.
//! let engine = Engine::from_graph(&circuit, Semiring::SumProduct, F64Arith::new())?;
//! let marginals = engine.evaluate_batch(&batch)?;
//! assert!((marginals.values[0] - 1.0).abs() < 1e-12);
//!
//! // Conditionals: joint/marginal lane pairs, ratio outside the AC.
//! let rain = network.find("Rain").unwrap();
//! let cond = engine.conditional_batch(&batch, rain)?;
//! assert!((cond.posteriors[0].iter().sum::<f64>() - 1.0).abs() < 1e-9);
//!
//! // MPE: max-product argmax traceback on a full-values tape.
//! let decoder = Engine::from_graph_full(&circuit, Semiring::MaxProduct, F64Arith::new())?;
//! let mpe = decoder.mpe_batch(&batch)?;
//! let (oracle, value) = network.mpe(&Evidence::empty(network.var_count()));
//! assert_eq!(mpe.assignments[0], oracle);
//! assert!((mpe.values[0] - value).abs() < 1e-12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use problp_ac as ac;
pub use problp_bayes as bayes;
pub use problp_bench as bench;
pub use problp_bounds as bounds;
pub use problp_conformance as conformance;
pub use problp_core as core;
pub use problp_data as data;
pub use problp_energy as energy;
pub use problp_engine as engine;
pub use problp_engine::serve::gateway;
pub use problp_hw as hw;
pub use problp_num as num;
pub use problp_telemetry as telemetry;
pub use problp_verify as verify;

/// The most common imports for working with ProbLP.
pub mod prelude {
    pub use problp_ac::{compile, compile_naive_bayes, optimize, AcGraph, Semiring};
    pub use problp_bayes::{
        BatchQuery, BayesNet, BayesNetBuilder, Evidence, EvidenceBatch, NaiveBayes, VarId,
    };
    pub use problp_bounds::{LeafErrorModel, QueryType, Tolerance};
    pub use problp_conformance::{run_conformance, ConformanceConfig, ConformanceReport};
    pub use problp_core::{measure_errors, Problp, Report};
    pub use problp_engine::{
        CircuitPool, Engine, Gateway, GatewayConfig, Priority, ServeConfig, ServeRequest,
        ServeResponse, Server, ServerStats, Tape, TapeMode,
    };
    pub use problp_hw::{emit_testbench, emit_verilog, Netlist, PipelineSim};
    pub use problp_num::{
        Arith, F64Arith, FixedArith, FixedFormat, FixedRounding, FloatArith, FloatFormat,
        Representation,
    };
}
