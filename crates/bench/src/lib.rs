//! # problp-bench — experiment harness for the ProbLP reproduction
//!
//! One function per table/figure of the paper's evaluation:
//!
//! * [`table1`] — the operator energy models (paper Table 1) next to the
//!   independent gate-level estimates;
//! * [`figure5a`] / [`figure5b`] — bound-vs-observed error sweeps on the
//!   Alarm circuit (paper Fig. 5);
//! * [`table2`] — the full framework on all four benchmarks (paper
//!   Table 2).
//!
//! Every serving measurement runs through one driver,
//! [`workload::run`]: a [`workload::Scenario`] names the models, the
//! trace and the transport, and the checked [`workload::Report`] becomes
//! one `BENCH_*.json` record ([`workload_bench_record`]). The
//! `reproduce` binary renders these as text tables and can emit the
//! `EXPERIMENTS.md` report; the Criterion benches in `benches/` measure
//! the runtime cost of each experiment's pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_json;
pub mod workload;

pub use bench_json::{
    conformance_bench_record, kernels_bench_record, validate_bench_json, verify_bench_record,
    workload_bench_record, BenchRecord, BENCH_SCHEMA,
};

use problp_ac::{compile, transform::binarize, AcGraph};
use problp_bounds::{
    fixed_query_bound, float_query_bound, AcAnalysis, BoundsError, LeafErrorModel, QueryType,
    Tolerance,
};
use problp_core::{gate_level_energy_nj, measure_errors, Problp};
use problp_data::Benchmark;
use problp_energy::{CellLibrary, EnergyModel, Tsmc65Model};
use problp_hw::Netlist;
use problp_num::{FixedFormat, FloatFormat, Representation};

/// Default RNG seed for every experiment (reproducible end to end).
pub const SEED: u64 = 7;

/// Renders Table 1: the fitted operator-level energy models, with the
/// gate-level structural estimates alongside (the reproduction's
/// "post-synthesis" stand-in).
pub fn table1() -> String {
    let model = Tsmc65Model;
    let lib = CellLibrary::default();
    let mut out = String::new();
    out.push_str("Table 1: energy models for arithmetic operators at 1 V (fJ/op)\n");
    out.push_str("  fitted model (paper)                 | this repo's gate-level estimate\n");
    out.push_str(&format!(
        "{:>6} | {:>10} | {:>10} | {:>10} | {:>10} || {:>9} | {:>9} | {:>9} | {:>9}\n",
        "bits",
        "fx add",
        "fx mul",
        "fl add",
        "fl mul",
        "g fx add",
        "g fx mul",
        "g fl add",
        "g fl mul"
    ));
    out.push_str(&format!("{}\n", "-".repeat(118)));
    for bits in [8u32, 12, 16, 20, 24, 32] {
        let fx = FixedFormat::new(1, bits - 1).expect("valid format");
        let fl = FloatFormat::new(8, bits - 1).expect("valid format");
        out.push_str(&format!(
            "{bits:>6} | {:>10.1} | {:>10.1} | {:>10.1} | {:>10.1} || {:>9.1} | {:>9.1} | {:>9.1} | {:>9.1}\n",
            model.fixed_add_fj(fx),
            model.fixed_mul_fj(fx),
            model.float_add_fj(fl),
            model.float_mul_fj(fl),
            lib.fixed_add_fj(fx),
            lib.fixed_mul_fj(fx),
            lib.float_add_fj(fl),
            lib.float_mul_fj(fl),
        ));
    }
    out.push_str("\nmodels: fx add 7.8N | fx mul 1.9 N^2 log2 N | fl add 44.74 (M+1) | fl mul 2.9 (M+1)^2 log2(M+1)\n");
    out
}

/// One point of a Figure 5 sweep.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SweepPoint {
    /// Fraction (5a) or mantissa (5b) bits.
    pub bits: u32,
    /// The analytical worst-case bound.
    pub bound: f64,
    /// Largest error observed on the test set.
    pub max_observed: f64,
    /// Mean error observed on the test set.
    pub mean_observed: f64,
}

/// The Alarm fixture shared by Figure 5 and Table 2.
pub struct AlarmFixture {
    /// The benchmark (network, query variable, test evidences).
    pub bench: Benchmark,
    /// The binarized circuit.
    pub ac: AcGraph,
    /// Its value-range analysis.
    pub analysis: AcAnalysis,
}

/// Builds the Alarm fixture with `instances` sampled test records (the
/// paper uses 1000).
pub fn alarm_fixture(instances: usize) -> AlarmFixture {
    let bench = problp_data::alarm_benchmark(SEED, instances);
    let ac = binarize(&compile(&bench.net).expect("alarm compiles")).expect("alarm binarizes");
    let analysis = AcAnalysis::new(&ac).expect("alarm analyzes");
    AlarmFixture {
        bench,
        ac,
        analysis,
    }
}

/// Figure 5(a): fixed-point marginal query on Alarm — analytical bound
/// and observed mean/max absolute error versus fraction bits (I = 1,
/// F = 8..=40 in the paper).
pub fn figure5a(fixture: &AlarmFixture, frac_bits: &[u32]) -> Vec<SweepPoint> {
    frac_bits
        .iter()
        .map(|&frac| {
            let format = FixedFormat::new(1, frac).expect("valid format");
            let bound = fixed_query_bound(
                &fixture.ac,
                &fixture.analysis,
                format,
                QueryType::Marginal,
                Tolerance::Absolute(1.0),
                LeafErrorModel::WorstCase,
            )
            .expect("bound computes");
            let stats = measure_errors(
                &fixture.ac,
                Representation::Fixed(format),
                QueryType::Marginal,
                fixture.bench.query_var,
                &fixture.bench.test_evidence,
            )
            .expect("measurement runs");
            SweepPoint {
                bits: frac,
                bound,
                max_observed: stats.max_abs,
                mean_observed: stats.mean_abs,
            }
        })
        .collect()
}

/// Figure 5(b): floating-point marginal query on Alarm — analytical bound
/// and observed mean/max relative error versus mantissa bits (E fixed by
/// the max-min analysis, M = 8..=40 in the paper).
pub fn figure5b(fixture: &AlarmFixture, mant_bits: &[u32]) -> Vec<SweepPoint> {
    let exp_bits =
        problp_bounds::required_exp_bits(&fixture.analysis, 0.5).expect("range representable");
    mant_bits
        .iter()
        .map(|&mant| {
            let format = FloatFormat::new(exp_bits, mant).expect("valid format");
            let bound = float_query_bound(
                &fixture.ac,
                &fixture.analysis,
                format,
                QueryType::Marginal,
                Tolerance::Relative(1.0),
            )
            .expect("bound computes");
            let stats = measure_errors(
                &fixture.ac,
                Representation::Float(format),
                QueryType::Marginal,
                fixture.bench.query_var,
                &fixture.bench.test_evidence,
            )
            .expect("measurement runs");
            SweepPoint {
                bits: mant,
                bound,
                max_observed: stats.max_rel,
                mean_observed: stats.mean_rel,
            }
        })
        .collect()
}

/// Renders a Figure 5 sweep as a text series.
pub fn render_sweep(title: &str, metric: &str, points: &[SweepPoint]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:>6} | {:>12} | {:>12} | {:>12} | bound/observed\n",
        "bits", "bound", metric, "mean"
    ));
    out.push_str(&format!("{}\n", "-".repeat(68)));
    for p in points {
        let ratio = if p.max_observed > 0.0 {
            format!("{:>10.1}x", p.bound / p.max_observed)
        } else {
            "        inf".to_string()
        };
        out.push_str(&format!(
            "{:>6} | {:>12.3e} | {:>12.3e} | {:>12.3e} | {ratio}\n",
            p.bits, p.bound, p.max_observed, p.mean_observed
        ));
    }
    out
}

/// One row of Table 2.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Benchmark name.
    pub ac_name: String,
    /// Query type.
    pub query: QueryType,
    /// Error tolerance.
    pub tolerance: Tolerance,
    /// Optimal fixed representation and its predicted energy, or the
    /// failure (`>64` idiom / not applicable).
    pub fixed: Result<(FixedFormat, f64), BoundsError>,
    /// Optimal float representation and its predicted energy.
    pub float: Result<(FloatFormat, f64), BoundsError>,
    /// Whether the selected representation is the fixed one.
    pub selected_fixed: bool,
    /// Max error observed on the test set with the selected
    /// representation (in the tolerance's metric).
    pub max_observed: f64,
    /// Gate-level ("post-synthesis" stand-in) energy of the selected
    /// datapath, nJ/eval.
    pub gate_level_nj: f64,
    /// Energy with 32-bit float operators, nJ/eval.
    pub float32_nj: f64,
}

/// The paper's Table 2 row list: benchmark × (query, tolerance metric)
/// combinations.
pub fn table2_combos() -> Vec<(&'static str, QueryType, Tolerance)> {
    vec![
        ("HAR", QueryType::Marginal, Tolerance::Absolute(0.01)),
        ("HAR", QueryType::Marginal, Tolerance::Relative(0.01)),
        ("HAR", QueryType::Conditional, Tolerance::Absolute(0.01)),
        ("HAR", QueryType::Conditional, Tolerance::Relative(0.01)),
        ("UNIMIB", QueryType::Marginal, Tolerance::Absolute(0.01)),
        ("UNIMIB", QueryType::Conditional, Tolerance::Relative(0.01)),
        ("UIWADS", QueryType::Marginal, Tolerance::Absolute(0.01)),
        ("UIWADS", QueryType::Marginal, Tolerance::Relative(0.01)),
        ("Alarm", QueryType::Marginal, Tolerance::Absolute(0.01)),
        ("Alarm", QueryType::Conditional, Tolerance::Relative(0.01)),
    ]
}

/// Builds the named benchmark (test set truncated to `instances`).
pub fn benchmark_by_name(name: &str, instances: usize) -> Benchmark {
    let mut bench = match name {
        "HAR" => problp_data::har_benchmark(SEED),
        "UNIMIB" => problp_data::unimib_benchmark(SEED),
        "UIWADS" => problp_data::uiwads_benchmark(SEED),
        "Alarm" => problp_data::alarm_benchmark(SEED, instances),
        other => panic!("unknown benchmark {other}"),
    };
    bench.test_evidence.truncate(instances);
    if let Some(labels) = &mut bench.test_labels {
        labels.truncate(instances);
    }
    // Keep the dataset aligned row-for-row with the truncated evidence
    // (`truncated` never returns an empty dataset, so drop it instead
    // when nothing is left).
    let kept = bench.test_evidence.len();
    bench.test_dataset = match bench.test_dataset.take() {
        Some(ds) if kept > 0 => Some(ds.truncated(kept)),
        _ => None,
    };
    bench
}

/// Runs one Table 2 row end to end. The observed-error measurement rides
/// inside the pipeline ([`Problp::measure_on`]), which bulk-evaluates the
/// test set through the batched execution engine.
pub fn table2_row(bench: &Benchmark, query: QueryType, tolerance: Tolerance) -> Table2Row {
    let raw = compile(&bench.net).expect("benchmark compiles");
    let report = Problp::new(&raw)
        .query(query)
        .tolerance(tolerance)
        .skip_rtl()
        .measure_on(bench.query_var, &bench.test_evidence)
        .run()
        .expect("at least one representation is feasible");
    let bin = binarize(&raw).expect("benchmark binarizes");
    let stats = report.observed.expect("measurement requested");
    let max_observed = match tolerance {
        Tolerance::Absolute(_) => stats.max_abs,
        Tolerance::Relative(_) => stats.max_rel,
    };
    // Gate-level estimate for the selected datapath.
    let nl = Netlist::from_ac(&bin, report.selected.repr).expect("netlist builds");
    let gate_level_nj =
        gate_level_energy_nj(&nl.stats(), report.selected.repr, &CellLibrary::default());
    let fixed = match (&report.fixed, &report.fixed_failure) {
        (Some(c), _) => Ok((
            c.repr.as_fixed().expect("fixed candidate"),
            c.energy.total_nj(),
        )),
        (None, Some(e)) => Err(e.clone()),
        _ => unreachable!("candidate or failure always present"),
    };
    let float = match (&report.float, &report.float_failure) {
        (Some(c), _) => Ok((
            c.repr.as_float().expect("float candidate"),
            c.energy.total_nj(),
        )),
        (None, Some(e)) => Err(e.clone()),
        _ => unreachable!("candidate or failure always present"),
    };
    Table2Row {
        ac_name: bench.name.clone(),
        query,
        tolerance,
        fixed,
        float,
        selected_fixed: report.selected.repr.is_fixed(),
        max_observed,
        gate_level_nj,
        float32_nj: report.baseline_float32_nj,
    }
}

/// Runs all of Table 2 (test sets truncated to `instances` per
/// benchmark).
pub fn table2(instances: usize) -> Vec<Table2Row> {
    let mut cache: std::collections::HashMap<&str, Benchmark> = std::collections::HashMap::new();
    table2_combos()
        .into_iter()
        .map(|(name, query, tolerance)| {
            let bench = cache
                .entry(name)
                .or_insert_with(|| benchmark_by_name(name, instances));
            table2_row(bench, query, tolerance)
        })
        .collect()
}

/// Renders Table 2 as a text table (the `*` marks the selected
/// representation, mirroring the paper's bold).
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "Table 2: optimal representations, selected repr (*), observed error and energy\n",
    );
    out.push_str(&format!(
        "{:>7} | {:>11} | {:>12} | {:>20} | {:>20} | {:>10} | {:>11} | {:>9}\n",
        "AC",
        "query",
        "tolerance",
        "opt fx I,F (nJ)",
        "opt fl E,M (nJ)",
        "max obs.",
        "gate (nJ)",
        "32b (nJ)"
    ));
    out.push_str(&format!("{}\n", "-".repeat(122)));
    for r in rows {
        let fixed = match &r.fixed {
            Ok((f, e)) => format!(
                "{}{},{} ({:.2})",
                if r.selected_fixed { "*" } else { "" },
                f.int_bits(),
                f.frac_bits(),
                e
            ),
            Err(BoundsError::ToleranceUnreachable { max_bits, .. }) => {
                format!("1,>{max_bits} ( - )")
            }
            Err(BoundsError::FixedUnsupportedForQuery) => "-".to_string(),
            Err(other) => format!("{other:?}"),
        };
        let float = match &r.float {
            Ok((f, e)) => format!(
                "{}{},{} ({:.2})",
                if r.selected_fixed { "" } else { "*" },
                f.exp_bits(),
                f.mant_bits(),
                e
            ),
            Err(e) => format!("{e:?}"),
        };
        out.push_str(&format!(
            "{:>7} | {:>11} | {:>12} | {:>20} | {:>20} | {:>10.1e} | {:>11.2} | {:>9.2}\n",
            r.ac_name,
            r.query.to_string(),
            r.tolerance.to_string(),
            fixed,
            float,
            r.max_observed,
            r.gate_level_nj,
            r.float32_nj
        ));
    }
    out
}

/// The downstream impact of low precision on classification: accuracy of
/// exact versus low-precision posteriors, and how often the predicted
/// class agrees.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AccuracyImpact {
    /// Classification accuracy with exact (f64) inference.
    pub exact_accuracy: f64,
    /// Classification accuracy with the selected low-precision format.
    pub lp_accuracy: f64,
    /// Fraction of instances where both agree on the predicted class.
    pub agreement: f64,
    /// Number of evaluated test instances.
    pub instances: usize,
}

/// Measures the classification impact of the representation ProbLP
/// selects for conditional queries at the given absolute tolerance — the
/// paper's motivating scenario (§1: threshold-based decisions are only
/// affected inside the tolerance band).
pub fn classification_impact(bench: &Benchmark, tolerance: f64) -> AccuracyImpact {
    use problp_ac::Semiring;
    use problp_num::{Arith, F64Arith, FixedArith, FloatArith};

    let raw = compile(&bench.net).expect("benchmark compiles");
    let report = Problp::new(&raw)
        .query(QueryType::Conditional)
        .tolerance(Tolerance::Absolute(tolerance))
        .skip_rtl()
        .run()
        .expect("a representation is feasible");
    let ac = binarize(&raw).expect("binarizes");
    let labels = bench.test_labels.as_ref().expect("classifier benchmark");
    let classes = bench.net.variable(bench.query_var).arity();

    let mut exact_correct = 0usize;
    let mut lp_correct = 0usize;
    let mut agree = 0usize;
    for (e, &label) in bench.test_evidence.iter().zip(labels) {
        // Exact posteriors (numerators share a denominator, so argmax of
        // the numerators suffices).
        let mut exact_ctx = F64Arith::new();
        let argmax_exact = argmax_class(&ac, &mut exact_ctx, e, bench, classes);
        // Low-precision posteriors in the selected representation.
        let argmax_lp = match report.selected.repr {
            problp_num::Representation::Fixed(f) => {
                let mut ctx = FixedArith::new(f);
                argmax_class(&ac, &mut ctx, e, bench, classes)
            }
            problp_num::Representation::Float(f) => {
                let mut ctx = FloatArith::new(f);
                argmax_class(&ac, &mut ctx, e, bench, classes)
            }
        };
        exact_correct += (argmax_exact == label) as usize;
        lp_correct += (argmax_lp == label) as usize;
        agree += (argmax_exact == argmax_lp) as usize;
    }
    let n = bench.test_evidence.len();

    fn argmax_class<A: Arith>(
        ac: &AcGraph,
        ctx: &mut A,
        e: &problp_bayes::Evidence,
        bench: &Benchmark,
        classes: usize,
    ) -> usize {
        let mut best = (0usize, f64::NEG_INFINITY);
        for c in 0..classes {
            let mut with_q = e.clone();
            with_q.observe(bench.query_var, c);
            let v = ac
                .evaluate_with(ctx, &with_q, Semiring::SumProduct)
                .expect("evaluates");
            let v = ctx.to_f64(&v);
            if v > best.1 {
                best = (c, v);
            }
        }
        best.0
    }

    AccuracyImpact {
        exact_accuracy: exact_correct as f64 / n as f64,
        lp_accuracy: lp_correct as f64 / n as f64,
        agreement: agree as f64 / n as f64,
        instances: n,
    }
}

/// Renders the classification-impact study for the three classifier
/// benchmarks.
pub fn accuracy_report(instances: usize) -> String {
    let mut out = String::new();
    out.push_str("Classification impact of the selected low-precision representation (tol 0.01)\n");
    out.push_str(&format!(
        "{:>8} | {:>10} | {:>10} | {:>10} | instances\n",
        "dataset", "exact acc", "lp acc", "agreement"
    ));
    out.push_str(&format!("{}\n", "-".repeat(62)));
    for name in ["HAR", "UNIMIB", "UIWADS"] {
        let bench = benchmark_by_name(name, instances);
        let impact = classification_impact(&bench, 0.01);
        out.push_str(&format!(
            "{name:>8} | {:>10.4} | {:>10.4} | {:>10.4} | {}\n",
            impact.exact_accuracy, impact.lp_accuracy, impact.agreement, impact.instances
        ));
    }
    out
}

/// One row of the per-precision classifier accuracy study: how one
/// number format serves the benchmark's test set.
#[derive(Clone, Debug)]
pub struct AccuracyRow {
    /// The representation (or `"f64"` for the exact reference).
    pub repr: String,
    /// Classification accuracy of the engine-served predictions.
    pub accuracy: f64,
    /// Fraction of instances predicted identically to exact `f64`.
    pub agreement: f64,
    /// Whether any lane raised a range violation (overflow/underflow) —
    /// formats ProbLP's bit-sizing would have rejected.
    pub range_violation: bool,
}

/// The per-precision classifier accuracy study of one benchmark.
#[derive(Clone, Debug)]
pub struct AccuracyStudy {
    /// Benchmark name.
    pub name: String,
    /// Evaluated test instances.
    pub instances: usize,
    /// Accuracy with exact `f64` inference (the `repr = "f64"` row's
    /// baseline; its agreement is 1 by definition).
    pub exact_accuracy: f64,
    /// One row per evaluated representation, fixed then float.
    pub rows: Vec<AccuracyRow>,
}

/// Runs the end-to-end batched serving path on a classifier benchmark:
/// the labeled test split is packed into one columnar batch
/// ([`problp_bayes::EvidenceBatch::from_dataset`]), and for each precision the engine
/// serves the class posterior of every instance as joint/marginal lane
/// pairs ([`problp_engine::Engine::conditional_batch`]); the per-lane
/// joint argmax is the prediction. This is the classifier-accuracy
/// counterpart of Table 2: where the table reports worst-case *error*
/// per selected format, this reports downstream *accuracy* per format.
///
/// # Panics
///
/// Panics if the benchmark is not a classifier benchmark (no
/// `test_dataset`), or a format is invalid.
pub fn accuracy_study(bench: &Benchmark, frac_bits: &[u32], mant_bits: &[u32]) -> AccuracyStudy {
    use problp_ac::Semiring;
    use problp_bayes::EvidenceBatch;
    use problp_engine::{Engine, KernelSet, Tape};
    use problp_num::{F64Arith, FixedArith, FloatArith};

    let ds = bench
        .test_dataset
        .as_ref()
        .expect("accuracy study needs a classifier benchmark with a test dataset");
    let ac = compile(&bench.net).expect("benchmark compiles");
    let batch = EvidenceBatch::from_dataset(ds, &bench.evidence_vars, bench.net.var_count())
        .expect("dataset matches the benchmark's evidence variables");
    let labels = ds.labels();

    // The tape is number-system agnostic: compile once, bind each
    // precision to a clone (the pattern `measure_errors` uses).
    let tape = Tape::compile(&ac, Semiring::SumProduct).expect("benchmark compiles to a tape");
    let exact_engine = Engine::new(tape.clone(), F64Arith::new());
    let exact = exact_engine
        .conditional_batch(&batch, bench.query_var)
        .expect("serves");
    let accuracy_of = |preds: &[usize]| {
        preds.iter().zip(labels).filter(|(p, l)| p == l).count() as f64 / labels.len() as f64
    };
    let agreement_of = |preds: &[usize]| {
        preds
            .iter()
            .zip(&exact.predictions)
            .filter(|(p, e)| p == e)
            .count() as f64
            / labels.len() as f64
    };

    fn serve<A>(
        tape: &Tape,
        batch: &problp_bayes::EvidenceBatch,
        query_var: problp_bayes::VarId,
        ctx: A,
    ) -> (Vec<usize>, bool)
    where
        A: KernelSet + Clone + Send + Sync,
        A::Value: Clone + Send + Sync,
    {
        let engine = Engine::new(tape.clone(), ctx);
        let r = engine.conditional_batch(batch, query_var).expect("serves");
        (r.predictions, r.flags.range_violation())
    }

    let mut rows = Vec::new();
    let mut record = |repr: String, (predictions, range_violation): (Vec<usize>, bool)| {
        rows.push(AccuracyRow {
            repr,
            accuracy: accuracy_of(&predictions),
            agreement: agreement_of(&predictions),
            range_violation,
        });
    };
    for &f in frac_bits {
        let format = FixedFormat::new(1, f).expect("valid fixed format");
        let ctx = FixedArith::new(format);
        record(
            format!("fx 1,{f}"),
            serve(&tape, &batch, bench.query_var, ctx),
        );
    }
    for &m in mant_bits {
        let format = FloatFormat::new(8, m).expect("valid float format");
        let ctx = FloatArith::new(format);
        record(
            format!("fl 8,{m}"),
            serve(&tape, &batch, bench.query_var, ctx),
        );
    }
    AccuracyStudy {
        name: bench.name.clone(),
        instances: labels.len(),
        exact_accuracy: accuracy_of(&exact.predictions),
        rows,
    }
}

/// The default precision grid of the accuracy study (fraction and
/// mantissa bits).
pub const ACCURACY_BITS: [u32; 6] = [4, 6, 8, 12, 16, 24];

/// Renders one accuracy study as a text table.
pub fn render_accuracy_study(study: &AccuracyStudy) -> String {
    let mut out = format!(
        "{}: per-precision classifier accuracy ({} engine-served test instances)\n",
        study.name, study.instances
    );
    out.push_str(&format!(
        "{:>8} | {:>10} | {:>12} | range violation\n",
        "repr", "accuracy", "vs f64"
    ));
    out.push_str(&format!("{}\n", "-".repeat(54)));
    out.push_str(&format!(
        "{:>8} | {:>10.4} | {:>12.4} | no\n",
        "f64", study.exact_accuracy, 1.0
    ));
    for r in &study.rows {
        out.push_str(&format!(
            "{:>8} | {:>10.4} | {:>12.4} | {}\n",
            r.repr,
            r.accuracy,
            r.agreement,
            if r.range_violation { "YES" } else { "no" }
        ));
    }
    out
}

/// Runs and renders the accuracy study for the three classifier
/// benchmarks on the default precision grid — the `problp accuracy`
/// subcommand and the `reproduce accuracy` section.
pub fn accuracy_study_report(names: &[&str], instances: usize) -> String {
    let instances = instances.max(1);
    let mut out = String::new();
    for name in names {
        let bench = benchmark_by_name(name, instances);
        let study = accuracy_study(&bench, &ACCURACY_BITS, &ACCURACY_BITS);
        out.push_str(&render_accuracy_study(&study));
        out.push('\n');
    }
    out
}

/// Renders the missing-data robustness study: the paper's introduction
/// motivates PGMs by their ability to handle missing inputs — an absent
/// sensor is simply marginalized (its indicators stay 1). Crucially, the
/// worst-case bounds hold for *every* indicator pattern, so the same
/// hardware keeps its guarantee under dropout.
pub fn missing_data_report(instances: usize, tolerance: f64) -> String {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let bench = benchmark_by_name("UIWADS", instances);
    let raw = compile(&bench.net).expect("compiles");
    let report = Problp::new(&raw)
        .query(QueryType::Conditional)
        .tolerance(Tolerance::Absolute(tolerance))
        .skip_rtl()
        .run()
        .expect("feasible");
    let ac = binarize(&raw).expect("binarizes");
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xD207);

    let mut out = String::new();
    out.push_str(&format!(
        "Missing-data robustness (UIWADS, {}, tol {tolerance}):\n",
        report.selected.repr
    ));
    out.push_str(&format!(
        "{:>10} | {:>10} | {:>12} | within bound\n",
        "dropout", "exact acc", "max lp err"
    ));
    out.push_str(&format!("{}\n", "-".repeat(52)));
    for dropout in [0.0f64, 0.25, 0.5, 0.75] {
        // Degrade the evidence: each observed feature survives with
        // probability 1 - dropout.
        let degraded: Vec<problp_bayes::Evidence> = bench
            .test_evidence
            .iter()
            .map(|e| {
                let mut d = e.clone();
                for (var, _) in e.iter() {
                    if rng.random::<f64>() < dropout {
                        d.forget(var);
                    }
                }
                d
            })
            .collect();
        let stats = measure_errors(
            &ac,
            report.selected.repr,
            QueryType::Conditional,
            bench.query_var,
            &degraded,
        )
        .expect("measures");
        // Exact accuracy under dropout (posterior argmax vs label).
        let labels = bench.test_labels.as_ref().expect("labels");
        let classes = bench.net.variable(bench.query_var).arity();
        let correct = degraded
            .iter()
            .zip(labels)
            .filter(|(e, label)| {
                let den = ac.evaluate(e).expect("evaluates");
                let best = (0..classes)
                    .max_by(|&x, &y| {
                        let px = {
                            let mut q = (*e).clone();
                            q.observe(bench.query_var, x);
                            ac.evaluate(&q).expect("evaluates")
                        };
                        let py = {
                            let mut q = (*e).clone();
                            q.observe(bench.query_var, y);
                            ac.evaluate(&q).expect("evaluates")
                        };
                        px.partial_cmp(&py).expect("finite")
                    })
                    .expect("classes");
                let _ = den;
                best == **label
            })
            .count();
        out.push_str(&format!(
            "{:>9.0}% | {:>10.4} | {:>12.3e} | {}\n",
            dropout * 100.0,
            correct as f64 / degraded.len() as f64,
            stats.max_abs,
            if stats.max_abs <= report.selected.bound {
                "yes"
            } else {
                "NO"
            }
        ));
    }
    out.push_str(
        "\naccuracy degrades gracefully; the error guarantee holds at every dropout level\n",
    );
    out
}

/// One row of the bulk-inference throughput study.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ThroughputPoint {
    /// Evidence instances per engine sweep.
    pub batch: usize,
    /// Scalar tree-walk evaluations per second.
    pub scalar_eps: f64,
    /// Single-lane tape evaluations per second.
    pub tape_eps: f64,
    /// Batched multi-threaded engine evaluations per second.
    pub batched_eps: f64,
}

impl ThroughputPoint {
    /// Speedup of the batched engine over the scalar tree-walk.
    pub fn speedup(&self) -> f64 {
        self.batched_eps / self.scalar_eps
    }
}

/// Runs `f` repeatedly for at least ~0.2 s and returns its rate in calls
/// per second, scaled by `evals_per_call`.
pub fn rate_of(mut f: impl FnMut(), evals_per_call: usize) -> f64 {
    use std::time::Instant;
    // Warm caches and the branch predictor.
    f();
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_secs_f64() < 0.2 {
        f();
        calls += 1;
    }
    calls as f64 * evals_per_call as f64 / start.elapsed().as_secs_f64()
}

/// Measures bulk marginal-inference throughput on the Alarm circuit:
/// scalar tree-walk vs single-lane tape vs the batched multi-threaded
/// engine, at the given batch sizes. `threads = 0` uses all cores.
pub fn throughput_points(batch_sizes: &[usize], threads: usize) -> Vec<ThroughputPoint> {
    use problp_ac::Semiring;
    use problp_bayes::{Evidence, EvidenceBatch};
    use problp_engine::Engine;
    use problp_num::F64Arith;

    let net = problp_bayes::networks::alarm(SEED);
    let ac = binarize(&compile(&net).expect("alarm compiles")).expect("alarm binarizes");
    let mut engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new())
        .expect("alarm compiles to a tape");
    if threads > 0 {
        engine = engine.with_threads(threads);
    }

    // Cycle through the single-variable evidences, the same pool the
    // error sweeps draw from.
    let pool = problp_bayes::single_variable_evidences(ac.var_arities());

    batch_sizes
        .iter()
        .map(|&batch_size| {
            let instances: Vec<Evidence> = (0..batch_size)
                .map(|i| pool[i % pool.len()].clone())
                .collect();
            let mut batch = EvidenceBatch::new(net.var_count());
            for e in &instances {
                batch.push(e);
            }
            let scalar_eps = rate_of(
                || {
                    for e in &instances {
                        std::hint::black_box(ac.evaluate(e).expect("evaluates"));
                    }
                },
                batch_size,
            );
            let tape_eps = rate_of(
                || {
                    for e in &instances {
                        std::hint::black_box(engine.evaluate_one(e).expect("evaluates"));
                    }
                },
                batch_size,
            );
            let batched_eps = rate_of(
                || {
                    std::hint::black_box(engine.evaluate_batch(&batch).expect("evaluates"));
                },
                batch_size,
            );
            ThroughputPoint {
                batch: batch_size,
                scalar_eps,
                tape_eps,
                batched_eps,
            }
        })
        .collect()
}

/// Renders the throughput study (the execution-engine counterpart of the
/// criterion bench `engine_throughput`).
pub fn throughput_report(threads: usize) -> String {
    let points = throughput_points(&[1, 64, 1024], threads);
    let mut out = String::new();
    out.push_str("Bulk inference throughput on Alarm (marginal, f64, evals/s)\n");
    out.push_str(&format!(
        "{:>6} | {:>12} | {:>12} | {:>14} | speedup vs scalar\n",
        "batch", "tree-walk", "tape x1", "batched tape"
    ));
    out.push_str(&format!("{}\n", "-".repeat(72)));
    for p in &points {
        out.push_str(&format!(
            "{:>6} | {:>12.0} | {:>12.0} | {:>14.0} | {:>12.1}x\n",
            p.batch,
            p.scalar_eps,
            p.tape_eps,
            p.batched_eps,
            p.speedup()
        ));
    }
    out
}

/// One arithmetic's row of the evaluator-kernel study ([`kernel_study`]):
/// the same batched sweep, single-threaded, under each [`problp_engine::KernelKind`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct KernelStudyRow {
    /// Arithmetic label (`f64` or `fixed:I.F`).
    pub arith: &'static str,
    /// Scalar-kernel batched engine evaluations per second.
    pub scalar_eps: f64,
    /// Fused superinstruction (vectorized row kernel) evaluations per
    /// second.
    pub fused_eps: f64,
}

impl KernelStudyRow {
    /// Speedup of the fused stream over the scalar tape walk.
    pub fn fused_speedup(&self) -> f64 {
        self.fused_eps / self.scalar_eps
    }
}

/// The evaluator-kernel study: single-core Alarm marginal sweeps at one
/// batch size, scalar vs fused kernels per arithmetic, with the
/// fusion statistics and an in-run bit-identity cross-check.
#[derive(Clone, Debug)]
pub struct KernelStudy {
    /// Evidence lanes per sweep.
    pub batch: usize,
    /// One row per arithmetic.
    pub rows: Vec<KernelStudyRow>,
    /// `true` when every kernel's results matched the scalar walk bit
    /// for bit during the study itself.
    pub identical: bool,
    /// The compact tape's fusion statistics.
    pub fuse: problp_engine::FuseStats,
}

/// Measures the evaluator kernels on the Alarm circuit: batched
/// marginals at `batch_size` lanes on a single engine thread, under f64
/// and the paper's fixed-point serving format, for each
/// [`problp_engine::KernelKind`]. Every fast-path sweep is cross-checked
/// bit for bit against the scalar kernel while being timed.
pub fn kernel_study(batch_size: usize) -> KernelStudy {
    use problp_ac::Semiring;
    use problp_bayes::{Evidence, EvidenceBatch};
    use problp_engine::Engine;
    use problp_num::{F64Arith, FixedArith};

    let net = problp_bayes::networks::alarm(SEED);
    // The raw (non-binarized) circuit: the tape lowers k-ary nodes to
    // contiguous accumulator chains itself, which is exactly the shape
    // `Tape::fuse` collapses into Reduce superinstructions. Binarizing
    // first would split those chains into separate registers and hide
    // the fusion win the study exists to measure.
    let ac = compile(&net).expect("alarm compiles");
    let pool = problp_bayes::single_variable_evidences(ac.var_arities());
    let instances: Vec<Evidence> = (0..batch_size.max(1))
        .map(|i| pool[i % pool.len()].clone())
        .collect();
    let mut batch = EvidenceBatch::new(net.var_count());
    for e in &instances {
        batch.push(e);
    }

    // One engine per kernel, built outside the timed region (so the
    // fusion pass is setup cost, exactly as in a serving deployment),
    // each timed on the same batch. The result bit streams double as an
    // in-run cross-check against the scalar kernel.
    fn measure_row<A>(
        arith: &'static str,
        base: &Engine<A>,
        batch: &problp_bayes::EvidenceBatch,
        identical: &mut bool,
    ) -> KernelStudyRow
    where
        A: problp_engine::KernelSet + Clone + Send + Sync,
        A::Value: Clone + Send + Sync,
    {
        use problp_engine::KernelKind;
        let bits = |e: &Engine<A>| -> Vec<u64> {
            e.evaluate_batch(batch)
                .expect("evaluates")
                .values
                .iter()
                .map(|v| e.context().to_f64(v).to_bits())
                .collect()
        };
        let engines: Vec<Engine<A>> = KernelKind::ALL
            .iter()
            .map(|&k| base.clone().with_kernel(k))
            .collect();
        let reference = bits(&engines[0]);
        let mut rates = [0.0f64; KernelKind::ALL.len()];
        for (i, e) in engines.iter().enumerate() {
            *identical &= bits(e) == reference;
            let start = std::time::Instant::now();
            let mut sweeps = 0u64;
            while start.elapsed().as_secs_f64() < 0.2 {
                std::hint::black_box(e.evaluate_batch(batch).expect("evaluates"));
                sweeps += 1;
            }
            rates[i] = sweeps as f64 * batch.lanes() as f64 / start.elapsed().as_secs_f64();
        }
        KernelStudyRow {
            arith,
            scalar_eps: rates[0],
            fused_eps: rates[1],
        }
    }

    let mut identical = true;
    let f64_engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new())
        .expect("alarm compiles to a tape")
        .with_threads(1);
    let fuse = f64_engine.tape().fuse().stats();
    let f64_row = measure_row("f64", &f64_engine, &batch, &mut identical);

    let format = FixedFormat::new(2, 14).expect("valid format");
    let fixed_engine = Engine::from_graph(&ac, Semiring::SumProduct, FixedArith::new(format))
        .expect("alarm compiles to a tape")
        .with_threads(1);
    let fixed_row = measure_row("fixed:2.14", &fixed_engine, &batch, &mut identical);

    KernelStudy {
        batch: batch_size,
        rows: vec![f64_row, fixed_row],
        identical,
        fuse,
    }
}

/// Renders the evaluator-kernel study as a text table.
pub fn render_kernel_study(study: &KernelStudy) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Evaluator kernels on Alarm (marginal, batch {}, 1 engine thread, evals/s)\n",
        study.batch
    ));
    out.push_str(&format!(
        "{:>11} | {:>12} | {:>12} | {:>7}\n",
        "arith", "scalar tape", "fused", "fused x"
    ));
    out.push_str(&format!("{}\n", "-".repeat(52)));
    for r in &study.rows {
        out.push_str(&format!(
            "{:>11} | {:>12.0} | {:>12.0} | {:>6.1}x\n",
            r.arith,
            r.scalar_eps,
            r.fused_eps,
            r.fused_speedup()
        ));
    }
    out.push_str(&format!("fusion: {}\n", study.fuse));
    out.push_str(&format!(
        "bit-identity cross-check: {}\n",
        if study.identical { "ok" } else { "FAILED" }
    ));
    out
}

/// Renders the design-choice ablation study promised in `DESIGN.md`:
/// decomposition shape, multiplier rounding mode, leaf-error model and
/// the optimisation pass, each evaluated on the Alarm circuit.
pub fn ablation_report() -> String {
    use problp_ac::transform::{binarize, binarize_chain};
    use problp_bounds::fixed_error_bound_with_rounding;
    use problp_num::FixedRounding;

    let net = problp_bayes::networks::alarm(SEED);
    let raw = compile(&net).expect("alarm compiles");
    let mut out = String::new();
    out.push_str("Ablation study on the Alarm circuit (DESIGN.md design choices)\n\n");

    // 1. Decomposition shape.
    let balanced = binarize(&raw).expect("binarizes");
    let chain = binarize_chain(&raw).expect("binarizes");
    let f14 = FixedFormat::new(1, 14).expect("valid");
    let nl_b = Netlist::from_ac(&balanced, Representation::Fixed(f14)).expect("netlist");
    let nl_c = Netlist::from_ac(&chain, Representation::Fixed(f14)).expect("netlist");
    out.push_str(&format!(
        "decomposition shape   | depth | balance regs | register bits\n\
         {}\n\
         balanced trees        | {:>5} | {:>12} | {:>13}\n\
         left-leaning chains   | {:>5} | {:>12} | {:>13}\n\n",
        "-".repeat(62),
        nl_b.stats().pipeline_depth,
        nl_b.stats().balance_regs,
        nl_b.stats().register_bits(),
        nl_c.stats().pipeline_depth,
        nl_c.stats().balance_regs,
        nl_c.stats().register_bits(),
    ));

    // 2. Multiplier rounding mode.
    let analysis = AcAnalysis::new(&balanced).expect("analyzes");
    let bound = |rounding: FixedRounding| {
        fixed_error_bound_with_rounding(
            &balanced,
            &analysis,
            f14,
            LeafErrorModel::WorstCase,
            rounding,
        )
        .expect("bound computes")
        .root_bound()
    };
    out.push_str(&format!(
        "multiplier rounding   | bound at F=14\n\
         {}\n\
         half-up (paper)       | {:.3e}\n\
         truncate              | {:.3e}   ({:.2}x worse)\n\n",
        "-".repeat(40),
        bound(FixedRounding::HalfUp),
        bound(FixedRounding::Truncate),
        bound(FixedRounding::Truncate) / bound(FixedRounding::HalfUp),
    ));

    // 3. Leaf-error model: minimal F meeting 0.01 absolute.
    let min_f = |leaf: LeafErrorModel| {
        problp_bounds::optimize_fixed(
            &balanced,
            &analysis,
            QueryType::Marginal,
            Tolerance::Absolute(0.01),
            leaf,
            64,
        )
        .expect("feasible")
        .format
        .frac_bits()
    };
    out.push_str(&format!(
        "leaf-error model      | minimal F for abs 0.01\n\
         {}\n\
         worst-case (paper)    | {}\n\
         exact conversion      | {}\n\n",
        "-".repeat(46),
        min_f(LeafErrorModel::WorstCase),
        min_f(LeafErrorModel::Exact),
    ));

    // 4. Optimisation pass. Alarm's Dirichlet CPTs have nothing to fold,
    // so this ablation uses Asia, whose deterministic OR gate does.
    let asia = compile(&problp_bayes::networks::asia()).expect("asia compiles");
    let plain = Problp::new(&asia).skip_rtl().run().expect("pipeline runs");
    let opt = Problp::new(&asia)
        .optimize_circuit(true)
        .skip_rtl()
        .run()
        .expect("pipeline runs");
    out.push_str(&format!(
        "optimisation (Asia)   | nodes | selected energy (nJ)\n\
         {}\n\
         off (paper flow)      | {:>5} | {:.4}\n\
         fold + share          | {:>5} | {:.4}\n",
        "-".repeat(52),
        plain.circuit_stats.nodes,
        plain.selected.energy.total_nj(),
        opt.circuit_stats.nodes,
        opt.selected.energy.total_nj(),
    ));
    out
}

/// The conformance study: the differential cross-check of
/// `problp-conformance` over the standing benchmark mix — sprinkler,
/// asia and student plus two seeded random networks — at `batch` lanes
/// per case, all three arithmetics and semirings.
///
/// # Panics
///
/// Panics if any backend fails to build or evaluate (every model in the
/// mix is supported by every backend).
pub fn conformance_study(batch: usize, seed: u64) -> problp_conformance::ConformanceReport {
    use problp_bayes::networks;
    let mut models = vec![
        ("sprinkler".to_string(), networks::sprinkler()),
        ("asia".to_string(), networks::asia()),
        ("student".to_string(), networks::student()),
    ];
    models.extend(problp_conformance::random_models(seed, 2));
    let config = problp_conformance::ConformanceConfig {
        batch,
        seed,
        ..problp_conformance::ConformanceConfig::default()
    };
    problp_conformance::run_conformance(&models, &config).expect("all backends evaluate")
}

/// Renders [`conformance_study`] with its verdict (the `reproduce
/// conformance` section).
pub fn conformance_report(batch: usize, seed: u64) -> String {
    render_conformance_report(&conformance_study(batch, seed))
}

/// Renders an already-run conformance study (so callers can reuse the
/// same study for `BENCH_conformance.json`).
pub fn render_conformance_report(report: &problp_conformance::ConformanceReport) -> String {
    format!("Differential conformance — tape engine vs cycle-accurate hardware\n\n{report}")
}

/// One model's row in the static-analysis study: verifier and
/// range-analysis wall time, per-format safety verdicts and the derived
/// minimal fixed format.
#[derive(Clone, Debug)]
pub struct VerifyStudyRow {
    /// The model's display name.
    pub model: String,
    /// Compact-tape instructions the analyses covered.
    pub instrs: usize,
    /// Wall time of the Layer-1 structural verification (tape + fused
    /// stream equivalence).
    pub verifier_wall: std::time::Duration,
    /// Wall time of the range analysis summed over every audited format.
    pub analysis_wall: std::time::Duration,
    /// Of the audited formats, how many the analysis proved fully safe.
    pub safe_formats: usize,
    /// The minimal safe fixed format the analysis derives for the model.
    pub minimal_format: problp_num::FixedFormat,
}

/// The static-analysis study: every builtin network through the
/// verifier and the range analysis.
#[derive(Clone, Debug)]
pub struct VerifyStudy {
    /// The formats each model was audited against.
    pub specs: Vec<problp_num::ArithSpec>,
    /// Per-model results.
    pub rows: Vec<VerifyStudyRow>,
}

/// Runs the verifier + range analysis over the builtin model zoo for
/// the serving formats (the `reproduce verify` section): static safety
/// as a measured, reproducible artifact rather than a claim.
pub fn verify_study() -> VerifyStudy {
    use problp_bayes::networks;
    let specs: Vec<problp_num::ArithSpec> = ["f64", "fixed:2.14", "fixed:8.24", "float:8.23"]
        .iter()
        .map(|s| problp_num::ArithSpec::parse(s).expect("audit specs parse"))
        .collect();
    let models = [
        ("figure1".to_string(), networks::figure1()),
        ("sprinkler".to_string(), networks::sprinkler()),
        ("asia".to_string(), networks::asia()),
        ("student".to_string(), networks::student()),
        ("earthquake".to_string(), networks::earthquake()),
        ("cancer".to_string(), networks::cancer()),
        ("alarm".to_string(), networks::alarm(SEED)),
    ];
    let mut rows = Vec::new();
    for (model, net) in models {
        let ac = problp_ac::compile(&net).expect("builtin networks compile");
        let tape = problp_engine::Tape::compile(&ac, problp_ac::Semiring::SumProduct)
            .expect("builtin networks tape-compile");

        let start = std::time::Instant::now();
        tape.verify().expect("fresh tapes verify");
        tape.verify_fused(&tape.fuse())
            .expect("fused streams verify");
        let verifier_wall = start.elapsed();

        let start = std::time::Instant::now();
        let safe_formats = specs
            .iter()
            .filter(|spec| {
                problp_verify::analyze(&tape, **spec)
                    .expect("verified tapes analyze")
                    .all_safe()
            })
            .count();
        let minimal_format = problp_verify::minimal_fixed_format(&tape)
            .expect("verified tapes analyze")
            .format;
        let analysis_wall = start.elapsed();

        rows.push(VerifyStudyRow {
            model,
            instrs: tape.instrs().len(),
            verifier_wall,
            analysis_wall,
            safe_formats,
            minimal_format,
        });
    }
    VerifyStudy { specs, rows }
}

/// Renders [`verify_study`] as the `reproduce verify` table.
pub fn render_verify_study(study: &VerifyStudy) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Static analysis — tape verifier + fixed-point range analysis"
    );
    let specs: Vec<String> = study.specs.iter().map(|s| s.to_string()).collect();
    let _ = writeln!(out, "audited formats: {}\n", specs.join(", "));
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>12} {:>12} {:>11} {:>12}",
        "model", "instrs", "verify", "analyze", "safe fmts", "minimal fx"
    );
    for row in &study.rows {
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>10.1}µs {:>10.1}µs {:>9}/{} {:>12}",
            row.model,
            row.instrs,
            row.verifier_wall.as_secs_f64() * 1e6,
            row.analysis_wall.as_secs_f64() * 1e6,
            row.safe_formats,
            study.specs.len(),
            format!(
                "fixed:{}.{}",
                row.minimal_format.int_bits(),
                row.minimal_format.frac_bits()
            ),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance_study_passes_on_the_benchmark_mix() {
        let report = conformance_study(16, SEED);
        assert!(report.all_match(), "divergence:\n{report}");
        let text = conformance_report(16, SEED);
        assert!(text.contains("verdict: PASS"));
    }

    #[test]
    fn verify_study_covers_the_model_zoo_and_emits_a_valid_record() {
        let study = verify_study();
        assert_eq!(study.rows.len(), 7);
        assert_eq!(study.specs.len(), 4);
        for row in &study.rows {
            // f64 is always provably safe, so at least one format passes.
            assert!(row.safe_formats >= 1, "{}", row.model);
            assert!(row.instrs > 0);
        }
        let text = render_verify_study(&study);
        assert!(text.contains("alarm"));
        assert!(text.contains("minimal fx"));
        let record = verify_bench_record(&study);
        assert!(validate_bench_json(&record.to_json().render_pretty()).is_ok());
        assert_eq!(record.scenario, "verify");
    }

    #[test]
    fn serving_study_is_bit_identical_and_reports() {
        let report = workload::run(&workload::Scenario::serving(90)).expect("serving runs");
        assert_eq!(report.requests, 90);
        assert_eq!(report.identical, report.requests);
        assert_eq!(report.models.len(), 3);
        let text = workload::run(&workload::Scenario::serving(60))
            .expect("serving runs")
            .render();
        assert!(text.contains("alarm"));
        assert!(text.contains("verification: 60/60 answers bit-identical"));
    }

    #[test]
    fn qos_study_rejects_only_the_hot_tenant_and_stays_bit_identical() {
        let scenario = workload::Scenario::qos(200);
        let report = workload::run(&scenario).expect("qos runs");
        assert_eq!(report.requests, 200);
        assert_eq!(scenario.config.tenant_quota, 50);
        // Quota pressure comes from the burst-submitted hot tenant —
        // and from it alone (the quota sits above each background
        // tenant's total trace share).
        assert!(report.quota_rejected > 0, "the hot tenant never hit quota");
        assert_eq!(report.quota_rejected, report.models[0].rejected);
        assert_eq!(report.admitted + report.quota_rejected, report.requests);
        // The policy may reorder and reject, never change an answer.
        assert_eq!(report.identical, report.admitted);
        assert_eq!(report.classes.len(), 2);
        let interactive = &report.classes[0];
        let batch = &report.classes[1];
        assert_eq!(interactive.class.to_string(), "interactive");
        assert_eq!(batch.class.to_string(), "batch");
        // Background Batch traffic is never quota-rejected.
        assert_eq!(batch.admitted, batch.requests);
        let text = workload::run(&workload::Scenario::qos(120))
            .expect("qos runs")
            .render();
        assert!(text.contains("interactive"));
        assert!(text.contains("quota rejects"));
        assert!(text.contains("all on the hot tenant: yes"));
    }

    #[test]
    fn table1_contains_the_fitted_coefficients() {
        let t = table1();
        // fx add at N = 8: 62.4 fJ.
        assert!(t.contains("62.4"));
        assert!(t.contains("7.8N"));
    }

    #[test]
    fn figure5_points_keep_bound_above_observed() {
        let fixture = alarm_fixture(15);
        for p in figure5a(&fixture, &[8, 20]) {
            assert!(p.bound >= p.max_observed, "fig5a bits={}", p.bits);
            assert!(p.max_observed >= p.mean_observed);
        }
        for p in figure5b(&fixture, &[8, 20]) {
            assert!(p.bound >= p.max_observed, "fig5b bits={}", p.bits);
        }
    }

    #[test]
    fn table2_row_runs_on_the_smallest_benchmark() {
        let bench = benchmark_by_name("UIWADS", 20);
        let row = table2_row(&bench, QueryType::Marginal, Tolerance::Absolute(0.01));
        assert!(row.fixed.is_ok());
        assert!(row.float.is_ok());
        assert!(
            row.selected_fixed,
            "UIWADS marg/abs selects fixed (Table 2)"
        );
        assert!(row.max_observed <= 0.01);
        assert!(row.gate_level_nj > 0.0);
        let rendered = render_table2(&[row]);
        assert!(rendered.contains("UIWADS"));
        assert!(rendered.contains('*'));
    }

    #[test]
    fn accuracy_study_runs_end_to_end_through_the_engine() {
        let bench = benchmark_by_name("UIWADS", 40);
        let study = accuracy_study(&bench, &[4, 12], &[12]);
        assert_eq!(study.instances, 40);
        assert_eq!(study.rows.len(), 3);
        // A float format with enough mantissa serves the same
        // predictions as exact f64 (fixed point underflows the tiny
        // joint probabilities long before the posteriors are wrong —
        // exactly the effect the study makes visible).
        let fine = study.rows.iter().find(|r| r.repr == "fl 8,12").unwrap();
        assert!(fine.agreement >= 0.95, "agreement {}", fine.agreement);
        assert!((fine.accuracy - study.exact_accuracy).abs() <= 0.05);
        let coarse = study.rows.iter().find(|r| r.repr == "fx 1,4").unwrap();
        assert!(coarse.agreement <= fine.agreement + 1e-12);
        let rendered = render_accuracy_study(&study);
        assert!(rendered.contains("UIWADS"));
        assert!(rendered.contains("fx 1,4"));
        assert!(rendered.contains("f64"));
    }

    #[test]
    fn classification_impact_agreement_is_high() {
        // Guaranteed-within-tolerance posteriors rarely flip an argmax.
        let bench = benchmark_by_name("UIWADS", 40);
        let impact = classification_impact(&bench, 0.01);
        assert_eq!(impact.instances, 40);
        assert!(impact.agreement >= 0.95, "agreement {}", impact.agreement);
        assert!((impact.lp_accuracy - impact.exact_accuracy).abs() <= 0.05);
    }

    #[test]
    fn ablation_report_renders_all_sections() {
        let t = ablation_report();
        assert!(t.contains("decomposition shape"));
        assert!(t.contains("multiplier rounding"));
        assert!(t.contains("leaf-error model"));
        assert!(t.contains("optimisation"));
    }

    #[test]
    fn sweep_rendering_is_complete() {
        let pts = [SweepPoint {
            bits: 8,
            bound: 1e-2,
            max_observed: 1e-3,
            mean_observed: 1e-4,
        }];
        let s = render_sweep("t", "max", &pts);
        assert!(s.contains("1.000e-2"));
        assert!(s.contains("10.0x"));
    }
}
