//! Criterion bench for the `problp-engine` execution subsystem: scalar
//! tree-walk vs one-lane tape sweeps vs batched multi-threaded tape on
//! the Alarm circuit, at batch sizes 1 / 64 / 1024, plus the UniMiB
//! classifier's conditional and MPE serving paths at 1 / 64 lanes on
//! engines built the way the serving pool builds them.
//!
//! The per-`iter` unit is "evaluate the whole batch", so compare
//! like-sized rows: `scalar_tree_walk/1024` vs `tape_batched/1024` is the
//! headline (batched ≥ 5x the tree-walk).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use problp_ac::{compile, transform::binarize, Semiring};
use problp_bayes::{Evidence, EvidenceBatch};
use problp_engine::{Engine, KernelKind};
use problp_num::F64Arith;

/// Builds the Alarm circuit and a cycle of single-variable evidences.
fn alarm_fixture() -> (problp_ac::AcGraph, Vec<Evidence>) {
    let net = problp_bayes::networks::alarm(7);
    let ac = binarize(&compile(&net).expect("alarm compiles")).expect("alarm binarizes");
    let evidences = problp_bayes::single_variable_evidences(ac.var_arities());
    (ac, evidences)
}

fn batch_of(evidences: &[Evidence], var_count: usize, lanes: usize) -> EvidenceBatch {
    let mut batch = EvidenceBatch::new(var_count);
    for i in 0..lanes {
        batch.push(&evidences[i % evidences.len()]);
    }
    batch
}

fn bench_engine_throughput(c: &mut Criterion) {
    let (ac, evidences) = alarm_fixture();
    let var_count = ac.var_count();
    let engine = Engine::from_graph(&ac, Semiring::SumProduct, F64Arith::new())
        .expect("alarm compiles to a tape");

    for lanes in [1usize, 64, 1024] {
        let batch = batch_of(&evidences, var_count, lanes);
        let instances: Vec<Evidence> = (0..lanes).map(|i| batch.evidence(i)).collect();

        // Baseline: the allocation-heavy scalar tree-walk of problp-ac.
        c.bench_function(&format!("scalar_tree_walk/{lanes}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for e in &instances {
                    acc += ac.evaluate(black_box(e)).unwrap();
                }
                black_box(acc)
            })
        });

        // One lane at a time: `evaluate_one` is a one-lane batch sweep
        // (one-lane SoA register file, no threads).
        c.bench_function(&format!("tape_single_lane/{lanes}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for e in &instances {
                    acc += engine.evaluate_one(black_box(e)).unwrap().0;
                }
                black_box(acc)
            })
        });

        // The batched SoA evaluator (threads engaged at larger sizes).
        c.bench_function(&format!("tape_batched/{lanes}"), |b| {
            b.iter(|| black_box(engine.evaluate_batch(black_box(&batch)).unwrap().values))
        });
    }
}

/// The UniMiB classifier's query paths on engines built as
/// `CircuitPool` builds them (fused kernel, one thread): the class
/// posterior of every lane (one sweep over the marginal and one joint
/// block per state) and the MPE decode (traceback plus verification).
fn bench_query_paths(c: &mut Criterion) {
    let bench = problp_data::unimib_benchmark(7);
    let ac = compile(&bench.net).expect("UniMiB compiles");
    let var_count = ac.var_count();
    let pooled = |engine: Result<Engine<F64Arith>, _>| {
        engine
            .expect("UniMiB compiles to a tape")
            .with_threads(1)
            .with_kernel(KernelKind::Fused)
    };
    let sum = pooled(Engine::from_graph(
        &ac,
        Semiring::SumProduct,
        F64Arith::new(),
    ));
    let mpe = pooled(Engine::from_graph_full(
        &ac,
        Semiring::MaxProduct,
        F64Arith::new(),
    ));
    for lanes in [1usize, 64] {
        let batch = batch_of(&bench.test_evidence, var_count, lanes);
        c.bench_function(&format!("unimib_conditional/{lanes}"), |b| {
            b.iter(|| {
                let cond = sum.conditional_batch(black_box(&batch), bench.query_var);
                black_box(cond.unwrap().predictions)
            })
        });
        c.bench_function(&format!("unimib_mpe/{lanes}"), |b| {
            b.iter(|| black_box(mpe.mpe_batch(black_box(&batch)).unwrap().assignments))
        });
    }
}

criterion_group!(benches, bench_engine_throughput, bench_query_paths);
criterion_main!(benches);
