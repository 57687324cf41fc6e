//! Property tests for the serving layer: answers coalesced by the
//! admission queue are bit-identical to serving each request alone —
//! per model, per query kind, per arithmetic, and under **every QoS
//! policy combination** (per-tenant quotas, priority lanes, the
//! default zero wait or a linger, and the exact answer cache). Policy knobs may reorder,
//! reject or memoize work, never change an answer. Plus two
//! deterministic checks: a saturating Interactive tenant cannot delay a
//! Batch group past the aging bound, and a mid-trace hot swap
//! ([`Server::reload`]) strands no ticket while cutting new admissions
//! over to the new tape version.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use problp_ac::compile;
use problp_bayes::{networks, BatchQuery, Evidence, VarId};
use problp_engine::{
    lane_answer_eq, CircuitPool, KernelSet, Priority, ServeConfig, ServeError, ServeRequest,
    ServeResponse, Server,
};
use problp_num::{F64Arith, FixedArith, FixedFormat};

/// Builds evidence for `net` from per-variable picks (odd picks leave
/// the variable unobserved).
fn evidence_from_picks(net: &problp_bayes::BayesNet, picks: &[usize]) -> Evidence {
    let mut e = Evidence::empty(net.var_count());
    for (v, p) in picks.iter().enumerate().take(net.var_count()) {
        if p % 2 == 0 {
            let var = VarId::from_index(v);
            e.observe(var, (p / 2) % net.variable(var).arity());
        }
    }
    e
}

/// One trace entry: (model pick, query pick, priority pick, evidence
/// picks).
type TracePick = (usize, usize, usize, Vec<usize>);

/// The full policy surface the scheduler can be configured with:
/// batching, sharding, quotas, aging and the coalescing wait.
#[derive(Clone, Copy, Debug)]
struct PolicyPick {
    max_batch: usize,
    workers: usize,
    /// 0 = quota off (the strategy also generates tight quotas that
    /// reject most of a burst).
    tenant_quota: usize,
    aging_us: u64,
    /// 0 = the default (a free dispatcher takes queued work at once),
    /// else a linger.
    max_wait_us: u64,
    /// 0 = cache off; a tiny capacity (constant LRU churn) and a
    /// capacity larger than any trace are both generated. Cache hits
    /// must be indistinguishable from re-evaluation, bit for bit.
    cache_capacity: usize,
}

/// The two fixed tenants plus per-request picks, under an arbitrary
/// QoS policy.
fn trace_strategy() -> impl Strategy<Value = (Vec<TracePick>, PolicyPick)> {
    (
        proptest::collection::vec(
            (
                0usize..2,
                0usize..3,
                0usize..2,
                proptest::collection::vec(0usize..12, 8),
            ),
            1..40,
        ),
        (
            (
                1usize..9, // max_batch
                1usize..4, // dispatcher workers
                0usize..3, // quota pick: 0 = off, else quota = pick * 5
                0u64..3,   // aging pick
            ),
            (
                0usize..2, // max_wait pick: 0 | 100 µs
                0usize..3, // cache pick: off | churning | ample
            ),
        )
            .prop_map(
                |((max_batch, workers, quota, aging), (wait, cache))| PolicyPick {
                    max_batch,
                    workers,
                    tenant_quota: quota * 5,
                    aging_us: [200, 2_000, 50_000][aging as usize],
                    max_wait_us: [0, 100][wait],
                    cache_capacity: [0, 3, 256][cache],
                },
            ),
    )
}

/// Runs one trace through a server over `pool`'s arithmetic and checks
/// every coalesced answer against the request served alone. Quota
/// rejections are a policy outcome, not an answer: they must be typed
/// [`ServeError::QuotaExceeded`] and only occur when a quota is set.
fn check_trace<A>(ctx: A, trace: &[TracePick], policy: PolicyPick) -> Result<(), TestCaseError>
where
    A: KernelSet + Clone + Send + Sync + 'static,
    A::Value: Clone + PartialEq + Send + Sync + std::fmt::Debug + 'static,
{
    let tenants = [
        ("sprinkler", networks::sprinkler()),
        ("asia", networks::asia()),
    ];
    let mut pool = CircuitPool::new(ctx);
    for (name, net) in &tenants {
        pool.register(name, &compile(net).unwrap()).unwrap();
    }
    let server = Server::start(
        pool,
        ServeConfig {
            max_batch: policy.max_batch,
            max_wait: Duration::from_micros(policy.max_wait_us),
            workers: policy.workers,
            tenant_quota: policy.tenant_quota,
            priority_aging: Duration::from_micros(policy.aging_us),
            cache_capacity: policy.cache_capacity,
        },
    );
    let requests: Vec<ServeRequest> = trace
        .iter()
        .map(|(m, q, p, picks)| {
            let (name, net) = &tenants[m % 2];
            let query = match q % 3 {
                0 => BatchQuery::Marginal,
                1 => BatchQuery::Mpe,
                _ => BatchQuery::Conditional {
                    query_var: net.roots()[0],
                },
            };
            ServeRequest {
                model: name.to_string(),
                evidence: evidence_from_picks(net, picks),
                query,
                priority: if p % 2 == 0 {
                    Priority::Interactive
                } else {
                    Priority::Batch
                },
            }
        })
        .collect();
    let served = server.serve_all(&requests);
    for (i, (req, got)) in requests.iter().zip(&served).enumerate() {
        // A quota rejection is the only admissible policy-induced
        // "non-answer", and only with a quota configured.
        if let Err(ServeError::QuotaExceeded { model, quota }) = got {
            prop_assert!(policy.tenant_quota > 0, "quota reject without a quota");
            prop_assert_eq!(*quota, policy.tenant_quota);
            prop_assert_eq!(model, &req.model);
            continue;
        }
        let alone = server.pool().serve_one(req);
        // Payload equality — flags are batch-scope by design, so they
        // are excluded from the coalescing invariant.
        prop_assert!(
            lane_answer_eq(&alone, got),
            "request {} ({:?}): {:?} vs {:?}",
            i,
            req.query,
            alone,
            got
        );
        // Bit-identical, not just PartialEq-equal: pin the f64 payloads.
        if let (
            Ok(ServeResponse::Conditional { posteriors: a, .. }),
            Ok(ServeResponse::Conditional { posteriors: b, .. }),
        ) = (&alone, got)
        {
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
    // The cache books must balance: with the cache on, every request
    // that reached the queue-or-cache stage did exactly one lookup
    // (quota rejects happen after the lookup); with it off, the
    // counters never move.
    let stats = server.stats();
    if policy.cache_capacity > 0 {
        prop_assert_eq!(stats.cache_hits + stats.cache_misses, trace.len() as u64);
    } else {
        prop_assert_eq!(stats.cache_hits + stats.cache_misses, 0);
    }
    server.shutdown();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Coalesced f64 serving is bit-identical to per-request serving,
    /// for every model, query kind, priority mix and QoS policy
    /// (quota × aging × max_wait × batching × shard count).
    #[test]
    fn coalesced_answers_match_per_request_answers_f64(
        (trace, policy) in trace_strategy()
    ) {
        check_trace(F64Arith::new(), &trace, policy)?;
    }

    /// The same under low-precision fixed point: coalescing and the
    /// scheduling policy commute with the arithmetic, bit for bit.
    #[test]
    fn coalesced_answers_match_per_request_answers_fixed(
        (trace, policy) in trace_strategy()
    ) {
        let format = FixedFormat::new(1, 10).unwrap();
        check_trace(FixedArith::new(format), &trace, policy)?;
    }
}

/// At the default zero wait, a free dispatcher takes a lone request at
/// once: 200 serial round trips pay no coalescing timer (a 500 µs one
/// alone would take 100 ms).
#[test]
fn lone_requests_are_not_paced_by_a_coalescing_timer() {
    let net = networks::sprinkler();
    let mut pool = CircuitPool::new(F64Arith::new());
    pool.register("sprinkler", &compile(&net).unwrap()).unwrap();
    let server = Server::start(
        pool,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let request = ServeRequest {
        model: "sprinkler".to_string(),
        evidence: Evidence::empty(net.var_count()),
        query: BatchQuery::Marginal,
        priority: Priority::Interactive,
    };
    let alone = server.pool().serve_one(&request);
    // One untimed round trip first: the dispatcher thread's first wake.
    let warm = server.submit(request.clone()).unwrap().wait();
    assert!(lane_answer_eq(&alone, &warm), "{alone:?} vs {warm:?}");
    let started = Instant::now();
    for _ in 0..200 {
        let got = server.submit(request.clone()).unwrap().wait();
        assert!(lane_answer_eq(&alone, &got), "{alone:?} vs {got:?}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(60),
        "200 serial round trips took {elapsed:?}"
    );
    server.shutdown();
}

/// Zero wait still batches: while a dispatcher sweeps, a burst queues
/// behind it and the next free dispatcher takes up to `max_batch` of it
/// at once. Alarm's sweep is long enough for the burst to pile up.
#[test]
fn zero_wait_still_coalesces_a_burst() {
    let net = networks::alarm(7);
    let mut pool = CircuitPool::new(F64Arith::new());
    pool.register("alarm", &compile(&net).unwrap()).unwrap();
    let server = Server::start(
        pool,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let arities: Vec<usize> = (0..net.var_count())
        .map(|v| net.variable(VarId::from_index(v)).arity())
        .collect();
    let evidences = problp_bayes::single_variable_evidences(&arities);
    let requests: Vec<ServeRequest> = (0..256)
        .map(|i| ServeRequest {
            model: "alarm".to_string(),
            evidence: evidences[i % evidences.len()].clone(),
            query: BatchQuery::Marginal,
            priority: Priority::Interactive,
        })
        .collect();
    let served = server.serve_all(&requests);
    for (req, got) in requests.iter().zip(&served) {
        let alone = server.pool().serve_one(req);
        assert!(lane_answer_eq(&alone, got), "{req:?}: {alone:?} vs {got:?}");
    }
    let dispatches = server.stats().dispatches;
    assert!(
        dispatches <= 32,
        "256 requests took {dispatches} dispatches"
    );
    server.shutdown();
}

/// Deterministic anti-starvation check: one dispatcher, an Interactive
/// tenant kept continuously full by a feeder thread, and a single Batch
/// request submitted mid-flood. Without the aging promotion the Batch
/// group would only dispatch after the flood ends; with it, the request
/// must complete within (roughly) the aging bound while the flood is
/// still running.
#[test]
fn saturating_interactive_tenant_cannot_starve_batch_past_aging() {
    let mut pool = CircuitPool::new(F64Arith::new());
    pool.register("sprinkler", &compile(&networks::sprinkler()).unwrap())
        .unwrap();
    pool.register("asia", &compile(&networks::asia()).unwrap())
        .unwrap();
    let server = std::sync::Arc::new(Server::start(
        pool,
        ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_micros(100),
            workers: 1,
            // The quota keeps the flood's queue depth bounded (the
            // feeder outruns the single dispatcher by orders of
            // magnitude) while leaving the Interactive lane
            // continuously full — the exact starvation scenario.
            tenant_quota: 64,
            priority_aging: Duration::from_millis(5),
            ..ServeConfig::default()
        },
    ));

    // Feeder: saturate the Interactive lane of "sprinkler" for the
    // whole test window (tickets deliberately dropped).
    let flood_end = Instant::now() + Duration::from_millis(800);
    let feeder = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || {
            let evidence = Evidence::empty(4);
            while Instant::now() < flood_end {
                let _ = server.submit(ServeRequest {
                    model: "sprinkler".to_string(),
                    evidence: evidence.clone(),
                    query: BatchQuery::Marginal,
                    priority: Priority::Interactive,
                });
            }
        })
    };

    // Let the flood establish itself, then submit the one Batch request.
    std::thread::sleep(Duration::from_millis(50));
    let submitted = Instant::now();
    let ticket = server
        .submit(ServeRequest {
            model: "asia".to_string(),
            evidence: Evidence::empty(8),
            query: BatchQuery::Marginal,
            priority: Priority::Batch,
        })
        .unwrap();
    let (result, completed) = ticket.wait_deadline_timed(Duration::from_secs(10));
    assert!(
        matches!(result, Ok(ServeResponse::Marginal { .. })),
        "batch request failed: {result:?}"
    );
    // Served while the flood was still running — not after it drained —
    // and within a generous multiple of the 5ms aging bound (CI-safe
    // margin; without aging this is the full 750ms flood + drain).
    assert!(
        completed < flood_end,
        "batch request only completed after the flood ended"
    );
    let delay = completed.saturating_duration_since(submitted);
    assert!(
        delay < Duration::from_millis(400),
        "batch request delayed {delay:?}, aging bound is 5ms"
    );
    feeder.join().unwrap();
}

/// A 3-variable net whose CPTs are parameterized by `p`: two values of
/// `p` give two tape versions with genuinely different answers.
fn swap_variant(p: f64) -> problp_bayes::BayesNet {
    let mut b = problp_bayes::BayesNetBuilder::new();
    let a = b.variable("A", 2);
    b.cpt(a, [], [p, 1.0 - p]).unwrap();
    let m = b.variable("B", 3);
    b.cpt(m, [a], [0.2, 0.3, 0.5, p, (1.0 - p) / 2.0, (1.0 - p) / 2.0])
        .unwrap();
    let c = b.variable("C", 2);
    b.cpt(c, [m], [0.1, 0.9, 0.5, 0.5, 0.8, 0.2]).unwrap();
    b.build().unwrap()
}

/// Hot swap under load: a trace straddling a [`Server::reload`] strands
/// no ticket, requests admitted before the swap finish on the old tape,
/// and requests admitted after it answer exactly like a fresh pool
/// compiled from the new graph — with a bystander model unaffected.
#[test]
fn hot_swap_under_load_strands_no_ticket_and_cuts_over() {
    let net_v1 = swap_variant(0.3);
    let net_v2 = swap_variant(0.6);
    let ac_v1 = compile(&net_v1).unwrap();
    let ac_v2 = compile(&net_v2).unwrap();
    let mut pool = CircuitPool::new(F64Arith::new());
    pool.register("swap", &ac_v1).unwrap();
    pool.register("steady", &compile(&networks::asia()).unwrap())
        .unwrap();
    let server = Server::start(
        pool,
        ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_micros(200),
            workers: 2,
            cache_capacity: 32,
            ..ServeConfig::default()
        },
    );
    let request = |i: usize, model: &str, net: &problp_bayes::BayesNet| ServeRequest {
        model: model.to_string(),
        evidence: evidence_from_picks(net, &[i, i / 2, i / 3, i % 5]),
        query: match i % 3 {
            0 => BatchQuery::Marginal,
            1 => BatchQuery::Mpe,
            _ => BatchQuery::Conditional {
                query_var: net.roots()[0],
            },
        },
        priority: Priority::Interactive,
    };
    let asia = networks::asia();
    let mk_phase = |base: usize| -> Vec<ServeRequest> {
        (0..40)
            .map(|i| {
                if i % 4 == 3 {
                    request(base + i, "steady", &asia)
                } else {
                    request(base + i, "swap", &net_v1)
                }
            })
            .collect()
    };
    // Phase 1 is admitted against version 1 and left in flight while
    // the reload lands: nothing is drained before the cut-over.
    let pre_requests = mk_phase(0);
    let pre_tickets: Vec<_> = pre_requests
        .iter()
        .map(|r| server.submit(r.clone()).unwrap())
        .collect();
    assert_eq!(server.reload("swap", &ac_v2).unwrap(), 2);
    let post_requests = mk_phase(1);
    let post_tickets: Vec<_> = post_requests
        .iter()
        .map(|r| server.submit(r.clone()).unwrap())
        .collect();
    // Every ticket resolves (deadline, not wait: a stranded ticket must
    // fail the test, not hang it).
    let drain = |tickets: Vec<problp_engine::Ticket<f64>>| -> Vec<_> {
        tickets
            .into_iter()
            .map(|t| {
                let got = t.wait_deadline(Duration::from_secs(30));
                assert!(
                    !matches!(
                        got,
                        Err(ServeError::Timeout { .. } | ServeError::Disconnected)
                    ),
                    "stranded ticket across the reload: {got:?}"
                );
                got
            })
            .collect()
    };
    let pre_answers = drain(pre_tickets);
    let post_answers = drain(post_tickets);
    // References: single-version pools compiled fresh from each graph.
    let mut ref_v1 = CircuitPool::new(F64Arith::new());
    ref_v1.register("swap", &ac_v1).unwrap();
    ref_v1.register("steady", &compile(&asia).unwrap()).unwrap();
    let mut ref_v2 = CircuitPool::new(F64Arith::new());
    ref_v2.register("swap", &ac_v2).unwrap();
    ref_v2.register("steady", &compile(&asia).unwrap()).unwrap();
    for (req, got) in pre_requests.iter().zip(&pre_answers) {
        let want = ref_v1.serve_one(req);
        assert!(
            lane_answer_eq(&want, got),
            "pre-reload {req:?}: {want:?} vs {got:?}"
        );
    }
    for (req, got) in post_requests.iter().zip(&post_answers) {
        let want = ref_v2.serve_one(req);
        assert!(
            lane_answer_eq(&want, got),
            "post-reload {req:?}: {want:?} vs {got:?}"
        );
    }
    // The swap is observable: at least one identical swap-model request
    // answers differently across the versions (the CPTs really differ).
    let probe = request(0, "swap", &net_v1);
    assert!(!lane_answer_eq(
        &ref_v1.serve_one(&probe),
        &ref_v2.serve_one(&probe)
    ));
    assert_eq!(
        server.stats().model_versions,
        vec![("steady".to_string(), 1), ("swap".to_string(), 2)]
    );
    server.shutdown();
}
