//! The serving layer's request/response vocabulary and admission
//! policy: [`ServeRequest`] in, [`ServeResponse`] (or a typed
//! [`ServeError`]) out, with [`ServeConfig`] governing how requests are
//! admitted, coalesced, prioritized and cached. The admission *logic*
//! (quota books, shutdown gate, cache lookup) lives in
//! `server.rs::Server::submit`; this module owns the types it speaks.

use std::time::Duration;

use problp_bayes::{BatchQuery, Evidence};
use problp_num::Flags;

use crate::error::EngineError;

/// Errors of the serving layer. Admission errors ([`ServeError::UnknownModel`],
/// length mismatches) are returned by [`super::Server::submit`] directly;
/// everything else arrives through the request's [`super::Ticket`].
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The request named a model the pool does not host.
    UnknownModel {
        /// The unknown model id.
        model: String,
    },
    /// The model already holds its full quota of queued + in-flight
    /// lanes ([`ServeConfig::tenant_quota`]); the request was rejected
    /// at admission so other tenants keep their share of the queue.
    QuotaExceeded {
        /// The over-quota model id.
        model: String,
        /// The configured per-tenant lane cap.
        quota: usize,
    },
    /// A [`super::Ticket::wait_deadline`] expired before the dispatcher
    /// delivered a result. The request itself is still in flight — the
    /// ticket can be waited on again.
    Timeout {
        /// How long the caller was willing to wait.
        waited: Duration,
    },
    /// Internal invariant breach: an evaluated group produced fewer
    /// result lanes than it has waiting requests. The unmatched
    /// requests receive this error instead of hanging on their tickets
    /// forever (matched lanes keep their answers: lane `i` belongs to
    /// waiter `i` by construction).
    LaneCountMismatch {
        /// Result lanes the group was owed.
        expected: usize,
        /// Result lanes the evaluation actually produced.
        got: usize,
    },
    /// The underlying engine rejected or lost the coalesced batch; a
    /// panic inside one evaluation arrives here as
    /// [`EngineError::WorkerPanic`].
    Engine(EngineError),
    /// A conditional request whose evidence has probability zero under
    /// its model: no posterior exists
    /// ([`crate::query::ConditionalLaneStatus::ImpossibleEvidence`]).
    ImpossibleEvidence,
    /// The server is shutting down (or has shut down) and no longer
    /// admits requests.
    ShutDown,
    /// The response channel was dropped before a result arrived — the
    /// serving process is tearing down.
    Disconnected,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel { model } => {
                write!(f, "no model named {model:?} is registered in the pool")
            }
            ServeError::QuotaExceeded { model, quota } => write!(
                f,
                "model {model:?} already holds its quota of {quota} queued + in-flight lanes"
            ),
            ServeError::Timeout { waited } => {
                write!(f, "no result arrived within {waited:?}")
            }
            ServeError::LaneCountMismatch { expected, got } => write!(
                f,
                "internal error: a group of {expected} requests produced {got} result lanes"
            ),
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::ImpossibleEvidence => write!(
                f,
                "the evidence has probability zero under the model: no posterior exists"
            ),
            ServeError::ShutDown => write!(f, "the server is shut down"),
            ServeError::Disconnected => write!(f, "the response channel was dropped"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

/// The priority class of a [`ServeRequest`]: which lane of the
/// admission queue it coalesces in, and how soon the dispatcher picks
/// that lane.
///
/// Among ripe groups, `Interactive` dispatches before `Batch`; a
/// `Batch` group whose head-of-line request has waited
/// [`ServeConfig::priority_aging`] is promoted to the interactive rank,
/// bounding how long a saturating interactive tenant can starve it.
/// Priority never changes an answer, only when it is computed.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Priority {
    /// Latency-sensitive traffic: dispatched first. The default.
    #[default]
    Interactive,
    /// Throughput traffic: dispatched when no interactive group is
    /// ripe, or once it has aged past [`ServeConfig::priority_aging`].
    Batch,
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Priority::Interactive => write!(f, "interactive"),
            Priority::Batch => write!(f, "batch"),
        }
    }
}

/// One serving request: which model, which evidence, which query, and
/// which priority lane it rides in.
///
/// Requests with the same `(model, query, priority)` are coalesced into
/// one engine batch; `priority` picks the queue lane (see [`Priority`])
/// and never changes the answer.
#[derive(Clone, PartialEq, Debug)]
pub struct ServeRequest {
    /// The model id the request targets (as registered in the pool).
    pub model: String,
    /// The request's evidence instance.
    pub evidence: Evidence,
    /// What to compute for it.
    pub query: BatchQuery,
    /// The priority lane ([`Priority::Interactive`] by default).
    pub priority: Priority,
}

/// One serving answer, mirroring the request's [`BatchQuery`] kind.
///
/// `flags` are **batch-scope**: the sticky flags of the whole coalesced
/// batch the request was served in (like [`crate::BatchResult::flags`]),
/// so they are a superset of the flags the request would raise alone —
/// batch mates can contribute `inexact`/`underflow` bits. The answer
/// payloads (values, assignments, posteriors) are coalescing-invariant;
/// compare them with [`ServeResponse::answer_eq`], which ignores flags.
#[derive(Clone, PartialEq, Debug)]
pub enum ServeResponse<V> {
    /// `Pr(e)` under the model.
    Marginal {
        /// The marginal value.
        value: V,
        /// Batch-aggregated sticky flags.
        flags: Flags,
    },
    /// The most probable completion of the evidence and its joint value.
    Mpe {
        /// One state per variable.
        assignment: Vec<usize>,
        /// `max_x Pr(x, e)`.
        value: V,
        /// Batch-aggregated sticky flags.
        flags: Flags,
    },
    /// The posterior over the query variable's states.
    Conditional {
        /// `posteriors[s] = Pr(q = s | e)`.
        posteriors: Vec<f64>,
        /// The argmax state — the classifier decision.
        prediction: usize,
        /// Batch-aggregated sticky flags.
        flags: Flags,
    },
}

impl<V: PartialEq> ServeResponse<V> {
    /// Answer-payload equality, ignoring `flags`: two servings of the
    /// same request in different coalesced batches always agree on the
    /// payload (posteriors bit for bit), but their batch-scope flags may
    /// differ with the batch composition. This is the
    /// "coalescing never changes answers" relation the serve property
    /// tests pin.
    pub fn answer_eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                ServeResponse::Marginal { value: a, .. },
                ServeResponse::Marginal { value: b, .. },
            ) => a == b,
            (
                ServeResponse::Mpe {
                    assignment: aa,
                    value: av,
                    ..
                },
                ServeResponse::Mpe {
                    assignment: ba,
                    value: bv,
                    ..
                },
            ) => aa == ba && av == bv,
            (
                ServeResponse::Conditional {
                    posteriors: ap,
                    prediction: apred,
                    ..
                },
                ServeResponse::Conditional {
                    posteriors: bp,
                    prediction: bpred,
                    ..
                },
            ) => {
                apred == bpred
                    && ap.len() == bp.len()
                    && ap.iter().zip(bp).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            _ => false,
        }
    }
}

/// The per-request result type routed back through a [`super::Ticket`].
pub type LaneResult<V> = Result<ServeResponse<V>, ServeError>;

/// Answer-payload equality of two per-request results: `Ok` sides
/// compare via [`ServeResponse::answer_eq`] (flags ignored — they are
/// batch-scope), `Err` sides via `==`.
pub fn lane_answer_eq<V: PartialEq>(a: &LaneResult<V>, b: &LaneResult<V>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x.answer_eq(y),
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

/// Admission and dispatch policy of a [`super::Server`].
///
/// # Scheduling order
///
/// A group (all queued requests of one `(model, query, priority)`) is
/// **ripe** once it holds `max_batch` lanes or its head-of-line request
/// has waited `max_wait`. At the default `max_wait` of zero every
/// queued group is ripe, so a free dispatcher takes queued work at
/// once: a lone request sweeps alone, and batches form from the
/// requests that arrive while the dispatchers are busy sweeping. Among
/// ripe groups a free dispatcher picks by
/// `(priority rank, oldest head)`: [`Priority::Interactive`] before
/// [`Priority::Batch`], except that a group whose head has waited
/// `priority_aging` competes at the interactive rank (anti-starvation).
/// Admission itself is capped per tenant by `tenant_quota`. None of
/// these knobs changes any answer — only when (or whether) a request is
/// served: with `cache_capacity` > 0, repeated requests may be answered
/// from the exact answer cache, whose hits are bit-identical to
/// uncached evaluation (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServeConfig {
    /// Coalesce at most this many requests into one engine batch.
    pub max_batch: usize,
    /// How long a non-full group lingers for more lanes before it is
    /// ripe. The default, zero, dispatches queued work as soon as a
    /// dispatcher is free; a positive linger trades each request's
    /// latency for larger batches.
    pub max_wait: Duration,
    /// Dispatcher worker threads (each evaluates one coalesced batch at
    /// a time). Every [`super::CircuitPool`] engine evaluates on one
    /// thread: parallelism comes from the dispatcher shards.
    pub workers: usize,
    /// Per-tenant admission quota: at most this many lanes queued +
    /// in flight per model; the request beyond the cap is rejected with
    /// [`ServeError::QuotaExceeded`]. `0` (the default) disables the
    /// quota.
    pub tenant_quota: usize,
    /// The anti-starvation bound of the priority lanes: a
    /// [`Priority::Batch`] group whose head-of-line request has waited
    /// this long is promoted to the interactive dispatch rank.
    pub priority_aging: Duration,
    /// Entries of the exact answer cache: memoized
    /// `(model version, evidence, query) → answer` lanes, LRU-evicted
    /// beyond this capacity. A hit resolves the ticket immediately with
    /// a bit-identical payload, consuming no queue space and no quota.
    /// `0` (the default) disables the cache.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            max_wait: Duration::ZERO,
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            tenant_quota: 0,
            priority_aging: Duration::from_millis(20),
            cache_capacity: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::pool::tests_support::{marginal, two_model_pool};
    use super::super::queue::lock_queue;
    use super::super::{CircuitPool, Server};
    use super::*;
    use problp_ac::compile;

    #[test]
    fn admission_rejects_unknown_models_and_bad_shapes() {
        let pool = two_model_pool();
        let server = Server::start(pool, ServeConfig::default());
        let missing = server.submit(ServeRequest {
            model: "nonesuch".to_string(),
            evidence: Evidence::empty(4),
            query: BatchQuery::Marginal,
            priority: Priority::Interactive,
        });
        assert!(matches!(missing, Err(ServeError::UnknownModel { .. })));
        let ragged = server.submit(ServeRequest {
            model: "sprinkler".to_string(),
            evidence: Evidence::empty(99),
            query: BatchQuery::Marginal,
            priority: Priority::Batch,
        });
        assert!(matches!(
            ragged,
            Err(ServeError::Engine(EngineError::BatchLengthMismatch { .. }))
        ));
        server.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let pool = two_model_pool();
        let server = Server::start(pool, ServeConfig::default());
        {
            let mut q = lock_queue(&server.shared.queue);
            q.shutdown = true;
        }
        let late = server.submit(ServeRequest {
            model: "sprinkler".to_string(),
            evidence: Evidence::empty(4),
            query: BatchQuery::Marginal,
            priority: Priority::Interactive,
        });
        assert!(matches!(late, Err(ServeError::ShutDown)));
    }

    #[test]
    fn batch_scope_flags_do_not_break_answer_equality() {
        use super::super::lane_answer_eq;
        use problp_num::{FixedArith, FixedFormat};
        use std::time::Duration;

        // A 12-variable chain of dyadic CPTs: every parameter is exact
        // in fixed(1,10), so const conversion raises nothing. The empty
        // evidence evaluates to exactly 1.0 (clean flags) while a fully
        // observed lane hits 2^-12, which underflows the format — two
        // lanes of the same (model, query) group with *different*
        // sticky flags. Coalescing them must still reproduce each
        // answer payload bit for bit.
        let mut b = problp_bayes::BayesNetBuilder::new();
        let mut prev = b.variable("X0", 2);
        b.cpt(prev, [], [0.5, 0.5]).unwrap();
        for i in 1..12 {
            let v = b.variable(format!("X{i}"), 2);
            b.cpt(v, [prev], [0.5, 0.5, 0.5, 0.5]).unwrap();
            prev = v;
        }
        let net = b.build().unwrap();
        let ac = compile(&net).unwrap();
        let mut pool = CircuitPool::new(FixedArith::new(FixedFormat::new(1, 10).unwrap()));
        pool.register("chain", &ac).unwrap();
        let server = Server::start(
            pool,
            ServeConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(50),
                workers: 1,
                ..ServeConfig::default()
            },
        );
        let clean = ServeRequest {
            model: "chain".to_string(),
            evidence: Evidence::empty(12),
            query: BatchQuery::Marginal,
            priority: Priority::Interactive,
        };
        let noisy = ServeRequest {
            model: "chain".to_string(),
            evidence: Evidence::from_assignment(&[0; 12]),
            query: BatchQuery::Marginal,
            priority: Priority::Interactive,
        };
        let served = server.serve_all(&[clean.clone(), noisy.clone()]);
        for (req, got) in [clean, noisy].iter().zip(&served) {
            let alone = server.pool().serve_one(req);
            assert!(lane_answer_eq(&alone, got), "{req:?}: {alone:?} vs {got:?}");
        }
        // The lanes really do disagree on flags: alone, the empty
        // evidence is flag-clean while the observed lane is not.
        match server.pool().serve_one(&ServeRequest {
            model: "chain".to_string(),
            evidence: Evidence::empty(12),
            query: BatchQuery::Marginal,
            priority: Priority::Interactive,
        }) {
            Ok(ServeResponse::Marginal { flags, .. }) => {
                assert!(!flags.any(), "empty evidence is exact: {flags:?}")
            }
            other => panic!("expected a marginal, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn serve_errors_display() {
        let e = ServeError::UnknownModel {
            model: "m".to_string(),
        };
        assert!(e.to_string().contains("m"));
        assert!(ServeError::ImpossibleEvidence
            .to_string()
            .contains("probability zero"));
        let e: ServeError = EngineError::NeedsFullValues.into();
        assert!(matches!(e, ServeError::Engine(_)));
        use std::error::Error;
        assert!(e.source().is_some());
        let e = ServeError::QuotaExceeded {
            model: "hot".to_string(),
            quota: 8,
        };
        assert!(e.to_string().contains("hot") && e.to_string().contains('8'));
        let e = ServeError::Timeout {
            waited: Duration::from_millis(5),
        };
        assert!(e.to_string().contains("5ms"));
        let e = ServeError::LaneCountMismatch {
            expected: 3,
            got: 1,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('1'));
    }

    #[test]
    fn quota_rejects_only_the_hot_tenant() {
        use std::time::Duration;
        let pool = two_model_pool();
        // Nothing dispatches before shutdown: quota pressure builds.
        let server = Server::start(
            pool,
            ServeConfig {
                max_batch: 1024,
                max_wait: Duration::from_secs(3600),
                workers: 1,
                tenant_quota: 3,
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<_> = (0..3)
            .map(|_| {
                server
                    .submit(marginal("sprinkler", 4, Priority::Interactive))
                    .unwrap()
            })
            .collect();
        // The 4th sprinkler lane is over quota — on any priority lane.
        for priority in [Priority::Interactive, Priority::Batch] {
            match server.submit(marginal("sprinkler", 4, priority)) {
                Err(ServeError::QuotaExceeded { model, quota }) => {
                    assert_eq!(model, "sprinkler");
                    assert_eq!(quota, 3);
                }
                other => panic!("expected QuotaExceeded, got {other:?}"),
            }
        }
        // The other tenant is untouched by sprinkler's saturation.
        let asia = server.submit(marginal("asia", 8, Priority::Interactive));
        assert!(asia.is_ok());
        // The queued lanes are still answered on shutdown's flush.
        server.shutdown();
        for t in tickets {
            assert!(matches!(t.wait(), Ok(ServeResponse::Marginal { .. })));
        }
    }

    #[test]
    fn quota_lanes_are_released_once_served() {
        use std::time::Duration;
        let pool = two_model_pool();
        let server = Server::start(
            pool,
            ServeConfig {
                max_batch: 2,
                max_wait: Duration::from_micros(50),
                workers: 1,
                tenant_quota: 2,
                ..ServeConfig::default()
            },
        );
        for round in 0..4 {
            let t1 = server
                .submit(marginal("sprinkler", 4, Priority::Interactive))
                .unwrap();
            // The released quota must be visible by the time a ticket
            // resolves: serve rounds never wedge on stale accounting.
            assert!(
                matches!(t1.wait(), Ok(ServeResponse::Marginal { .. })),
                "round {round}"
            );
        }
        server.shutdown();
    }
}
