//! Sharded multi-circuit serving: one process, many compiled tapes,
//! behind a QoS-aware admission queue, an exact answer cache, and live
//! model versioning.
//!
//! Everything below `serve` evaluates **one pre-formed batch on one
//! tape**. This module is the first cross-request, cross-model layer —
//! the ROADMAP's "sharded multi-circuit serving" item, plus its serving
//! *policy*: per-tenant quotas, priority lanes, dispatch as soon as a
//! dispatcher is free, and an exact `(model version, evidence, query)
//! → answer` cache:
//!
//! ```text
//!            requests (model id, Evidence, BatchQuery, Priority)
//!                │ submit / serve_all      ── over-quota tenants are
//!                ▼                            rejected here
//!        ┌──────────────────┐   exact LRU keyed on (model version,
//!        │   answer cache   │   evidence columns, query); a hit
//!        └──────────────────┘   resolves the ticket immediately
//!                │ miss
//!                ▼
//!        ┌──────────────────┐   per-(model, query, priority) groups;
//!        │  admission queue │   a free dispatcher takes one at once,
//!        └──────────────────┘   up to max_batch lanes
//!                │ ripe group → EvidenceBatch
//!                ▼               (Interactive first, aged groups win)
//!        ┌──────────────────┐   N dispatcher workers, each evaluating
//!        │    dispatcher    │   one coalesced batch at a time through
//!        └──────────────────┘   Engine::evaluate_query
//!                │ per-lane split (answers also fill the cache)
//!                ▼
//!        ┌──────────────────┐   model-per-tenant CircuitPool:
//!        │   CircuitPool    │   SumProduct tape (marginal/conditional)
//!        └──────────────────┘   + MaxProduct full tape (MPE) per
//!                │               model, each hosted at a live version
//!                ▼
//!          tickets (one per request, Result per lane)
//! ```
//!
//! # Module map
//!
//! The layer is split along its pipeline stages, one file per stage;
//! this module is a pure re-export facade over them:
//!
//! * [`admission`](self) (`admission.rs`) — the request/response
//!   vocabulary and the admission policy knobs: [`ServeRequest`],
//!   [`ServeResponse`], [`ServeError`], [`Priority`], [`ServeConfig`],
//!   [`LaneResult`] and [`lane_answer_eq`].
//! * `queue.rs` — the admission queue proper: coalescing groups, the
//!   quota books, the dispatch-rank policy function and `take_job`.
//! * `dispatch.rs` — the dispatcher shards: the worker loop, batch
//!   evaluation, per-lane result routing and cache fill.
//! * `ticket.rs` — [`Ticket`], the per-request receipt.
//! * `pool.rs` — [`CircuitPool`]: compiled tenants keyed by model id,
//!   each at a monotonically increasing [`ModelVersion`];
//!   [`CircuitPool::reload`] is the live hot-swap.
//! * `cache.rs` — the exact LRU answer cache and its byte-stable
//!   evidence-column fingerprint.
//! * `metrics.rs` — the precreated telemetry handles ([`ServerStats`]
//!   is the programmatic snapshot).
//! * `server.rs` — [`Server`]: admission (`submit`) wired to the queue,
//!   the cache, the shards and the pool.
//! * [`gateway`] (`gateway.rs`) — the HTTP/1.1 query front end:
//!   `POST /v1/query` with bearer-token auth in front of
//!   [`Server::submit`], typed [`ServeError`]s mapped to
//!   429/503/4xx JSON responses.
//!
//! * [`CircuitPool`] hosts the compiled tapes, keyed by model id
//!   (model-per-tenant): registering a model compiles a
//!   [`problp_ac::Semiring::SumProduct`] tape for marginal/conditional
//!   lanes and a full-values [`problp_ac::Semiring::MaxProduct`] tape
//!   for MPE decoding.
//! * [`Server`] owns the admission queue and the dispatcher shards.
//!   [`Server::submit`] enqueues one [`ServeRequest`] and returns a
//!   [`Ticket`]; requests to the same `(model, query, priority)` group
//!   are coalesced into one [`problp_bayes::EvidenceBatch`] of at most
//!   `max_batch` lanes, evaluated by the next free worker, and routed
//!   back lane by lane. Batches form from the requests that arrive
//!   while every worker is busy; an opt-in [`ServeConfig::max_wait`]
//!   linger holds a non-full group back for more.
//!
//! # Scheduling policy
//!
//! Dispatch order and admission are governed by [`ServeConfig`]:
//!
//! * **Per-tenant quotas** ([`ServeConfig::tenant_quota`]): each model
//!   may hold at most this many lanes queued + in flight; the next
//!   request beyond the cap is rejected at [`Server::submit`] with
//!   [`ServeError::QuotaExceeded`], so one hot tenant cannot consume
//!   the whole queue.
//! * **Priority lanes** ([`ServeRequest::priority`]): among ripe
//!   groups, [`Priority::Interactive`] dispatches before
//!   [`Priority::Batch`]; ties break toward the oldest head-of-line
//!   request. A `Batch` group whose head has waited
//!   [`ServeConfig::priority_aging`] is *promoted* to the interactive
//!   rank, so a continuously-full high-priority tenant can delay a
//!   low-priority group by at most the aging bound (plus the
//!   evaluation already on the dispatcher).
//! * **No coalescing timer by default** ([`ServeConfig::max_wait`] is
//!   zero): a free dispatcher takes the best-ranked queued group at
//!   once, so a lone request never waits for a batch that will not
//!   form, and a burst still coalesces behind the sweeps already
//!   running. A positive `max_wait` makes a non-full group linger that
//!   long first.
//!
//! None of the policy knobs changes any answer — they only reorder,
//! reject, or re-time dispatch (`tests/serve.rs` pins bit-identity to
//! [`CircuitPool::serve_one`] under every policy combination).
//!
//! # Answer caching and model versioning
//!
//! With [`ServeConfig::cache_capacity`] > 0 the server memoizes
//! per-request answers in an exact LRU keyed on
//! `(model, ModelVersion, evidence columns, BatchQuery)`. The key
//! carries the request's full canonical evidence columns (observed
//! state per variable, [`problp_bayes::UNOBSERVED`] elsewhere) next to
//! a byte-stable FNV-1a fingerprint of them, so a hit is exact key
//! equality, never a hash collision — and the stored answer *is* a
//! previously dispatched answer for the identical request, so hits are
//! bit-identical to uncached evaluation by the coalescing invariant
//! (payloads are batch-composition-independent; the one batch-scope
//! field, the sticky-flag set, is exactly what [`lane_answer_eq`]
//! already excludes). Hits resolve the ticket immediately, consuming no
//! queue space and no quota. [`CircuitPool::serve_one`] never consults
//! the cache: it stays the uncached reference path.
//!
//! [`CircuitPool::reload`] (or [`Server::reload`] on a running server)
//! recompiles a hosted model from a new [`problp_ac::AcGraph`], passes
//! it through the same static-verifier admission gate as
//! [`CircuitPool::register`], and atomically publishes it at the next
//! [`ModelVersion`]. New admissions cut over immediately; queued and
//! in-flight work keeps the tenant handle (and tape version) it was
//! admitted under, so nothing drains, no ticket strands, and no lane is
//! ever evaluated on a tape it was not admitted to. Cache keys carry
//! the version, so a stale entry can never answer a post-reload
//! request; [`Server::reload`] additionally drops the replaced model's
//! entries to free capacity.
//!
//! Coalescing never changes answers: every engine lane is computed by
//! the same instruction sequence regardless of which other lanes share
//! its batch, so a coalesced answer's payload (values, assignments,
//! posteriors) is bit-identical to serving the request alone
//! (`tests/serve.rs` pins this per model, per query kind and per
//! arithmetic via [`ServeResponse::answer_eq`]). The one batch-scope
//! field is the sticky-flag set, which is aggregated over the coalesced
//! batch and therefore a superset of the request's own flags.
//!
//! Failure isolation is per request, not per process: an unknown model
//! or mismatched evidence is rejected at admission, an impossible
//! conditional lane fails only its own ticket
//! ([`ServeError::ImpossibleEvidence`]), and a panic inside an
//! evaluation is caught and returned as
//! [`crate::EngineError::WorkerPanic`] to the requests of that one
//! batch while the dispatcher keeps serving.
//!
//! # Examples
//!
//! ```
//! use problp_ac::compile;
//! use problp_bayes::{networks, BatchQuery, Evidence};
//! use problp_engine::{CircuitPool, Priority, ServeConfig, ServeRequest, Server};
//! use problp_num::F64Arith;
//!
//! let mut pool = CircuitPool::new(F64Arith::new());
//! for (name, net) in [("sprinkler", networks::sprinkler()), ("asia", networks::asia())] {
//!     pool.register(name, &compile(&net)?)?;
//! }
//! let server = Server::start(pool, ServeConfig::default());
//!
//! let net = networks::sprinkler();
//! let ticket = server.submit(ServeRequest {
//!     model: "sprinkler".to_string(),
//!     evidence: Evidence::empty(net.var_count()),
//!     query: BatchQuery::Marginal,
//!     priority: Priority::Interactive,
//! })?;
//! match ticket.wait()? {
//!     problp_engine::ServeResponse::Marginal { value, .. } => {
//!         assert!((value - 1.0).abs() < 1e-12)
//!     }
//!     other => panic!("expected a marginal, got {other:?}"),
//! }
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod admission;
mod cache;
mod dispatch;
pub mod gateway;
mod metrics;
mod pool;
mod queue;
mod server;
mod ticket;

pub use admission::{
    lane_answer_eq, LaneResult, Priority, ServeConfig, ServeError, ServeRequest, ServeResponse,
};
pub use gateway::{Gateway, GatewayConfig};
pub use metrics::ServerStats;
pub use pool::{CircuitPool, ModelVersion};
pub use server::Server;
pub use ticket::Ticket;
