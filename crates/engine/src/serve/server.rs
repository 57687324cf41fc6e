//! [`Server`]: the facade over the whole serving stack. Owns the shared
//! state (pool, queue, cache, metrics), runs admission on the caller's
//! thread, and spawns/joins the dispatcher shards.

use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use problp_ac::AcGraph;
use problp_bayes::EvidenceBatch;
use problp_telemetry::{HealthFn, HealthStatus, MetricsRegistry};

use super::admission::{LaneResult, ServeConfig, ServeError, ServeRequest};
use super::cache::{lock_cache, AnswerCache, CacheKey};
use super::dispatch::worker_loop;
use super::metrics::{ServeMetrics, ServerStats};
use super::pool::{CircuitPool, ModelVersion};
use super::queue::{lock_queue, Group, QueueState, Waiter};
use super::ticket::Ticket;
use crate::kernels::KernelSet;
use problp_num::Arith;

/// Everything the admission path and the dispatcher shards share.
///
/// Lock order where both are taken: queue, then cache. The cache is
/// `None` when [`ServeConfig::cache_capacity`] is zero, so the
/// cache-off hot paths never touch a second lock.
pub(crate) struct Shared<A: Arith> {
    pub(crate) pool: CircuitPool<A>,
    pub(crate) config: ServeConfig,
    pub(crate) queue: Mutex<QueueState<A>>,
    pub(crate) ready: Condvar,
    pub(crate) cache: Option<Mutex<AnswerCache<LaneResult<A::Value>>>>,
    pub(crate) metrics: ServeMetrics,
}

/// A running serving instance: a [`CircuitPool`] behind an admission
/// queue and a shard of dispatcher workers.
///
/// Dropping the server (or calling [`Server::shutdown`]) stops
/// admission, flushes every queued request through the dispatchers and
/// joins the worker threads — no ticket is left hanging.
pub struct Server<A: Arith> {
    pub(crate) shared: Arc<Shared<A>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<A> Server<A>
where
    A: KernelSet + Clone + Send + Sync + 'static,
    A::Value: Clone + Send + Sync + 'static,
{
    /// Starts `config.workers` dispatcher shards over `pool`, recording
    /// metrics into a private registry (read it back via
    /// [`Server::metrics`] / [`Server::stats`]).
    pub fn start(pool: CircuitPool<A>, config: ServeConfig) -> Self {
        Self::start_instrumented(pool, config, Arc::new(MetricsRegistry::new()))
    }

    /// Like [`Server::start`], but records into a caller-supplied
    /// [`MetricsRegistry`] — the hook for sharing one registry between
    /// the server and a [`problp_telemetry::Sidecar`]. (A separate
    /// constructor because [`ServeConfig`] is `Copy` and cannot carry an
    /// `Arc`.)
    pub fn start_instrumented(
        pool: CircuitPool<A>,
        config: ServeConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        let shared = Arc::new(Shared {
            pool,
            config,
            queue: Mutex::new(QueueState::new()),
            ready: Condvar::new(),
            cache: (config.cache_capacity > 0)
                .then(|| Mutex::new(AnswerCache::new(config.cache_capacity))),
            metrics: ServeMetrics::new(registry),
        });
        // Publish every hosted model's live version gauge up front, so a
        // scrape sees the fleet even before the first reload.
        for (model, version) in shared.pool.model_versions() {
            shared
                .metrics
                .model_version_gauge(&model)
                .set(version as i64);
        }
        let workers = (0..config.workers.max(1))
            .map(|_| {
                shared.metrics.live_workers.add(1);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Server { shared, workers }
    }

    /// The registry this server records into: render it, serve it from
    /// a sidecar, or attach more instruments to it.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.metrics.registry)
    }

    /// A point-in-time snapshot of the server's own counters — the
    /// programmatic alternative to scraping `/metrics`.
    pub fn stats(&self) -> ServerStats {
        let m = &self.shared.metrics;
        let mut tenant_lanes: Vec<(String, usize)> = {
            let q = lock_queue(&self.shared.queue);
            q.tenant_lanes
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect()
        };
        tenant_lanes.sort();
        ServerStats {
            requests: m.requests.get(),
            admitted: m.admitted.get(),
            rejected_unknown_model: m.rejected_unknown_model.get(),
            rejected_bad_shape: m.rejected_bad_shape.get(),
            rejected_quota: m.rejected_quota.get(),
            rejected_shutdown: m.rejected_shutdown.get(),
            dispatches: m.dispatches.get(),
            cache_hits: m.cache_hits.get(),
            cache_misses: m.cache_misses.get(),
            cache_evictions: m.cache_evictions.get(),
            queue_depth: m.queue_depth.get(),
            queue_depth_high_water: m.queue_depth.high_water(),
            tenant_lanes,
            live_workers: m.live_workers.get(),
            models: self.shared.pool.models(),
            model_versions: self.shared.pool.model_versions(),
        }
    }

    /// A `/healthz` callback for a [`problp_telemetry::Sidecar`]:
    /// healthy while at least one dispatcher worker is alive and the
    /// server is not shut down, with the hosted models, live worker
    /// count and queue depth as detail lines. The closure holds its own
    /// `Arc` on the server internals, so it outlives this handle.
    pub fn health_fn(&self) -> HealthFn {
        let shared = Arc::clone(&self.shared);
        Box::new(move || {
            let shut = lock_queue(&shared.queue).shutdown;
            let workers = shared.metrics.live_workers.get();
            HealthStatus {
                healthy: workers > 0 && !shut,
                detail: vec![
                    ("models".to_string(), shared.pool.models().join(",")),
                    ("workers_alive".to_string(), workers.to_string()),
                    (
                        "queue_depth".to_string(),
                        shared.metrics.queue_depth.get().to_string(),
                    ),
                ],
            }
        })
    }

    /// The hosted pool (for direct [`CircuitPool::serve_one`] replays
    /// against the same engines).
    pub fn pool(&self) -> &CircuitPool<A> {
        &self.shared.pool
    }

    /// Hot-swaps `model` to a freshly compiled (and verified) tape
    /// built from `ac`, without stopping the server: see
    /// [`CircuitPool::reload`] for the cut-over semantics. On top of
    /// the pool swap, this drops the model's cached answers (counted as
    /// evictions) and publishes the new version on the
    /// `problp_pool_model_version` gauge.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] when `model` is not hosted, or the
    /// compile/verify error of the replacement graph — the old version
    /// keeps serving in either case.
    pub fn reload(&self, model: &str, ac: &AcGraph) -> Result<ModelVersion, ServeError> {
        let version = self.shared.pool.reload(model, ac)?;
        if let Some(cache) = &self.shared.cache {
            // Keyed lookups already miss the old version; the eager drop
            // just returns the capacity. A dispatch racing this may
            // re-insert an old-version entry afterwards — harmless, it
            // can never be looked up again and LRU pressure reclaims it.
            let dropped = lock_cache(cache).invalidate_model(model);
            if dropped > 0 {
                self.shared.metrics.cache_evictions.add(dropped);
            }
        }
        self.shared
            .metrics
            .model_version_gauge(model)
            .set(version as i64);
        Ok(version)
    }

    /// Admits one request into the coalescing queue — or, on an exact
    /// answer-cache hit, resolves its [`Ticket`] immediately with the
    /// memoized (bit-identical) result: a hit consumes no quota and
    /// counts as neither admitted nor dispatched.
    ///
    /// # Errors
    ///
    /// Rejects at admission: [`ServeError::UnknownModel`] /
    /// [`EngineError::BatchLengthMismatch`](crate::EngineError::BatchLengthMismatch)
    /// for malformed requests, [`ServeError::QuotaExceeded`] when the
    /// model already holds [`ServeConfig::tenant_quota`] lanes queued +
    /// in flight, and [`ServeError::ShutDown`] after shutdown.
    /// Per-request serving failures arrive through the [`Ticket`]
    /// instead.
    pub fn submit(&self, req: ServeRequest) -> Result<Ticket<A::Value>, ServeError> {
        let metrics = &self.shared.metrics;
        metrics.requests.inc();
        // Admission pins the tenant: everything downstream (cache key,
        // coalescing, dispatch) works on this exact tape version even if
        // a reload republishes the model a microsecond later.
        let tenant = match self.shared.pool.admit(&req) {
            Ok(tenant) => tenant,
            Err(e) => {
                match &e {
                    ServeError::UnknownModel { .. } => metrics.rejected_unknown_model.inc(),
                    // The only other admission failure is the evidence
                    // shape mismatch.
                    _ => metrics.rejected_bad_shape.inc(),
                }
                return Err(e);
            }
        };
        let config = &self.shared.config;
        // One slot, allocated here by the submitting thread: a reply is
        // exactly one message. An unbounded channel would allocate its
        // slot block in the dispatcher on send for the submitter to
        // free, and that cross-thread churn inflates peak memory at high
        // request rates.
        let (tx, rx) = mpsc::sync_channel(1);
        {
            let mut q = lock_queue(&self.shared.queue);
            if q.shutdown {
                metrics.rejected_shutdown.inc();
                return Err(ServeError::ShutDown);
            }
            // The cache lookup sits under the queue lock (queue before
            // cache, the global order) and after the shutdown check, so
            // a hit can neither race shutdown nor resurrect an entry a
            // concurrent reload is invalidating for new admissions.
            if let Some(cache) = &self.shared.cache {
                let key =
                    CacheKey::for_request(&req.model, tenant.version, req.query, &req.evidence);
                let hit = lock_cache(cache).get(&key).cloned();
                if let Some(result) = hit {
                    metrics.cache_hits.inc();
                    let _ = tx.try_send((Instant::now(), result));
                    return Ok(Ticket::new(rx));
                }
                metrics.cache_misses.inc();
            }
            // The quota books are only kept when a quota is set: with
            // the default config, submit does no extra work under the
            // admission lock.
            let now = Instant::now();
            if config.tenant_quota > 0 {
                // One lookup, and the key is only cloned on a tenant's
                // first lane — this runs under the admission lock.
                match q.tenant_lanes.get_mut(&req.model) {
                    Some(n) if *n >= config.tenant_quota => {
                        metrics.rejected_quota.inc();
                        return Err(ServeError::QuotaExceeded {
                            model: req.model,
                            quota: config.tenant_quota,
                        });
                    }
                    Some(n) => {
                        *n += 1;
                        metrics.tenant_gauge(&req.model).set(*n as i64);
                    }
                    None => {
                        q.tenant_lanes.insert(req.model.clone(), 1);
                        metrics.tenant_gauge(&req.model).set(1);
                    }
                }
            }
            let waiter = Waiter { enqueued: now, tx };
            // Coalescing matches the tenant by pointer: requests
            // admitted across a reload never share a batch, even though
            // model, query and priority all agree.
            match q.groups.iter_mut().find(|g| {
                Arc::ptr_eq(&g.tenant, &tenant)
                    && g.model == req.model
                    && g.query == req.query
                    && g.priority == req.priority
            }) {
                Some(g) => {
                    g.batch.push(&req.evidence);
                    g.waiters.push(waiter);
                }
                None => {
                    let mut batch = EvidenceBatch::new(req.evidence.len());
                    batch.push(&req.evidence);
                    q.groups.push(Group {
                        tenant,
                        model: req.model,
                        query: req.query,
                        priority: req.priority,
                        batch,
                        waiters: vec![waiter],
                    });
                }
            }
            metrics.admitted.inc();
            metrics.queue_depth.set(q.groups.len() as i64);
        }
        self.shared.ready.notify_one();
        Ok(Ticket::new(rx))
    }

    /// Submits a whole trace and waits for every answer, in request
    /// order. Admission errors land in the corresponding slot.
    pub fn serve_all(&self, requests: &[ServeRequest]) -> Vec<LaneResult<A::Value>> {
        let tickets: Vec<Result<Ticket<A::Value>, ServeError>> =
            requests.iter().map(|r| self.submit(r.clone())).collect();
        tickets
            .into_iter()
            .map(|t| match t {
                Ok(ticket) => ticket.wait(),
                Err(e) => Err(e),
            })
            .collect()
    }

    /// Like [`Server::serve_all`], but the whole drain shares one
    /// `deadline` budget ([`Ticket::wait_deadline`] with the remaining
    /// budget per ticket): a wedged dispatcher yields typed
    /// [`ServeError::Timeout`] slots within roughly `deadline` overall
    /// instead of blocking the caller forever (or for one deadline per
    /// request).
    pub fn serve_all_deadline(
        &self,
        requests: &[ServeRequest],
        deadline: Duration,
    ) -> Vec<LaneResult<A::Value>> {
        let tickets: Vec<Result<Ticket<A::Value>, ServeError>> =
            requests.iter().map(|r| self.submit(r.clone())).collect();
        let overall = Instant::now() + deadline;
        tickets
            .into_iter()
            .map(|t| match t {
                Ok(ticket) => {
                    ticket.wait_deadline(overall.saturating_duration_since(Instant::now()))
                }
                Err(e) => Err(e),
            })
            .collect()
    }

    /// Stops admission, drains the queue and joins the dispatchers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }
}

impl<A: Arith> Server<A> {
    fn shutdown_inner(&mut self) {
        {
            let mut q = lock_queue(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.ready.notify_all();
        for w in self.workers.drain(..) {
            // A worker that somehow panicked has nothing left to flush;
            // the remaining workers still drain the queue.
            let _ = w.join();
        }
    }
}

impl<A: Arith> Drop for Server<A> {
    fn drop(&mut self) {
        // Idempotent: after an explicit `shutdown()` the worker list is
        // already drained and this is a no-op.
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::super::pool::tests_support::two_model_pool;
    use super::super::{
        lane_answer_eq, Priority, ServeConfig, ServeRequest, ServeResponse, Server,
    };
    use super::*;
    use problp_ac::compile;
    use problp_bayes::{networks, BatchQuery, Evidence, VarId};
    use problp_num::F64Arith;

    #[test]
    fn mixed_tenant_trace_is_bit_identical_to_serve_one() {
        let pool = two_model_pool();
        // Tight batching limits so the trace actually coalesces.
        let config = ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(200),
            workers: 3,
            ..ServeConfig::default()
        };
        let server = Server::start(pool, config);
        let nets = [
            ("sprinkler", networks::sprinkler()),
            ("asia", networks::asia()),
        ];
        let mut requests = Vec::new();
        for (i, (name, net)) in nets.iter().cycle().take(60).enumerate() {
            let pool_evs = problp_bayes::single_variable_evidences(
                &(0..net.var_count())
                    .map(|v| net.variable(VarId::from_index(v)).arity())
                    .collect::<Vec<_>>(),
            );
            let evidence = pool_evs[i % pool_evs.len()].clone();
            let query = match i % 3 {
                0 => BatchQuery::Marginal,
                1 => BatchQuery::Mpe,
                _ => BatchQuery::Conditional {
                    query_var: net.roots()[0],
                },
            };
            requests.push(ServeRequest {
                model: name.to_string(),
                evidence,
                query,
                // Mix the lanes: priority must never change an answer.
                priority: if i % 2 == 0 {
                    Priority::Interactive
                } else {
                    Priority::Batch
                },
            });
        }
        let served = server.serve_all(&requests);
        for (req, got) in requests.iter().zip(&served) {
            let alone = server.pool().serve_one(req);
            assert!(
                lane_answer_eq(&alone, got),
                "request {req:?}: {alone:?} vs {got:?}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn impossible_conditional_evidence_fails_only_its_own_ticket() {
        let net = networks::sprinkler();
        let pool = two_model_pool();
        let server = Server::start(
            pool,
            ServeConfig {
                max_batch: 4,
                max_wait: Duration::from_micros(100),
                workers: 1,
                ..ServeConfig::default()
            },
        );
        // Pr(Sprinkler=0, Rain=0, WetGrass=1) = 0 in the sprinkler CPTs.
        let mut impossible = Evidence::empty(net.var_count());
        impossible.observe(net.find("Sprinkler").unwrap(), 0);
        impossible.observe(net.find("Rain").unwrap(), 0);
        impossible.observe(net.find("WetGrass").unwrap(), 1);
        let query = BatchQuery::Conditional {
            query_var: net.find("Cloudy").unwrap(),
        };
        let requests = vec![
            ServeRequest {
                model: "sprinkler".to_string(),
                evidence: Evidence::empty(net.var_count()),
                query,
                priority: Priority::Interactive,
            },
            ServeRequest {
                model: "sprinkler".to_string(),
                evidence: impossible,
                query,
                priority: Priority::Interactive,
            },
        ];
        let served = server.serve_all(&requests);
        assert!(matches!(served[0], Ok(ServeResponse::Conditional { .. })));
        assert_eq!(served[1], Err(ServeError::ImpossibleEvidence));
        server.shutdown();
    }

    #[test]
    fn drop_flushes_pending_tickets() {
        let pool = two_model_pool();
        // A huge max_wait: only shutdown's flush can dispatch the lone
        // request below before the batch fills.
        let server = Server::start(
            pool,
            ServeConfig {
                max_batch: 1024,
                max_wait: Duration::from_secs(3600),
                workers: 1,
                ..ServeConfig::default()
            },
        );
        let ticket = server
            .submit(ServeRequest {
                model: "asia".to_string(),
                evidence: Evidence::empty(8),
                query: BatchQuery::Marginal,
                priority: Priority::Batch,
            })
            .unwrap();
        drop(server);
        assert!(matches!(ticket.wait(), Ok(ServeResponse::Marginal { .. })));
    }

    /// Two CPT variants of the same tiny structure, for reload tests:
    /// answers under the two parameterizations must differ.
    fn coin(p: f64) -> problp_bayes::BayesNet {
        let mut b = problp_bayes::BayesNetBuilder::new();
        let rain = b.variable("Rain", 2);
        b.cpt(rain, [], [p, 1.0 - p]).unwrap();
        let wet = b.variable("Wet", 2);
        b.cpt(wet, [rain], [0.9, 0.1, 0.2, 0.8]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn reload_cuts_over_new_admissions_without_draining_in_flight_work() {
        let ac_v1 = compile(&coin(0.2)).unwrap();
        let ac_v2 = compile(&coin(0.7)).unwrap();
        let mut pool = CircuitPool::new(F64Arith::new());
        pool.register("coin", &ac_v1).unwrap();
        // A huge max_wait: both submissions below stay queued until the
        // shutdown flush, proving reload itself never drains the queue.
        let server = Server::start(
            pool,
            ServeConfig {
                max_batch: 1024,
                max_wait: Duration::from_secs(3600),
                workers: 1,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        );
        let req = ServeRequest {
            model: "coin".to_string(),
            evidence: Evidence::empty(2),
            query: BatchQuery::Marginal,
            priority: Priority::Interactive,
        };
        let old_ticket = server.submit(req.clone()).unwrap();
        assert_eq!(server.reload("coin", &ac_v2).unwrap(), 2);
        assert_eq!(server.stats().model_versions, vec![("coin".to_string(), 2)]);
        // Identical request, admitted after the cut-over: it must land
        // in a *different* group (tenant pointers differ) and must not
        // hit the cache (the version is part of the key — and nothing
        // was cached yet anyway).
        let new_ticket = server.submit(req.clone()).unwrap();
        {
            let q = lock_queue(&server.shared.queue);
            assert_eq!(q.groups.len(), 2, "pre/post-reload lanes never coalesce");
        }
        server.shutdown();
        let old_answer = old_ticket.wait();
        let new_answer = new_ticket.wait();
        // The in-flight lane finished on the tape that admitted it, the
        // new lane on the swapped tape — each bit-identical to a fresh
        // single-version pool.
        let mut ref_v1 = CircuitPool::new(F64Arith::new());
        ref_v1.register("coin", &ac_v1).unwrap();
        let mut ref_v2 = CircuitPool::new(F64Arith::new());
        ref_v2.register("coin", &ac_v2).unwrap();
        assert!(lane_answer_eq(&old_answer, &ref_v1.serve_one(&req)));
        assert!(lane_answer_eq(&new_answer, &ref_v2.serve_one(&req)));
        assert!(
            !lane_answer_eq(&old_answer, &new_answer),
            "the two parameterizations must actually disagree"
        );
    }
}
