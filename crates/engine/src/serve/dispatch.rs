//! The dispatcher: worker shards that pop ripe coalesced groups off the
//! queue, sweep each group's batch through its pinned tenant's engine
//! once, fill the answer cache, and route per-lane results to their
//! tickets.
//!
//! A job carries the `Arc<Tenant>` it was admitted against, so a
//! [`super::Server::reload`] between admission and dispatch never
//! changes what a ticket resolves to: in-flight work finishes on the
//! tape version that admitted it, while the reload only redirects *new*
//! admissions.

use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use problp_bayes::BatchQuery;
use problp_telemetry::Gauge;

use super::admission::{Priority, ServeError, ServeResponse};
use super::cache::{cacheable, lock_cache, CacheKey};
use super::metrics::query_kind_idx;
use super::queue::{lock_queue, next_deadline, take_job, Job};
use super::server::Shared;
use crate::error::{panic_message, EngineError};
use crate::kernels::KernelSet;
use problp_num::Arith;

/// One dispatcher shard: wait for a ripe group, coalesce it, evaluate,
/// route the per-lane results, repeat. Returns when the queue is shut
/// down and drained.
pub(crate) fn worker_loop<A>(shared: &Shared<A>)
where
    A: KernelSet + Clone + Send + Sync,
    A::Value: Clone + Send + Sync,
{
    // `Server::start` counts the worker live before spawning it (so
    // `live_workers` is exact as soon as `start` returns); the drop
    // guard uncounts it, even when a panicking evaluation unwinds past
    // the dispatch catch (`/healthz` turns red when all shards die).
    struct WorkerAlive(Gauge);
    impl Drop for WorkerAlive {
        fn drop(&mut self) {
            self.0.add(-1);
        }
    }
    let metrics = &shared.metrics;
    let _alive = WorkerAlive(metrics.live_workers.clone());
    loop {
        let job = {
            let mut q = lock_queue(&shared.queue);
            loop {
                let flush = q.shutdown;
                if let Some(job) = take_job(&mut q, &shared.config, flush, metrics) {
                    // More work may be ripe; make sure an idle shard
                    // looks, since our notify was consumed by this pop.
                    if !q.groups.is_empty() {
                        shared.ready.notify_one();
                    }
                    break Some(job);
                }
                if q.shutdown {
                    break None;
                }
                // With pending groups, sleep until the earliest
                // max_wait deadline; on an empty queue, block until a
                // submit (or shutdown) notifies — no idle polling.
                q = match next_deadline(&q, &shared.config) {
                    Some(deadline) => {
                        let wait = deadline
                            .saturating_duration_since(Instant::now())
                            .max(Duration::from_micros(50));
                        shared
                            .ready
                            .wait_timeout(q, wait)
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .0
                    }
                    None => shared
                        .ready
                        .wait(q)
                        .unwrap_or_else(|poisoned| poisoned.into_inner()),
                };
            }
        };
        let Some(job) = job else {
            return;
        };
        dispatch(shared, job);
    }
}

/// Releases a finished job's lanes from its tenant's quota budget.
/// Runs *before* the results are sent, so by the time a ticket
/// resolves, the tenant's quota headroom is already restored. A no-op
/// (no lock taken) when quotas are off — no books are kept then.
pub(crate) fn release_tenant_lanes<A: Arith>(shared: &Shared<A>, model: &str, lanes: usize) {
    if shared.config.tenant_quota == 0 {
        return;
    }
    let mut q = lock_queue(&shared.queue);
    if let Some(n) = q.tenant_lanes.get_mut(model) {
        *n = n.saturating_sub(lanes);
        shared.metrics.tenant_gauge(model).set(*n as i64);
        if *n == 0 {
            q.tenant_lanes.remove(model);
        }
    }
}

/// Evaluates one job's coalesced batch and sends each lane's result to
/// its ticket. A panic inside the evaluation fails this batch's
/// requests and nothing else; a lane-count mismatch (the evaluation
/// returning fewer results than the job has waiters) fails the
/// unmatched waiters with [`ServeError::LaneCountMismatch`] instead of
/// leaving their tickets hanging until shutdown.
pub(crate) fn dispatch<A>(shared: &Shared<A>, job: Job<A>)
where
    A: KernelSet + Clone + Send + Sync,
    A::Value: Clone + Send + Sync,
{
    let metrics = &shared.metrics;
    metrics.dispatches.inc();
    // The job evaluates on the tenant it was admitted against — a
    // concurrent reload republished the model under a new Arc and does
    // not touch this batch.
    let tenant = &job.tenant;
    let engine = match job.query {
        BatchQuery::Mpe => &tenant.mpe,
        _ => &tenant.sum,
    };
    let (tape_instrs, fused_instrs) = engine.swept_instrs(job.query, job.batch.lanes());
    metrics.tape_instrs.add(tape_instrs);
    metrics.fused_instrs.add(fused_instrs);
    let started = Instant::now();
    let results = std::panic::catch_unwind(AssertUnwindSafe(|| {
        shared.pool.evaluate_group(tenant, job.query, &job.batch)
    }));
    let completed = Instant::now();
    metrics.evaluate_us[query_kind_idx(job.query)]
        .observe_duration(completed.saturating_duration_since(started));
    release_tenant_lanes(shared, &job.model, job.waiters.len());
    match results {
        Ok(per_lane) => {
            // The flags are batch-scope (identical across the group's
            // Ok lanes); fold the first one into the raise counters.
            if let Some(flags) = per_lane.iter().find_map(|r| match r {
                Ok(ServeResponse::Marginal { flags, .. })
                | Ok(ServeResponse::Mpe { flags, .. })
                | Ok(ServeResponse::Conditional { flags, .. }) => Some(*flags),
                Err(_) => None,
            }) {
                metrics.note_flags(flags);
            }
            // Memoize the deterministic lanes *before* resolving any
            // ticket, so a caller that resubmits the moment its wait()
            // returns observes the hit.
            if let Some(cache) = &shared.cache {
                let mut c = lock_cache(cache);
                let mut evicted = 0u64;
                for (lane, r) in per_lane.iter().enumerate().take(job.batch.lanes()) {
                    if cacheable(r) {
                        let key = CacheKey::for_lane(
                            &job.model,
                            tenant.version,
                            job.query,
                            &job.batch,
                            lane,
                        );
                        evicted += c.insert(key, r.clone());
                    }
                }
                if evicted > 0 {
                    metrics.cache_evictions.add(evicted);
                }
            }
            let sojourn = &metrics.sojourn_us[query_kind_idx(job.query)]
                [(job.priority == Priority::Batch) as usize];
            // Every waiter gets an answer: lane i belongs to waiter i,
            // and any waiter beyond the produced lanes gets a typed
            // internal error rather than a silent ticket hang.
            let expected = job.waiters.len();
            let got = per_lane.len();
            let mut lanes = per_lane.into_iter();
            for w in &job.waiters {
                sojourn.observe_duration(completed.saturating_duration_since(w.enqueued));
                let r = lanes
                    .next()
                    .unwrap_or(Err(ServeError::LaneCountMismatch { expected, got }));
                let _ = w.tx.try_send((completed, r));
            }
        }
        Err(payload) => {
            let message = panic_message(payload);
            for w in &job.waiters {
                let _ = w.tx.try_send((
                    completed,
                    Err(ServeError::Engine(EngineError::WorkerPanic {
                        message: message.clone(),
                    })),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::pool::tests_support::two_model_pool;
    use super::super::queue::{QueueState, Waiter};
    use super::super::{metrics::ServeMetrics, ServeConfig, ServeResponse};
    use super::*;
    use problp_bayes::{networks, Evidence, EvidenceBatch};
    use problp_telemetry::MetricsRegistry;
    use std::sync::{mpsc, Arc, Condvar, Mutex};

    #[test]
    fn dispatch_fails_unmatched_waiters_instead_of_hanging() {
        let net = networks::sprinkler();
        let pool = two_model_pool();
        let tenant = pool.tenant("sprinkler").unwrap();
        let shared = Arc::new(Shared {
            pool,
            config: ServeConfig::default(),
            queue: Mutex::new(QueueState::new()),
            ready: Condvar::new(),
            cache: None,
            metrics: ServeMetrics::new(Arc::new(MetricsRegistry::new())),
        });
        // A 1-lane batch owing 2 waiters: evaluate_group will produce
        // one result for two tickets.
        let mut batch = EvidenceBatch::new(net.var_count());
        batch.push(&Evidence::empty(net.var_count()));
        let (tx_a, rx_a) = mpsc::sync_channel(1);
        let (tx_b, rx_b) = mpsc::sync_channel(1);
        let now = Instant::now();
        dispatch(
            &shared,
            Job {
                tenant,
                model: "sprinkler".to_string(),
                query: BatchQuery::Marginal,
                priority: Priority::Interactive,
                batch,
                waiters: vec![
                    Waiter {
                        enqueued: now,
                        tx: tx_a,
                    },
                    Waiter {
                        enqueued: now,
                        tx: tx_b,
                    },
                ],
            },
        );
        // Waiter 0 owns lane 0; waiter 1 has no lane and must get the
        // typed mismatch error immediately.
        let (_, first) = rx_a.recv().expect("lane 0 answered");
        assert!(matches!(first, Ok(ServeResponse::Marginal { .. })));
        let (_, second) = rx_b
            .recv_timeout(Duration::from_secs(5))
            .expect("unmatched waiter answered, not hung");
        assert_eq!(
            second,
            Err(ServeError::LaneCountMismatch {
                expected: 2,
                got: 1
            })
        );
    }
}
