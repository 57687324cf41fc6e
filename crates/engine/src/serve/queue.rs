//! The admission queue proper: per-`(model, query, priority)`
//! coalescing groups in columnar form, the quota books and per-stream
//! arrival EWMAs that must stay consistent with them under one lock,
//! and the scheduling-policy functions ([`effective_wait`],
//! [`dispatch_rank`], [`take_job`]) the dispatcher shards drive.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use problp_bayes::{BatchQuery, EvidenceBatch};
use problp_num::Arith;

use super::admission::{LaneResult, Priority, ServeConfig};
use super::metrics::ServeMetrics;
use super::pool::Tenant;

/// The routing half of one admitted request: when it arrived and where
/// its result goes (a one-slot channel, sent to exactly once). The
/// evidence half lives in the group's columnar batch, lane `i`
/// belonging to `waiters[i]`.
pub(crate) struct Waiter<V> {
    pub(crate) enqueued: Instant,
    pub(crate) tx: mpsc::SyncSender<(Instant, LaneResult<V>)>,
}

/// The pending requests of one `(model, query, priority)` coalescing
/// group, already in columnar form: admission pushes straight into the
/// [`EvidenceBatch`] the dispatcher will sweep, and an over-full group
/// is cut at `max_batch` with one [`EvidenceBatch::split_off`] (the
/// head leaves zero-copy; only the tail lanes move). The group pins the
/// tenant (and so the tape version) its requests were admitted to:
/// requests admitted across a reload land in separate groups.
pub(crate) struct Group<A: Arith> {
    pub(crate) tenant: Arc<Tenant<A>>,
    pub(crate) model: String,
    pub(crate) query: BatchQuery,
    pub(crate) priority: Priority,
    pub(crate) batch: EvidenceBatch,
    pub(crate) waiters: Vec<Waiter<A::Value>>,
}

/// The arrival-rate tracker of one `(model, query, priority)` request
/// stream, persisting across the stream's coalescing groups: an EWMA of
/// the inter-arrival interval, driving the adaptive effective wait.
pub(crate) struct ArrivalStats {
    model: String,
    query: BatchQuery,
    priority: Priority,
    /// When the stream's latest request arrived.
    last: Instant,
    /// EWMA of the inter-arrival interval, microseconds.
    ewma_us: f64,
}

/// EWMA smoothing factor of the arrival-interval tracker: new intervals
/// get this weight, history the rest. At 0.25, four hot arrivals erase
/// ~70% of an idle spell's memory.
const ARRIVAL_EWMA_ALPHA: f64 = 0.25;

impl ArrivalStats {
    /// Folds one arrival into the EWMA. Intervals are clamped to
    /// `max_wait` so a long idle gap counts as "fully idle" once
    /// instead of pinning the average high for many arrivals.
    fn note(&mut self, now: Instant, max_wait: Duration) {
        let cap_us = max_wait.as_secs_f64() * 1e6;
        let interval_us =
            (now.saturating_duration_since(self.last).as_secs_f64() * 1e6).min(cap_us.max(1.0));
        self.ewma_us = ARRIVAL_EWMA_ALPHA * interval_us + (1.0 - ARRIVAL_EWMA_ALPHA) * self.ewma_us;
        self.last = now;
    }
}

/// The admission queue proper, plus the QoS bookkeeping that must stay
/// consistent with it under one lock: per-tenant lane counts (queued +
/// in flight, for quotas) and per-stream arrival EWMAs (for the
/// adaptive wait).
pub(crate) struct QueueState<A: Arith> {
    pub(crate) groups: Vec<Group<A>>,
    /// Lanes queued + in flight per model id; the quota denominator.
    pub(crate) tenant_lanes: HashMap<String, usize>,
    /// Per-stream arrival trackers (linear scan: streams are few —
    /// models × query kinds × priority classes).
    pub(crate) arrivals: Vec<ArrivalStats>,
    pub(crate) shutdown: bool,
}

impl<A: Arith> QueueState<A> {
    /// An empty queue: no groups, no books, accepting admissions.
    pub(crate) fn new() -> Self {
        QueueState {
            groups: Vec::new(),
            tenant_lanes: HashMap::new(),
            arrivals: Vec::new(),
            shutdown: false,
        }
    }

    /// Records one arrival on the `(model, query, priority)` stream,
    /// folding it into the stream's interval EWMA.
    pub(crate) fn note_arrival(
        &mut self,
        model: &str,
        query: BatchQuery,
        priority: Priority,
        now: Instant,
        max_wait: Duration,
    ) {
        match self
            .arrivals
            .iter_mut()
            .find(|s| s.model == model && s.query == query && s.priority == priority)
        {
            Some(s) => s.note(now, max_wait),
            None => {
                // First arrival: start at the cap (treat the stream as
                // idle) and let heat shrink the wait from there.
                self.arrivals.push(ArrivalStats {
                    model: model.to_string(),
                    query,
                    priority,
                    last: now,
                    ewma_us: (max_wait.as_secs_f64() * 1e6).max(1.0),
                });
            }
        }
    }

    /// The arrival-interval EWMA of a group's stream, if tracked.
    fn arrival_ewma_us(&self, g: &Group<A>) -> Option<f64> {
        self.arrivals
            .iter()
            .find(|s| s.model == g.model && s.query == g.query && s.priority == g.priority)
            .map(|s| s.ewma_us)
    }
}

/// One coalesced unit of dispatcher work: the batch to sweep, the
/// tenant (at the version it was admitted to) that sweeps it, and the
/// per-lane reply channels. `priority` rides along only to label the
/// sojourn histograms — scheduling already happened.
pub(crate) struct Job<A: Arith> {
    pub(crate) tenant: Arc<Tenant<A>>,
    pub(crate) model: String,
    pub(crate) query: BatchQuery,
    pub(crate) priority: Priority,
    pub(crate) batch: EvidenceBatch,
    pub(crate) waiters: Vec<Waiter<A::Value>>,
}

/// Locks the queue, recovering from poisoning: queue state is plain data
/// (no invariants spanning the panic point), and serving must outlive a
/// panicked worker.
pub(crate) fn lock_queue<A: Arith>(queue: &Mutex<QueueState<A>>) -> MutexGuard<'_, QueueState<A>> {
    queue
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The effective coalescing wait of one group: the flat `max_wait`, or
/// — under the adaptive policy — the expected time for the group's
/// stream to fill a `max_batch` batch (`EWMA interval × max_batch`),
/// capped at `max_wait`. A hot stream therefore dispatches almost
/// immediately (its batch fills anyway), while an idle one keeps the
/// full coalescing window.
pub(crate) fn effective_wait<A: Arith>(
    q: &QueueState<A>,
    config: &ServeConfig,
    g: &Group<A>,
) -> Duration {
    if !config.adaptive_wait {
        return config.max_wait;
    }
    let Some(ewma_us) = q.arrival_ewma_us(g) else {
        return config.max_wait;
    };
    let fill_us = ewma_us * config.max_batch.max(1) as f64;
    config
        .max_wait
        .min(Duration::from_micros(fill_us.max(0.0) as u64))
}

/// The dispatch rank of a ripe group: its priority class, except that a
/// group whose head-of-line request has waited `priority_aging` is
/// promoted to the top class — the anti-starvation bound that keeps a
/// continuously-full [`Priority::Interactive`] tenant from delaying a
/// [`Priority::Batch`] group indefinitely.
pub(crate) fn dispatch_rank<A: Arith>(
    g: &Group<A>,
    now: Instant,
    config: &ServeConfig,
) -> Priority {
    let head = g.waiters[0].enqueued;
    if now.saturating_duration_since(head) >= config.priority_aging {
        Priority::Interactive
    } else {
        g.priority
    }
}

/// Pops a dispatchable job: a group with `max_batch` lanes waiting, one
/// whose oldest request has waited its effective wait (see
/// [`effective_wait`]), or — when `flush` — any non-empty group. Among
/// dispatchable groups the highest [`dispatch_rank`] wins
/// (Interactive before Batch, aged groups promoted), ties broken by the
/// oldest head-of-line request — so a continuously-full tenant cannot
/// starve a timed-out group behind it.
pub(crate) fn take_job<A: Arith>(
    q: &mut QueueState<A>,
    config: &ServeConfig,
    flush: bool,
    metrics: &ServeMetrics,
) -> Option<Job<A>> {
    let max_batch = config.max_batch.max(1);
    let now = Instant::now();
    let idx = q
        .groups
        .iter()
        .enumerate()
        .filter(|(_, g)| {
            !g.waiters.is_empty()
                && (flush
                    || g.waiters.len() >= max_batch
                    || now.duration_since(g.waiters[0].enqueued) >= effective_wait(q, config, g))
        })
        .min_by_key(|(_, g)| (dispatch_rank(g, now, config), g.waiters[0].enqueued))
        .map(|(i, _)| i)?;
    {
        // Coalescing observations for the picked group, before it is
        // consumed: how long it was allowed to wait, and whether aging
        // promoted it past its nominal class.
        let g = &q.groups[idx];
        metrics
            .effective_wait_us
            .observe_duration(effective_wait(q, config, g));
        if g.priority == Priority::Batch && dispatch_rank(g, now, config) == Priority::Interactive {
            metrics.aging_promotions.inc();
        }
    }
    let group = &mut q.groups[idx];
    let job = if group.waiters.len() <= max_batch {
        let group = q.groups.remove(idx);
        Job {
            tenant: group.tenant,
            model: group.model,
            query: group.query,
            priority: group.priority,
            batch: group.batch,
            waiters: group.waiters,
        }
    } else {
        // Over-full group: one two-way cut — the head `max_batch` lanes
        // leave as the job's batch, only the tail lanes are moved, and
        // the queue mutex is held for a single O(tail) pass.
        let waiters: Vec<Waiter<A::Value>> = group.waiters.drain(..max_batch).collect();
        let tail = group.batch.split_off(max_batch);
        let head = std::mem::replace(&mut group.batch, tail);
        Job {
            tenant: Arc::clone(&group.tenant),
            model: group.model.clone(),
            query: group.query,
            priority: group.priority,
            batch: head,
            waiters,
        }
    };
    metrics.group_lanes.observe(job.waiters.len() as u64);
    metrics.queue_depth.set(q.groups.len() as i64);
    Some(job)
}

/// The next instant at which some group's oldest request hits its
/// effective wait.
pub(crate) fn next_deadline<A: Arith>(q: &QueueState<A>, config: &ServeConfig) -> Option<Instant> {
    q.groups
        .iter()
        .filter_map(|g| {
            g.waiters
                .first()
                .map(|w| w.enqueued + effective_wait(q, config, g))
        })
        .min()
}

#[cfg(test)]
mod tests {
    use super::super::pool::tests_support::two_model_pool;
    use super::*;
    use problp_bayes::Evidence;
    use problp_num::F64Arith;
    use problp_telemetry::MetricsRegistry;

    #[test]
    fn priority_orders_ripe_groups_and_aging_promotes() {
        // Pure scheduling-order check on take_job, no server involved.
        let pool = two_model_pool();
        let tenant = pool.tenant("sprinkler").unwrap();
        let mk_group = |model: &str, priority, head: Instant| Group::<F64Arith> {
            tenant: Arc::clone(&tenant),
            model: model.to_string(),
            query: BatchQuery::Marginal,
            priority,
            batch: {
                let mut b = EvidenceBatch::new(4);
                b.push(&Evidence::empty(4));
                b
            },
            waiters: vec![Waiter {
                enqueued: head,
                tx: mpsc::sync_channel(1).0,
            }],
        };
        let config = ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(1),
            priority_aging: Duration::from_secs(3600),
            ..ServeConfig::default()
        };
        let now = Instant::now();
        let long_ago = now - Duration::from_millis(50);
        let longer_ago = now - Duration::from_millis(80);
        // An older Batch head loses to a younger (but ripe) Interactive
        // head while unaged...
        let mut q = QueueState::<F64Arith>::new();
        q.groups = vec![
            mk_group("batch-tenant", Priority::Batch, longer_ago),
            mk_group("live-tenant", Priority::Interactive, long_ago),
        ];
        let metrics = ServeMetrics::new(Arc::new(MetricsRegistry::new()));
        let job = take_job(&mut q, &config, false, &metrics).expect("both groups ripe");
        assert_eq!(job.model, "live-tenant");
        // ...but once its head exceeds the aging bound, the Batch group
        // is promoted and its older head wins.
        let aged = ServeConfig {
            priority_aging: Duration::from_millis(60),
            ..config
        };
        let mut q = QueueState::<F64Arith>::new();
        q.groups = vec![
            mk_group("batch-tenant", Priority::Batch, longer_ago),
            mk_group("live-tenant", Priority::Interactive, long_ago),
        ];
        let job = take_job(&mut q, &aged, false, &metrics).expect("both groups ripe");
        assert_eq!(job.model, "batch-tenant");
        // The coalescing observations moved with the two pops: two
        // 1-lane groups and one aging promotion (the second pop).
        assert_eq!(metrics.group_lanes.snapshot().count, 2);
        assert_eq!(metrics.aging_promotions.get(), 1);
    }

    #[test]
    fn aging_promotes_at_the_exact_boundary() {
        // Regression: promotion must kick in at `waited == priority_aging`
        // (the comparison is `>=`), not only strictly beyond it. A `>`
        // would let a Batch group whose head has waited exactly the aging
        // bound keep losing to Interactive traffic for another beat.
        let pool = two_model_pool();
        let tenant = pool.tenant("sprinkler").unwrap();
        let aging = Duration::from_millis(20);
        let config = ServeConfig {
            priority_aging: aging,
            ..ServeConfig::default()
        };
        let now = Instant::now();
        let group_with_head = |head: Instant| Group::<F64Arith> {
            tenant: Arc::clone(&tenant),
            model: "m".to_string(),
            query: BatchQuery::Marginal,
            priority: Priority::Batch,
            batch: EvidenceBatch::new(4),
            waiters: vec![Waiter {
                enqueued: head,
                tx: mpsc::sync_channel(1).0,
            }],
        };
        // One tick short of the bound: still Batch rank.
        let young = group_with_head(now - (aging - Duration::from_nanos(1)));
        assert_eq!(dispatch_rank(&young, now, &config), Priority::Batch);
        // Exactly at the bound: promoted.
        let boundary = group_with_head(now - aging);
        assert_eq!(
            dispatch_rank(&boundary, now, &config),
            Priority::Interactive
        );
        // And beyond it, of course.
        let aged = group_with_head(now - aging - Duration::from_millis(1));
        assert_eq!(dispatch_rank(&aged, now, &config), Priority::Interactive);
    }

    #[test]
    fn adaptive_wait_shrinks_when_hot_and_caps_when_idle() {
        let pool = two_model_pool();
        let tenant = pool.tenant("sprinkler").unwrap();
        let config = ServeConfig {
            max_batch: 16,
            max_wait: Duration::from_millis(10),
            adaptive_wait: true,
            ..ServeConfig::default()
        };
        let mut q = QueueState::<F64Arith>::new();
        let g = Group::<F64Arith> {
            tenant: Arc::clone(&tenant),
            model: "m".to_string(),
            query: BatchQuery::Marginal,
            priority: Priority::Interactive,
            batch: EvidenceBatch::new(4),
            waiters: Vec::new(),
        };
        // Untracked stream: the flat cap.
        assert_eq!(effective_wait(&q, &config, &g), config.max_wait);
        // First arrival starts at the cap (idle assumption)...
        let t0 = Instant::now();
        q.note_arrival(
            "m",
            BatchQuery::Marginal,
            Priority::Interactive,
            t0,
            config.max_wait,
        );
        assert_eq!(effective_wait(&q, &config, &g), config.max_wait);
        // ...then a burst of back-to-back arrivals drives the EWMA (and
        // with it the effective wait) down hard.
        for i in 1..=40u64 {
            q.note_arrival(
                "m",
                BatchQuery::Marginal,
                Priority::Interactive,
                t0 + Duration::from_micros(i * 5),
                config.max_wait,
            );
        }
        let hot = effective_wait(&q, &config, &g);
        assert!(
            hot < config.max_wait / 10,
            "hot stream still waits {hot:?} of {:?}",
            config.max_wait
        );
        // An idle spell (clamped to one max_wait per arrival) grows the
        // wait back toward the cap.
        let mut t = t0 + Duration::from_secs(60);
        for _ in 0..40 {
            q.note_arrival(
                "m",
                BatchQuery::Marginal,
                Priority::Interactive,
                t,
                config.max_wait,
            );
            t += Duration::from_secs(1);
        }
        assert_eq!(effective_wait(&q, &config, &g), config.max_wait);
    }
}
