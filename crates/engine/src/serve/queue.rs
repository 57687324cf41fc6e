//! The admission queue proper: per-`(model, query, priority)`
//! coalescing groups in columnar form, the quota books that must stay
//! consistent with them under one lock, and the scheduling-policy
//! functions ([`dispatch_rank`], [`take_job`], [`next_deadline`]) the
//! dispatcher shards drive. With the default zero `max_wait`, every
//! queued group is ripe, so a free dispatcher never waits on a timer.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

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

/// The admission queue proper, plus the quota books that must stay
/// consistent with it under one lock: per-tenant lane counts (queued +
/// in flight).
pub(crate) struct QueueState<A: Arith> {
    pub(crate) groups: Vec<Group<A>>,
    /// Lanes queued + in flight per model id; the quota denominator.
    pub(crate) tenant_lanes: HashMap<String, usize>,
    pub(crate) shutdown: bool,
}

impl<A: Arith> QueueState<A> {
    /// An empty queue: no groups, no books, accepting admissions.
    pub(crate) fn new() -> Self {
        QueueState {
            groups: Vec::new(),
            tenant_lanes: HashMap::new(),
            shutdown: false,
        }
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
/// whose oldest request has waited `max_wait` (any group, at the
/// default zero wait), or — when `flush` — any non-empty group. Among
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
                    || now.duration_since(g.waiters[0].enqueued) >= config.max_wait)
        })
        .min_by_key(|(_, g)| (dispatch_rank(g, now, config), g.waiters[0].enqueued))
        .map(|(i, _)| i)?;
    {
        // Whether aging promoted the picked group past its nominal
        // class, observed before the group is consumed.
        let g = &q.groups[idx];
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

/// The next instant at which some group's oldest request has waited
/// `max_wait`.
pub(crate) fn next_deadline<A: Arith>(q: &QueueState<A>, config: &ServeConfig) -> Option<Instant> {
    q.groups
        .iter()
        .filter_map(|g| g.waiters.first().map(|w| w.enqueued + config.max_wait))
        .min()
}

#[cfg(test)]
mod tests {
    use super::super::pool::tests_support::two_model_pool;
    use super::*;
    use problp_bayes::Evidence;
    use problp_num::F64Arith;
    use problp_telemetry::MetricsRegistry;
    use std::time::Duration;

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
}
