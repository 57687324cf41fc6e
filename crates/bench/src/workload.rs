//! The one workload driver behind every serving claim: `reproduce
//! serving`, `problp serve-sim` and `problp serve-http --self-drive`
//! describe their run as a [`Scenario`] and hand it to [`run`] (or to a
//! [`Stack`] they keep alive around the run). One run
//!
//! 1. draws a seeded trace ([`Shape`]): the model, the query kind
//!    (marginal, MPE, or conditional on the model's first root), the
//!    canonical single-variable evidence and the priority lane;
//! 2. submits it in process or over HTTP ([`Transport`]), optionally
//!    hot-swapping the first model halfway through, then resubmits the
//!    served requests once per further round after a drain barrier;
//! 3. checks every answer: it must equal the pool's uncached
//!    [`CircuitPool::serve_one`] under [`lane_answer_eq`], and
//!    `serve_one` must reproduce the scalar tree-walk bit for bit;
//! 4. checks the server's books against the driver's own ledger:
//!    requests, quota rejects, cache hits and misses, model versions,
//!    the gateway's status counters and the sidecar's scrapes;
//! 5. returns one [`Report`], with nearest-rank latency percentiles over
//!    the per-request samples, which [`crate::workload_bench_record`]
//!    turns into one `BENCH_<scenario>.json` record.
//!
//! A run that cannot start or proceed, and any failed check, returns
//! an error that says what went wrong.

use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use problp_ac::{compile, AcError, AcGraph};
use problp_bayes::{networks, BatchQuery, BayesNet, Evidence, VarId};
use problp_engine::{
    lane_answer_eq, CircuitPool, Gateway, GatewayConfig, LaneResult, Priority, ServeConfig,
    ServeError, ServeRequest, ServeResponse, Server, ServerStats, Ticket,
};
use problp_num::{F64Arith, Flags};
use problp_telemetry::{
    http_get, http_post, metric_names, scrape_value, JsonValue, MetricsRegistry, Sidecar,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How long one round may take to drain: a wedged dispatcher fails the
/// run instead of hanging it.
const DRAIN_BUDGET: Duration = Duration::from_secs(30);

/// How a trace picks its requests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// A uniformly random model, query kind and evidence per request.
    Mixed {
        /// Percentage (0–100) of requests on the [`Priority::Batch`]
        /// lane; the rest are [`Priority::Interactive`].
        batch_share: u32,
    },
    /// The QoS hot-tenant split: 70% of the requests flood the first
    /// model on the [`Priority::Interactive`] lane, the rest spread over
    /// the other models as [`Priority::Batch`] traffic.
    HotTenant,
    /// Round-robin over the models, sweeping query kind × canonical
    /// evidence so no two requests share a cache key: the first round
    /// misses every key once and every replay round hits every key.
    Distinct,
}

/// Where a trace is submitted.
#[derive(Clone, Debug)]
pub enum Transport {
    /// [`Server::submit`] in process, each round as one burst.
    InProcess,
    /// `POST /v1/query` through a [`Gateway`], one request at a time.
    /// An empty token table mints `token-<model>` per hosted model.
    Http(GatewayConfig),
}

/// One workload run: what to host, what to send and how to serve it.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The record's scenario name (`BENCH_<name>.json`).
    pub name: String,
    /// The hosted `(model id, network)` pairs. The first model is the
    /// hot tenant and the one a mid-trace reload swaps.
    pub models: Vec<(String, BayesNet)>,
    /// Requests in the first round.
    pub requests: usize,
    /// The trace seed.
    pub seed: u64,
    /// How the trace picks models, query kinds and lanes.
    pub shape: Shape,
    /// Rounds: each round after the first resubmits the first round's
    /// served requests, leaving out those a reload made stale.
    pub rounds: usize,
    /// Hot-swap the first model halfway through the first round.
    pub reload_mid_trace: bool,
    /// Also run the scenario with the answer cache off; the report's
    /// speedup is then that run's wall time over this one's.
    pub cold_pass: bool,
    /// The serving policy.
    pub config: ServeConfig,
    /// Where the trace is submitted.
    pub transport: Transport,
    /// Bind the `/metrics` + `/healthz` sidecar here (port 0 = any); the
    /// run scrapes `/healthz` mid-trace and `/metrics` at the end.
    pub metrics_addr: Option<String>,
}

impl Scenario {
    /// `BENCH_serving.json`: Alarm, Asia and Sprinkler in one pool, a
    /// uniform mix of models and query kinds on the interactive lane.
    pub fn serving(requests: usize) -> Scenario {
        Scenario {
            name: "serving".to_string(),
            models: vec![
                ("alarm".to_string(), networks::alarm(crate::SEED)),
                ("asia".to_string(), networks::asia()),
                ("sprinkler".to_string(), networks::sprinkler()),
            ],
            requests,
            seed: crate::SEED,
            shape: Shape::Mixed { batch_share: 0 },
            rounds: 1,
            reload_mid_trace: false,
            cold_pass: false,
            config: ServeConfig {
                max_batch: 32,
                max_wait: Duration::from_micros(500),
                workers: 4,
                ..ServeConfig::default()
            },
            transport: Transport::InProcess,
            metrics_addr: None,
        }
    }

    /// `BENCH_qos.json`: Alarm floods the interactive lane under a
    /// tenant quota, priority aging and the adaptive wait. The quota
    /// sits above each background tenant's share of the burst (~15%)
    /// and far below the hot tenant's ~70%, so only Alarm can trip it.
    pub fn qos(requests: usize) -> Scenario {
        Scenario {
            name: "qos".to_string(),
            shape: Shape::HotTenant,
            config: ServeConfig {
                max_batch: 16,
                max_wait: Duration::from_micros(300),
                workers: 2,
                tenant_quota: (requests / 4).max(8),
                priority_aging: Duration::from_millis(2),
                adaptive_wait: true,
                ..ServeConfig::default()
            },
            ..Scenario::serving(requests)
        }
    }

    /// `BENCH_cache.json`: `requests` distinct keys served for four
    /// rounds with the answer cache on, timed against the cache off.
    pub fn cache(requests: usize) -> Scenario {
        let serving = Scenario::serving(requests);
        Scenario {
            name: "cache".to_string(),
            shape: Shape::Distinct,
            rounds: 4,
            cold_pass: true,
            config: ServeConfig {
                cache_capacity: requests * 2,
                ..serving.config
            },
            ..serving
        }
    }

    /// `BENCH_gateway.json`: Sprinkler and Asia behind the HTTP gateway
    /// at the `serve-http` defaults, a quarter of the trace on the batch
    /// lane.
    pub fn gateway(requests: usize) -> Scenario {
        Scenario {
            name: "gateway".to_string(),
            models: vec![
                ("sprinkler".to_string(), networks::sprinkler()),
                ("asia".to_string(), networks::asia()),
            ],
            seed: 11,
            shape: Shape::Mixed { batch_share: 25 },
            transport: Transport::Http(GatewayConfig::default()),
            ..Scenario::serving(requests)
        }
    }
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Runs `scenario` on a fresh [`Stack`] and tears it down.
///
/// # Errors
///
/// As [`Stack::start`] and [`Stack::drive`].
pub fn run(scenario: &Scenario) -> Result<Report, String> {
    Stack::start(scenario)?.drive()
}

/// p50/p90/p99/max of a latency sample, microseconds (`None` with no
/// sample).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Latency {
    /// Median.
    pub p50: Option<u64>,
    /// 90th percentile.
    pub p90: Option<u64>,
    /// 99th percentile.
    pub p99: Option<u64>,
    /// Largest sample.
    pub max: Option<u64>,
}

impl Latency {
    /// Nearest-rank percentiles of `samples_us`: the `p`-th percentile
    /// is the sorted sample at index `round(p / 100 × (n − 1))`.
    pub fn of(samples_us: impl IntoIterator<Item = u64>) -> Latency {
        let mut sorted: Vec<u64> = samples_us.into_iter().collect();
        sorted.sort_unstable();
        let rank = |p: f64| {
            let last = sorted.len().checked_sub(1)?;
            Some(sorted[((p / 100.0) * last as f64).round() as usize])
        };
        Latency {
            p50: rank(50.0),
            p90: rank(90.0),
            p99: rank(99.0),
            max: sorted.last().copied(),
        }
    }
}

impl std::fmt::Display for Latency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let us = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| format!("{v}us"));
        let (p50, p90, p99, max) = (us(self.p50), us(self.p90), us(self.p99), us(self.max));
        write!(f, "p50 {p50}  p90 {p90}  p99 {p99}  max {max}")
    }
}

/// One model's share of a run, in [`Scenario::models`] order.
#[derive(Clone, Debug, Default)]
pub struct ModelRow {
    /// Submissions to this model, all rounds.
    pub requests: usize,
    /// Of those, quota rejects.
    pub rejected: usize,
}

/// One priority lane's share of a run.
#[derive(Clone, Debug)]
pub struct ClassRow {
    /// The lane.
    pub class: Priority,
    /// Submissions on this lane.
    pub requests: usize,
    /// Of those, answered (not quota-rejected).
    pub admitted: usize,
    /// Latency of the answered requests.
    pub latency: Latency,
}

/// The result of one checked run.
#[derive(Clone, Debug)]
pub struct Report {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Per-model shares.
    pub models: Vec<ModelRow>,
    /// Submissions, all rounds.
    pub requests: usize,
    /// Submissions answered, not quota-rejected (cache hits included).
    pub admitted: usize,
    /// Answers that passed the checker (equal to `admitted` in every
    /// report [`run`] returns).
    pub identical: usize,
    /// Typed `QuotaExceeded` rejects.
    pub quota_rejected: usize,
    /// Submissions in the replay rounds.
    pub replayed: usize,
    /// Cache hits during the replay rounds.
    pub replay_hits: u64,
    /// Tree-walk time of the answered submissions, seconds.
    pub scalar_secs: f64,
    /// Wall time of all rounds, seconds.
    pub served_secs: f64,
    /// Wall time with the cache off ([`Scenario::cold_pass`]), seconds.
    pub cold_secs: Option<f64>,
    /// Latency of every answered request: submit to completion in
    /// process, the round trip over HTTP.
    pub latency: Latency,
    /// Per-lane rows, interactive first.
    pub classes: Vec<ClassRow>,
    /// HTTP status → responses (empty in process).
    pub statuses: BTreeMap<u16, u64>,
    /// The server's counters after the run.
    pub stats: ServerStats,
}

impl Report {
    /// Answered requests per second of wall time.
    pub fn throughput_rps(&self) -> f64 {
        if self.served_secs > 0.0 {
            self.admitted as f64 / self.served_secs
        } else {
            0.0
        }
    }

    /// Cache-off time (or else tree-walk time) over served time.
    pub fn speedup(&self) -> f64 {
        self.cold_secs.unwrap_or(self.scalar_secs) / self.served_secs
    }

    /// Cache hits over lookups (0 with the cache off).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.stats.cache_hits + self.stats.cache_misses;
        self.stats.cache_hits as f64 / lookups.max(1) as f64
    }

    /// The report as text, one fact per line.
    pub fn render(&self) -> String {
        let (s, stats) = (&self.scenario, &self.stats);
        let http = matches!(s.transport, Transport::Http(_));
        let place = if http { "over http" } else { "in process" };
        let (requests, rounds) = (self.requests, s.rounds.max(1));
        let mut out = format!(
            "{}: {requests} requests {place}, {rounds} round(s), seed {}\n",
            s.name, s.seed
        );
        out += &format!("  policy: {:?}\n", s.config);
        for ((model, _), m) in s.models.iter().zip(&self.models) {
            let (sent, rejected) = (m.requests, m.rejected);
            out += &format!("  model {model}: {sent} requests, {rejected} quota rejects\n");
        }
        let versions: Vec<String> = stats
            .model_versions
            .iter()
            .map(|(m, v)| format!("{m}=v{v}"))
            .collect();
        out += &format!("  model versions: {}\n", versions.join(" "));
        if s.reload_mid_trace {
            let model = &s.models[0].0;
            out += &format!("  mid-trace reload: model {model} cut over to version 2\n");
        }
        out += &format!(
            "  verification: {}/{} answers bit-identical to serve_one and the tree-walk\n",
            self.identical, self.admitted
        );
        if s.config.tenant_quota > 0 {
            let note = match (s.shape, self.models[0].rejected == self.quota_rejected) {
                (Shape::HotTenant, true) => " (all on the hot tenant: yes)",
                (Shape::HotTenant, false) => " (all on the hot tenant: NO)",
                _ => "",
            };
            out += &format!("  quota rejects: {}{note}\n", self.quota_rejected);
        }
        if s.config.cache_capacity > 0 {
            let (hits, misses, evictions) =
                (stats.cache_hits, stats.cache_misses, stats.cache_evictions);
            let (replays, replay_hits) = (self.replayed, self.replay_hits);
            out += &format!(
                "  cache books: {hits} hits / {misses} misses / {evictions} evictions; \
                 {replays} replays, {replay_hits} hits\n"
            );
        }
        let kind = if http { "round trip" } else { "sojourn" };
        out += &format!("  latency ({kind}): {}\n", self.latency);
        if self.classes.iter().all(|row| row.admitted > 0) {
            for row in &self.classes {
                let (class, latency, admitted) = (row.class, row.latency, row.admitted);
                out += &format!("  latency ({class}): {latency}  ({admitted} requests)\n");
            }
        }
        if http {
            let ledger: Vec<String> = self
                .statuses
                .iter()
                .map(|(code, n)| format!("{code} x{n}"))
                .collect();
            out += &format!("  http statuses: {}\n", ledger.join(", "));
        }
        let (walk, served) = (self.scalar_secs * 1e3, self.served_secs * 1e3);
        out += &format!(
            "  tree-walk {walk:.2} ms | served {served:.2} ms ({:.0} req/s)",
            self.throughput_rps()
        );
        if let Some(cold) = self.cold_secs {
            out += &format!(" | cache off {:.2} ms", cold * 1e3);
        }
        out += &format!(" | speedup {:.2}x\n", self.speedup());
        if s.metrics_addr.is_some() {
            out += "  sidecar: /healthz 200 mid-trace, /metrics books agree\n";
        }
        out
    }
}

/// A hosted model: its id, circuit and canonical evidence pool.
struct Tenant {
    name: String,
    ac: AcGraph,
    pool: Vec<Evidence>,
}

/// The live serving stack a scenario runs on: the pool and server, the
/// gateway for the HTTP transport, and the sidecar. Dropping it stops
/// the gateway and sidecar and joins the server's workers.
pub struct Stack {
    scenario: Scenario,
    tenants: Vec<Tenant>,
    /// The gateway and its `(token, model)` table (HTTP transport).
    gateway: Option<(Gateway, Vec<(String, String)>)>,
    server: Arc<Server<F64Arith>>,
    sidecar: Option<Sidecar>,
}

/// A submission waiting to be drained.
enum Pending {
    Ticket(Instant, Ticket<f64>),
    Settled(LaneResult<f64>, Option<Duration>),
}

/// One submission's outcome: trace index, result, latency (`None` for a
/// quota reject).
type Outcome = (usize, LaneResult<f64>, Option<Duration>);

impl Stack {
    /// Compiles and registers the scenario's models, starts the server,
    /// and binds the gateway and sidecar the scenario asks for.
    ///
    /// # Errors
    ///
    /// When a model does not compile or register, the models do not fit
    /// the shape or the token table, or a listener does not bind.
    pub fn start(scenario: &Scenario) -> Result<Stack, String> {
        let least = 1 + usize::from(scenario.shape == Shape::HotTenant);
        if scenario.models.len() < least {
            return Err(format!("the scenario needs at least {least} model(s)"));
        }
        let mut pool = CircuitPool::new(F64Arith::new());
        let mut tenants = Vec::with_capacity(scenario.models.len());
        for (name, net) in &scenario.models {
            let ac = compile(net).map_err(|e| format!("model {name}: {e}"))?;
            pool.register(name, &ac)
                .map_err(|e| format!("model {name}: {e}"))?;
            tenants.push(Tenant {
                name: name.clone(),
                pool: problp_bayes::single_variable_evidences(ac.var_arities()),
                ac,
            });
        }
        let registry = Arc::new(MetricsRegistry::new());
        let server = Arc::new(Server::start_instrumented(pool, scenario.config, registry));
        let gateway = match &scenario.transport {
            Transport::InProcess => None,
            Transport::Http(config) => {
                let mut config = config.clone();
                if config.tokens.is_empty() {
                    config.tokens = tenants
                        .iter()
                        .map(|t| (format!("token-{}", t.name), t.name.clone()))
                        .collect();
                }
                let hosted = |m: &String| tenants.iter().any(|t| &t.name == m);
                if let Some((_, model)) = config.tokens.iter().find(|(_, m)| !hosted(m)) {
                    return Err(format!("a token grants unhosted model {model:?}"));
                }
                let (tokens, addr) = (config.tokens.clone(), config.addr.clone());
                let gateway = Gateway::start(Arc::clone(&server), config)
                    .map_err(|e| format!("cannot bind the gateway on {addr}: {e}"))?;
                Some((gateway, tokens))
            }
        };
        let sidecar = match &scenario.metrics_addr {
            Some(addr) => Some(
                Sidecar::start(addr, server.metrics(), server.health_fn())
                    .map_err(|e| format!("cannot bind the sidecar on {addr}: {e}"))?,
            ),
            None => None,
        };
        Ok(Stack {
            scenario: scenario.clone(),
            tenants,
            gateway,
            server,
            sidecar,
        })
    }

    /// The gateway's bound address and `(token, model)` table (HTTP
    /// transport only).
    pub fn gateway(&self) -> Option<(SocketAddr, &[(String, String)])> {
        let gateway = self.gateway.as_ref();
        gateway.map(|(g, tokens)| (g.local_addr(), tokens.as_slice()))
    }

    /// The sidecar's bound address, when the scenario asked for one.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.sidecar.as_ref().map(Sidecar::local_addr)
    }

    /// Runs the scenario's trace on this stack and checks every answer
    /// and the server's books (see the [module docs](self)). The books
    /// are the server's lifetime counters, so drive a stack once.
    ///
    /// # Errors
    ///
    /// When a request, reload or scrape does not go through, or an
    /// answer or the server's books fail a check.
    pub fn drive(&self) -> Result<Report, String> {
        let s = &self.scenario;
        let cold = || {
            let config = ServeConfig {
                cache_capacity: 0,
                ..s.config
            };
            let cold = Scenario {
                cold_pass: false,
                metrics_addr: None,
                config,
                ..s.clone()
            };
            run(&cold).map(|report| report.served_secs)
        };
        let cold_secs = s.cold_pass.then(cold).transpose()?;

        // Round one submits the trace; each later round resubmits what
        // round one served on the model versions still current.
        let trace = self.trace();
        let mid = trace.len() / 2;
        let stale = |i: usize| s.reload_mid_trace && trace[i].0 == 0 && i < mid;
        let mut order: Vec<usize> = (0..trace.len()).collect();
        let mut outcomes: Vec<Outcome> = Vec::new();
        let mut statuses = BTreeMap::new();
        let mut hits_before_replay = None;
        let started = Instant::now();
        for round in 0..s.rounds.max(1) {
            if round == 1 {
                order.retain(|&i| !stale(i) && !is_quota(&outcomes[i].1));
                hits_before_replay = Some(self.server.stats().cache_hits);
            }
            let mut pending = Vec::with_capacity(order.len());
            for (k, &i) in order.iter().enumerate() {
                if round == 0 && k == mid {
                    self.mid_trace()?;
                }
                pending.push((i, self.submit(i, &trace[i].1, &mut statuses)?));
            }
            let deadline = Instant::now() + DRAIN_BUDGET;
            for (i, pending) in pending {
                outcomes.push(match pending {
                    Pending::Ticket(sent, ticket) => {
                        let budget = deadline.saturating_duration_since(Instant::now());
                        let (result, completed) = ticket.wait_deadline_timed(budget);
                        (i, result, Some(completed.saturating_duration_since(sent)))
                    }
                    Pending::Settled(result, latency) => (i, result, latency),
                });
            }
        }
        let served_secs = started.elapsed().as_secs_f64();

        // The references, after the run so they cannot warm the server.
        let mut refs = Vec::with_capacity(trace.len());
        for (t, req) in &trace {
            let walk_started = Instant::now();
            let walk = tree_walk(&self.tenants[*t].ac, req)
                .map_err(|e| format!("tree-walk failed: {e}"))?;
            let walk_time = walk_started.elapsed();
            refs.push((walk, walk_time, self.server.pool().serve_one(req)));
        }
        let mut models = vec![ModelRow::default(); s.models.len()];
        // Per lane: submissions and the answered requests' latencies.
        let mut lanes = [Priority::Interactive, Priority::Batch].map(|p| (p, 0, Vec::new()));
        let (mut identical, mut scalar, mut mismatch) = (0, Duration::ZERO, None);
        for (i, result, latency) in &outcomes {
            let (t, req) = &trace[*i];
            models[*t].requests += 1;
            let lane = &mut lanes[usize::from(req.priority == Priority::Batch)];
            lane.1 += 1;
            if is_quota(result) {
                models[*t].rejected += 1;
                continue;
            }
            let (walk, walk_time, one) = &refs[*i];
            scalar += *walk_time;
            lane.2.extend(latency.map(|l| l.as_micros() as u64));
            if answer_ok(&self.tenants[*t].ac, req, walk, one, result) {
                identical += 1;
            } else {
                mismatch = mismatch.or(Some(format!(
                    "request {i} {req:?}: got {result:?}, serve_one {one:?}, tree-walk {walk:?}"
                )));
            }
        }
        let requests = outcomes.len();
        let quota_rejected: usize = models.iter().map(|m| m.rejected).sum();
        let admitted = requests - quota_rejected;
        ensure(identical == admitted, || {
            let wrong = admitted - identical;
            format!("{wrong} of {admitted} answers diverged, first {mismatch:?}")
        })?;

        let stats = self.server.stats();
        let replay_hits = hits_before_replay.map_or(0, |h| stats.cache_hits - h);
        self.check_books(&trace, &outcomes, &statuses, &stats, replay_hits)?;
        let latency = Latency::of(lanes.iter().flat_map(|(.., us)| us.iter().copied()));
        let classes = lanes
            .into_iter()
            .map(|(class, requests, us)| ClassRow {
                class,
                requests,
                admitted: us.len(),
                latency: Latency::of(us),
            })
            .collect();
        Ok(Report {
            scenario: s.clone(),
            models,
            requests,
            admitted,
            identical,
            quota_rejected,
            replayed: requests - trace.len(),
            replay_hits,
            scalar_secs: scalar.as_secs_f64(),
            served_secs,
            cold_secs,
            latency,
            classes,
            statuses,
            stats,
        })
    }

    /// The first round's trace as `(tenant index, request)` pairs.
    fn trace(&self) -> Vec<(usize, ServeRequest)> {
        let s = &self.scenario;
        let n = self.tenants.len();
        let request = |t: usize, kind: usize, evidence: usize, priority| {
            let tenant: &Tenant = &self.tenants[t];
            let root = s.models[t].1.roots().first().copied();
            let query = match kind {
                0 => BatchQuery::Marginal,
                1 => BatchQuery::Mpe,
                _ => BatchQuery::Conditional {
                    query_var: root.unwrap_or(VarId::from_index(0)),
                },
            };
            let request = ServeRequest {
                model: tenant.name.clone(),
                evidence: tenant.pool[evidence].clone(),
                query,
                priority,
            };
            (t, request)
        };
        let requests = s.requests.max(1);
        if s.shape == Shape::Distinct {
            // Model `t`'s slot `k` is query kind `k / pool` on evidence
            // `k % pool`: distinct keys until every model runs out.
            let slots = |t: usize| self.tenants[t].pool.len() * 3;
            let (mut trace, mut next, mut t) = (Vec::new(), vec![0usize; n], 0);
            while trace.len() < requests && (0..n).any(|u| next[u] < slots(u)) {
                if next[t] < slots(t) {
                    let pool = self.tenants[t].pool.len();
                    let k = next[t];
                    trace.push(request(t, k / pool, k % pool, Priority::Interactive));
                    next[t] += 1;
                }
                t = (t + 1) % n;
            }
            return trace;
        }
        let mut rng = StdRng::seed_from_u64(s.seed);
        (0..requests)
            .map(|_| {
                let (t, hot) = match s.shape {
                    Shape::HotTenant if rng.random_range(0..10u32) < 7 => (0, true),
                    Shape::HotTenant => (1 + rng.random_range(0..n - 1), false),
                    _ => (rng.random_range(0..n), false),
                };
                let kind = rng.random_range(0..3usize);
                let evidence = rng.random_range(0..self.tenants[t].pool.len());
                let batch = match s.shape {
                    Shape::Mixed { batch_share } => {
                        batch_share > 0 && rng.random_range(0..100u32) < batch_share
                    }
                    _ => !hot,
                };
                let priority = [Priority::Interactive, Priority::Batch][usize::from(batch)];
                request(t, kind, evidence, priority)
            })
            .collect()
    }

    /// Halfway through the first round: the reload, if the scenario
    /// asks for one, and the sidecar's `/healthz` check, if one runs.
    fn mid_trace(&self) -> Result<(), String> {
        if self.scenario.reload_mid_trace {
            let tenant = &self.tenants[0];
            self.server
                .reload(&tenant.name, &tenant.ac)
                .map_err(|e| format!("mid-trace reload failed: {e}"))?;
        }
        if let Some(addr) = self.metrics_addr() {
            let (status, body) =
                http_get(&addr, "/healthz").map_err(|e| format!("/healthz scrape failed: {e}"))?;
            ensure(status == 200, || {
                format!("mid-trace /healthz returned {status}: {}", body.trim())
            })?;
        }
        Ok(())
    }

    /// Submits trace request `i`: a ticket in process; over HTTP the
    /// whole round trip, decoded into the `LaneResult` the in-process
    /// path would have returned.
    fn submit(
        &self,
        i: usize,
        req: &ServeRequest,
        statuses: &mut BTreeMap<u16, u64>,
    ) -> Result<Pending, String> {
        let sent = Instant::now();
        let Some((gateway, tokens)) = &self.gateway else {
            return match self.server.submit(req.clone()) {
                Ok(ticket) => Ok(Pending::Ticket(sent, ticket)),
                Err(e @ ServeError::QuotaExceeded { .. }) => Ok(Pending::Settled(Err(e), None)),
                Err(e) => Err(format!("request {i} was not admitted: {e}")),
            };
        };
        let token = tokens
            .iter()
            .find_map(|(token, model)| (*model == req.model).then_some(token))
            .ok_or_else(|| format!("no token grants model {:?}", req.model))?;
        let auth = [("Authorization", format!("Bearer {token}"))];
        let (code, _headers, body) =
            http_post(&gateway.local_addr(), "/v1/query", &auth, &http_body(req))
                .map_err(|e| format!("request {i} failed: {e}"))?;
        let latency = sent.elapsed();
        *statuses.entry(code).or_default() += 1;
        let result = decode_reply(req, self.scenario.config.tenant_quota, code, &body)
            .ok_or_else(|| format!("request {i}: undecodable HTTP {code}: {body}"))?;
        let latency = (!is_quota(&result)).then_some(latency);
        Ok(Pending::Settled(result, latency))
    }

    /// Holds the server's counters, and the gateway's and sidecar's
    /// series when they run, to the driver's ledger.
    fn check_books(
        &self,
        trace: &[(usize, ServeRequest)],
        outcomes: &[Outcome],
        statuses: &BTreeMap<u16, u64>,
        stats: &ServerStats,
        replay_hits: u64,
    ) -> Result<(), String> {
        let (s, mid) = (&self.scenario, trace.len() / 2);
        let submitted = outcomes.len() as u64;
        let rejects = outcomes.iter().filter(|(_, r, _)| is_quota(r));
        let off_hot = rejects.clone().filter(|(i, ..)| trace[*i].0 != 0).count();
        let quota = rejects.count() as u64;
        // With the cache on, every submission is one lookup.
        let lookups = submitted * u64::from(s.config.cache_capacity > 0);
        for (what, server, driver) in [
            ("requests", stats.requests, submitted),
            ("quota rejects", stats.rejected_quota, quota),
            (
                "cache lookups",
                stats.cache_hits + stats.cache_misses,
                lookups,
            ),
        ] {
            ensure(server == driver, || {
                format!("the server counted {server} {what}, the driver {driver}")
            })?;
        }
        ensure(quota == 0 || s.config.tenant_quota > 0, || {
            "quota rejects without a configured quota".to_string()
        })?;
        ensure(s.shape != Shape::HotTenant || off_hot == 0, || {
            format!("{off_hot} quota rejects missed the hot tenant")
        })?;
        // Replays of requests served on a current model version all hit
        // while the cache holds every key; a reload keys the first
        // model's later requests on version 2.
        let keys: HashSet<_> = trace
            .iter()
            .enumerate()
            .map(|(i, (t, r))| {
                let v2 = s.reload_mid_trace && *t == 0 && i >= mid;
                (*t, v2, std::mem::discriminant(&r.query), &r.evidence)
            })
            .collect();
        let replayed = outcomes.len() - trace.len();
        ensure(
            s.config.cache_capacity < keys.len() || replay_hits == replayed as u64,
            || format!("{replay_hits} of {replayed} replays hit the cache"),
        )?;
        let first = &self.tenants[0].name;
        let swapped = stats
            .model_versions
            .iter()
            .any(|(m, v)| m == first && *v == 2);
        ensure(!s.reload_mid_trace || swapped, || {
            format!("model {first} is not at version 2 after its reload")
        })?;
        // One scrape of the server's registry, through the sidecar when
        // one runs, must carry the same books, line for line.
        let scrape = match self.metrics_addr() {
            Some(addr) => {
                let (code, scrape) = http_get(&addr, "/metrics")
                    .map_err(|e| format!("/metrics scrape failed: {e}"))?;
                ensure(code == 200, || format!("/metrics returned {code}"))?;
                scrape
            }
            None => self.server.metrics().render_prometheus(),
        };
        let quota_series = format!("{}{{kind=\"quota\"}}", metric_names::SERVE_REJECTED_TOTAL);
        let mut want = vec![
            (metric_names::SERVE_REQUESTS_TOTAL.to_string(), submitted),
            (quota_series, quota),
            (
                metric_names::SERVE_CACHE_HITS_TOTAL.to_string(),
                stats.cache_hits,
            ),
            (
                metric_names::SERVE_CACHE_MISSES_TOTAL.to_string(),
                stats.cache_misses,
            ),
        ];
        if self.gateway.is_some() {
            // Every response is in the ledger, so the status series sum to
            // the submissions and every status outside it reads zero.
            let prefix = format!("{}{{", metric_names::GATEWAY_REQUESTS_TOTAL);
            let responses: f64 = scrape
                .lines()
                .filter(|l| l.starts_with(&prefix))
                .filter_map(|l| l.rsplit_once(' ')?.1.parse::<f64>().ok())
                .sum();
            ensure(responses == submitted as f64, || {
                format!("the gateway counted {responses} responses, the client {submitted}")
            })?;
            want.extend(
                statuses
                    .iter()
                    .map(|(code, n)| (format!("{prefix}status=\"{code}\"}}"), *n)),
            );
            for histogram in [
                metric_names::GATEWAY_BODY_BYTES,
                metric_names::GATEWAY_HANDLER_US,
            ] {
                want.push((format!("{histogram}_count"), submitted));
            }
        }
        for (series, value) in want {
            let got = scrape_value(&scrape, &series);
            ensure(got == Some(value as f64), || {
                format!("the scrape reads {series} {got:?}, the driver's books {value}")
            })?;
        }
        let names = [
            metric_names::POOL_MODEL_VERSION,
            metric_names::SERVE_QUEUE_DEPTH,
            metric_names::SERVE_SOJOURN_US,
        ];
        let missing = names
            .iter()
            .find(|n| !scrape.lines().any(|l| l.starts_with(*n)));
        ensure(missing.is_none(), || {
            format!("the scrape is missing {missing:?}")
        })
    }
}

fn is_quota(result: &LaneResult<f64>) -> bool {
    matches!(result, Err(ServeError::QuotaExceeded { .. }))
}

/// The gateway's JSON body for `req` (its model travels in the token).
fn http_body(req: &ServeRequest) -> String {
    let evidence: Vec<String> = (0..req.evidence.len())
        .map(|i| match req.evidence.state(VarId::from_index(i)) {
            Some(state) => state.to_string(),
            None => "null".to_string(),
        })
        .collect();
    let (kind, var) = match req.query {
        BatchQuery::Marginal => ("marginal", String::new()),
        BatchQuery::Mpe => ("mpe", String::new()),
        BatchQuery::Conditional { query_var } => (
            "conditional",
            format!(r#", "query_var": {}"#, query_var.index()),
        ),
    };
    let (evidence, priority) = (evidence.join(", "), req.priority);
    format!(r#"{{"query": "{kind}"{var}, "evidence": [{evidence}], "priority": "{priority}"}}"#)
}

/// Decodes a gateway reply into the `LaneResult` [`Server::submit`]
/// would have delivered for `req`, or `None` when the status or body is
/// not one a well-formed query can receive. Flags are batch-scope and
/// the checker ignores them, so they are not decoded.
fn decode_reply(
    req: &ServeRequest,
    quota: usize,
    code: u16,
    body: &str,
) -> Option<LaneResult<f64>> {
    let doc = JsonValue::parse(body).ok()?;
    let number = |key: &str| doc.get(key).and_then(JsonValue::as_f64);
    let array = |key: &str| doc.get(key).and_then(JsonValue::as_array);
    let index = |v: &JsonValue| {
        let x = v.as_f64().filter(|x| *x >= 0.0 && x.fract() == 0.0)?;
        Some(x as usize)
    };
    let flags = Flags::default();
    match (code, doc.get("error").and_then(JsonValue::as_str)) {
        (200, None) => Some(Ok(match req.query {
            BatchQuery::Marginal => ServeResponse::Marginal {
                value: number("value")?,
                flags,
            },
            BatchQuery::Mpe => ServeResponse::Mpe {
                assignment: array("assignment")?
                    .iter()
                    .map(index)
                    .collect::<Option<_>>()?,
                value: number("value")?,
                flags,
            },
            BatchQuery::Conditional { .. } => ServeResponse::Conditional {
                posteriors: array("posteriors")?
                    .iter()
                    .map(JsonValue::as_f64)
                    .collect::<Option<_>>()?,
                prediction: index(doc.get("prediction")?)?,
                flags,
            },
        })),
        (422, Some("impossible_evidence")) => Some(Err(ServeError::ImpossibleEvidence)),
        (429, Some("quota_exceeded")) => Some(Err(ServeError::QuotaExceeded {
            model: req.model.clone(),
            quota,
        })),
        _ => None,
    }
}

/// The scalar tree-walk's answer to one request: a marginal or MPE
/// value, or the exact lane result a conditional must reproduce.
#[derive(Debug)]
enum TreeWalk {
    Marginal(f64),
    Mpe(f64),
    Exact(LaneResult<f64>),
}

fn tree_walk(ac: &AcGraph, req: &ServeRequest) -> Result<TreeWalk, AcError> {
    let e = &req.evidence;
    Ok(match req.query {
        BatchQuery::Marginal => TreeWalk::Marginal(ac.evaluate(e)?),
        BatchQuery::Mpe => TreeWalk::Mpe(ac.mpe_assignment(e)?.1),
        BatchQuery::Conditional { query_var } => {
            let den = ac.evaluate(e)?;
            if den == 0.0 {
                return Ok(TreeWalk::Exact(Err(ServeError::ImpossibleEvidence)));
            }
            let (mut posteriors, mut prediction, mut best) = (Vec::new(), 0, f64::NEG_INFINITY);
            for s in 0..ac.var_arities()[query_var.index()] {
                let mut with_q = e.clone();
                with_q.observe(query_var, s);
                let num = ac.evaluate(&with_q)?;
                posteriors.push(num / den);
                if num > best {
                    (best, prediction) = (num, s);
                }
            }
            let flags = Flags::default();
            TreeWalk::Exact(Ok(ServeResponse::Conditional {
                posteriors,
                prediction,
                flags,
            }))
        }
    })
}

/// Whether `got` passes the checker: it must equal `reference` (the
/// pool's uncached `serve_one`) under [`lane_answer_eq`], and the
/// reference must reproduce the tree-walk bit for bit — marginal and
/// MPE value bits, an MPE assignment that attains the value and keeps
/// the evidence (ties may pick another argmax, never another value),
/// posterior bits and the prediction, and impossible evidence as the
/// typed lane error.
fn answer_ok(
    ac: &AcGraph,
    req: &ServeRequest,
    walk: &TreeWalk,
    reference: &LaneResult<f64>,
    got: &LaneResult<f64>,
) -> bool {
    let reference_ok = match (reference, walk) {
        (Ok(ServeResponse::Marginal { value, .. }), TreeWalk::Marginal(w)) => {
            value.to_bits() == w.to_bits()
        }
        (
            Ok(ServeResponse::Mpe {
                value, assignment, ..
            }),
            TreeWalk::Mpe(w),
        ) => {
            value.to_bits() == w.to_bits()
                && assignment.len() == req.evidence.len()
                && req.evidence.iter().all(|(v, s)| assignment[v.index()] == s)
                && ac
                    .evaluate(&Evidence::from_assignment(assignment))
                    .is_ok_and(|joint| joint.to_bits() == w.to_bits())
        }
        // Posterior bits and the prediction, or the typed lane error.
        (_, TreeWalk::Exact(want)) => lane_answer_eq(reference, want),
        _ => false,
    };
    reference_ok && lane_answer_eq(reference, got)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flip(x: f64) -> f64 {
        f64::from_bits(x.to_bits() ^ 1)
    }

    #[test]
    fn the_checker_fails_every_wrong_answer() {
        let ac = compile(&networks::sprinkler()).expect("sprinkler compiles");
        let mut pool = CircuitPool::new(F64Arith::new());
        pool.register("sprinkler", &ac)
            .expect("sprinkler registers");
        let request = |query| {
            let mut evidence = Evidence::empty(4);
            evidence.observe(VarId::from_index(3), 1);
            ServeRequest {
                model: "sprinkler".to_string(),
                evidence,
                query,
                priority: Priority::Interactive,
            }
        };
        let conditional = BatchQuery::Conditional {
            query_var: VarId::from_index(0),
        };
        type Corrupt = fn(&mut ServeResponse<f64>);
        let cases: [(BatchQuery, Corrupt); 5] = [
            (BatchQuery::Marginal, |r| {
                if let ServeResponse::Marginal { value, .. } = r {
                    *value = flip(*value);
                }
            }),
            (conditional, |r| {
                if let ServeResponse::Conditional { posteriors, .. } = r {
                    posteriors[0] = flip(posteriors[0]);
                }
            }),
            (BatchQuery::Mpe, |r| {
                if let ServeResponse::Mpe { value, .. } = r {
                    *value = flip(*value);
                }
            }),
            (BatchQuery::Mpe, |r| {
                if let ServeResponse::Mpe { assignment, .. } = r {
                    assignment[0] ^= 1;
                }
            }),
            (conditional, |r| {
                if let ServeResponse::Conditional { prediction, .. } = r {
                    *prediction ^= 1;
                }
            }),
        ];
        for (query, corrupt) in cases {
            let req = request(query);
            let walk = tree_walk(&ac, &req).expect("the tree-walk evaluates");
            let right = pool.serve_one(&req);
            assert!(answer_ok(&ac, &req, &walk, &right, &right), "{query:?}");
            let mut wrong = right.clone().expect("serve_one answers");
            corrupt(&mut wrong);
            let wrong = Ok(wrong);
            // A wrong answer fails against serve_one; a wrong serve_one
            // fails against the tree-walk.
            assert!(!answer_ok(&ac, &req, &walk, &right, &wrong), "{wrong:?}");
            assert!(!answer_ok(&ac, &req, &walk, &wrong, &wrong), "{wrong:?}");
        }
        let req = request(conditional);
        let impossible = Err(ServeError::ImpossibleEvidence);
        let swapped = Err(ServeError::ShutDown);
        let walk = TreeWalk::Exact(impossible.clone());
        assert!(answer_ok(&ac, &req, &walk, &impossible, &impossible));
        assert!(!answer_ok(&ac, &req, &walk, &impossible, &swapped));
        assert!(!answer_ok(&ac, &req, &walk, &swapped, &swapped));
    }
}
