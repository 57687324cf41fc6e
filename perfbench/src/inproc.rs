//! The in-process load generator's bookkeeping, shared by the closed-loop and
//! open-loop workloads: submit through `Server::submit`, settle each
//! `Ticket` against its precomputed reference, and keep the fixed-size
//! tallies the ledger check and the end-to-end metrics need.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use problp_engine::{
    lane_answer_eq, KernelSet, LaneResult, ServeError, ServeRequest, Server, Ticket,
};
use problp_telemetry::metric_names::SERVE_CACHE_HITS_TOTAL;
use problp_telemetry::Counter;

use crate::common::{prom_series, DispatchCounter, Ledger};
use crate::hist::Window;
use crate::trace::{median, quantile, Tracer};

/// How long the final drain waits for any one answer before counting
/// it as failed.
pub const ANSWER_DEADLINE: Duration = Duration::from_secs(10);

/// Mismatches and errors reported on stderr before going quiet.
const REPORT_LIMIT: u64 = 5;

/// One submitted request awaiting its answer.
pub struct Pending<V> {
    id: u32,
    /// Index of the request's input in the reference table.
    pub input: u32,
    due: Instant,
    sent: Instant,
    returned: Instant,
    hit: bool,
    ticket: Ticket<V>,
}

impl<V> Pending<V> {
    /// Waits up to `d` for the answer; `None` while it is not ready.
    pub fn poll(&self, d: Duration) -> Option<(LaneResult<V>, Instant)> {
        match self.ticket.wait_deadline_timed(d) {
            (Err(ServeError::Timeout { .. }), _) => None,
            done => Some(done),
        }
    }
}

/// Fixed-size tallies of one window.
pub struct Tally {
    /// The server's cache-hit counter, when the cache is on. The load generator
    /// is the only submitter, so a request hit the cache exactly when
    /// this counter moved during its `submit`.
    hits: Option<Counter>,
    pub window: Window,
    pub ledger: Ledger,
    dispatches: DispatchCounter,
    pub attempted: u64,
    pub failed: u64,
    /// Answers that arrived and checked.
    pub answered: u64,
    last_completed: Option<Instant>,
    next_id: u32,
}

impl Tally {
    /// Tallies for a window of `seconds` from `start`; `cached` says
    /// whether the server runs the answer cache.
    pub fn new<A>(server: &Server<A>, cached: bool, start: Instant, seconds: u64) -> Self
    where
        A: KernelSet + Clone + Send + Sync + 'static,
        A::Value: Clone + Send + Sync + 'static,
    {
        let hits = cached.then(|| server.metrics().counter(SERVE_CACHE_HITS_TOTAL, ""));
        Tally {
            hits,
            window: Window::new(start, seconds),
            ledger: Ledger::default(),
            dispatches: DispatchCounter::new(),
            attempted: 0,
            failed: 0,
            answered: 0,
            last_completed: None,
            next_id: 1,
        }
    }

    /// Submits `request` (reference index `input`), which was due at
    /// `due` (open loop) or is due when sent (closed loop); returns the
    /// pending answer, or `None` when admission rejected it (counted as
    /// failed).
    pub fn submit<A>(
        &mut self,
        server: &Server<A>,
        request: ServeRequest,
        input: u32,
        due: Option<Instant>,
    ) -> Option<Pending<A::Value>>
    where
        A: KernelSet + Clone + Send + Sync + 'static,
        A::Value: Clone + Send + Sync + 'static,
    {
        let id = self.next_id;
        self.next_id += 1;
        self.attempted += 1;
        self.ledger.requests += 1;
        let hits_before = self.hits.as_ref().map(Counter::get);
        let sent = Instant::now();
        let submitted = server.submit(request);
        let returned = Instant::now();
        let hit = self.hits.as_ref().map(Counter::get) != hits_before;
        match submitted {
            Ok(ticket) => Some(Pending {
                id,
                input,
                due: due.unwrap_or(sent),
                sent,
                returned,
                hit,
                ticket,
            }),
            Err(e) => {
                // An admission rejection never reaches the cache or
                // the queue: it counts as a request and nothing else.
                self.fail(format_args!("request {id}: rejected at admission: {e}"));
                None
            }
        }
    }

    /// Settles one answer against `reference`. A hit was answered by
    /// the cache inside `submit`; any other answer was admitted and
    /// dispatched. Latency runs from the due instant to completion.
    pub fn settle<V: PartialEq + std::fmt::Debug>(
        &mut self,
        p: Pending<V>,
        answer: (LaneResult<V>, Instant),
        reference: &LaneResult<V>,
        tracer: &mut Tracer,
    ) {
        let (result, completed) = answer;
        let hit = p.hit;
        if self.hits.is_some() {
            if hit {
                self.ledger.cache_hits += 1;
            } else {
                self.ledger.cache_misses += 1;
            }
        }
        if !hit {
            self.ledger.admitted += 1;
            self.dispatches.note(completed);
            self.ledger.dispatches = self.dispatches.count();
        }
        if tracer.on() {
            let root = tracer.record("request", 0, p.id, p.due, completed);
            if p.sent > p.due {
                tracer.record("driver.late", root, p.id, p.due, p.sent);
            }
            tracer.record("serve.submit", root, p.id, p.sent, p.returned);
            if !hit {
                tracer.record("serve.miss_wait", root, p.id, p.returned, completed);
            }
        }
        if !lane_answer_eq(&result, reference) {
            self.fail(format_args!(
                "request {} (input {}): got {result:?}, reference {reference:?}",
                p.id, p.input
            ));
            return;
        }
        self.window.record(p.due, completed);
        self.answered += 1;
        self.last_completed = Some(self.last_completed.map_or(completed, |t| t.max(completed)));
    }

    /// Seconds from `start` to the last answer.
    pub fn span_s(&self, start: Instant) -> f64 {
        self.last_completed
            .map_or(0.0, |t| t.saturating_duration_since(start).as_secs_f64())
    }

    /// Counts a request whose answer never arrived.
    pub fn lost<V>(&mut self, p: &Pending<V>) {
        self.fail(format_args!(
            "request {}: no answer within {ANSWER_DEADLINE:?}",
            p.id
        ));
    }

    fn fail(&mut self, what: std::fmt::Arguments<'_>) {
        self.failed += 1;
        if self.failed <= REPORT_LIMIT {
            eprintln!("perfbench: {what}");
        }
    }
}

/// The serving-layer metrics a traced run reads from the server's own
/// counters and from the load generator's spans: set-up stages, instructions
/// swept per lane, batch shape, cache effect, and the submit, queue and
/// schedule-lateness spans.
pub fn serving_layers<A>(
    server: &Server<A>,
    tracer: &Tracer,
    metrics: &mut BTreeMap<&'static str, f64>,
) where
    A: KernelSet + Clone + Send + Sync + 'static,
    A::Value: Clone + Send + Sync + 'static,
{
    use problp_telemetry::metric_names::{ENGINE_FUSED_INSTRS_TOTAL, ENGINE_TAPE_INSTRS_TOTAL};
    let stats = server.stats();
    let lanes = stats.admitted.max(1) as f64;
    let text = server.metrics().render_prometheus();
    let total = |name: &str| prom_series(&text, name).iter().map(|(_, v)| v).sum::<f64>();
    let lookups = (stats.cache_hits + stats.cache_misses).max(1) as f64;
    let ms = |name: &str| median(&tracer.durations_us(name)) / 1e3;
    let us = |name: &str, p: f64| quantile(&tracer.durations_us(name), p);
    let rows = [
        ("ac.compile_ms", ms("ac.compile")),
        ("core.design_ms", ms("core.design")),
        ("engine.register_ms", ms("engine.register")),
        (
            "engine.tape_instrs",
            total(ENGINE_TAPE_INSTRS_TOTAL) / lanes,
        ),
        (
            "engine.fused_instrs",
            total(ENGINE_FUSED_INSTRS_TOTAL) / lanes,
        ),
        ("serve.batch_lanes", lanes / stats.dispatches.max(1) as f64),
        ("serve.cache_hit_share", stats.cache_hits as f64 / lookups),
        ("serve.cache_evictions", stats.cache_evictions as f64),
        ("serve.submit_us.p50", us("serve.submit", 0.5)),
        ("serve.submit_us.p90", us("serve.submit", 0.9)),
        ("serve.miss_wait_us.p50", us("serve.miss_wait", 0.5)),
        ("serve.miss_wait_us.p90", us("serve.miss_wait", 0.9)),
        ("driver.late_us.p50", us("driver.late", 0.5)),
        ("driver.late_us.p90", us("driver.late", 0.9)),
    ];
    metrics.extend(rows);
}
