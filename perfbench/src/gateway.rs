//! `gateway-serial`: one client sends the sensor readings through the
//! query gateway over loopback TCP, one request at a time, split evenly
//! over the three body kinds (conditional on the class variable,
//! marginal, MPE) with one bearer token per tenant. The cache is off.
//! This is the only workload through accept, HTTP parsing and JSON
//! rendering.
//!
//! The client is the benchmark's own minimal HTTP/1.1 client. It keeps
//! the connection open whenever the server allows it and reconnects
//! when the server answers `Connection: close`.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use problp_bayes::{BatchQuery, VarId};
use problp_engine::{
    Gateway, GatewayConfig, LaneResult, Priority, ServeRequest, ServeResponse, Server,
};
use problp_num::F64Arith;
use problp_telemetry::metric_names::GATEWAY_REQUESTS_TOTAL;
use problp_telemetry::{read_request, HttpLimits, JsonValue};

use crate::common::{median_secs, peak_rss_mb, prom_series, Args, EndToEnd, Outcome};
use crate::hist::Window;
use crate::inproc::serving_layers;
use crate::inputs::Stream;
use crate::layers;
use crate::sensor::{self, Classifier, SETUPS};
use crate::trace::{median, Tracer};

/// Requests in the pregenerated sequence; the client cycles through it.
const SEQUENCE: usize = 8192;
/// Requests of the traced window replayed layer by layer afterwards.
const REPLAYS: usize = 1024;
/// Client socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The three body kinds, in the order requests cycle through them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Kind {
    Conditional,
    Marginal,
    Mpe,
}

const KINDS: [Kind; 3] = [Kind::Conditional, Kind::Marginal, Kind::Mpe];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Conditional => "conditional",
            Kind::Marginal => "marginal",
            Kind::Mpe => "mpe",
        }
    }

    fn query(self, c: &Classifier) -> BatchQuery {
        match self {
            Kind::Conditional => c.conditional(),
            Kind::Marginal => BatchQuery::Marginal,
            Kind::Mpe => BatchQuery::Mpe,
        }
    }
}

fn token(model: &str) -> String {
    format!("perfbench-{model}-token")
}

/// One distinct gateway request: its bytes on the wire, the same
/// request in process, and the reference answer.
struct Prepared {
    model: usize,
    kind: Kind,
    wire: Vec<u8>,
    request: ServeRequest,
    reference: LaneResult<f64>,
}

/// The JSON body the gateway expects for `request`.
fn body(c: &Classifier, kind: Kind, request: &ServeRequest) -> String {
    let evidence: Vec<String> = (0..c.var_count)
        .map(|v| match request.evidence.state(VarId::from_index(v)) {
            Some(s) => s.to_string(),
            None => "null".to_string(),
        })
        .collect();
    let query_var = match kind {
        Kind::Conditional => format!(",\"query_var\":{}", c.class_var.index()),
        _ => String::new(),
    };
    format!(
        "{{\"query\":\"{}\"{query_var},\"evidence\":[{}]}}",
        kind.name(),
        evidence.join(",")
    )
}

fn wire(addr: SocketAddr, model: &str, body: &str) -> Vec<u8> {
    format!(
        "POST /v1/query HTTP/1.1\r\nHost: {addr}\r\nAuthorization: Bearer {}\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        token(model),
        body.len()
    )
    .into_bytes()
}

/// Checks a 200 body against the reference, after the exact `f64`
/// JSON round trip the gateway renders.
fn answer_matches(body: &[u8], model: &str, kind: Kind, reference: &LaneResult<f64>) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    let Ok(doc) = JsonValue::parse(text) else {
        return false;
    };
    let field = |k: &str| doc.get(k);
    let same = |v: Option<&JsonValue>, want: f64| {
        v.and_then(JsonValue::as_f64)
            .is_some_and(|got| got.to_bits() == want.to_bits())
    };
    let states = |v: Option<&JsonValue>| -> Option<Vec<usize>> {
        v?.as_array()?
            .iter()
            .map(|s| s.as_f64().map(|x| x as usize))
            .collect()
    };
    if field("model").and_then(JsonValue::as_str) != Some(model)
        || field("query").and_then(JsonValue::as_str) != Some(kind.name())
    {
        return false;
    }
    match reference {
        Ok(ServeResponse::Marginal { value, .. }) => same(field("value"), *value),
        Ok(ServeResponse::Mpe {
            assignment, value, ..
        }) => {
            same(field("value"), *value) && states(field("assignment")).as_ref() == Some(assignment)
        }
        Ok(ServeResponse::Conditional {
            posteriors,
            prediction,
            ..
        }) => {
            let got = field("posteriors").and_then(JsonValue::as_array);
            same(field("prediction"), *prediction as f64)
                && got.is_some_and(|g| {
                    g.len() == posteriors.len()
                        && g.iter().zip(posteriors).all(|(x, p)| same(Some(x), *p))
                })
        }
        Err(_) => false,
    }
}

/// One HTTP exchange as the client saw it.
struct Exchange {
    status: u16,
    body: Vec<u8>,
    connect: Option<(Instant, Instant)>,
    send: (Instant, Instant),
    wait: (Instant, Instant),
    recv: (Instant, Instant),
}

/// A minimal HTTP/1.1 client over one connection at a time.
struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            conn: None,
            buf: Vec::with_capacity(4096),
        }
    }

    /// Sends `request` and reads the whole response. A kept-alive
    /// connection the server has since closed is retried once on a
    /// fresh connection.
    fn exchange(&mut self, request: &[u8]) -> io::Result<Exchange> {
        let reused = self.conn.is_some();
        match self.try_exchange(request) {
            Err(_) if reused => {
                self.conn = None;
                self.try_exchange(request)
            }
            done => done,
        }
    }

    fn try_exchange(&mut self, request: &[u8]) -> io::Result<Exchange> {
        let connect = match self.conn {
            Some(_) => None,
            None => {
                let t0 = Instant::now();
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(IO_TIMEOUT))?;
                stream.set_write_timeout(Some(IO_TIMEOUT))?;
                self.conn = Some(stream);
                Some((t0, Instant::now()))
            }
        };
        let stream = self.conn.as_mut().expect("connected above");
        let s0 = Instant::now();
        stream.write_all(request)?;
        let s1 = Instant::now();
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        let first = Instant::now();
        if n == 0 {
            self.conn = None;
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        let (head_len, body_len) = loop {
            if let Some(lengths) = response_lengths(&self.buf)? {
                if self.buf.len() >= lengths.0 + lengths.1 {
                    break lengths;
                }
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                self.conn = None;
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let done = Instant::now();
        let head = String::from_utf8_lossy(&self.buf[..head_len]).to_ascii_lowercase();
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let keep_alive = head.starts_with("http/1.1") && !head.contains("\r\nconnection: close");
        if !keep_alive {
            self.conn = None;
        }
        Ok(Exchange {
            status,
            body: self.buf[head_len..head_len + body_len].to_vec(),
            connect,
            send: (s0, s1),
            wait: (s1, first),
            recv: (first, done),
        })
    }
}

/// `(head bytes including the blank line, Content-Length)` once the
/// head is complete.
fn response_lengths(buf: &[u8]) -> io::Result<Option<(usize, usize)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = String::from_utf8_lossy(&buf[..end]).to_ascii_lowercase();
    let length = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length:"))
        .map(|v| v.trim().parse::<usize>())
        .transpose()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?
        .unwrap_or(0);
    Ok(Some((end + 4, length)))
}

type Live = (Gateway, Arc<Server<F64Arith>>, Vec<Classifier>);

/// One fresh set-up: the sensor workload's, then `Gateway::start` with
/// one bearer token per tenant and every other knob at its default.
fn setup(tracer: &mut Tracer) -> Result<(Duration, Live), String> {
    let t0 = Instant::now();
    let (server, classifiers, mut stages) = sensor::start_server(0)?;
    let server = Arc::new(server);
    let g0 = Instant::now();
    let config = GatewayConfig {
        tokens: classifiers
            .iter()
            .map(|c| (token(c.model), c.model.to_string()))
            .collect(),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start(Arc::clone(&server), config).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    stages.push(("gateway.start", g0, t1));
    sensor::record_setup(tracer, t0, t1, &stages);
    Ok((t1 - t0, (gateway, server, classifiers)))
}

/// Stops the gateway, then the server behind it.
fn teardown((mut gateway, server, _): Live) -> Result<(), String> {
    gateway.shutdown();
    drop(gateway);
    match Arc::try_unwrap(server) {
        Ok(server) => {
            server.shutdown();
            Ok(())
        }
        Err(_) => Err("the gateway still holds the server after shutdown".to_string()),
    }
}

/// A window request kept for the layer replays.
struct Kept {
    id: u32,
    wait_span: u32,
    input: u32,
    body: Vec<u8>,
}

pub fn run(args: &Args) -> Result<(Outcome, Tracer), String> {
    // The readings of both sensor streams, split evenly over the kinds.
    let streams = sensor::readings(args.seed, SEQUENCE);
    let mut next = [0usize; 2];
    let sequence = Stream::from_items((0..SEQUENCE).map(|i| {
        let m = i % 2;
        let reading = streams[m].seq[next[m]];
        next[m] += 1;
        (m, KINDS[i % 3], reading)
    }));

    let mut tracer = Tracer::new(args.trace);
    let mut setups = Vec::with_capacity(2 * SETUPS);
    let mut live = None;
    for _ in 0..SETUPS {
        let (took, fresh) = setup(&mut tracer)?;
        setups.push(took);
        if let Some(old) = live.replace(fresh) {
            teardown(old)?;
        }
    }
    let (gateway, server, classifiers) = live.expect("at least one set-up");
    let addr = gateway.local_addr();

    let prepared: Vec<Prepared> = sequence
        .distinct
        .iter()
        .map(|&(m, kind, reading)| {
            let c = &classifiers[m];
            let request = ServeRequest {
                model: c.model.to_string(),
                evidence: c.evidence(&streams[m].distinct[reading as usize]),
                query: kind.query(c),
                priority: Priority::Interactive,
            };
            let reference = server.pool().serve_one(&request);
            Prepared {
                model: m,
                kind,
                wire: wire(addr, c.model, &body(c, kind, &request)),
                request,
                reference,
            }
        })
        .collect();
    if let Some(bad) = prepared.iter().find(|p| p.reference.is_err()) {
        return Err(format!("reference evaluation failed: {:?}", bad.reference));
    }

    // Closed loop, one connection, one request at a time.
    let mut client = Client::new(addr);
    let start = Instant::now();
    let mut window = Window::new(start, args.seconds);
    let mut kept: Vec<Kept> = Vec::new();
    let (mut attempted, mut failed, mut ok, mut not_ok) = (0u64, 0u64, 0u64, 0u64);
    let mut last_done = None;
    let fail = |failed: &mut u64, what: String| {
        *failed += 1;
        if *failed <= 5 {
            eprintln!("perfbench: {what}");
        }
    };
    let end = start + args.window();
    let mut i = 0usize;
    while Instant::now() < end {
        let input = sequence.seq[i % sequence.seq.len()];
        i += 1;
        let id = i as u32;
        attempted += 1;
        let p = &prepared[input as usize];
        let t0 = Instant::now();
        let x = match client.exchange(&p.wire) {
            Ok(x) => x,
            Err(e) => {
                fail(&mut failed, format!("request {id}: {e}"));
                continue;
            }
        };
        let done = x.recv.1;
        if x.status == 200 {
            ok += 1;
        } else {
            not_ok += 1;
        }
        if tracer.on() {
            let root = tracer.record("http.request", 0, id, t0, done);
            if let Some((a, b)) = x.connect {
                tracer.record("http.connect", root, id, a, b);
            }
            tracer.record("http.send", root, id, x.send.0, x.send.1);
            let wait_span = tracer.record("http.wait", root, id, x.wait.0, x.wait.1);
            tracer.record("http.recv", root, id, x.recv.0, x.recv.1);
            if kept.len() < REPLAYS {
                kept.push(Kept {
                    id,
                    wait_span,
                    input,
                    body: x.body.clone(),
                });
            }
        }
        let model = classifiers[p.model].model;
        if x.status != 200 || !answer_matches(&x.body, model, p.kind, &p.reference) {
            let body = String::from_utf8_lossy(&x.body).into_owned();
            fail(
                &mut failed,
                format!("request {id}: status {}: {body}", x.status),
            );
            continue;
        }
        window.record(t0, done);
        last_done = Some(done);
    }
    // The timed window ends with the last answer.
    let wall = last_done.map_or(0.0, |t: Instant| (t - start).as_secs_f64());
    let peak = peak_rss_mb();

    // Ledger: serial and uncached, so every 200 is one request, one
    // admission and one single-lane dispatch, and the gateway's status
    // counter saw exactly the responses the client read.
    let stats = server.stats();
    let mut disagreements = crate::common::Ledger {
        requests: ok,
        admitted: ok,
        dispatches: ok,
        cache_hits: 0,
        cache_misses: 0,
    }
    .disagreements(&stats);
    let text = server.metrics().render_prometheus();
    let by_status = prom_series(&text, GATEWAY_REQUESTS_TOTAL);
    let count = |want_ok: bool| -> f64 {
        by_status
            .iter()
            .filter(|(labels, _)| (labels == "status=\"200\"") == want_ok)
            .map(|(_, v)| v)
            .sum()
    };
    if count(true) != ok as f64 || count(false) != not_ok as f64 {
        disagreements.push(format!(
            "ledger: client read {ok} 200s and {not_ok} others, gateway counted {} and {}",
            count(true),
            count(false)
        ));
    }

    let mut e2e = EndToEnd {
        throughput_rps: window.throughput(),
        latency_p50_us: window.latency_us(0.5),
        latency_p90_us: window.latency_us(0.9),
        setup_s: 0.0,
        peak_rss_mb: peak,
    };
    let mut metrics = BTreeMap::new();
    if args.trace {
        replay(&kept, &prepared, &server, &mut tracer)?;
        serving_layers(&server, &tracer, &mut metrics);
        let us = |name: &str| median(&tracer.durations_us(name));
        for (metric, span) in [
            ("http.connect_us", "http.connect"),
            ("http.send_us", "http.send"),
            ("http.wait_us", "http.wait"),
            ("http.recv_us", "http.recv"),
            ("httpd.parse_us", "httpd.parse"),
            ("json.render_us", "json.render"),
            ("serve.roundtrip_us", "serve.roundtrip"),
        ] {
            metrics.insert(metric, us(span));
        }
        metrics.insert(
            "gateway.accept_wait_us",
            median(&tracer.self_times_us("http.wait")),
        );
        // The engine work behind one request of each (tenant, kind), at
        // the single-lane batches a serial client makes.
        let kernel = server.pool().kernel();
        let ctx = F64Arith::new();
        let mut batch_us = Vec::new();
        let mut lane_us = Vec::new();
        for (m, c) in classifiers.iter().enumerate() {
            let evidence: Vec<_> = prepared
                .iter()
                .filter(|p| p.model == m)
                .map(|p| p.request.evidence.clone())
                .collect();
            lane_us.push(layers::lane_us(
                &c.ac,
                &ctx,
                kernel,
                &evidence,
                &mut tracer,
            )?);
            for kind in KINDS {
                batch_us.push(layers::sweep_us(
                    &c.ac,
                    &ctx,
                    kernel,
                    kind.query(c),
                    &evidence,
                    1,
                    &mut tracer,
                )?);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let batch_us = mean(&batch_us);
        metrics.insert("engine.lane_us", mean(&lane_us));
        metrics.insert("engine.batch_us", batch_us);
        metrics.insert("engine.busy_share", batch_us * ok as f64 / 1e6 / wall);
        metrics.insert(
            "serve.queue_wait_us",
            metrics["serve.miss_wait_us.p50"] - batch_us,
        );
    }
    teardown((gateway, server, classifiers))?;
    for _ in 0..SETUPS {
        let (took, fresh) = setup(&mut tracer)?;
        setups.push(took);
        teardown(fresh)?;
    }
    e2e.setup_s = median_secs(&setups);
    e2e.file(&mut metrics, args.trace);
    for d in &disagreements {
        eprintln!("perfbench: {d}");
    }
    let outcome = Outcome {
        correct: failed == 0 && disagreements.is_empty(),
        attempted,
        failed,
        metrics,
    };
    Ok((outcome, tracer))
}

/// Replays kept window requests layer by layer, each span a child of
/// the request's `http.wait`: the gateway's parse on the same bytes,
/// the render of the same answer, and the same request through
/// `Server::submit` and `Ticket::wait`.
fn replay(
    kept: &[Kept],
    prepared: &[Prepared],
    server: &Server<F64Arith>,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let config = GatewayConfig::default();
    let limits = HttpLimits {
        max_head: config.max_head,
        max_body: config.max_body,
    };
    for k in kept {
        let p = &prepared[k.input as usize];
        let t0 = Instant::now();
        let parsed = read_request(&mut &p.wire[..], &limits).map_err(|e| e.to_string())?;
        let text = std::str::from_utf8(&parsed.body).map_err(|e| e.to_string())?;
        std::hint::black_box(JsonValue::parse(text).map_err(|e| e.to_string())?);
        let t1 = Instant::now();
        tracer.record("httpd.parse", k.wait_span, k.id, t0, t1);

        let doc = JsonValue::parse(&String::from_utf8_lossy(&k.body)).map_err(|e| e.to_string())?;
        let r0 = Instant::now();
        std::hint::black_box(doc.render());
        let r1 = Instant::now();
        tracer.record("json.render", k.wait_span, k.id, r0, r1);

        let sent = Instant::now();
        let ticket = server
            .submit(p.request.clone())
            .map_err(|e| e.to_string())?;
        let returned = Instant::now();
        let (answer, completed) = ticket.wait_timed();
        if !problp_engine::lane_answer_eq(&answer, &p.reference) {
            return Err(format!("replay of request {} answered {answer:?}", k.id));
        }
        let root = tracer.record("serve.roundtrip", k.wait_span, k.id, sent, completed);
        tracer.record("serve.submit", root, k.id, sent, returned);
        tracer.record("serve.miss_wait", root, k.id, returned, completed);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_lengths_waits_for_the_blank_line() {
        assert_eq!(
            response_lengths(b"HTTP/1.1 200 OK\r\nContent-Len").unwrap(),
            None
        );
        let full = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(response_lengths(full).unwrap(), Some((full.len() - 2, 2)));
    }

    #[test]
    fn marginal_answers_compare_bit_for_bit() {
        let reference = Ok(ServeResponse::Marginal {
            value: 0.1 + 0.2,
            flags: Default::default(),
        });
        let body = format!(
            "{{\"model\":\"m\",\"query\":\"marginal\",\"value\":{}}}",
            0.1 + 0.2
        );
        assert!(answer_matches(
            body.as_bytes(),
            "m",
            Kind::Marginal,
            &reference
        ));
        let off = "{\"model\":\"m\",\"query\":\"marginal\",\"value\":0.3}";
        assert!(!answer_matches(
            off.as_bytes(),
            "m",
            Kind::Marginal,
            &reference
        ));
    }
}
