//! End-to-end tests of the HTTP query gateway over real sockets:
//! bit-identity of every answered query against the uncached
//! `CircuitPool::serve_one` reference path, the typed-error → status
//! mapping (401/404/400/413/422/429 + `Retry-After`), worker-pool
//! concurrency, keep-alive and shutdown, and the `problp_gateway_*`
//! instrumentation.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use problp_ac::compile;
use problp_bayes::{networks, BatchQuery, BayesNetBuilder, Evidence, VarId};
use problp_engine::serve::gateway::error_status;
use problp_engine::{
    CircuitPool, Gateway, GatewayConfig, Priority, ServeConfig, ServeError, ServeRequest,
    ServeResponse, Server,
};
use problp_num::F64Arith;
use problp_telemetry::{
    http_post, http_request, metric_names, read_response, scrape_value, HttpResponse, JsonValue,
};

fn two_model_server(config: ServeConfig) -> Arc<Server<F64Arith>> {
    let mut pool = CircuitPool::new(F64Arith::new());
    pool.register(
        "sprinkler",
        &compile(&networks::sprinkler()).expect("compile"),
    )
    .expect("register sprinkler");
    pool.register("asia", &compile(&networks::asia()).expect("compile"))
        .expect("register asia");
    Arc::new(Server::start(pool, config))
}

fn tokens() -> Vec<(String, String)> {
    vec![
        ("tok-sprinkler".to_string(), "sprinkler".to_string()),
        ("tok-asia".to_string(), "asia".to_string()),
        ("tok-ghost".to_string(), "ghost".to_string()),
    ]
}

fn auth(token: &str) -> [(&'static str, String); 1] {
    [("Authorization", format!("Bearer {token}"))]
}

fn evidence_json(entries: &[Option<usize>]) -> String {
    let lanes: Vec<String> = entries
        .iter()
        .map(|e| match e {
            Some(s) => s.to_string(),
            None => "null".to_string(),
        })
        .collect();
    format!("[{}]", lanes.join(", "))
}

fn evidence_from(entries: &[Option<usize>]) -> Evidence {
    let mut evidence = Evidence::empty(entries.len());
    for (i, e) in entries.iter().enumerate() {
        if let Some(s) = e {
            evidence.observe(VarId::from_index(i), *s);
        }
    }
    evidence
}

#[test]
fn answers_are_bit_identical_to_serve_one() {
    let server = two_model_server(ServeConfig::default());
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            tokens: tokens(),
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");
    let addr = gateway.local_addr();

    let cases: Vec<(&str, &str, Vec<Option<usize>>, &str)> = vec![
        ("tok-sprinkler", "marginal", vec![None; 4], "interactive"),
        (
            "tok-sprinkler",
            "marginal",
            vec![Some(0), None, Some(1), None],
            "batch",
        ),
        (
            "tok-sprinkler",
            "mpe",
            vec![None, Some(1), None, None],
            "interactive",
        ),
        ("tok-asia", "marginal", vec![None; 8], "interactive"),
        ("tok-asia", "mpe", vec![None; 8], "batch"),
    ];
    for (token, kind, entries, priority) in cases {
        let body = format!(
            r#"{{"query": "{kind}", "evidence": {}, "priority": "{priority}"}}"#,
            evidence_json(&entries)
        );
        let (code, _headers, text) =
            http_post(&addr, "/v1/query", &auth(token), &body).expect("post");
        assert_eq!(code, 200, "{kind}: {text}");
        let doc = JsonValue::parse(&text).expect("response json");
        let model = tokens()
            .iter()
            .find(|(t, _)| t == token)
            .map(|(_, m)| m.clone())
            .expect("token");
        let reference = server.pool().serve_one(&ServeRequest {
            model,
            evidence: evidence_from(&entries),
            query: match kind {
                "marginal" => BatchQuery::Marginal,
                _ => BatchQuery::Mpe,
            },
            priority: Priority::Interactive,
        });
        match reference.expect("reference answers") {
            ServeResponse::Marginal { value, .. } => {
                let got = doc.get("value").and_then(JsonValue::as_f64).expect("value");
                assert_eq!(got.to_bits(), value.to_bits(), "{kind} value drifted");
            }
            ServeResponse::Mpe {
                assignment, value, ..
            } => {
                let got_value = doc.get("value").and_then(JsonValue::as_f64).expect("value");
                assert_eq!(got_value.to_bits(), value.to_bits(), "mpe value drifted");
                let got_assignment: Vec<usize> = doc
                    .get("assignment")
                    .and_then(JsonValue::as_array)
                    .expect("assignment")
                    .iter()
                    .map(|v| v.as_f64().expect("state") as usize)
                    .collect();
                assert_eq!(got_assignment, assignment);
            }
            other => panic!("unexpected reference {other:?}"),
        }
    }

    // Conditional: posteriors bit for bit plus the prediction.
    let entries = [Some(1), None, None, None];
    let body = format!(
        r#"{{"query": "conditional", "query_var": 2, "evidence": {}}}"#,
        evidence_json(&entries)
    );
    let (code, _headers, text) =
        http_post(&addr, "/v1/query", &auth("tok-sprinkler"), &body).expect("post");
    assert_eq!(code, 200, "{text}");
    let doc = JsonValue::parse(&text).expect("response json");
    let reference = server
        .pool()
        .serve_one(&ServeRequest {
            model: "sprinkler".to_string(),
            evidence: evidence_from(&entries),
            query: BatchQuery::Conditional {
                query_var: VarId::from_index(2),
            },
            priority: Priority::Interactive,
        })
        .expect("reference conditional");
    match reference {
        ServeResponse::Conditional {
            posteriors,
            prediction,
            ..
        } => {
            let got: Vec<f64> = doc
                .get("posteriors")
                .and_then(JsonValue::as_array)
                .expect("posteriors")
                .iter()
                .map(|v| v.as_f64().expect("posterior"))
                .collect();
            assert_eq!(got.len(), posteriors.len());
            for (g, r) in got.iter().zip(&posteriors) {
                assert_eq!(g.to_bits(), r.to_bits(), "posterior drifted");
            }
            let got_prediction = doc
                .get("prediction")
                .and_then(JsonValue::as_f64)
                .expect("prediction") as usize;
            assert_eq!(got_prediction, prediction);
        }
        other => panic!("unexpected reference {other:?}"),
    }
}

#[test]
fn auth_failures_are_401_and_unknown_models_404() {
    let server = two_model_server(ServeConfig::default());
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            tokens: tokens(),
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");
    let addr = gateway.local_addr();
    let good = r#"{"query": "marginal", "evidence": [null, null, null, null]}"#;

    // No Authorization header at all.
    let (code, _h, body) = http_post(&addr, "/v1/query", &[], good).expect("post");
    assert_eq!(code, 401, "{body}");
    assert!(body.contains("\"unauthorized\""));
    // Unknown token.
    let (code, _h, _b) = http_post(&addr, "/v1/query", &auth("tok-wrong"), good).expect("post");
    assert_eq!(code, 401);
    // Non-bearer scheme.
    let (code, _h, _b) = http_post(
        &addr,
        "/v1/query",
        &[("Authorization", "Basic dXNlcjpwdw==".to_string())],
        good,
    )
    .expect("post");
    assert_eq!(code, 401);
    // A valid token granting a model the pool does not host.
    let (code, _h, body) = http_post(&addr, "/v1/query", &auth("tok-ghost"), good).expect("post");
    assert_eq!(code, 404, "{body}");
    assert!(body.contains("\"unknown_model\""));
    // Unknown path and unsupported method.
    let (code, _h, _b) = http_post(&addr, "/v2/query", &auth("tok-sprinkler"), good).expect("post");
    assert_eq!(code, 404);
    let (code, _h, body) =
        http_request(&addr, "GET", "/v1/query", &auth("tok-sprinkler"), &[]).expect("get");
    assert_eq!(code, 405, "{body}");
    assert!(body.contains("\"method_not_allowed\""));
}

#[test]
fn bad_bodies_are_400_with_structured_errors() {
    let server = two_model_server(ServeConfig::default());
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            tokens: tokens(),
            max_body: 512,
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");
    let addr = gateway.local_addr();

    // Unparseable JSON.
    let (code, _h, body) =
        http_post(&addr, "/v1/query", &auth("tok-sprinkler"), "{nope").expect("post");
    assert_eq!(code, 400, "{body}");
    let doc = JsonValue::parse(&body).expect("error body is json");
    assert_eq!(
        doc.get("error").and_then(JsonValue::as_str),
        Some("bad_json")
    );
    assert!(doc.get("message").and_then(JsonValue::as_str).is_some());

    // Well-formed JSON, wrong evidence arity for the model: the typed
    // admission reject surfaces as bad_shape.
    let (code, _h, body) = http_post(
        &addr,
        "/v1/query",
        &auth("tok-sprinkler"),
        r#"{"query": "marginal", "evidence": [null, null]}"#,
    )
    .expect("post");
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("\"bad_shape\""), "{body}");

    // Over the gateway's max-body cap: 413 from the declared length.
    let huge = format!(
        r#"{{"query": "marginal", "evidence": [{}null]}}"#,
        "null, ".repeat(200)
    );
    let (code, _h, body) =
        http_post(&addr, "/v1/query", &auth("tok-sprinkler"), &huge).expect("post");
    assert_eq!(code, 413, "{body}");
    assert!(body.contains("\"body_too_large\""), "{body}");
}

#[test]
fn impossible_conditional_evidence_is_422() {
    // B is deterministically equal to A; observing A=0, B=1 has
    // probability zero, so the posterior over C does not exist.
    let mut builder = BayesNetBuilder::new();
    let a = builder.variable("A", 2);
    let b = builder.variable("B", 2);
    let c = builder.variable("C", 2);
    builder.cpt(a, [], [0.5, 0.5]).expect("cpt a");
    builder.cpt(b, [a], [1.0, 0.0, 0.0, 1.0]).expect("cpt b");
    builder.cpt(c, [a], [0.5, 0.5, 0.5, 0.5]).expect("cpt c");
    let net = builder.build().expect("build");
    let mut pool = CircuitPool::new(F64Arith::new());
    pool.register("det", &compile(&net).expect("compile"))
        .expect("register");
    let server = Arc::new(Server::start(pool, ServeConfig::default()));
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            tokens: vec![("tok-det".to_string(), "det".to_string())],
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");
    let (code, _h, body) = http_post(
        &gateway.local_addr(),
        "/v1/query",
        &auth("tok-det"),
        r#"{"query": "conditional", "query_var": 2, "evidence": [0, 1, null]}"#,
    )
    .expect("post");
    assert_eq!(code, 422, "{body}");
    assert!(body.contains("\"impossible_evidence\""), "{body}");
    // The reference path agrees it is the typed lane error.
    let reference = server.pool().serve_one(&ServeRequest {
        model: "det".to_string(),
        evidence: evidence_from(&[Some(0), Some(1), None]),
        query: BatchQuery::Conditional {
            query_var: VarId::from_index(2),
        },
        priority: Priority::Interactive,
    });
    assert_eq!(reference, Err(ServeError::ImpossibleEvidence));
}

/// A conditional whose evidence also observes its query variable is
/// answered as if that observation were absent: proper posteriors, bit
/// for bit those of the same request without it.
#[test]
fn conditional_evidence_on_the_query_variable_is_ignored() {
    let server = two_model_server(ServeConfig::default());
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            tokens: tokens(),
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");
    // Sprinkler: Rain (2) given WetGrass (3) = 1, with and without Rain
    // itself observed as 1.
    let posteriors = |entries: &[Option<usize>]| -> Vec<f64> {
        let body = format!(
            r#"{{"query": "conditional", "query_var": 2, "evidence": {}}}"#,
            evidence_json(entries)
        );
        let (code, _headers, text) = http_post(
            &gateway.local_addr(),
            "/v1/query",
            &auth("tok-sprinkler"),
            &body,
        )
        .expect("post");
        assert_eq!(code, 200, "{text}");
        let doc = JsonValue::parse(&text).expect("response json");
        doc.get("posteriors")
            .and_then(JsonValue::as_array)
            .expect("posteriors")
            .iter()
            .map(|v| v.as_f64().expect("posterior"))
            .collect()
    };
    let observed = posteriors(&[None, None, Some(1), Some(1)]);
    let plain = posteriors(&[None, None, None, Some(1)]);
    let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&observed), bits(&plain));
    assert!((observed[0] - 0.2921).abs() < 1e-4, "{observed:?}");
    assert!((observed.iter().sum::<f64>() - 1.0).abs() < 1e-12);
}

#[test]
fn quota_pressure_is_429_with_retry_after() {
    // Long coalescing wait + quota 2: two requests sit queued while the
    // third is rejected at admission with QuotaExceeded → 429. The wait
    // must outlast the 600ms fill window below but stay well under the
    // HTTP client's 2s read timeout, or the fillers time out waiting
    // for their own answers.
    let server = two_model_server(ServeConfig {
        max_batch: 1024,
        max_wait: Duration::from_millis(1200),
        workers: 1,
        tenant_quota: 2,
        ..ServeConfig::default()
    });
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            tokens: tokens(),
            retry_after: Duration::from_secs(3),
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");
    let addr = gateway.local_addr();
    let body = r#"{"query": "marginal", "evidence": [null, null, null, null]}"#;
    let fillers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                http_post(&addr, "/v1/query", &auth("tok-sprinkler"), body).expect("filler post")
            })
        })
        .collect();
    // Let both fillers reach admission and start coalescing.
    std::thread::sleep(Duration::from_millis(600));
    let (code, headers, text) =
        http_post(&addr, "/v1/query", &auth("tok-sprinkler"), body).expect("probe post");
    assert_eq!(code, 429, "{text}");
    assert!(text.contains("\"quota_exceeded\""), "{text}");
    let retry_after = headers
        .iter()
        .find(|(n, _)| n == "retry-after")
        .map(|(_, v)| v.clone());
    assert_eq!(retry_after.as_deref(), Some("3"));
    // The other tenant still gets served during sprinkler's saturation.
    let asia =
        r#"{"query": "marginal", "evidence": [null, null, null, null, null, null, null, null]}"#;
    let (code, _h, _b) = http_post(&addr, "/v1/query", &auth("tok-asia"), asia).expect("post");
    assert_eq!(code, 200);
    // The queued fillers resolve once the coalescing wait expires.
    for filler in fillers {
        let (code, _h, text) = filler.join().expect("filler thread");
        assert_eq!(code, 200, "{text}");
    }
    // And the metrics saw exactly one 429.
    let scrape = server.metrics().render_prometheus();
    let series = format!("{}{{status=\"429\"}}", metric_names::GATEWAY_REQUESTS_TOTAL);
    assert_eq!(scrape_value(&scrape, &series), Some(1.0), "{scrape}");
}

#[test]
fn statuses_are_counted_and_latency_observed() {
    let server = two_model_server(ServeConfig::default());
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            tokens: tokens(),
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");
    let addr = gateway.local_addr();
    let good = r#"{"query": "marginal", "evidence": [null, null, null, null]}"#;
    for _ in 0..3 {
        let (code, _h, _b) =
            http_post(&addr, "/v1/query", &auth("tok-sprinkler"), good).expect("post");
        assert_eq!(code, 200);
    }
    let (code, _h, _b) = http_post(&addr, "/v1/query", &[], good).expect("post");
    assert_eq!(code, 401);
    let (code, _h, _b) =
        http_post(&addr, "/v1/query", &auth("tok-sprinkler"), "{nope").expect("post");
    assert_eq!(code, 400);

    let scrape = server.metrics().render_prometheus();
    let status = |code: u16| {
        format!(
            "{}{{status=\"{code}\"}}",
            metric_names::GATEWAY_REQUESTS_TOTAL
        )
    };
    for (series, want) in [
        (status(200), 3.0),
        (status(401), 1.0),
        (status(400), 1.0),
        (format!("{}_count", metric_names::GATEWAY_BODY_BYTES), 5.0),
        (format!("{}_count", metric_names::GATEWAY_HANDLER_US), 5.0),
    ] {
        assert_eq!(scrape_value(&scrape, &series), Some(want), "{series}");
    }
}

#[test]
fn stalled_connection_does_not_block_other_queries() {
    use std::io::Write;
    let server = two_model_server(ServeConfig::default());
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            tokens: tokens(),
            http_workers: 2,
            ..GatewayConfig::default()
        },
    )
    .expect("start gateway");
    let addr = gateway.local_addr();
    let mut stalled = std::net::TcpStream::connect(addr).expect("connect");
    stalled.write_all(b"POST /v1/qu").expect("partial write");
    std::thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    let (code, _h, _b) = http_post(
        &addr,
        "/v1/query",
        &auth("tok-sprinkler"),
        r#"{"query": "marginal", "evidence": [null, null, null, null]}"#,
    )
    .expect("post while stalled");
    assert_eq!(code, 200);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "query took {:?} behind a stalled connection",
        started.elapsed()
    );
    drop(stalled);
}

#[test]
fn error_status_is_connected_to_the_public_error_type() {
    // The mapping itself is pinned in unit tests; here just assert the
    // public re-export is callable from outside the crate.
    assert_eq!(error_status(&ServeError::ShutDown), (503, "shutting_down"));
}

/// A sprinkler marginal over no evidence.
const MARGINAL: &str = r#"{"query": "marginal", "evidence": [null, null, null, null]}"#;

fn start_gateway(serve: ServeConfig, gateway: GatewayConfig) -> (Arc<Server<F64Arith>>, Gateway) {
    let server = two_model_server(serve);
    let gateway = Gateway::start(
        Arc::clone(&server),
        GatewayConfig {
            tokens: tokens(),
            ..gateway
        },
    )
    .expect("start gateway");
    (server, gateway)
}

/// One `POST /v1/query` as it goes on the wire, in one piece.
fn wire(version: &str, token: &str, extra_headers: &str, body: &str) -> Vec<u8> {
    format!(
        "POST /v1/query {version}\r\nHost: gateway\r\nAuthorization: Bearer {token}\r\n\
         {extra_headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A raw client connection and a buffered reader over it, so several
/// responses can be read off one connection.
fn connect(addr: &SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn header<'a>(response: &'a HttpResponse, name: &str) -> Option<&'a str> {
    response
        .1
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Reads until the server closes the connection; returns what arrived.
fn read_to_eof(reader: &mut BufReader<TcpStream>) -> Vec<u8> {
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("server closes");
    rest
}

/// Every `problp_gateway_requests_total` series, summed.
fn responses_counted(server: &Server<F64Arith>) -> f64 {
    let prefix = format!("{}{{", metric_names::GATEWAY_REQUESTS_TOTAL);
    server
        .metrics()
        .render_prometheus()
        .lines()
        .filter(|line| line.starts_with(&prefix))
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

#[test]
fn serial_posts_are_not_paced_by_an_accept_poll() {
    let (_server, gateway) = start_gateway(
        ServeConfig {
            max_wait: Duration::ZERO,
            ..ServeConfig::default()
        },
        GatewayConfig::default(),
    );
    let addr = gateway.local_addr();
    let started = Instant::now();
    for _ in 0..100 {
        let (code, _h, body) =
            http_post(&addr, "/v1/query", &auth("tok-sprinkler"), MARGINAL).expect("post");
        assert_eq!(code, 200, "{body}");
    }
    assert!(
        started.elapsed() < Duration::from_millis(300),
        "100 serial connections took {:?}",
        started.elapsed()
    );
}

#[test]
fn keep_alive_exchanges_are_not_stalled_by_split_writes() {
    let (_server, gateway) = start_gateway(
        ServeConfig {
            max_wait: Duration::ZERO,
            ..ServeConfig::default()
        },
        GatewayConfig::default(),
    );
    let (mut conn, mut reader) = connect(&gateway.local_addr());
    let request = wire("HTTP/1.1", "tok-sprinkler", "", MARGINAL);
    let started = Instant::now();
    for i in 0..50 {
        conn.write_all(&request).expect("send");
        let response = read_response(&mut reader).expect("response");
        assert_eq!(response.0, 200, "exchange {i}: {}", response.2);
        assert_eq!(header(&response, "connection"), None, "exchange {i}");
    }
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "50 keep-alive exchanges took {:?}",
        started.elapsed()
    );
}

#[test]
fn close_requests_get_connection_close_and_eof() {
    let (_server, gateway) = start_gateway(ServeConfig::default(), GatewayConfig::default());
    for (version, extra) in [("HTTP/1.1", "Connection: close\r\n"), ("HTTP/1.0", "")] {
        let (mut conn, mut reader) = connect(&gateway.local_addr());
        conn.write_all(&wire(version, "tok-sprinkler", extra, MARGINAL))
            .expect("send");
        let response = read_response(&mut reader).expect("response");
        assert_eq!(response.0, 200, "{version}: {}", response.2);
        assert_eq!(header(&response, "connection"), Some("close"), "{version}");
        assert!(read_to_eof(&mut reader).is_empty(), "{version}");
    }
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (_server, gateway) = start_gateway(ServeConfig::default(), GatewayConfig::default());
    let (mut conn, mut reader) = connect(&gateway.local_addr());
    let mpe = r#"{"query": "mpe", "evidence": [null, null, null, null]}"#;
    let mut requests = wire("HTTP/1.1", "tok-sprinkler", "", MARGINAL);
    requests.extend(wire("HTTP/1.1", "tok-wrong", "", MARGINAL));
    requests.extend(wire(
        "HTTP/1.1",
        "tok-sprinkler",
        "Connection: close\r\n",
        mpe,
    ));
    conn.write_all(&requests).expect("send all three at once");
    let kinds: Vec<(u16, Option<String>)> = (0..3)
        .map(|_| {
            let (code, _h, body) = read_response(&mut reader).expect("response");
            let doc = JsonValue::parse(&body).expect("json body");
            let kind = doc
                .get("query")
                .and_then(JsonValue::as_str)
                .map(String::from);
            (code, kind)
        })
        .collect();
    assert_eq!(
        kinds,
        [
            (200, Some("marginal".to_string())),
            (401, None),
            (200, Some("mpe".to_string())),
        ]
    );
    assert!(read_to_eof(&mut reader).is_empty());
}

#[test]
fn idle_kept_alive_connections_close_without_a_status() {
    // One worker serializes the two clients: the second is answered only
    // once the worker is done with the first.
    let (server, gateway) = start_gateway(
        ServeConfig::default(),
        GatewayConfig {
            http_workers: 1,
            io_timeout: Duration::from_millis(300),
            ..GatewayConfig::default()
        },
    );
    let addr = gateway.local_addr();
    let request = wire("HTTP/1.1", "tok-sprinkler", "", MARGINAL);
    // Closed by the client after one exchange.
    let (mut first, mut reader) = connect(&addr);
    first.write_all(&request).expect("send");
    assert_eq!(read_response(&mut reader).expect("response").0, 200);
    drop((first, reader));
    // Closed by the server once it idles past the io timeout.
    let (mut second, mut reader) = connect(&addr);
    second.write_all(&request).expect("send");
    assert_eq!(read_response(&mut reader).expect("response").0, 200);
    let idle = Instant::now();
    assert!(
        read_to_eof(&mut reader).is_empty(),
        "no 408 for an idle close"
    );
    assert!(
        idle.elapsed() >= Duration::from_millis(200),
        "{:?}",
        idle.elapsed()
    );
    assert_eq!(responses_counted(&server), 2.0);
}

#[test]
fn idle_kept_alive_connection_yields_the_only_worker() {
    let (_server, gateway) = start_gateway(
        ServeConfig::default(),
        GatewayConfig {
            http_workers: 1,
            ..GatewayConfig::default()
        },
    );
    let addr = gateway.local_addr();
    let (mut idle, mut reader) = connect(&addr);
    idle.write_all(&wire("HTTP/1.1", "tok-sprinkler", "", MARGINAL))
        .expect("send");
    assert_eq!(read_response(&mut reader).expect("response").0, 200);
    let started = Instant::now();
    let (code, _h, body) =
        http_post(&addr, "/v1/query", &auth("tok-sprinkler"), MARGINAL).expect("post");
    assert_eq!(code, 200, "{body}");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "second client waited {:?} behind an idle connection",
        started.elapsed()
    );
}

#[test]
fn busy_kept_alive_connection_closes_for_a_queued_client() {
    // A lone request waits out the whole coalescing window, so the
    // second client is queued while the only worker serves the first.
    let (_server, gateway) = start_gateway(
        ServeConfig {
            max_wait: Duration::from_millis(300),
            ..ServeConfig::default()
        },
        GatewayConfig {
            http_workers: 1,
            ..GatewayConfig::default()
        },
    );
    let addr = gateway.local_addr();
    let (mut busy, mut reader) = connect(&addr);
    busy.write_all(&wire("HTTP/1.1", "tok-sprinkler", "", MARGINAL))
        .expect("send");
    let queued = std::thread::spawn(move || {
        http_post(&addr, "/v1/query", &auth("tok-sprinkler"), MARGINAL).expect("queued post")
    });
    let response = read_response(&mut reader).expect("response");
    assert_eq!(response.0, 200, "{}", response.2);
    assert_eq!(header(&response, "connection"), Some("close"));
    assert!(read_to_eof(&mut reader).is_empty());
    let (code, _h, body) = queued.join().expect("queued client");
    assert_eq!(code, 200, "{body}");
}

#[test]
fn gateway_shutdown_is_prompt_with_an_idle_kept_alive_connection() {
    let (server, mut gateway) = start_gateway(ServeConfig::default(), GatewayConfig::default());
    let (mut idle, mut reader) = connect(&gateway.local_addr());
    idle.write_all(&wire("HTTP/1.1", "tok-sprinkler", "", MARGINAL))
        .expect("send");
    assert_eq!(read_response(&mut reader).expect("response").0, 200);
    let started = Instant::now();
    gateway.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        started.elapsed()
    );
    assert!(read_to_eof(&mut reader).is_empty());
    match Arc::try_unwrap(server) {
        Ok(server) => server.shutdown(),
        Err(_) => panic!("the gateway still holds the server after shutdown"),
    }
}
