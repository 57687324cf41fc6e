//! HTTP edge cases shared by the scrape sidecar and (through the same
//! `httpd` primitives) the query gateway: malformed request lines,
//! unknown methods, oversized heads/bodies, truncated bodies, pipelined
//! requests, stalled clients vs `/healthz` promptness, and the strict
//! scrape client (`http_get`) against hostile servers.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use problp_telemetry::{http_get, http_request, HealthStatus, MetricsRegistry, Sidecar};

fn start_sidecar() -> Sidecar {
    let registry = Arc::new(MetricsRegistry::new());
    registry.counter("edge_hits_total", "test").add(5);
    Sidecar::start("127.0.0.1:0", registry, Box::new(HealthStatus::ok)).expect("bind sidecar")
}

/// Writes `head` raw, half-closes, and returns everything the server
/// sends back (responses are `Connection: close`, so EOF ends them).
fn raw_exchange(addr: &SocketAddr, head: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(head).expect("write");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

#[test]
fn malformed_request_line_is_400() {
    let sidecar = start_sidecar();
    let response = raw_exchange(&sidecar.local_addr(), b"total garbage\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 400 "), "got: {response:?}");
}

#[test]
fn unknown_method_is_405() {
    let sidecar = start_sidecar();
    let (code, _headers, body) =
        http_request(&sidecar.local_addr(), "POST", "/metrics", &[], b"{}").unwrap();
    assert_eq!(code, 405);
    assert!(body.contains("only GET"));
}

#[test]
fn oversized_request_line_is_431() {
    let sidecar = start_sidecar();
    let head = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 * 1024));
    let response = raw_exchange(&sidecar.local_addr(), head.as_bytes());
    assert!(response.starts_with("HTTP/1.1 431 "), "got: {response:?}");
}

#[test]
fn oversized_headers_are_431() {
    let sidecar = start_sidecar();
    let mut head = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..2000 {
        head.push_str(&format!("x-filler-{i}: {}\r\n", "v".repeat(32)));
    }
    head.push_str("\r\n");
    let response = raw_exchange(&sidecar.local_addr(), head.as_bytes());
    assert!(response.starts_with("HTTP/1.1 431 "), "got: {response:?}");
}

#[test]
fn oversized_body_is_413_without_reading_it() {
    let sidecar = start_sidecar();
    // Declare a body far over the sidecar's 4 KiB cap but never send
    // it: the 413 must come from the declared length alone.
    let head = "GET /healthz HTTP/1.1\r\nContent-Length: 100000\r\n\r\n";
    let response = raw_exchange(&sidecar.local_addr(), head.as_bytes());
    assert!(response.starts_with("HTTP/1.1 413 "), "got: {response:?}");
}

#[test]
fn truncated_body_is_400() {
    let sidecar = start_sidecar();
    let head = "GET /healthz HTTP/1.1\r\nContent-Length: 50\r\n\r\nabc";
    let response = raw_exchange(&sidecar.local_addr(), head.as_bytes());
    assert!(response.starts_with("HTTP/1.1 400 "), "got: {response:?}");
    assert!(response.contains("3 of 50"), "got: {response:?}");
}

#[test]
fn pipelined_requests_answer_the_first_and_close() {
    let sidecar = start_sidecar();
    // Two pipelined GETs in one write: the server answers the first
    // with `Connection: close` and drops the rest instead of wedging.
    let head = "GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
    let response = raw_exchange(&sidecar.local_addr(), head.as_bytes());
    assert_eq!(
        response.matches("HTTP/1.1 ").count(),
        1,
        "got: {response:?}"
    );
    assert!(response.starts_with("HTTP/1.1 200 "));
    assert!(response.contains("ok\n"));
    assert!(!response.contains("edge_hits_total"));
}

#[test]
fn stalled_client_does_not_block_healthz() {
    let sidecar = start_sidecar();
    let addr = sidecar.local_addr();
    // A client that connects, sends half a request line, and stalls. It
    // pins one pool worker for up to the 2 s read timeout...
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled.write_all(b"GET /met").expect("partial write");
    thread::sleep(Duration::from_millis(50));
    // ...while liveness probes keep getting answered promptly on the
    // other worker, instead of queueing behind the stall.
    let started = Instant::now();
    let (code, body) = http_get(&addr, "/healthz").expect("healthz while stalled");
    assert_eq!(code, 200);
    assert!(body.starts_with("ok\n"));
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "healthz took {:?} behind a stalled client",
        started.elapsed()
    );
    drop(stalled);
}

#[test]
fn serial_healthz_scrapes_are_not_paced_by_an_accept_poll() {
    let sidecar = start_sidecar();
    let addr = sidecar.local_addr();
    let started = Instant::now();
    for _ in 0..50 {
        let (code, body) = http_get(&addr, "/healthz").expect("healthz");
        assert_eq!(code, 200, "{body}");
    }
    assert!(
        started.elapsed() < Duration::from_millis(300),
        "50 serial scrapes took {:?}",
        started.elapsed()
    );
}

/// A one-connection fake server answering with `response` verbatim,
/// optionally holding the connection open afterwards (keep-alive
/// behaviour the strict client must not block on).
fn fake_server(response: &'static [u8], linger: Duration) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("local addr");
    thread::spawn(move || {
        if let Ok((mut stream, _)) = listener.accept() {
            // Drain the request head so the client's write succeeds.
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            let _ = stream.write_all(response);
            let _ = stream.flush();
            thread::sleep(linger);
        }
    });
    addr
}

#[test]
fn http_get_rejects_malformed_status_lines_typed() {
    let addr = fake_server(b"TOTALLY NOT HTTP\r\n\r\n", Duration::ZERO);
    let err = http_get(&addr, "/").expect_err("garbage status line must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("TOTALLY NOT HTTP"),
        "error should name the line: {err}"
    );
}

#[test]
fn http_get_uses_content_length_instead_of_waiting_for_eof() {
    // A keep-alive server: correct response, connection held open well
    // past the client's 2 s read timeout. Content-Length must end the
    // body read promptly.
    let addr = fake_server(
        b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
        Duration::from_secs(4),
    );
    let started = Instant::now();
    let (code, body) = http_get(&addr, "/").expect("prompt scrape");
    assert_eq!(code, 200);
    assert_eq!(body, "hello");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "scrape took {:?} against a keep-alive server",
        started.elapsed()
    );
}

#[test]
fn http_get_rejects_a_body_shorter_than_declared() {
    let addr = fake_server(
        b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\nshort",
        Duration::ZERO,
    );
    let err = http_get(&addr, "/").expect_err("short body must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn http_get_reads_close_delimited_bodies() {
    let addr = fake_server(b"HTTP/1.1 200 OK\r\n\r\nno content length", Duration::ZERO);
    let (code, body) = http_get(&addr, "/").expect("close-delimited body");
    assert_eq!(code, 200);
    assert_eq!(body, "no content length");
}
