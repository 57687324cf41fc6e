//! A minimal HTTP/1.1 sidecar on a [`Listener`] exposing the registry:
//! `GET /metrics` (Prometheus text), `GET /healthz` (liveness + detail
//! lines, 200/503) and `GET /statz` (JSON snapshot).
//!
//! The listener's accept thread only accepts: connections are handled
//! on its small bounded worker pool (the query gateway in
//! `problp-engine` runs on the same [`Listener`]), so one slow or
//! stalled scraper cannot delay a `/healthz` probe behind it and flap
//! liveness. Requests are parsed through [`crate::httpd::read_request`]
//! under hard size limits — oversized request lines/headers answer 431
//! and oversized bodies 413 instead of reading unboundedly into memory
//! — and read/write timeouts bound how long any one client can hold a
//! worker. Each connection carries one request, answered with
//! `Connection: close`. The accept blocks, and [`Sidecar::shutdown`]
//! wakes it with a connection of its own, so it returns promptly.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use crate::httpd::{
    drain_rejected, http_request, read_request, write_response, HttpLimits, Listener,
};
use crate::json::JsonValue;
use crate::registry::MetricsRegistry;

/// Worker threads handling sidecar connections: two, so a stalled
/// scraper can burn one full IO timeout while `/healthz` stays prompt
/// on the other.
const SIDECAR_WORKERS: usize = 2;
/// Connections queued for the workers before the accept loop sheds load
/// with an immediate 503.
const SIDECAR_BACKLOG: usize = 16;
/// Per-connection read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Size limits of one scrape request: routing needs no body, so both
/// caps stay small.
const SIDECAR_LIMITS: HttpLimits = HttpLimits {
    max_head: 8 * 1024,
    max_body: 4 * 1024,
};

/// What `/healthz` reports. Produced by the health callback on every
/// request, so liveness reflects the serving stack *now*, not at
/// startup.
#[derive(Clone, Debug)]
pub struct HealthStatus {
    /// Overall liveness; `false` renders a 503.
    pub healthy: bool,
    /// Free-form key/value detail lines (worker counts, pool models).
    pub detail: Vec<(String, String)>,
}

impl HealthStatus {
    /// A healthy status with no detail.
    pub fn ok() -> Self {
        HealthStatus {
            healthy: true,
            detail: Vec::new(),
        }
    }
}

/// The health callback type: invoked per `/healthz` / `/statz` request.
pub type HealthFn = Box<dyn Fn() -> HealthStatus + Send + Sync>;

/// A running metrics sidecar; shuts down when dropped.
pub struct Sidecar {
    listener: Listener,
}

impl Sidecar {
    /// Binds `addr` (use port 0 for an OS-assigned port, then
    /// [`Sidecar::local_addr`]) and starts serving `registry` and
    /// `health` on a background accept thread plus a small worker pool.
    pub fn start(
        addr: &str,
        registry: Arc<MetricsRegistry>,
        health: HealthFn,
    ) -> std::io::Result<Sidecar> {
        let listener = Listener::start(
            addr,
            "problp-sidecar",
            SIDECAR_WORKERS,
            SIDECAR_BACKLOG,
            move |stream, _| {
                let _ = handle_connection(stream, &registry, &health);
            },
            |stream| {
                // Queue full (every worker stalled): shed load with a
                // prompt 503 instead of queueing unboundedly.
                let _ = busy_reject(stream);
            },
        )?;
        Ok(Sidecar { listener })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener.local_addr()
    }

    /// Stops the accept loop and joins the serving threads.
    pub fn shutdown(&mut self) {
        self.listener.shutdown();
    }
}

/// Answers a connection the worker pool could not take. The short write
/// timeout keeps the accept loop from being the thing a slow client
/// stalls.
fn busy_reject(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_millis(100)))?;
    write_response(
        &mut stream,
        503,
        "text/plain; charset=utf-8",
        &[],
        b"sidecar worker queue is full\n",
        false,
    )
}

fn handle_connection(
    stream: TcpStream,
    registry: &MetricsRegistry,
    health: &HealthFn,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let request = match read_request(&mut reader, &SIDECAR_LIMITS) {
        Ok(request) => request,
        Err(e) => {
            // Protocol-level rejects (400/408/413/431) are answered;
            // a dead socket is just dropped.
            if let Some((code, _)) = e.status() {
                respond(
                    &mut stream,
                    code,
                    "text/plain; charset=utf-8",
                    &format!("{e}\n"),
                )?;
                drain_rejected(&stream, &mut reader);
            }
            return Ok(());
        }
    };
    if request.method != "GET" {
        return respond(
            &mut stream,
            405,
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        );
    }
    match request.path.as_str() {
        "/metrics" => {
            let body = registry.render_prometheus();
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/healthz" => {
            let status = health();
            let mut body = String::new();
            body.push_str(if status.healthy {
                "ok\n"
            } else {
                "unhealthy\n"
            });
            for (k, v) in &status.detail {
                body.push_str(&format!("{k}: {v}\n"));
            }
            let code = if status.healthy { 200 } else { 503 };
            respond(&mut stream, code, "text/plain; charset=utf-8", &body)
        }
        "/statz" => {
            let status = health();
            let doc = JsonValue::Object(vec![
                ("healthy".to_string(), JsonValue::Bool(status.healthy)),
                (
                    "detail".to_string(),
                    JsonValue::Object(
                        status
                            .detail
                            .iter()
                            .map(|(k, v)| (k.clone(), JsonValue::from(v.as_str())))
                            .collect(),
                    ),
                ),
                ("metrics".to_string(), registry.render_json()),
            ]);
            respond(
                &mut stream,
                200,
                "application/json; charset=utf-8",
                &doc.render(),
            )
        }
        _ => respond(
            &mut stream,
            404,
            "text/plain; charset=utf-8",
            "unknown path; try /metrics, /healthz or /statz\n",
        ),
    }
}

fn respond(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write_response(stream, code, content_type, &[], body.as_bytes(), false)
}

/// A tiny scrape client for tests and the serve-sim self-check: issues
/// `GET path` against `addr` and returns `(status_code, body)`.
///
/// Built on [`crate::httpd::read_response`], so a malformed status line
/// fails with a typed [`std::io::ErrorKind::InvalidData`] error naming
/// the line, and a response that declares `Content-Length` is read to
/// exactly that many bytes instead of blocking on a keep-alive server
/// until the 2-second read timeout.
pub fn http_get(addr: &std::net::SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let (code, _headers, body) = http_request(addr, "GET", path, &[], &[])?;
    Ok((code, body))
}
