//! Shared bounded HTTP/1.1 primitives for the scrape [`crate::Sidecar`]
//! and the query gateway in `problp-engine`: one [`Listener`] (a
//! blocking accept thread in front of a small bounded worker pool, so
//! one stalled connection cannot serialize every other client behind
//! it), request parsing with hard size limits (oversized heads → 431,
//! oversized bodies → 413, truncated bodies → 400 instead of unbounded
//! reads), a canonical single-write response writer, and a strict
//! client ([`read_response`] / [`http_request`]) that fails malformed
//! status lines with a typed error and uses `Content-Length` instead of
//! blocking until the read timeout.
//!
//! Everything is `std::net` + `std::io`; no dependencies, no panics.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

/// Hard size limits of [`read_request`]. "Head" is the request line
/// plus all header lines together (including their CRLFs).
#[derive(Clone, Copy, Debug)]
pub struct HttpLimits {
    /// Max bytes of request line + headers before the read is rejected
    /// with [`HttpError::HeadTooLarge`] (→ 431).
    pub max_head: usize,
    /// Max declared `Content-Length` before the body is rejected with
    /// [`HttpError::BodyTooLarge`] (→ 413), *without* reading it.
    pub max_body: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head: 8 * 1024,
            max_body: 64 * 1024,
        }
    }
}

/// One parsed request: the routing fields plus the raw body bytes.
/// Header names are lower-cased at parse time; values keep their case.
#[derive(Clone, Debug)]
pub struct HttpRequest {
    /// The request method, as sent (`GET`, `POST`, ...).
    pub method: String,
    /// The request target (`/v1/query`).
    pub path: String,
    /// The protocol version, as sent (`HTTP/1.1`).
    pub version: String,
    /// Parsed headers, names lower-cased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The first value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == want)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client lets the connection stay open after the
    /// response: HTTP/1.1 without a `Connection: close` token.
    pub fn keep_alive(&self) -> bool {
        self.version == "HTTP/1.1"
            && !self
                .headers
                .iter()
                .filter(|(n, _)| n == "connection")
                .flat_map(|(_, v)| v.split(','))
                .any(|token| token.trim().eq_ignore_ascii_case("close"))
    }
}

/// Why [`read_request`] rejected a connection. Every protocol-level
/// variant carries the HTTP status it should be answered with
/// ([`HttpError::status`]); [`HttpError::Io`] means the socket died and
/// there is nobody left to answer.
#[derive(Debug)]
pub enum HttpError {
    /// The request is not parseable HTTP/1.1 (garbage request line,
    /// header without a colon, body shorter than its declared
    /// `Content-Length`). Answered 400.
    Malformed(String),
    /// Request line + headers exceeded [`HttpLimits::max_head`].
    /// Answered 431.
    HeadTooLarge {
        /// The configured head cap, bytes.
        limit: usize,
    },
    /// The declared `Content-Length` exceeded [`HttpLimits::max_body`];
    /// the body was not read. Answered 413.
    BodyTooLarge {
        /// The configured body cap, bytes.
        limit: usize,
        /// The declared `Content-Length`.
        length: usize,
    },
    /// The client stalled past the socket's read timeout mid-request.
    /// Answered 408.
    Timeout,
    /// The socket failed outright (reset, broken pipe); no response is
    /// possible.
    Io(io::Error),
}

impl HttpError {
    /// The status line this rejection should be answered with, or
    /// `None` for [`HttpError::Io`] (just drop the connection).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::Malformed(_) => Some((400, "Bad Request")),
            HttpError::HeadTooLarge { .. } => Some((431, "Request Header Fields Too Large")),
            HttpError::BodyTooLarge { .. } => Some((413, "Content Too Large")),
            HttpError::Timeout => Some((408, "Request Timeout")),
            HttpError::Io(_) => None,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(detail) => write!(f, "malformed request: {detail}"),
            HttpError::HeadTooLarge { limit } => {
                write!(f, "request line + headers exceed {limit} bytes")
            }
            HttpError::BodyTooLarge { limit, length } => {
                write!(
                    f,
                    "declared body of {length} bytes exceeds the {limit}-byte cap"
                )
            }
            HttpError::Timeout => write!(f, "client stalled mid-request"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HttpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Classifies a raw socket error: stalls (read timeout) become
/// [`HttpError::Timeout`], everything else is terminal [`HttpError::Io`].
fn classify_io(e: io::Error) -> HttpError {
    match e.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => HttpError::Timeout,
        _ => HttpError::Io(e),
    }
}

/// Reads one head line (request line or header) without ever buffering
/// more than the remaining head `budget`: over-budget lines fail
/// [`HttpError::HeadTooLarge`] instead of growing a string until the
/// client stops. Returns `None` on a clean EOF before any byte.
fn read_head_line<R: BufRead>(
    reader: &mut R,
    limit: usize,
    budget: &mut usize,
) -> Result<Option<String>, HttpError> {
    let mut raw = Vec::new();
    let n = reader
        .by_ref()
        .take(*budget as u64 + 1)
        .read_until(b'\n', &mut raw)
        .map_err(classify_io)?;
    if n == 0 {
        return Ok(None);
    }
    if !raw.ends_with(b"\n") {
        // Either the line overflowed the budget, or the stream ended
        // mid-line; only the former gets its own status.
        if n > *budget {
            return Err(HttpError::HeadTooLarge { limit });
        }
        return Err(HttpError::Malformed(
            "connection closed mid-line".to_string(),
        ));
    }
    *budget = budget.saturating_sub(n);
    while raw.last() == Some(&b'\n') || raw.last() == Some(&b'\r') {
        raw.pop();
    }
    match String::from_utf8(raw) {
        Ok(line) => Ok(Some(line)),
        Err(_) => Err(HttpError::Malformed("head line is not UTF-8".to_string())),
    }
}

/// Reads and parses one HTTP/1.1 request under `limits`.
///
/// The head (request line + headers) is read through a hard byte budget
/// — an attacker streaming an endless header line costs
/// `limits.max_head` bytes of memory, then a 431. The body is only read
/// after its declared `Content-Length` passed the `max_body` cap (413
/// otherwise, without reading), and a connection that closes or stalls
/// before delivering the declared bytes fails typed
/// ([`HttpError::Malformed`] / [`HttpError::Timeout`]) instead of
/// blocking forever or returning a short body.
pub fn read_request<R: BufRead>(
    reader: &mut R,
    limits: &HttpLimits,
) -> Result<HttpRequest, HttpError> {
    let mut budget = limits.max_head;
    let request_line = read_head_line(reader, limits.max_head, &mut budget)?
        .ok_or_else(|| HttpError::Malformed("connection closed before a request".to_string()))?;
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v.to_string()),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/") {
        return Err(HttpError::Malformed(format!(
            "bad protocol version {version:?}"
        )));
    }
    let mut headers = Vec::new();
    loop {
        let line = read_head_line(reader, limits.max_head, &mut budget)?
            .ok_or_else(|| HttpError::Malformed("connection closed inside headers".to_string()))?;
        if line.is_empty() {
            break;
        }
        match line.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()))
            }
            None => {
                return Err(HttpError::Malformed(format!(
                    "header line without a colon: {line:?}"
                )))
            }
        }
    }
    let length = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("unparseable content-length {v:?}")))?,
        None => 0,
    };
    if length > limits.max_body {
        return Err(HttpError::BodyTooLarge {
            limit: limits.max_body,
            length,
        });
    }
    let mut body = vec![0u8; length];
    let mut got = 0;
    while got < length {
        match reader.read(&mut body[got..]) {
            Ok(0) => {
                return Err(HttpError::Malformed(format!(
                    "body ended after {got} of {length} declared bytes"
                )))
            }
            Ok(n) => got += n,
            Err(e) => return Err(classify_io(e)),
        }
    }
    Ok(HttpRequest {
        method,
        path,
        version,
        headers,
        body,
    })
}

/// Bytes a rejecting server is willing to drain before closing.
const DRAIN_CAP: usize = 256 * 1024;

/// Briefly drains what is left of a rejected request so closing the
/// socket does not RST away the error response still sitting in the
/// client's receive buffer (a close with unread data discards delivered
/// bytes on most TCP stacks). Bounded to 256 KiB and a short read
/// timeout, so a hostile sender cannot turn the courtesy into a hold.
pub fn drain_rejected(stream: &TcpStream, reader: &mut impl Read) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 4096];
    let mut total = 0;
    loop {
        match reader.read(&mut sink) {
            Ok(0) => break,
            Ok(n) => {
                total += n;
                if total >= DRAIN_CAP {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// The reason phrase of every status this stack emits.
pub fn status_reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Writes one response with an exact `Content-Length`, plus any
/// `extra_headers` (e.g. `Retry-After`) and, unless `keep_alive`,
/// `Connection: close`.
///
/// Head and body go out in one write: on a kept-alive socket, a body
/// written after its head waits behind Nagle's algorithm for the
/// client's delayed ACK of the head (~40 ms on Linux).
pub fn write_response(
    stream: &mut impl Write,
    code: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut out = Vec::with_capacity(256 + body.len());
    write!(
        out,
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        status_reason(code),
        body.len()
    )?;
    if !keep_alive {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    for (name, value) in extra_headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    stream.write_all(&out)?;
    stream.flush()
}

/// Pause after a failed `accept` (e.g. the process is out of file
/// descriptors) before trying again. The normal path never sleeps.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// What the accept thread, the workers and [`Listener::shutdown`]
/// share, all under one lock.
struct PoolState {
    /// Accepted connections waiting for a worker, at most `backlog`.
    queue: VecDeque<TcpStream>,
    /// Workers parked until a connection is queued.
    parked: usize,
    /// Per worker, a handle on the kept-alive connection it idles on,
    /// so the accept thread and shutdown can close it under the worker.
    idle: Vec<Option<TcpStream>>,
    /// Set once, by [`Listener::shutdown`].
    stopping: bool,
}

impl PoolState {
    /// Whether a kept-alive connection must close to free its worker:
    /// the listener is stopping, or a queued connection has no parked
    /// worker to take it.
    fn must_close(&self) -> bool {
        self.stopping || self.queue.len() > self.parked
    }
}

struct Pool {
    state: Mutex<PoolState>,
    ready: Condvar,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // Every update under the lock is one push, pop, take or flag
        // store, so a panic elsewhere leaves the state valid.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A handler's view of the worker thread running it: whether its
/// connection may stay open, and a wait for the next request on it that
/// gives way to queued clients and to shutdown.
pub struct Worker {
    pool: Arc<Pool>,
    slot: usize,
}

impl Worker {
    /// The next queued connection, or `None` once the listener stops
    /// and the queue is empty.
    fn next(&self) -> Option<TcpStream> {
        let mut state = self.pool.lock();
        loop {
            if let Some(stream) = state.queue.pop_front() {
                return Some(stream);
            }
            if state.stopping {
                return None;
            }
            state.parked += 1;
            state = self
                .pool
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.parked -= 1;
        }
    }

    /// Whether the connection must close after the response about to be
    /// written: the listener is stopping, or a connection is queued that
    /// no parked worker will take.
    pub fn must_close(&self) -> bool {
        self.pool.lock().must_close()
    }

    /// Waits for the next request on a kept-alive connection and
    /// returns whether one started to arrive (bytes are buffered in
    /// `reader`). Returns `false`, and the caller closes the connection
    /// without a response, when the client closed it, it stayed idle
    /// past the socket's read timeout, another connection was queued
    /// for a worker, or the listener began to stop.
    pub fn await_request(&self, reader: &mut BufReader<TcpStream>) -> bool {
        if !reader.buffer().is_empty() {
            return true; // pipelined
        }
        let Ok(handle) = reader.get_ref().try_clone() else {
            return false;
        };
        {
            let mut state = self.pool.lock();
            if state.must_close() {
                return false;
            }
            state.idle[self.slot] = Some(handle);
        }
        let arrived = matches!(reader.fill_buf(), Ok(bytes) if !bytes.is_empty());
        // A taken handle means the accept thread or shutdown closed the
        // connection; a request racing that close goes unanswered.
        let kept = self.pool.lock().idle[self.slot].take().is_some();
        arrived && kept
    }
}

/// One bound HTTP listener: a blocking accept thread feeding a bounded
/// queue of connections to a fixed pool of worker threads.
///
/// A full queue hands the connection to `shed` on the accept thread,
/// so the caller can answer 503 instead of queueing unboundedly. A
/// connection queued while every worker is busy closes one idle
/// kept-alive connection to free its worker. Dropping the listener
/// shuts it down.
pub struct Listener {
    addr: SocketAddr,
    pool: Arc<Pool>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Listener {
    /// Binds `addr` (port 0 for an OS-assigned port, read back via
    /// [`Listener::local_addr`]) and starts `workers` threads (at least
    /// one) named `name-<i>` running `handler` on each connection, plus
    /// the accept thread `name-accept`, which queues at most `backlog`
    /// connections and passes any beyond that to `shed`.
    pub fn start<H, S>(
        addr: &str,
        name: &str,
        workers: usize,
        backlog: usize,
        handler: H,
        shed: S,
    ) -> io::Result<Listener>
    where
        H: Fn(TcpStream, &Worker) + Send + Sync + 'static,
        S: Fn(TcpStream) + Send + 'static,
    {
        let socket = TcpListener::bind(addr)?;
        let workers = workers.max(1);
        let backlog = backlog.max(1);
        let mut listener = Listener {
            addr: socket.local_addr()?,
            pool: Arc::new(Pool {
                state: Mutex::new(PoolState {
                    queue: VecDeque::with_capacity(backlog),
                    parked: 0,
                    idle: (0..workers).map(|_| None).collect(),
                    stopping: false,
                }),
                ready: Condvar::new(),
            }),
            threads: Vec::with_capacity(workers + 1),
        };
        let handler = Arc::new(handler);
        for slot in 0..workers {
            let worker = Worker {
                pool: Arc::clone(&listener.pool),
                slot,
            };
            let handler = Arc::clone(&handler);
            let spawned = thread::Builder::new()
                .name(format!("{name}-{slot}"))
                .spawn(move || {
                    while let Some(stream) = worker.next() {
                        handler(stream, &worker);
                    }
                })?;
            listener.threads.push(spawned);
        }
        let pool = Arc::clone(&listener.pool);
        let spawned = thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || accept_loop(&socket, &pool, backlog, shed))?;
        listener.threads.push(spawned);
        Ok(listener)
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes every idle kept-alive connection, lets
    /// the workers finish the connections already queued (a kept-alive
    /// one closes after its current response) and joins every thread.
    pub fn shutdown(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        {
            let mut state = self.pool.lock();
            state.stopping = true;
            for idle in state.idle.iter_mut().filter_map(Option::take) {
                let _ = idle.shutdown(Shutdown::Both);
            }
        }
        self.pool.ready.notify_all();
        // Wake the blocking accept with a connection of our own.
        let _ = TcpStream::connect(wake_addr(self.addr));
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Where [`Listener::shutdown`] connects to wake its accept thread: the
/// bound address, with an unspecified IP replaced by the loopback of
/// its family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

fn accept_loop(socket: &TcpListener, pool: &Pool, backlog: usize, shed: impl Fn(TcpStream)) {
    loop {
        let stream = match socket.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if pool.lock().stopping {
                    return;
                }
                thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        let mut state = pool.lock();
        if state.stopping {
            return; // the shutdown's wake-up connection
        }
        if state.queue.len() >= backlog {
            drop(state);
            shed(stream);
            continue;
        }
        state.queue.push_back(stream);
        if state.must_close() {
            // No parked worker will take it: free the worker of an idle
            // kept-alive connection.
            if let Some(idle) = state.idle.iter_mut().find_map(Option::take) {
                let _ = idle.shutdown(Shutdown::Both);
            }
        }
        drop(state);
        pool.ready.notify_one();
    }
}

/// What the client helpers return for one exchange: status code,
/// headers (names lower-cased) and the UTF-8 body.
pub type HttpResponse = (u16, Vec<(String, String)>, String);

/// Reads one HTTP response off `reader`: status code, headers (names
/// lower-cased) and body. Bytes after a `Content-Length` body stay in
/// `reader`, so the next response on a kept-alive connection can be
/// read the same way.
///
/// Malformed status lines fail with a typed
/// [`io::ErrorKind::InvalidData`] error naming the offending line
/// (never a silently degraded code), and a response that declares
/// `Content-Length` is read to exactly that many bytes — no waiting for
/// EOF, so a keep-alive server that never closes cannot park the client
/// on its read timeout. Without `Content-Length` the body runs to EOF
/// (close-delimited), with a read timeout treated as end of body.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<HttpResponse> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let line = status_line.trim_end();
    let code: u16 = match line.strip_prefix("HTTP/") {
        Some(_) => line.split_whitespace().nth(1).and_then(|s| s.parse().ok()),
        None => None,
    }
    .ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad status line {line:?}"),
        )
    })?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "connection closed inside response headers",
            ));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let mut body = Vec::new();
    match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => {
            let length: usize = v.parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unparseable content-length {v:?}"),
                )
            })?;
            body.resize(length, 0);
            reader.read_exact(&mut body).map_err(|e| {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("response body shorter than its declared {length} bytes"),
                    )
                } else {
                    e
                }
            })?;
        }
        None => {
            // Close-delimited body: EOF ends it; a stalling keep-alive
            // server ends it at the read timeout with what arrived.
            if let Err(e) = reader.read_to_end(&mut body) {
                if !matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) {
                    return Err(e);
                }
            }
        }
    }
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response body is not UTF-8"))?;
    Ok((code, headers, body))
}

/// Writes one `method path` request to `addr` with an exact
/// `Content-Length`, plus `headers` and, unless `keep_alive`,
/// `Connection: close`. Head and body go out in one write, for the
/// reason [`write_response`] gives.
pub fn write_request(
    stream: &mut impl Write,
    addr: &SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut out = Vec::with_capacity(256 + body.len());
    write!(out, "{method} {path} HTTP/1.1\r\nHost: {addr}\r\n")?;
    if !keep_alive {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    for (name, value) in headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    write!(out, "Content-Length: {}\r\n\r\n", body.len())?;
    out.extend_from_slice(body);
    stream.write_all(&out)?;
    stream.flush()
}

/// Issues one `method path` request against `addr` with `Connection:
/// close`, a 2-second connect/read/write timeout, and returns
/// `(status, headers, body)` via [`read_response`].
pub fn http_request(
    addr: &SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, String)],
    body: &[u8],
) -> io::Result<HttpResponse> {
    let timeout = Duration::from_secs(2);
    let mut stream = TcpStream::connect_timeout(addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write_request(&mut stream, addr, method, path, headers, body, false)?;
    read_response(&mut BufReader::new(stream))
}

/// [`http_request`] for `POST` with a string body — the shape every
/// gateway client (tests, serve-http self-drive) uses.
pub fn http_post(
    addr: &SocketAddr,
    path: &str,
    headers: &[(&str, String)],
    body: &str,
) -> io::Result<HttpResponse> {
    http_request(addr, "POST", path, headers, body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(text: &str, limits: &HttpLimits) -> Result<HttpRequest, HttpError> {
        read_request(&mut Cursor::new(text.as_bytes()), limits)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            "POST /v1/query HTTP/1.1\r\nHost: x\r\nAuthorization: Bearer t\r\nContent-Length: 4\r\n\r\nabcd",
            &HttpLimits::default(),
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/query");
        assert_eq!(req.header("authorization"), Some("Bearer t"));
        assert_eq!(req.header("AUTHORIZATION"), Some("Bearer t"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn rejects_garbage_request_lines() {
        for garbage in ["\r\n", "GET\r\n", "GET /x NOTHTTP\r\n"] {
            let text = format!("{garbage}\r\n");
            assert!(
                matches!(
                    parse(&text, &HttpLimits::default()),
                    Err(HttpError::Malformed(_))
                ),
                "{garbage:?}"
            );
        }
    }

    #[test]
    fn rejects_oversized_heads_without_buffering_them() {
        let limits = HttpLimits {
            max_head: 64,
            max_body: 1024,
        };
        // One endless request line.
        let text = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(1000));
        assert!(matches!(
            parse(&text, &limits),
            Err(HttpError::HeadTooLarge { .. })
        ));
        // Many small headers summing past the budget.
        let mut text = String::from("GET / HTTP/1.1\r\n");
        for i in 0..50 {
            text.push_str(&format!("x-h{i}: v\r\n"));
        }
        text.push_str("\r\n");
        assert!(matches!(
            parse(&text, &limits),
            Err(HttpError::HeadTooLarge { .. })
        ));
    }

    #[test]
    fn rejects_oversized_bodies_by_declared_length() {
        let limits = HttpLimits {
            max_head: 1024,
            max_body: 8,
        };
        let text = "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        match parse(text, &limits) {
            Err(HttpError::BodyTooLarge {
                limit: 8,
                length: 9,
            }) => {}
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncated_bodies() {
        let text = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(
            parse(text, &HttpLimits::default()),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn keep_alive_needs_http_1_1_without_connection_close() {
        let keep = |head: &str| {
            parse(&format!("{head}\r\n\r\n"), &HttpLimits::default())
                .unwrap()
                .keep_alive()
        };
        assert!(keep("GET / HTTP/1.1"));
        assert!(keep("GET / HTTP/1.1\r\nConnection: keep-alive"));
        assert!(!keep("GET / HTTP/1.1\r\nConnection: close"));
        assert!(!keep("GET / HTTP/1.1\r\nConnection: Upgrade, Close"));
        assert!(!keep("GET / HTTP/1.0"));
        assert!(!keep("GET / HTTP/1.0\r\nConnection: keep-alive"));
    }

    #[test]
    fn responses_go_out_in_one_write() {
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for keep_alive in [true, false] {
            let mut out = Writes(Vec::new());
            let extra = [("Retry-After", "3".to_string())];
            write_response(
                &mut out,
                429,
                "text/plain",
                &extra,
                b"slow down",
                keep_alive,
            )
            .unwrap();
            assert_eq!(out.0.len(), 1, "head and body in one write");
            let text = String::from_utf8(out.0.remove(0)).unwrap();
            assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
            assert!(text.contains("\r\nContent-Length: 9\r\n"));
            assert!(text.contains("\r\nRetry-After: 3\r\n"));
            assert!(text.ends_with("\r\n\r\nslow down"));
            assert_eq!(text.contains("\r\nConnection: close\r\n"), !keep_alive);
        }
    }

    #[test]
    fn wake_addr_is_loopback_of_an_unspecified_bind() {
        let wake = |bound: &str| wake_addr(bound.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:8080"), "127.0.0.1:8080");
        assert_eq!(wake("[::]:8080"), "[::1]:8080");
        assert_eq!(wake("10.1.2.3:8080"), "10.1.2.3:8080");
        assert_eq!(wake("127.0.0.1:9"), "127.0.0.1:9");
    }

    #[test]
    fn http_error_statuses() {
        assert_eq!(
            HttpError::Malformed(String::new()).status(),
            Some((400, "Bad Request"))
        );
        assert_eq!(
            HttpError::HeadTooLarge { limit: 1 }.status().map(|s| s.0),
            Some(431)
        );
        assert_eq!(
            HttpError::BodyTooLarge {
                limit: 1,
                length: 2
            }
            .status()
            .map(|s| s.0),
            Some(413)
        );
        assert_eq!(HttpError::Timeout.status().map(|s| s.0), Some(408));
        assert!(HttpError::Io(io::Error::other("x")).status().is_none());
        // Display stays informative for the error bodies.
        assert!(HttpError::BodyTooLarge {
            limit: 8,
            length: 9
        }
        .to_string()
        .contains('9'));
    }
}
