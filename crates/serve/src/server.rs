//! Dependency-free HTTP/1.1 server on `std::net::TcpListener`.
//!
//! Serving is split between one **reactor** thread and a fixed worker
//! pool (see the crate-private `reactor` module): the reactor multiplexes
//! every connection over a readiness poller (`poll`, epoll on Linux,
//! kqueue on the BSDs/macOS), frames requests incrementally off
//! non-blocking sockets, and hands each completed request to the pool;
//! a worker is busy only while a request executes. Thousands of mostly
//! idle keep-alive connections therefore coexist with a handful of
//! workers — connection count is bounded by fds and memory, not threads.
//!
//! ## Connection semantics
//!
//! * HTTP/1.1 requests default to **keep-alive**; HTTP/1.0 requests default
//!   to close (opt in with `Connection: keep-alive`). A `Connection: close`
//!   request header is honored, and every response states its decision
//!   (`Connection: keep-alive` + `Keep-Alive: timeout=…, max=…`, or
//!   `Connection: close`).
//! * **Pipelined** requests on one socket are answered strictly in order:
//!   a connection dispatches one request at a time, and bytes the client
//!   sent ahead wait in its read buffer until the response is flushed.
//! * Two read timeouts: [`ServerConfig::idle_timeout`] while waiting for
//!   a request to *begin* (expiry = normal end of a kept-alive connection,
//!   closed without fuss); once its first byte arrives, the whole request
//!   — header section and body — must land within
//!   [`ServerConfig::read_timeout`] (a deadline, so a byte-at-a-time
//!   drip-feed cannot hold the connection open: `408` and close).
//! * A connection is closed after [`ServerConfig::max_requests_per_connection`]
//!   requests (the last response says `Connection: close`).
//! * **Backpressure**: at most [`ServerConfig::max_connections`] connections
//!   are admitted at once; beyond that the connection gets
//!   `503 Service Unavailable` with a `Retry-After` header and is closed.
//!   Rejections are ordinary buffered non-blocking writes on the reactor
//!   (no thread is spawned and `accept` never stalls behind a slow
//!   rejected client); past the reactor's pending-reject bound, excess
//!   connections are dropped unanswered.
//! * A parsed request that sits **queued at the worker pool** longer than
//!   the idle timeout is answered `408` at pickup instead of being served
//!   stale to a client that has likely given up.
//! * `Expect: 100-continue` is honored: once a request's headers pass the
//!   framing checks, `100 Continue` is written before the body is read, so
//!   clients that wait for permission before sending a large `/score` body
//!   don't stall for their continue-timeout. Requests rejected on headers
//!   alone (oversize `Content-Length`, …) get the final status instead;
//!   other `Expect` values are answered `417`.
//!
//! Framing failures (malformed request line, duplicate `Content-Length`,
//! header section over [`MAX_HEADER_BYTES`]/[`MAX_HEADER_COUNT`], oversize
//! or non-UTF-8 bodies, any transfer encoding) are answered on the
//! wire and recorded under the synthetic [`HTTP_PARSE_ENDPOINT`] metrics
//! label — they never reach the router. A peer that connects and closes
//! without sending a request (health probes, the normal end of every
//! keep-alive connection) is a clean close, not an error.
//!
//! Shutdown: flip an atomic flag, then write one byte to the reactor's
//! waker pipe; the reactor closes the listener and idle connections, lets
//! in-flight responses drain under their write deadlines, and drops the
//! job channel so the workers exit.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::reactor;
use crate::router::Router;

/// Metrics endpoint label for requests rejected by the HTTP layer before
/// the router runs (framing/parse failures).
pub const HTTP_PARSE_ENDPOINT: &str = "http_parse";

/// Cap on the request header section (request line + headers), bytes.
pub const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Cap on the number of request headers.
pub const MAX_HEADER_COUNT: usize = 100;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Request-executing worker threads. Sizes CPU-bound request
    /// execution only — open connections cost the reactor an fd and a
    /// buffer, never a worker.
    pub workers: usize,
    /// In-request deadline: once the first byte of a request line arrives,
    /// the full request (headers + body) must arrive within this long —
    /// otherwise `408` and close. A deadline rather than a per-read
    /// timeout, so trickling one byte per read cannot hold the connection
    /// open. Responses (and rejections) get a deadline of the same length
    /// for their writes.
    pub read_timeout: Duration,
    /// Keep-alive idle timeout: how long a connection may sit between
    /// requests before the server closes it.
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server closes it.
    pub max_requests_per_connection: usize,
    /// Per-client fairness: the size of each remote IP's token bucket
    /// (its connection burst allowance). `0` disables per-client
    /// throttling. The global [`ServerConfig::max_connections`] budget is
    /// first-come-first-served, so without a bucket one chatty client
    /// opening connections in a tight loop can drain it and starve
    /// everyone else; with a bucket, each accepted connection spends one
    /// token and an empty bucket answers `429 Too Many Requests` with
    /// `Retry-After` (counted in `kg_serve_throttled_connections_total`).
    pub client_bucket_size: u32,
    /// Tokens returned to each client's bucket per second (sustained
    /// connections-per-second allowance once the burst is spent).
    pub client_bucket_refill_per_sec: f64,
    /// Concurrent connections admitted by the reactor; beyond this the
    /// connection gets 503 with `Retry-After` and is closed.
    ///
    /// Independent of [`ServerConfig::workers`]: an admitted connection
    /// costs a file descriptor, a slab entry, and two small buffers — not
    /// a thread — so the default comfortably absorbs thousands of mostly
    /// idle keep-alive peers on a small pool. Size it against the
    /// process's fd limit (`ulimit -n`, leaving headroom for model files
    /// and gateway backends) and memory, not against the worker count;
    /// what bounds *concurrent execution* is `workers`, and what bounds
    /// per-request queueing is the idle-timeout staleness check at
    /// dispatch.
    pub max_connections: usize,
    /// `Retry-After` seconds advertised on 503 rejections.
    pub retry_after_secs: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: kg_core::parallel::default_threads(),
            read_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_connection: 1024,
            client_bucket_size: 0,
            client_bucket_refill_per_sec: 8.0,
            // Decoupled from the pool (connections are reactor state, not
            // worker threads); see the field docs for sizing guidance.
            max_connections: 4096,
            retry_after_secs: 1,
        }
    }
}

/// A running server; dropping the handle leaves it running (detached) —
/// call [`ServerHandle::shutdown`] for an orderly stop.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    waker: Arc<reactor::Waker>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight responses, and join every thread.
    /// Idle kept-alive connections are closed immediately; dispatched
    /// requests finish and their responses flush under the usual write
    /// deadlines.
    pub fn shutdown(mut self) {
        // ORDERING: SeqCst deliberately — shutdown is a once-per-process
        // cold path, and the flag must be globally visible before the
        // waker byte lifts the reactor out of its poll wait.
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Bind and start serving `router`: one reactor thread plus
/// [`ServerConfig::workers`] request executors.
pub fn serve(router: Router, config: &ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let metrics = Arc::clone(router.metrics());
    let (reactor, workers, waker) =
        reactor::spawn(listener, Arc::new(router), metrics, Arc::clone(&stop), config)?;
    Ok(ServerHandle { addr, stop, reactor: Some(reactor), workers, waker })
}

/// Per-client token buckets keyed by remote IP — the fairness gate in
/// front of the global connection budget. Owned by the reactor thread
/// alone (no locking): each accepted connection spends one token from its
/// client's bucket, refilled continuously at the configured rate.
pub(crate) struct ClientBuckets {
    size: f64,
    refill_per_sec: f64,
    buckets: std::collections::HashMap<std::net::IpAddr, (f64, Instant)>,
}

/// Distinct client IPs tracked before full buckets are pruned (bounds the
/// map against address-diverse scanners; a full bucket carries no state
/// worth keeping).
const MAX_TRACKED_CLIENTS: usize = 4096;

impl ClientBuckets {
    pub(crate) fn new(size: u32, refill_per_sec: f64) -> Option<Self> {
        (size > 0).then(|| ClientBuckets {
            size: f64::from(size),
            refill_per_sec: refill_per_sec.max(0.0),
            buckets: std::collections::HashMap::new(),
        })
    }

    /// Spend one token for `ip`; `Ok(())` admits, `Err(retry_secs)`
    /// throttles with a suggested wait until a token is available.
    pub(crate) fn admit(&mut self, ip: std::net::IpAddr, now: Instant) -> Result<(), u64> {
        if self.buckets.len() >= MAX_TRACKED_CLIENTS && !self.buckets.contains_key(&ip) {
            self.prune(now);
        }
        let (tokens, last) = self.buckets.entry(ip).or_insert((self.size, now));
        let refilled = (*tokens
            + now.saturating_duration_since(*last).as_secs_f64() * self.refill_per_sec)
            .min(self.size);
        *last = now;
        if refilled >= 1.0 {
            *tokens = refilled - 1.0;
            Ok(())
        } else {
            *tokens = refilled;
            let wait = if self.refill_per_sec > 0.0 {
                ((1.0 - refilled) / self.refill_per_sec).ceil() as u64
            } else {
                // Refill disabled: the burst is a hard cap for the
                // connection's lifetime; advertise a nominal second.
                1
            };
            Err(wait.max(1))
        }
    }

    /// Drop clients whose buckets have refilled to full — they are
    /// indistinguishable from never-seen clients.
    fn prune(&mut self, now: Instant) {
        let (size, rate) = (self.size, self.refill_per_sec);
        self.buckets.retain(|_, (tokens, last)| {
            *tokens + now.saturating_duration_since(*last).as_secs_f64() * rate < size
        });
        // Address-diverse flood: every bucket is mid-refill. Clear rather
        // than grow without bound — forgetting a throttle is cheaper than
        // an unbounded map.
        if self.buckets.len() >= MAX_TRACKED_CLIENTS {
            self.buckets.clear();
        }
    }
}

/// Counting semaphore for connection admission; a permit is held from
/// accept until the reactor drops the connection.
pub(crate) struct ConnectionBudget {
    available: AtomicUsize,
}

impl ConnectionBudget {
    pub(crate) fn new(permits: usize) -> Arc<Self> {
        Arc::new(ConnectionBudget { available: AtomicUsize::new(permits.max(1)) })
    }

    pub(crate) fn try_acquire(self: &Arc<Self>) -> Option<ConnectionPermit> {
        self.available
            // ORDERING: AcqRel on success pairs with the Release half of
            // the drop's fetch_add — acquiring a permit happens-after the
            // release that freed it, so permit-guarded state hands off
            // cleanly.
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .ok()
            .map(|_| ConnectionPermit { budget: Arc::clone(self) })
    }
}

pub(crate) struct ConnectionPermit {
    budget: Arc<ConnectionBudget>,
}

impl Drop for ConnectionPermit {
    fn drop(&mut self) {
        // ORDERING: AcqRel — the Release half publishes this connection's
        // teardown to the next `try_acquire`; see above.
        self.budget.available.fetch_add(1, Ordering::AcqRel);
    }
}

pub(crate) fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        417 => "Expectation Failed",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::http_metrics::HttpMetrics;
    use crate::registry::ModelRegistry;
    use crate::router::MAX_BODY_BYTES;
    use kg_core::{FilterIndex, Triple};
    use kg_models::{build_model, KgcModel, ModelKind};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn registry() -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new());
        let model = build_model(ModelKind::TransE, 12, 2, 8, 1);
        let triples = [Triple::new(0, 0, 1), Triple::new(1, 1, 2)];
        let filter = Arc::new(FilterIndex::from_slices(&[&triples]));
        registry.register("m", Arc::from(model as Box<dyn KgcModel>), filter);
        registry
    }

    fn running_server_with(config: &ServerConfig) -> (ServerHandle, Arc<HttpMetrics>) {
        let registry = registry();
        let metrics = Arc::clone(registry.metrics());
        let router = Router::new(registry);
        (serve(router, config).unwrap(), metrics)
    }

    fn running_server() -> ServerHandle {
        running_server_with(&ServerConfig { workers: 2, ..Default::default() }).0
    }

    /// Send raw bytes on a fresh connection and read until the peer closes.
    fn raw_roundtrip(addr: SocketAddr, bytes: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(bytes).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    }

    #[test]
    fn serves_healthz_and_shuts_down() {
        let server = running_server();
        let (status, body) = client::get(server.addr(), "/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""));
        server.shutdown();
    }

    #[test]
    fn rejects_malformed_requests_without_dying() {
        let server = running_server();
        // Raw garbage instead of HTTP.
        let out = raw_roundtrip(server.addr(), b"GARBAGE\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 400"), "got: {out}");
        // Server still alive afterwards.
        let (status, _) = client::get(server.addr(), "/healthz").unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn oversized_body_gets_413_at_the_http_layer() {
        let server = running_server();
        // Announce an oversize body without sending it; the server must
        // reject on the header alone with the API's 413, not a generic 400.
        let head =
            format!("POST /score HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let out = raw_roundtrip(server.addr(), head.as_bytes());
        assert!(out.starts_with("HTTP/1.1 413"), "got: {out}");
        server.shutdown();
    }

    #[test]
    fn chunked_transfer_encoding_is_rejected_with_501() {
        let server = running_server();
        let out = raw_roundtrip(
            server.addr(),
            b"POST /score HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        );
        assert!(out.starts_with("HTTP/1.1 501"), "got: {out}");
        server.shutdown();
    }

    #[test]
    fn duplicate_content_length_is_rejected_not_last_wins() {
        let (server, metrics) =
            running_server_with(&ServerConfig { workers: 2, ..Default::default() });
        // Conflicting lengths: two framings of the same byte stream.
        let out = raw_roundtrip(
            server.addr(),
            b"POST /score HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nhello",
        );
        assert!(out.starts_with("HTTP/1.1 400"), "got: {out}");
        assert!(out.contains("duplicate Content-Length"), "got: {out}");
        // Even *identical* repeats are rejected: no downstream party should
        // have to guess which header framed the body.
        let out = raw_roundtrip(
            server.addr(),
            b"POST /score HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
        );
        assert!(out.starts_with("HTTP/1.1 400"), "got: {out}");
        // Both rejections were recorded under the synthetic parse label.
        assert_eq!(metrics.value("kg_serve_requests_total", &[HTTP_PARSE_ENDPOINT]), Some(2.0));
        server.shutdown();
    }

    #[test]
    fn whitespace_before_header_colon_is_rejected() {
        let server = running_server();
        // "Content-Length :" must not be silently dropped (0-byte framing)
        // while a normalizing intermediary would honor it — reject instead.
        let out = raw_roundtrip(
            server.addr(),
            b"POST /score HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello",
        );
        assert!(out.starts_with("HTTP/1.1 400"), "got: {out}");
        assert!(out.contains("whitespace before header colon"), "got: {out}");
        server.shutdown();
    }

    #[test]
    fn obsolete_header_folding_is_rejected() {
        let server = running_server();
        // A continuation line that a folding-aware peer would merge into
        // the previous header must not be silently dropped here.
        let out = raw_roundtrip(
            server.addr(),
            b"POST /score HTTP/1.1\r\nX-A: 1\r\n Content-Length: 999\r\n\r\n",
        );
        assert!(out.starts_with("HTTP/1.1 400"), "got: {out}");
        assert!(out.contains("folding"), "got: {out}");
        server.shutdown();
    }

    #[test]
    fn any_transfer_encoding_is_rejected_with_501() {
        let server = running_server();
        // Not just chunked: every coding we don't implement must 501, or
        // the body would be framed differently than a TE-aware peer does.
        let out = raw_roundtrip(
            server.addr(),
            b"POST /score HTTP/1.1\r\nTransfer-Encoding: gzip\r\nContent-Length: 5\r\n\r\nhello",
        );
        assert!(out.starts_with("HTTP/1.1 501"), "got: {out}");
        server.shutdown();
    }

    #[test]
    fn leading_crlf_before_a_request_line_is_tolerated() {
        let server = running_server();
        // RFC 9112 §2.2 — a stray CRLF (hand-rolled clients emit these
        // after bodies) must not poison the next request on the stream.
        let out =
            raw_roundtrip(server.addr(), b"\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200"), "got: {out}");
        // … but a stream of nothing-but-CRLFs is still malformed.
        let out = raw_roundtrip(server.addr(), b"\r\n\r\n\r\n\r\n\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 400"), "got: {out}");
        server.shutdown();
    }

    #[test]
    fn content_length_must_be_digits_only() {
        let server = running_server();
        // `"+5".parse::<usize>()` succeeds, but an intermediary may frame
        // the non-canonical value differently — reject like a duplicate.
        for bad in ["+5", "-1", "5 5", "0x5", ""] {
            let head = format!("POST /score HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nhello");
            let out = raw_roundtrip(server.addr(), head.as_bytes());
            assert!(out.starts_with("HTTP/1.1 400"), "Content-Length {bad:?} got: {out}");
        }
        server.shutdown();
    }

    #[test]
    fn header_section_limits_are_enforced_with_431() {
        let server = running_server();
        // Too many headers.
        let mut many = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..(MAX_HEADER_COUNT + 1) {
            many.push_str(&format!("X-Flood-{i}: 1\r\n"));
        }
        many.push_str("\r\n");
        let out = raw_roundtrip(server.addr(), many.as_bytes());
        assert!(out.starts_with("HTTP/1.1 431"), "got: {out}");
        assert!(out.contains("Request Header Fields Too Large"), "reason phrase: {out}");
        // One enormous header blowing the byte budget (never buffered
        // whole: the parser rejects as soon as the budget is hit).
        let huge = format!(
            "GET /healthz HTTP/1.1\r\nX-Huge: {}\r\n\r\n",
            "a".repeat(MAX_HEADER_BYTES + 1024)
        );
        let out = raw_roundtrip(server.addr(), huge.as_bytes());
        assert!(out.starts_with("HTTP/1.1 431"), "got: {out}");
        server.shutdown();
    }

    #[test]
    fn bare_connect_disconnect_is_a_clean_close() {
        let (server, metrics) =
            running_server_with(&ServerConfig { workers: 1, ..Default::default() });
        // A peer that connects and closes without sending anything (TCP
        // health probe) must not be counted as a malformed request.
        for _ in 0..3 {
            drop(TcpStream::connect(server.addr()).unwrap());
        }
        // Follow-up request proves the server survived the probes.
        let (status, _) = client::get(server.addr(), "/healthz").unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            metrics.value("kg_serve_requests_total", &[HTTP_PARSE_ENDPOINT]),
            None,
            "clean closes must not be recorded as parse errors"
        );
        server.shutdown();
    }

    #[test]
    fn post_roundtrip_over_the_wire() {
        let server = running_server();
        let (status, body) =
            client::post_json(server.addr(), "/score", r#"{"model":"m","triples":[[0,1,2]]}"#)
                .unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"scores\""));
        server.shutdown();
    }

    #[test]
    fn keep_alive_connection_serves_sequential_requests() {
        let (server, metrics) =
            running_server_with(&ServerConfig { workers: 2, ..Default::default() });
        let mut conn = client::Connection::open(server.addr()).unwrap();
        for i in 0..5 {
            let (status, body) = conn.get("/healthz").unwrap();
            assert_eq!(status, 200, "request {i}: {body}");
        }
        assert!(!conn.server_closed(), "server must keep the connection open");
        let reuses = metrics.value("kg_serve_keepalive_reuses_total", &[]);
        assert_eq!(reuses, Some(4.0), "requests 2..=5 are reuses");
        drop(conn);
        server.shutdown();
    }

    #[test]
    fn http10_defaults_to_close_and_11_to_keep_alive() {
        let server = running_server();
        // HTTP/1.0 without Connection: keep-alive → server closes (the
        // read_to_string below returning proves the close happened).
        let out = raw_roundtrip(server.addr(), b"GET /healthz HTTP/1.0\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200"), "got: {out}");
        assert!(out.contains("Connection: close"), "1.0 defaults to close: {out}");
        // HTTP/1.1 → keep-alive advertised; close our end to finish.
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = [0u8; 4096];
        let n = s.read(&mut buf).unwrap();
        let out = String::from_utf8_lossy(&buf[..n]).to_string();
        assert!(out.contains("Connection: keep-alive"), "1.1 defaults to keep-alive: {out}");
        assert!(out.contains("Keep-Alive: timeout="), "advertises the idle timeout: {out}");
        drop(s);
        server.shutdown();
    }

    #[test]
    fn drip_fed_requests_hit_the_in_request_deadline() {
        let (server, metrics) = running_server_with(&ServerConfig {
            workers: 1,
            read_timeout: Duration::from_millis(200),
            ..Default::default()
        });
        let mut s = TcpStream::connect(server.addr()).unwrap();
        // A byte every 25 ms resets any per-read socket timeout forever;
        // only the whole-request deadline can end this.
        let started = Instant::now();
        for &b in b"GET /healthz HTTP/1.1\r\nX-Slow: aaaaaaaaaaaaaaaaaaaaaaaa" {
            if s.write_all(&[b]).is_err() {
                break; // server already hung up on us — that's the point
            }
            std::thread::sleep(Duration::from_millis(25));
            if started.elapsed() > Duration::from_secs(3) {
                break;
            }
        }
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 408"), "got: {out}");
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "the deadline, not the drip length, must bound the connection"
        );
        assert_eq!(metrics.value("kg_serve_requests_total", &[HTTP_PARSE_ENDPOINT]), Some(1.0));
        server.shutdown();
    }

    #[test]
    fn pipeline_returns_partial_results_when_the_cap_closes_the_connection() {
        let (server, _) = running_server_with(&ServerConfig {
            workers: 1,
            max_requests_per_connection: 2,
            ..Default::default()
        });
        let mut conn = client::Connection::open(server.addr()).unwrap();
        let requests: Vec<(&str, &str, Option<&str>)> =
            (0..4).map(|_| ("GET", "/healthz", None)).collect();
        let responses = conn.pipeline(&requests).unwrap();
        assert_eq!(responses.len(), 2, "the cap allows exactly two answered requests");
        assert!(responses.iter().all(|(status, _)| *status == 200));
        assert!(conn.server_closed(), "the second response carried Connection: close");
        server.shutdown();
    }

    #[test]
    fn idle_connections_do_not_pin_workers() {
        // One worker, several idle keep-alive connections: under the old
        // thread-per-connection model the first idler would own the worker
        // for its whole life and everyone else would starve. The reactor
        // keeps idle connections as slab state, so a single worker serves
        // any of them — and fresh connections — the moment a request
        // actually arrives.
        let (server, _) = running_server_with(&ServerConfig { workers: 1, ..Default::default() });
        let mut idlers: Vec<client::Connection> =
            (0..3).map(|_| client::Connection::open(server.addr()).unwrap()).collect();
        for (i, conn) in idlers.iter_mut().enumerate() {
            let (status, body) = conn.get("/healthz").unwrap();
            assert_eq!(status, 200, "idler {i}: {body}");
        }
        // A brand-new connection is served while the three idlers stay
        // open and parked.
        let (status, _) = client::get(server.addr(), "/healthz").unwrap();
        assert_eq!(status, 200, "a new client must not starve behind idle keep-alives");
        // The idlers are still usable afterwards.
        for (i, conn) in idlers.iter_mut().enumerate() {
            let (status, _) = conn.get("/healthz").unwrap();
            assert_eq!(status, 200, "idler {i} after interleaved traffic");
            assert!(!conn.server_closed(), "idler {i} must stay open");
        }
        server.shutdown();
    }

    #[test]
    fn requests_under_load_are_served_without_spurious_408s() {
        // A second connection's request lands while another connection is
        // active on the only worker; the dispatch-queue staleness check
        // must not misfire on this ordinary briefly-queued request. (The
        // stale-dispatch 408 itself is unit-tested in `reactor::tests`,
        // where the queue wait can be fabricated.)
        let (server, metrics) = running_server_with(&ServerConfig {
            workers: 1,
            idle_timeout: Duration::from_secs(5),
            ..Default::default()
        });
        let mut held = client::Connection::open(server.addr()).unwrap();
        held.get("/healthz").unwrap();
        let mut queued = TcpStream::connect(server.addr()).unwrap();
        queued.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(100));
        drop(held);
        let mut out = String::new();
        queued.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = queued.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 200"), "brief queueing must not 408: {out}");
        assert_eq!(metrics.value("kg_serve_requests_total", &[HTTP_PARSE_ENDPOINT]), None);
        server.shutdown();
    }

    #[test]
    fn expect_100_continue_gets_an_interim_response_before_the_body() {
        let server = running_server();
        let body = r#"{"model":"m","triples":[[0,1,2]]}"#;
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let head = format!(
            "POST /score HTTP/1.1\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nExpect: 100-continue\r\nConnection: close\r\n\r\n",
            body.len()
        );
        s.write_all(head.as_bytes()).unwrap();
        // The interim response must arrive although no body byte was sent
        // (pre-fix the server sat waiting for the body instead).
        let mut interim = Vec::new();
        let mut byte = [0u8; 1];
        while !interim.ends_with(b"\r\n\r\n") {
            s.read_exact(&mut byte).expect("100 Continue must arrive before the body is sent");
            interim.extend_from_slice(&byte);
            assert!(interim.len() < 256, "interim response unreasonably large");
        }
        let interim = String::from_utf8(interim).unwrap();
        assert!(interim.starts_with("HTTP/1.1 100 Continue\r\n"), "got: {interim}");
        // Now ship the body and read the final response.
        s.write_all(body.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200"), "got: {out}");
        assert!(out.contains("\"scores\""), "got: {out}");
        server.shutdown();
    }

    #[test]
    fn expect_100_continue_is_rejected_early_with_the_final_status() {
        let server = running_server();
        // Oversize announcement: the server must answer 413 immediately,
        // never 100 — the client keeps its megabytes.
        let head = format!(
            "POST /score HTTP/1.1\r\nContent-Length: {}\r\nExpect: 100-continue\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let out = raw_roundtrip(server.addr(), head.as_bytes());
        assert!(out.starts_with("HTTP/1.1 413"), "got: {out}");
        assert!(!out.contains("100 Continue"), "no interim response on rejection: {out}");
        // Unknown expectations are answered 417.
        let out = raw_roundtrip(
            server.addr(),
            b"POST /score HTTP/1.1\r\nExpect: x-make-it-fast\r\nContent-Length: 2\r\n\r\n{}",
        );
        assert!(out.starts_with("HTTP/1.1 417"), "got: {out}");
        assert!(out.contains("Expectation Failed"), "reason phrase: {out}");
        server.shutdown();
    }

    #[test]
    fn client_expect_continue_handshake_matches_plain_post() {
        let server = running_server();
        let body = r#"{"model":"m","triples":[[0,1,2],[3,0,4]]}"#;
        let (plain_status, plain_body) = client::post_json(server.addr(), "/score", body).unwrap();
        let mut conn = client::Connection::open(server.addr()).unwrap();
        let (status, got) = conn.post_json_expect_continue("/score", body).unwrap();
        assert_eq!((status, &got), (plain_status, &plain_body), "handshake changed the response");
        // The connection stays usable for further requests afterwards.
        let (status, _) = conn.get("/healthz").unwrap();
        assert_eq!(status, 200);
        // An empty body (no 100 will come) degrades to a plain request
        // without spending the connection.
        let (status, _) = conn.post_json_expect_continue("/score", "").unwrap();
        assert_eq!(status, 400, "empty body is a routing 400, not a handshake failure");
        assert!(!conn.server_closed(), "an empty-body handshake must not spend the socket");
        // A post-100 routing failure still round-trips normally.
        let (status, rejected) =
            conn.post_json_expect_continue("/score", "not json at all").unwrap();
        assert_eq!(status, 400, "{rejected}");
        drop(conn);
        // Early rejection path: the headers alone draw the final status,
        // the interim 100 never comes, and the huge body is never sent.
        let mut conn = client::Connection::open(server.addr()).unwrap();
        let huge = "x".repeat(MAX_BODY_BYTES + 1);
        let (status, rejected) = conn.post_json_expect_continue("/score", &huge).unwrap();
        assert_eq!(status, 413, "{rejected}");
        assert!(conn.server_closed(), "an announced-but-unsent body spends the connection");
        drop(conn);
        server.shutdown();
    }

    #[test]
    fn chatty_clients_are_throttled_with_429_and_recover_on_refill() {
        let (server, metrics) = running_server_with(&ServerConfig {
            workers: 2,
            client_bucket_size: 3,
            client_bucket_refill_per_sec: 2.0,
            ..Default::default()
        });
        // The burst allowance admits the first three connections …
        for i in 0..3 {
            let (status, _) = client::get(server.addr(), "/healthz").unwrap();
            assert_eq!(status, 200, "burst connection {i}");
        }
        // … the fourth (opened immediately) is throttled at the door.
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 429 Too Many Requests"), "got: {out}");
        assert!(out.contains("Retry-After:"), "advertises a wait: {out}");
        assert!(out.contains("client connection budget"), "names the bucket: {out}");
        assert_eq!(metrics.value("kg_serve_throttled_connections_total", &[]), Some(1.0));
        assert_eq!(
            metrics.value("kg_serve_rejected_connections_total", &[]),
            Some(0.0),
            "throttling is per-client fairness, not the global 503 budget"
        );
        // Refill restores service for the same client.
        let mut ok = false;
        for _ in 0..50 {
            std::thread::sleep(Duration::from_millis(50));
            if let Ok((200, _)) = client::get(server.addr(), "/healthz") {
                ok = true;
                break;
            }
        }
        assert!(ok, "the bucket must refill at the configured rate");
        server.shutdown();
    }

    #[test]
    fn token_bucket_math_admits_bursts_and_meters_sustained_rates() {
        let ip: std::net::IpAddr = "10.0.0.1".parse().unwrap();
        let other: std::net::IpAddr = "10.0.0.2".parse().unwrap();
        let t0 = Instant::now();
        let mut buckets = ClientBuckets::new(2, 1.0).unwrap();
        assert!(buckets.admit(ip, t0).is_ok());
        assert!(buckets.admit(ip, t0).is_ok(), "burst of bucket-size admits");
        let wait = buckets.admit(ip, t0).unwrap_err();
        assert!(wait >= 1, "empty bucket advertises a wait");
        // A different client is unaffected — that is the fairness point.
        assert!(buckets.admit(other, t0).is_ok());
        // One second later one token has returned — for one connection.
        let t1 = t0 + Duration::from_secs(1);
        assert!(buckets.admit(ip, t1).is_ok());
        assert!(buckets.admit(ip, t1).is_err(), "refill is metered, not a reset");
        // The bucket never overfills past its size.
        let t9 = t0 + Duration::from_secs(60);
        assert!(buckets.admit(ip, t9).is_ok());
        assert!(buckets.admit(ip, t9).is_ok());
        assert!(buckets.admit(ip, t9).is_err(), "long idling caps at the burst size");
        // Size 0 disables the gate entirely.
        assert!(ClientBuckets::new(0, 1.0).is_none());
    }

    #[test]
    fn max_requests_per_connection_is_enforced() {
        let (server, _) = running_server_with(&ServerConfig {
            workers: 1,
            max_requests_per_connection: 2,
            ..Default::default()
        });
        let mut conn = client::Connection::open(server.addr()).unwrap();
        let (s1, _) = conn.get("/healthz").unwrap();
        let (s2, _) = conn.get("/healthz").unwrap();
        assert_eq!((s1, s2), (200, 200));
        assert!(conn.server_closed(), "second response must carry Connection: close");
        assert!(conn.get("/healthz").is_err(), "third request has no connection to use");
        server.shutdown();
    }
}
