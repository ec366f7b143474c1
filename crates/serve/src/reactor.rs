//! Readiness-based serving core: one reactor thread multiplexes every
//! connection over [`crate::poll::Poller`] (epoll/kqueue, level-triggered),
//! and pool workers are busy only while a fully parsed request executes.
//!
//! The shape is the classic single-threaded event loop feeding a worker
//! pool:
//!
//! * The reactor owns the non-blocking listener, a waker pipe, and a slab
//!   of per-connection state machines. Each connection moves through
//!   `Reading → Dispatched → Writing → (Reading | Lingering)`: bytes are
//!   buffered and framed incrementally by [`Parser`], a completed request
//!   is handed to the pool, the encoded response is flushed with
//!   partial-write resumption, and a kept-alive connection goes back to
//!   `Reading` (pipelined bytes already buffered are parsed immediately,
//!   preserving in-order responses).
//! * Workers block on one shared job queue. They run the router, encode
//!   the full wire response, and post a [`Completion`] back; a one-byte
//!   write to the waker pipe lifts the reactor out of `wait`.
//! * Deadlines (idle, in-request, write, linger) live in one binary heap
//!   keyed by `(Instant, seq)` with lazy invalidation — re-arming a
//!   connection just bumps its sequence number; stale heap entries are
//!   skipped when they surface.
//!
//! Everything observable about the protocol — status codes, error bodies,
//! header order, `Keep-Alive` advertisements, `Expect: 100-continue`
//! interim responses, lingering close — is byte-identical to the previous
//! blocking implementation; the tests pinning those semantics live in
//! `server.rs` and `tests/serve_http.rs` and run unchanged.

use std::collections::BinaryHeap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http_metrics::{Family, HttpMetrics};
use crate::poll::{Interest, Poller};
use crate::router::{Response, Router, MAX_BODY_BYTES};
use crate::server::{
    reason_phrase, ClientBuckets, ConnectionBudget, ConnectionPermit, ServerConfig,
    HTTP_PARSE_ENDPOINT, MAX_HEADER_BYTES, MAX_HEADER_COUNT,
};

/// Per-`read(2)` scratch size; also bounds the linger drain chunk.
const READ_CHUNK: usize = 8 * 1024;
/// A closing connection drains at most this many unread client bytes
/// (pipelined requests past the cap, a rejected request's body) before the
/// socket is dropped — enough to avoid an RST discarding the queued
/// response, bounded so a hostile client cannot hold reactor attention.
const LINGER_DRAIN_BYTES: usize = 32 * 1024;
/// How long a lingering connection may keep its slot.
const LINGER_TIMEOUT: Duration = Duration::from_millis(100);
/// Write deadline for 429/503 rejection responses (the old rejection
/// threads used the same one-second bound as a socket write timeout).
const REJECT_WRITE_TIMEOUT: Duration = Duration::from_secs(1);
/// Rejection responses in flight are capped; past the cap a refused
/// connection is dropped unanswered, so a rejection storm cannot grow the
/// slab without limit. Replaces the old `MAX_INFLIGHT_REJECTS` thread cap.
pub(crate) const MAX_PENDING_REJECTS: usize = 1024;

/// Poll token for the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Poll token for the read end of the waker pipe.
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// Slab tokens pack `(generation << 32) | slot`, so an event for a closed
/// and reused slot never reaches the wrong connection.
fn token(slot: u32, gen: u32) -> u64 {
    (u64::from(gen) << 32) | u64::from(slot)
}

/// Wakes the reactor out of `Poller::wait` (workers after posting a
/// completion, `ServerHandle::shutdown` after raising the stop flag).
pub(crate) struct Waker {
    tx: UnixStream,
}

impl Waker {
    pub(crate) fn wake(&self) {
        // A full pipe means a wake-up is already pending and a broken one
        // means the reactor is gone — both are fine to ignore.
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// One framed request as the worker pool sees it.
struct Request {
    method: String,
    path: String,
    body: String,
    /// Whether the *request* permits keeping the connection open
    /// (HTTP/1.1 default, `Connection` header honored both ways).
    keep_alive: bool,
}

/// What the response tells the client about the connection's future.
enum ConnDirective {
    /// Stay open: advertise the idle timeout and how many more requests
    /// this connection may carry.
    KeepAlive { timeout_secs: u64, remaining: usize },
    /// Close after this response.
    Close,
}

/// A parsed request queued for the worker pool.
struct Job {
    slot: u32,
    gen: u32,
    request: Request,
    directive: ConnDirective,
    keep: bool,
    enqueued: Instant,
}

/// What a worker hands back to the reactor.
struct Completion {
    slot: u32,
    gen: u32,
    outcome: Outcome,
}

enum Outcome {
    /// Fully encoded wire bytes; `keep` says whether the connection
    /// returns to `Reading` after the flush or lingers to close.
    Respond { bytes: Vec<u8>, keep: bool },
    /// The handler panicked: close without a response (one connection
    /// lost, not one pool worker).
    Abort,
}

/// Encode a response exactly as the blocking server did: status line,
/// `Content-Type`, `Content-Length`, optional `Retry-After`, then the
/// connection directive.
fn encode_response(response: &Response, directive: &ConnDirective) -> Vec<u8> {
    let connection = match directive {
        ConnDirective::KeepAlive { timeout_secs, remaining } => format!(
            "Connection: keep-alive\r\nKeep-Alive: timeout={timeout_secs}, max={remaining}\r\n"
        ),
        ConnDirective::Close => "Connection: close\r\n".to_string(),
    };
    let retry_after = match response.retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{retry_after}{connection}\r\n",
        response.status,
        reason_phrase(response.status),
        response.content_type,
        response.body.len()
    );
    let mut bytes = Vec::with_capacity(head.len() + response.body.len());
    bytes.extend_from_slice(head.as_bytes());
    bytes.extend_from_slice(response.body.as_bytes());
    bytes
}

// ---------------------------------------------------------------------------
// Incremental request parser
// ---------------------------------------------------------------------------

/// What one [`Parser::advance`] call concluded.
enum Step {
    /// Nothing decidable yet; feed more bytes (or readiness).
    NeedMore,
    /// Headers passed every framing check and the client expects a
    /// `100 Continue` before sending the body. Emitted at most once.
    Interim,
    /// A complete framed request.
    Complete(Request),
    /// Framing failure: `(status, message)` — answer it and close.
    Error(u16, &'static str),
    /// EOF (or idle expiry) before a request line: the normal end of a
    /// kept-alive connection. Close without writing anything.
    CleanClose,
    /// The peer died mid-body; no framing left to trust and usually no
    /// reader for a reply. Close silently.
    SilentClose,
}

enum LineFill {
    /// A complete line (or the EOF-flushed tail of one) sits in `line`.
    Line,
    /// Out of input mid-line.
    NeedMore,
    /// EOF at a line boundary.
    CleanEof,
    /// The header budget is exhausted.
    Over,
}

enum LineStep {
    Continue,
    Interim,
    Fail(u16, &'static str),
}

enum PState {
    RequestLine,
    Headers,
    Body,
}

/// Incremental HTTP/1.x request framer. Mirrors the old blocking
/// `read_request` decision-for-decision — same statuses, same messages,
/// same budget accounting — but consumes whatever bytes are available and
/// parks with [`Step::NeedMore`] instead of blocking on the socket.
struct Parser {
    state: PState,
    /// When the request's first byte arrived: the in-request deadline
    /// anchor, and what parse-failure latency is measured from.
    started: Option<Instant>,
    /// Remaining header-section byte budget (request line + headers,
    /// newlines included).
    budget: usize,
    /// The line being accumulated (terminator included).
    line: Vec<u8>,
    blank_lines: usize,
    method: String,
    path: String,
    http10: bool,
    content_length: Option<usize>,
    conn_close: bool,
    conn_keep_alive: bool,
    expect_continue: bool,
    interim_sent: bool,
    header_count: usize,
    body: Vec<u8>,
}

impl Parser {
    fn new() -> Parser {
        Parser {
            state: PState::RequestLine,
            started: None,
            budget: MAX_HEADER_BYTES,
            line: Vec::new(),
            blank_lines: 0,
            method: String::new(),
            path: String::new(),
            http10: false,
            content_length: None,
            conn_close: false,
            conn_keep_alive: false,
            expect_continue: false,
            interim_sent: false,
            header_count: 0,
            body: Vec::new(),
        }
    }

    /// Forget the finished request; the next byte starts a fresh one.
    fn reset(&mut self) {
        *self = Parser::new();
    }

    /// Consume from `input`; returns how many bytes were taken and what
    /// the parser concluded. `eof` means no more bytes will ever come —
    /// a partial line is then flushed as complete, exactly like the
    /// blocking reader's `read_line_limited` behaved at EOF.
    fn advance(&mut self, input: &[u8], eof: bool) -> (usize, Step) {
        let mut consumed = 0usize;
        loop {
            match self.state {
                PState::RequestLine | PState::Headers => {
                    match self.fill_line(input, &mut consumed, eof) {
                        LineFill::NeedMore => return (consumed, Step::NeedMore),
                        LineFill::Over => {
                            return (consumed, Step::Error(431, "request header section too large"))
                        }
                        LineFill::CleanEof => {
                            let step = match self.state {
                                PState::RequestLine => Step::CleanClose,
                                _ => Step::Error(400, "connection closed mid-headers"),
                            };
                            return (consumed, step);
                        }
                        LineFill::Line => {
                            let step = match self.state {
                                PState::RequestLine => self.take_request_line(),
                                _ => self.take_header_line(),
                            };
                            match step {
                                LineStep::Continue => {}
                                LineStep::Interim => return (consumed, Step::Interim),
                                LineStep::Fail(status, msg) => {
                                    return (consumed, Step::Error(status, msg))
                                }
                            }
                        }
                    }
                }
                PState::Body => {
                    let total = self.content_length.unwrap_or(0);
                    let need = total.saturating_sub(self.body.len());
                    // PANIC-OK: `consumed <= input.len()` by construction.
                    let avail = &input[consumed..];
                    let take = need.min(avail.len());
                    // PANIC-OK: `take <= avail.len()` via the `min` above.
                    self.body.extend_from_slice(&avail[..take]);
                    consumed += take;
                    if take > 0 {
                        self.started.get_or_insert_with(Instant::now);
                    }
                    if self.body.len() >= total {
                        return (consumed, self.finish_request());
                    }
                    if eof {
                        return (consumed, Step::SilentClose);
                    }
                    return (consumed, Step::NeedMore);
                }
            }
        }
    }

    /// Pull bytes into `line` until a `\n` (or EOF), charging the shared
    /// header budget per byte consumed — a line longer than the remaining
    /// budget fails before buffering without bound.
    fn fill_line(&mut self, input: &[u8], consumed: &mut usize, eof: bool) -> LineFill {
        loop {
            // PANIC-OK: `*consumed <= input.len()` by construction.
            let avail = &input[*consumed..];
            if avail.is_empty() {
                if !eof {
                    return LineFill::NeedMore;
                }
                return if self.line.is_empty() { LineFill::CleanEof } else { LineFill::Line };
            }
            let (take, done) = match avail.iter().position(|&b| b == b'\n') {
                Some(pos) => (pos + 1, true),
                None => (avail.len(), false),
            };
            if take > self.budget {
                return LineFill::Over;
            }
            self.budget -= take;
            // PANIC-OK: both arms above bound `take` by `avail.len()`.
            self.line.extend_from_slice(&avail[..take]);
            *consumed += take;
            self.started.get_or_insert_with(Instant::now);
            if done {
                return LineFill::Line;
            }
        }
    }

    fn take_request_line(&mut self) -> LineStep {
        let Ok(line) = std::str::from_utf8(&self.line) else {
            return LineStep::Fail(400, "request line is not valid UTF-8");
        };
        // RFC 9112 §2.2: ignore at least one CRLF before the request line
        // (hand-rolled clients often send a stray one after a body).
        if line.trim_end().is_empty() {
            self.line.clear();
            self.blank_lines += 1;
            if self.blank_lines > 2 {
                return LineStep::Fail(400, "empty request line");
            }
            return LineStep::Continue;
        }
        let mut parts = line.split_whitespace();
        let Some(method) = parts.next() else {
            return LineStep::Fail(400, "empty request line");
        };
        let Some(target) = parts.next() else {
            return LineStep::Fail(400, "missing request target");
        };
        let Some(version) = parts.next() else {
            return LineStep::Fail(400, "missing HTTP version");
        };
        if !version.starts_with("HTTP/1.") {
            return LineStep::Fail(400, "unsupported HTTP version");
        }
        let http10 = version == "HTTP/1.0";
        let method = method.to_string();
        // Ignore any query string; the API is body-driven.
        let path = target.split('?').next().unwrap_or(target).to_string();
        self.method = method;
        self.path = path;
        self.http10 = http10;
        self.line.clear();
        self.state = PState::Headers;
        LineStep::Continue
    }

    fn take_header_line(&mut self) -> LineStep {
        let Ok(header) = std::str::from_utf8(&self.line) else {
            return LineStep::Fail(400, "header is not valid UTF-8");
        };
        let header = header.trim_end();
        if header.is_empty() {
            self.line.clear();
            return self.end_of_headers();
        }
        self.header_count += 1;
        if self.header_count > MAX_HEADER_COUNT {
            return LineStep::Fail(431, "too many request headers");
        }
        // RFC 9112 §5.2: obs-fold continuation lines must be rejected (or
        // folded) — silently treating " Content-Length: 999" as an
        // unrecognized standalone header while an obs-fold-aware peer
        // folds it into the previous field's value is a framing desync.
        if header.starts_with([' ', '\t']) {
            return LineStep::Fail(400, "obsolete header line folding not supported");
        }
        if let Some((name, value)) = header.split_once(':') {
            // RFC 9112 §5.1: whitespace between the field name and the
            // colon must be rejected — an intermediary that *normalizes*
            // "Content-Length :" would frame the stream differently than
            // one that, like the match below, fails to recognize it.
            if name.ends_with([' ', '\t']) {
                return LineStep::Fail(400, "whitespace before header colon");
            }
            if name.eq_ignore_ascii_case("content-length") {
                // DIGIT-only per RFC 9110: `str::parse` would also accept
                // "+5", which a fronting intermediary may frame differently
                // — the same desync class as duplicate Content-Length.
                let value = value.trim();
                if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                    return LineStep::Fail(400, "invalid Content-Length");
                }
                let Ok(parsed) = value.parse::<usize>() else {
                    return LineStep::Fail(400, "invalid Content-Length");
                };
                // Accepting the last (or any) of several Content-Length
                // values silently would let two framings of one byte stream
                // coexist — the classic request-smuggling setup once
                // requests share a connection.
                if self.content_length.replace(parsed).is_some() {
                    return LineStep::Fail(400, "duplicate Content-Length header");
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // We implement no transfer codings at all, and RFC 9112
                // says to 501 codings we don't — silently framing a coded
                // body by Content-Length (or as empty) while a TE-aware
                // intermediary frames it by the coding is a CL.TE desync.
                return LineStep::Fail(501, "transfer encodings not supported");
            } else if name.eq_ignore_ascii_case("connection") {
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        self.conn_close = true;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        self.conn_keep_alive = true;
                    }
                }
            } else if name.eq_ignore_ascii_case("expect") {
                // RFC 9110 §10.1.1: 100-continue is the only expectation
                // defined; anything else is answered 417.
                if value.trim().eq_ignore_ascii_case("100-continue") {
                    self.expect_continue = true;
                } else {
                    return LineStep::Fail(417, "unsupported Expect value");
                }
            }
        }
        self.line.clear();
        LineStep::Continue
    }

    fn end_of_headers(&mut self) -> LineStep {
        let content_length = self.content_length.unwrap_or(0);
        if content_length > MAX_BODY_BYTES {
            return LineStep::Fail(413, "request body too large");
        }
        self.state = PState::Body;
        // Capacity is bounded: a claimed Content-Length is not trusted
        // with a 64 MiB allocation before any body byte arrives.
        self.body = Vec::with_capacity(content_length.min(READ_CHUNK));
        // The expectation is only honored once the headers passed every
        // framing check above — a rejected request gets its final status
        // without an interim 100 (the "reject early" path). HTTP/1.0 peers
        // never get a 100 (RFC 9110 §10.1.1), and a body-less request has
        // nothing to continue into.
        if self.expect_continue && !self.http10 && content_length > 0 && !self.interim_sent {
            self.interim_sent = true;
            return LineStep::Interim;
        }
        LineStep::Continue
    }

    fn finish_request(&mut self) -> Step {
        let body_bytes = std::mem::take(&mut self.body);
        let Ok(body) = String::from_utf8(body_bytes) else {
            return Step::Error(400, "body is not UTF-8");
        };
        let keep_alive = !self.conn_close && (!self.http10 || self.conn_keep_alive);
        Step::Complete(Request {
            method: std::mem::take(&mut self.method),
            path: std::mem::take(&mut self.path),
            body,
            keep_alive,
        })
    }
}

// ---------------------------------------------------------------------------
// Connection state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Phase {
    /// Waiting for (or mid-way through) a framed request. Idle when
    /// `parser.started` is `None`, in-request otherwise.
    Reading,
    /// A request is at the worker pool. Read interest is off — pipelined
    /// bytes wait in the kernel buffer, preserving in-order responses.
    Dispatched,
    /// Flushing `outbuf`. `keep` decides what follows the final byte.
    Writing { keep: bool },
    /// Final response flushed and `shutdown(Write)` sent; draining unread
    /// client bytes briefly so the close sends FIN, not RST.
    Lingering,
}

struct Conn {
    stream: TcpStream,
    gen: u32,
    /// Holds a connection-budget slot for admitted connections; rejection
    /// responses carry `None`.
    _permit: Option<ConnectionPermit>,
    /// Whether this connection counts in the opened/active/closed gauges
    /// (admitted yes, rejections no — matching the old accounting).
    counted: bool,
    phase: Phase,
    parser: Parser,
    /// Bytes read but not yet consumed by the parser (pipelined requests
    /// accumulate here while a response is in flight).
    inbuf: Vec<u8>,
    inpos: usize,
    outbuf: Vec<u8>,
    outpos: usize,
    served: usize,
    /// `(when, seq)` of the armed deadline; heap entries with a different
    /// seq are stale.
    deadline: Option<(Instant, u64)>,
    /// Interest currently registered with the poller.
    interest: Interest,
    peer_eof: bool,
    /// Linger-drain byte count.
    drained: usize,
}

impl Conn {
    fn new(stream: TcpStream, permit: Option<ConnectionPermit>, counted: bool) -> Conn {
        Conn {
            stream,
            gen: 0,
            _permit: permit,
            counted,
            phase: Phase::Reading,
            parser: Parser::new(),
            inbuf: Vec::new(),
            inpos: 0,
            outbuf: Vec::new(),
            outpos: 0,
            served: 0,
            deadline: None,
            interest: Interest::new(false, false),
            peer_eof: false,
            drained: 0,
        }
    }
}

/// Generational slab: slot indices are reused, generations are not, so a
/// readiness event for a closed connection can never act on its successor.
struct Slab {
    slots: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl Slab {
    fn new() -> Slab {
        Slab { slots: Vec::new(), gens: Vec::new(), free: Vec::new() }
    }

    fn insert(&mut self, mut conn: Conn) -> (u32, u32) {
        match self.free.pop() {
            Some(slot) => {
                let gen = self.gens.get(slot as usize).copied().unwrap_or(0);
                conn.gen = gen;
                if let Some(entry) = self.slots.get_mut(slot as usize) {
                    *entry = Some(conn);
                }
                (slot, gen)
            }
            None => {
                let slot = self.slots.len() as u32;
                conn.gen = 0;
                self.slots.push(Some(conn));
                self.gens.push(0);
                (slot, 0)
            }
        }
    }

    fn get_mut(&mut self, slot: u32) -> Option<&mut Conn> {
        self.slots.get_mut(slot as usize)?.as_mut()
    }

    fn valid(&self, slot: u32, gen: u32) -> bool {
        matches!(self.slots.get(slot as usize), Some(Some(c)) if c.gen == gen)
    }

    fn phase(&self, slot: u32) -> Option<Phase> {
        Some(self.slots.get(slot as usize)?.as_ref()?.phase)
    }

    fn remove(&mut self, slot: u32) -> Option<Conn> {
        let conn = self.slots.get_mut(slot as usize)?.take()?;
        if let Some(g) = self.gens.get_mut(slot as usize) {
            *g = g.wrapping_add(1);
        }
        self.free.push(slot);
        Some(conn)
    }

    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn occupied(&self) -> Vec<u32> {
        self.slots.iter().enumerate().filter(|(_, s)| s.is_some()).map(|(i, _)| i as u32).collect()
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

struct WorkerCtx {
    jobs: Arc<Mutex<Receiver<Job>>>,
    done: Sender<Completion>,
    router: Arc<Router>,
    metrics: Arc<HttpMetrics>,
    waker: Arc<Waker>,
    idle_timeout: Duration,
}

fn worker_loop(ctx: WorkerCtx) {
    loop {
        // PANIC-OK: queue mutex poisoning means another worker panicked
        // outside its catch_unwind — unrecoverable, and rethrowing here is
        // the only honest option.
        // HELD-OK: this mutex exists solely to serialize recv() across
        // pool workers (std mpsc receivers are !Sync); the guard dies at
        // the end of this statement, before the job runs. Blocking here IS
        // the idle state of the pool.
        let job = match ctx.jobs.lock().unwrap().recv() {
            Ok(job) => job,
            Err(_) => return, // reactor gone: drain complete
        };
        let completion = run_job(&ctx, job);
        if ctx.done.send(completion).is_err() {
            return;
        }
        ctx.waker.wake();
    }
}

fn run_job(ctx: &WorkerCtx, job: Job) -> Completion {
    let Job { slot, gen, request, directive, keep, enqueued } = job;
    let waited = enqueued.elapsed();
    if waited >= ctx.idle_timeout {
        // A request that sat queued behind busy peers longer than the idle
        // timeout is answered 408 instead of being served stale to a
        // client that has likely given up (the reactor-era analogue of the
        // old accept-queue staleness check).
        ctx.metrics.observe_request(HTTP_PARSE_ENDPOINT, waited.as_micros() as u64, 408);
        let resp = Response::error(408, "request queued longer than the idle timeout");
        let bytes = encode_response(&resp, &ConnDirective::Close);
        return Completion { slot, gen, outcome: Outcome::Respond { bytes, keep: false } };
    }
    // catch_unwind: a panicking handler (poisoned lock, model bug) must
    // cost one connection, not one pool worker.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ctx.router.handle(&request.method, &request.path, &request.body)
    }));
    match result {
        Ok(response) => {
            let bytes = encode_response(&response, &directive);
            Completion { slot, gen, outcome: Outcome::Respond { bytes, keep } }
        }
        Err(_) => Completion { slot, gen, outcome: Outcome::Abort },
    }
}

// ---------------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------------

struct Reactor {
    poller: Poller,
    listener: Option<TcpListener>,
    waker_rx: UnixStream,
    conns: Slab,
    /// Min-heap of `(when, seq, slot, gen)`; lazily invalidated.
    deadlines: BinaryHeap<std::cmp::Reverse<(Instant, u64, u32, u32)>>,
    next_seq: u64,
    rejects_live: usize,
    stopping: bool,
    metrics: Arc<HttpMetrics>,
    stop: Arc<AtomicBool>,
    buckets: Option<ClientBuckets>,
    budget: Arc<ConnectionBudget>,
    job_tx: Sender<Job>,
    done_rx: Receiver<Completion>,
    read_timeout: Duration,
    idle_timeout: Duration,
    max_requests: usize,
    retry_after_secs: u64,
}

/// What [`spawn`] hands back: the reactor's join handle, the worker
/// pool's join handles, and the waker `ServerHandle::shutdown` uses to
/// interrupt `wait`.
pub(crate) type SpawnedServer = (JoinHandle<()>, Vec<JoinHandle<()>>, Arc<Waker>);

/// Start the reactor thread and its worker pool over an already-bound
/// listener.
pub(crate) fn spawn(
    listener: TcpListener,
    router: Arc<Router>,
    metrics: Arc<HttpMetrics>,
    stop: Arc<AtomicBool>,
    config: &ServerConfig,
) -> io::Result<SpawnedServer> {
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    let (waker_tx, waker_rx) = UnixStream::pair()?;
    waker_tx.set_nonblocking(true)?;
    waker_rx.set_nonblocking(true)?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
    poller.register(waker_rx.as_raw_fd(), TOKEN_WAKER, Interest::READABLE)?;
    let waker = Arc::new(Waker { tx: waker_tx });

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let jobs = Arc::new(Mutex::new(job_rx));
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|_| {
            let ctx = WorkerCtx {
                jobs: Arc::clone(&jobs),
                done: done_tx.clone(),
                router: Arc::clone(&router),
                metrics: Arc::clone(&metrics),
                waker: Arc::clone(&waker),
                idle_timeout: config.idle_timeout,
            };
            std::thread::spawn(move || worker_loop(ctx))
        })
        .collect();
    drop(done_tx); // only workers hold senders

    metrics.set(Family::ReactorFds, &[], 2.0); // listener + waker
    let reactor = Reactor {
        poller,
        listener: Some(listener),
        waker_rx,
        conns: Slab::new(),
        deadlines: BinaryHeap::new(),
        next_seq: 0,
        rejects_live: 0,
        stopping: false,
        metrics,
        stop,
        buckets: ClientBuckets::new(config.client_bucket_size, config.client_bucket_refill_per_sec),
        budget: ConnectionBudget::new(config.max_connections),
        job_tx,
        done_rx,
        read_timeout: config.read_timeout,
        idle_timeout: config.idle_timeout,
        max_requests: config.max_requests_per_connection.max(1),
        retry_after_secs: config.retry_after_secs,
    };
    let handle = std::thread::spawn(move || reactor.run());
    Ok((handle, workers, waker))
}

impl Reactor {
    fn run(mut self) {
        let mut events = Vec::new();
        loop {
            // ORDERING: SeqCst pairs with the store in
            // `ServerHandle::shutdown` — once per tick, cost is noise.
            if !self.stopping && self.stop.load(Ordering::SeqCst) {
                self.begin_shutdown();
            }
            if self.stopping && self.conns.len() == 0 {
                break;
            }
            let timeout = self.poll_timeout();
            if self.poller.wait(&mut events, timeout).is_err() {
                // EBADF/EINVAL here is a reactor bug, not a transient
                // condition; tearing down is the only honest option.
                break;
            }
            self.metrics.add(Family::ReactorWakeups, &[], 1);
            self.metrics.observe(Family::ReactorReadyEvents, &[], events.len() as u64);
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.drain_waker(),
                    tok => self.conn_event(tok, ev.readable, ev.writable),
                }
            }
            self.drain_completions();
            self.fire_deadlines();
        }
        // Dropping `self` closes every remaining socket and the job
        // channel; workers observe the closed channel and exit.
    }

    /// Sleep until the earliest armed deadline (possibly stale — a stale
    /// entry just causes one early wake-up), or forever if none.
    fn poll_timeout(&self) -> Option<Duration> {
        let std::cmp::Reverse((when, _, _, _)) = self.deadlines.peek()?;
        Some(when.saturating_duration_since(Instant::now()))
    }

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match (&self.waker_rx).read(&mut sink) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock: drained
            }
        }
    }

    // -- admission ---------------------------------------------------------

    fn accept_ready(&mut self) {
        if self.stopping {
            return;
        }
        loop {
            let Some(listener) = self.listener.as_ref() else { return };
            match listener.accept() {
                Ok((stream, peer)) => self.admit(stream, peer),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // WouldBlock: backlog drained. Other errors (ECONNABORTED,
                // EMFILE) yield to the event loop instead of spinning.
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream, peer: SocketAddr) {
        // Accepted sockets do not inherit the listener's non-blocking flag.
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        // Per-client fairness gate first: one chatty client must not be
        // able to reach (and drain) the shared budget at all once its own
        // allowance is spent.
        if let Some(buckets) = self.buckets.as_mut() {
            if let Err(wait) = buckets.admit(peer.ip(), Instant::now()) {
                self.metrics.add(Family::ThrottledConnections, &[], 1);
                self.start_reject(stream, 429, "client connection budget exhausted", wait);
                return;
            }
        }
        let Some(permit) = self.budget.try_acquire() else {
            self.metrics.add(Family::RejectedConnections, &[], 1);
            let secs = self.retry_after_secs;
            self.start_reject(stream, 503, "server at connection capacity", secs);
            return;
        };
        self.metrics.connection_opened();
        let conn = Conn::new(stream, Some(permit), true);
        if let Some(slot) = self.insert_conn(conn) {
            self.arm_deadline(slot, Instant::now() + self.idle_timeout);
        }
    }

    /// Queue a 429/503 rejection as an ordinary buffered write on a
    /// permit-less connection — no spawned thread, no blocking write.
    fn start_reject(&mut self, stream: TcpStream, status: u16, message: &str, retry_after: u64) {
        if self.rejects_live >= MAX_PENDING_REJECTS {
            // Past the cap the connection is dropped unanswered; the
            // client sees a plain close.
            return;
        }
        let response = Response::error(status, message).with_retry_after(retry_after);
        let mut conn = Conn::new(stream, None, false);
        conn.outbuf = encode_response(&response, &ConnDirective::Close);
        conn.phase = Phase::Writing { keep: false };
        if let Some(slot) = self.insert_conn(conn) {
            self.rejects_live += 1;
            self.arm_deadline(slot, Instant::now() + REJECT_WRITE_TIMEOUT);
            self.flush(slot);
            self.update_interest(slot);
        }
    }

    /// Insert and register a connection; returns its slot, or `None` if
    /// poller registration failed (the connection is dropped).
    fn insert_conn(&mut self, conn: Conn) -> Option<u32> {
        let fd = conn.stream.as_raw_fd();
        let counted = conn.counted;
        let (slot, gen) = self.conns.insert(conn);
        if self.poller.register(fd, token(slot, gen), Interest::new(false, false)).is_err() {
            drop(self.conns.remove(slot));
            if counted {
                // `connection_opened` already ran; balance the gauge.
                self.metrics.connection_closed();
            }
            return None;
        }
        self.update_gauge();
        self.update_interest(slot);
        Some(slot)
    }

    // -- readiness handling ------------------------------------------------

    fn conn_event(&mut self, tok: u64, readable: bool, writable: bool) {
        let slot = (tok & 0xFFFF_FFFF) as u32;
        let gen = (tok >> 32) as u32;
        if !self.conns.valid(slot, gen) {
            return; // stale event for a closed (possibly reused) slot
        }
        if writable {
            self.flush(slot);
        }
        if readable && self.conns.valid(slot, gen) {
            match self.conns.phase(slot) {
                Some(Phase::Reading) => self.read_and_parse(slot),
                Some(Phase::Lingering) => self.linger_drain(slot),
                // No read interest in other phases; a level-triggered
                // leftover is ignored.
                _ => {}
            }
        }
        if self.conns.valid(slot, gen) {
            self.update_interest(slot);
        }
    }

    /// Reconcile the poller's interest set with the connection's phase:
    /// read while framing or lingering, write while `outbuf` has unsent
    /// bytes (interim 100s included, whatever the phase).
    fn update_interest(&mut self, slot: u32) {
        let Some(conn) = self.conns.get_mut(slot) else { return };
        let desired = Interest::new(
            matches!(conn.phase, Phase::Reading | Phase::Lingering),
            conn.outpos < conn.outbuf.len(),
        );
        if desired != conn.interest {
            let tok = token(slot, conn.gen);
            let fd = conn.stream.as_raw_fd();
            if self.poller.reregister(fd, tok, desired).is_ok() {
                conn.interest = desired;
            } else {
                self.close(slot);
            }
        }
    }

    /// Drive the parser over buffered + newly readable bytes until it
    /// blocks, completes a request, or fails.
    fn read_and_parse(&mut self, slot: u32) {
        loop {
            let read_timeout = self.read_timeout;
            let Some(conn) = self.conns.get_mut(slot) else { return };
            if !matches!(conn.phase, Phase::Reading) {
                return;
            }
            // PANIC-OK: `inpos <= inbuf.len()` by construction.
            let (consumed, step) = conn.parser.advance(&conn.inbuf[conn.inpos..], conn.peer_eof);
            conn.inpos += consumed;
            if conn.inpos >= conn.inbuf.len() {
                conn.inbuf.clear();
                conn.inpos = 0;
            }
            match step {
                Step::NeedMore => {
                    let mut chunk = [0u8; READ_CHUNK];
                    match (&conn.stream).read(&mut chunk) {
                        Ok(0) => conn.peer_eof = true,
                        // PANIC-OK: `read` returns `n <= chunk.len()`.
                        Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            // Park until the next readable event. Once the
                            // request has begun, the wait is bounded by the
                            // in-request deadline (arm once per request).
                            if let Some(t0) = conn.parser.started {
                                let target = t0 + read_timeout;
                                if conn.deadline.map(|(t, _)| t) != Some(target) {
                                    self.arm_deadline(slot, target);
                                }
                            }
                            return;
                        }
                        Err(_) => {
                            // The peer died mid-request; there is no
                            // framing left to trust and usually no reader
                            // for a reply.
                            self.close(slot);
                            return;
                        }
                    }
                }
                Step::Interim => {
                    conn.outbuf.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                    self.flush(slot);
                }
                Step::Complete(request) => {
                    self.dispatch(slot, request);
                    return;
                }
                Step::Error(status, msg) => {
                    self.respond_error(slot, status, msg);
                    return;
                }
                Step::CleanClose | Step::SilentClose => {
                    self.close(slot);
                    return;
                }
            }
        }
    }

    /// Hand a framed request to the worker pool. The keep decision is
    /// taken here — before the handler runs — exactly as the blocking
    /// loop did.
    fn dispatch(&mut self, slot: u32, request: Request) {
        let Some(conn) = self.conns.get_mut(slot) else { return };
        conn.served += 1;
        if conn.served > 1 {
            self.metrics.add(Family::KeepaliveReuses, &[], 1);
        }
        let remaining = self.max_requests.saturating_sub(conn.served);
        // ORDERING: SeqCst pairs with the store in `ServerHandle::
        // shutdown`; once per request, not per byte, so the fence cost is
        // noise.
        let keep = request.keep_alive && remaining > 0 && !self.stop.load(Ordering::SeqCst);
        let directive = if keep {
            // Floor, never round up: advertising more idle time than the
            // server grants invites writes into a closed socket
            // (sub-second configs honestly advertise `timeout=0`).
            ConnDirective::KeepAlive { timeout_secs: self.idle_timeout.as_secs(), remaining }
        } else {
            ConnDirective::Close
        };
        conn.phase = Phase::Dispatched;
        conn.parser.reset();
        conn.deadline = None;
        let gen = conn.gen;
        let job = Job { slot, gen, request, directive, keep, enqueued: Instant::now() };
        if self.job_tx.send(job).is_err() {
            self.close(slot);
        }
    }

    /// Answer an HTTP-layer framing failure and close. Counted under one
    /// synthetic endpoint label; latency counts from the request's first
    /// byte, not from when the client last went idle on the socket.
    fn respond_error(&mut self, slot: u32, status: u16, msg: &'static str) {
        let Some(conn) = self.conns.get_mut(slot) else { return };
        let latency = conn.parser.started.map_or(0, |t| t.elapsed().as_micros() as u64);
        self.metrics.observe_request(HTTP_PARSE_ENDPOINT, latency, status);
        let response = Response::error(status, msg);
        // After any pending interim bytes, preserving write order.
        conn.outbuf.extend_from_slice(&encode_response(&response, &ConnDirective::Close));
        conn.phase = Phase::Writing { keep: false };
        self.arm_deadline(slot, Instant::now() + self.read_timeout);
        self.flush(slot);
    }

    /// Flush `outbuf` as far as the socket allows; on completion the
    /// phase decides what happens next.
    fn flush(&mut self, slot: u32) {
        loop {
            let Some(conn) = self.conns.get_mut(slot) else { return };
            if conn.outpos >= conn.outbuf.len() {
                conn.outbuf.clear();
                conn.outpos = 0;
                break;
            }
            // PANIC-OK: `outpos < outbuf.len()` checked above.
            match (&conn.stream).write(&conn.outbuf[conn.outpos..]) {
                Ok(0) => {
                    self.close(slot);
                    return;
                }
                Ok(n) => conn.outpos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Kernel buffer full: resume on the next writable event.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // The peer is gone; the response is undeliverable. Close
                // without lingering, like the old write-error path.
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        self.on_flushed(slot);
    }

    fn on_flushed(&mut self, slot: u32) {
        let phase = match self.conns.get_mut(slot) {
            Some(conn) => conn.phase,
            None => return,
        };
        match phase {
            Phase::Writing { keep: true } => {
                if self.stopping {
                    self.close(slot);
                    return;
                }
                if let Some(conn) = self.conns.get_mut(slot) {
                    conn.phase = Phase::Reading;
                    conn.deadline = None;
                }
                // Between requests the full idle budget applies again.
                self.arm_deadline(slot, Instant::now() + self.idle_timeout);
                // Pipelined bytes may already be buffered; parse them now
                // rather than waiting for new readiness.
                self.read_and_parse(slot);
            }
            Phase::Writing { keep: false } => self.start_linger(slot),
            // An interim `100 Continue` drained while the request is still
            // being framed or executed: nothing to transition.
            Phase::Reading | Phase::Dispatched | Phase::Lingering => {}
        }
    }

    /// Close a connection we wrote a final response on without destroying
    /// that response: signal EOF, then drain briefly (bounded, so a
    /// hostile client cannot hold the reactor's attention) and let the
    /// socket close with FIN instead of RST.
    fn start_linger(&mut self, slot: u32) {
        let Some(conn) = self.conns.get_mut(slot) else { return };
        let _ = conn.stream.shutdown(Shutdown::Write);
        conn.phase = Phase::Lingering;
        conn.deadline = None;
        self.arm_deadline(slot, Instant::now() + LINGER_TIMEOUT);
        self.linger_drain(slot);
    }

    fn linger_drain(&mut self, slot: u32) {
        loop {
            let Some(conn) = self.conns.get_mut(slot) else { return };
            let mut sink = [0u8; READ_CHUNK];
            match (&conn.stream).read(&mut sink) {
                Ok(0) => {
                    // Peer FIN: both directions are done.
                    self.close(slot);
                    return;
                }
                Ok(n) => {
                    conn.drained += n;
                    if conn.drained >= LINGER_DRAIN_BYTES {
                        self.close(slot);
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // WouldBlock: wait for more bytes or the linger deadline.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
    }

    // -- completions and deadlines ----------------------------------------

    fn drain_completions(&mut self) {
        while let Ok(Completion { slot, gen, outcome }) = self.done_rx.try_recv() {
            if !self.conns.valid(slot, gen) {
                continue;
            }
            match outcome {
                Outcome::Abort => self.close(slot),
                Outcome::Respond { bytes, keep } => {
                    if let Some(conn) = self.conns.get_mut(slot) {
                        conn.outbuf.extend_from_slice(&bytes);
                        conn.phase = Phase::Writing { keep };
                    }
                    // Writes get their own read_timeout-sized deadline (a
                    // request is bounded by ~2x read_timeout end to end):
                    // a client that never drains responses must not hold
                    // its slot once the kernel send buffer fills.
                    self.arm_deadline(slot, Instant::now() + self.read_timeout);
                    self.flush(slot);
                    if self.conns.valid(slot, gen) {
                        self.update_interest(slot);
                    }
                }
            }
        }
    }

    fn arm_deadline(&mut self, slot: u32, at: Instant) {
        let Some(conn) = self.conns.get_mut(slot) else { return };
        self.next_seq += 1;
        conn.deadline = Some((at, self.next_seq));
        let gen = conn.gen;
        self.deadlines.push(std::cmp::Reverse((at, self.next_seq, slot, gen)));
    }

    fn fire_deadlines(&mut self) {
        let now = Instant::now();
        loop {
            let Some(&std::cmp::Reverse((when, seq, slot, gen))) = self.deadlines.peek() else {
                return;
            };
            if when > now {
                return;
            }
            self.deadlines.pop();
            if !self.conns.valid(slot, gen) {
                continue;
            }
            let armed = self.conns.get_mut(slot).and_then(|c| c.deadline).map(|(_, s)| s);
            if armed != Some(seq) {
                continue; // superseded: the connection re-armed since
            }
            self.expire(slot);
            if self.conns.valid(slot, gen) {
                self.update_interest(slot);
            }
        }
    }

    fn expire(&mut self, slot: u32) {
        let (phase, started) = match self.conns.get_mut(slot) {
            Some(conn) => {
                conn.deadline = None;
                (conn.phase, conn.parser.started)
            }
            None => return,
        };
        match phase {
            Phase::Reading => match started {
                // Idle expiry between requests: the normal end of a
                // kept-alive connection. Close without writing anything.
                None => self.close(slot),
                // The in-request deadline: neither a byte-drip nor a total
                // stall holds the connection past `read_timeout`, and both
                // surface as 408, not a silent close.
                Some(_) => self.respond_error(slot, 408, "request read timed out"),
            },
            // Dispatched connections arm no deadline; stale entry.
            Phase::Dispatched => {}
            // The peer stopped draining its response (or a reject), or a
            // linger ran its course.
            Phase::Writing { .. } | Phase::Lingering => self.close(slot),
        }
    }

    // -- teardown ----------------------------------------------------------

    fn close(&mut self, slot: u32) {
        let Some(conn) = self.conns.remove(slot) else { return };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        if conn.counted {
            self.metrics.connection_closed();
        } else {
            self.rejects_live = self.rejects_live.saturating_sub(1);
        }
        self.update_gauge();
        // `conn` drops here: the socket closes and the admission permit
        // (if any) is released.
    }

    fn update_gauge(&self) {
        let base = 1 + usize::from(self.listener.is_some()); // waker (+ listener)
        self.metrics.set(Family::ReactorFds, &[], (self.conns.len() + base) as f64);
    }

    fn begin_shutdown(&mut self) {
        self.stopping = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
            // Dropping the listener closes it: new connects are refused.
        }
        // In-flight work (Dispatched, Writing) runs out bounded by its
        // write deadlines; idle, mid-read, and lingering connections close
        // now.
        for slot in self.conns.occupied() {
            match self.conns.phase(slot) {
                Some(Phase::Reading) | Some(Phase::Lingering) => self.close(slot),
                _ => {}
            }
        }
        self.update_gauge();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(parser: &mut Parser, input: &[u8], eof: bool) -> Step {
        let mut pos = 0usize;
        loop {
            let (consumed, step) = parser.advance(&input[pos..], eof);
            pos += consumed;
            match step {
                Step::NeedMore if pos >= input.len() => return Step::NeedMore,
                Step::NeedMore => continue,
                other => return other,
            }
        }
    }

    #[test]
    fn parses_a_get_whole_and_byte_by_byte() {
        let raw = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        let mut whole = Parser::new();
        let Step::Complete(req) = feed(&mut whole, raw, false) else {
            panic!("whole-buffer parse must complete");
        };
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");

        let mut drip = Parser::new();
        let mut result = None;
        for (i, b) in raw.iter().enumerate() {
            match feed(&mut drip, &[*b], false) {
                Step::NeedMore => assert!(i + 1 < raw.len(), "must complete on the last byte"),
                Step::Complete(r) => result = Some(r),
                _ => panic!("unexpected parser verdict at byte {i}"),
            }
        }
        let req = result.expect("drip-fed parse must complete");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn body_framing_and_expect_continue() {
        let head = b"POST /score HTTP/1.1\r\nContent-Length: 4\r\nExpect: 100-continue\r\n\r\n";
        let mut parser = Parser::new();
        let Step::Interim = feed(&mut parser, head, false) else {
            panic!("expect 100-continue must surface an interim step");
        };
        // The interim is emitted at most once; the body completes the
        // request with keep-alive honored.
        let Step::Complete(req) = feed(&mut parser, b"abcd", false) else {
            panic!("body bytes must complete the request");
        };
        assert_eq!(req.body, "abcd");
        assert_eq!(req.method, "POST");
    }

    #[test]
    fn error_parity_with_the_blocking_parser() {
        let cases: &[(&[u8], u16, &str)] = &[
            (b"GET /x HTTP/2\r\n\r\n", 400, "unsupported HTTP version"),
            (b"GET\r\n\r\n", 400, "missing request target"),
            (b"GET /x\r\n\r\n", 400, "missing HTTP version"),
            (b"\r\n\r\n\r\n\r\n", 400, "empty request line"),
            (
                b"GET /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n",
                400,
                "duplicate Content-Length header",
            ),
            (b"GET /x HTTP/1.1\r\nContent-Length: +5\r\n\r\n", 400, "invalid Content-Length"),
            (
                b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                501,
                "transfer encodings not supported",
            ),
            (
                b"GET /x HTTP/1.1\r\nHost: a\r\n bad: fold\r\n\r\n",
                400,
                "obsolete header line folding not supported",
            ),
            (b"GET /x HTTP/1.1\r\nHost : a\r\n\r\n", 400, "whitespace before header colon"),
            (b"GET /x HTTP/1.1\r\nExpect: tea\r\n\r\n", 417, "unsupported Expect value"),
        ];
        for (raw, want_status, want_msg) in cases {
            let mut parser = Parser::new();
            match feed(&mut parser, raw, false) {
                Step::Error(status, msg) => {
                    assert_eq!(status, *want_status, "status for {raw:?}");
                    assert_eq!(msg, *want_msg, "message for {raw:?}");
                }
                _ => panic!("{raw:?} must fail"),
            }
        }
    }

    #[test]
    fn header_budget_fails_mid_line_without_buffering() {
        let mut parser = Parser::new();
        // A single unterminated line larger than the whole header budget
        // must 431 as soon as the budget is crossed, newline or not.
        let blob = vec![b'a'; MAX_HEADER_BYTES + 1];
        match feed(&mut parser, &blob, false) {
            Step::Error(431, msg) => assert_eq!(msg, "request header section too large"),
            _ => panic!("oversized header section must 431"),
        }
    }

    #[test]
    fn eof_dispositions() {
        // EOF before any byte: clean close.
        let mut parser = Parser::new();
        assert!(matches!(parser.advance(b"", true).1, Step::CleanClose));
        // EOF after a stray CRLF only: still a clean close.
        let mut parser = Parser::new();
        assert!(matches!(feed(&mut parser, b"\r\n", false), Step::NeedMore));
        assert!(matches!(parser.advance(b"", true).1, Step::CleanClose));
        // EOF mid-headers: 400, answered before closing.
        let mut parser = Parser::new();
        assert!(matches!(feed(&mut parser, b"GET /x HTTP/1.1\r\n", false), Step::NeedMore));
        match parser.advance(b"", true).1 {
            Step::Error(400, msg) => assert_eq!(msg, "connection closed mid-headers"),
            _ => panic!("mid-headers EOF must 400"),
        }
        // EOF mid-body: silent close.
        let mut parser = Parser::new();
        let head = b"POST /x HTTP/1.1\r\nContent-Length: 8\r\n\r\nab";
        assert!(matches!(feed(&mut parser, head, false), Step::NeedMore));
        assert!(matches!(parser.advance(b"", true).1, Step::SilentClose));
        // EOF flushes an unterminated request line, whose missing version
        // is then reported like the blocking reader did.
        let mut parser = Parser::new();
        assert!(matches!(feed(&mut parser, b"GET /x", false), Step::NeedMore));
        match parser.advance(b"", true).1 {
            Step::Error(400, msg) => assert_eq!(msg, "missing HTTP version"),
            _ => panic!("flushed partial request line must parse"),
        }
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut parser = Parser::new();
        let (consumed, step) = parser.advance(raw, false);
        let Step::Complete(first) = step else { panic!("first request must complete") };
        assert_eq!(first.path, "/a");
        assert!(first.keep_alive);
        parser.reset();
        let Step::Complete(second) = parser.advance(&raw[consumed..], false).1 else {
            panic!("second request must complete from the leftover bytes");
        };
        assert_eq!(second.path, "/b");
        assert!(!second.keep_alive, "Connection: close honored");
    }

    #[test]
    fn slab_generations_invalidate_stale_tokens() {
        // Slot reuse bumps the generation, so a token minted for the old
        // occupant no longer validates.
        let mut slab = Slab::new();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let make = || {
            let c = TcpStream::connect(addr).expect("connect");
            let _ = listener.accept().expect("accept");
            Conn::new(c, None, false)
        };
        let (slot, gen) = slab.insert(make());
        assert!(slab.valid(slot, gen));
        assert_eq!(slab.len(), 1);
        slab.remove(slot);
        assert!(!slab.valid(slot, gen), "removed slot must invalidate");
        assert_eq!(slab.len(), 0);
        let (slot2, gen2) = slab.insert(make());
        assert_eq!(slot, slot2, "slot is reused");
        assert_ne!(gen, gen2, "generation is not");
        assert!(slab.valid(slot2, gen2));
        assert!(!slab.valid(slot, gen), "stale token stays invalid");
    }

    #[test]
    fn stale_queued_jobs_get_408_without_running_the_router() {
        use crate::registry::ModelRegistry;
        use kg_core::{FilterIndex, Triple};
        use kg_models::{build_model, KgcModel, ModelKind};
        let registry = Arc::new(ModelRegistry::new());
        let model = build_model(ModelKind::TransE, 12, 2, 8, 1);
        let triples = [Triple::new(0, 0, 1)];
        let filter = Arc::new(FilterIndex::from_slices(&[&triples]));
        registry.register("m", Arc::from(model as Box<dyn KgcModel>), filter);
        let metrics = Arc::clone(registry.metrics());
        let (waker_tx, _waker_rx) = UnixStream::pair().expect("pair");
        let ctx = WorkerCtx {
            jobs: Arc::new(Mutex::new(mpsc::channel::<Job>().1)),
            done: mpsc::channel::<Completion>().0,
            router: Arc::new(Router::new(registry)),
            metrics: Arc::clone(&metrics),
            waker: Arc::new(Waker { tx: waker_tx }),
            idle_timeout: Duration::from_millis(50),
        };
        let job = |enqueued: Instant| Job {
            slot: 0,
            gen: 0,
            request: Request {
                method: "GET".to_string(),
                path: "/healthz".to_string(),
                body: String::new(),
                keep_alive: true,
            },
            directive: ConnDirective::Close,
            keep: false,
            enqueued,
        };
        // A job that sat queued past the idle timeout is answered 408 at
        // pickup, counted under the synthetic parse label, and closed —
        // the router never runs for it.
        let stale = run_job(&ctx, job(Instant::now() - Duration::from_millis(200)));
        assert_eq!((stale.slot, stale.gen), (0, 0));
        let Outcome::Respond { bytes, keep } = stale.outcome else {
            panic!("stale jobs still get a response");
        };
        let text = String::from_utf8(bytes).expect("ascii");
        assert!(text.starts_with("HTTP/1.1 408 Request Timeout\r\n"), "got: {text}");
        assert!(text.contains("queued longer"), "names the queue wait: {text}");
        assert!(text.contains("Connection: close"), "stale responses close: {text}");
        assert!(!keep);
        assert_eq!(
            metrics.value("kg_serve_requests_total", &[HTTP_PARSE_ENDPOINT]),
            Some(1.0),
            "counted as an HTTP-layer 408"
        );
        // A fresh job runs the router normally under the job's directive.
        let fresh = run_job(&ctx, job(Instant::now()));
        let Outcome::Respond { bytes, .. } = fresh.outcome else {
            panic!("fresh jobs respond");
        };
        let text = String::from_utf8(bytes).expect("ascii");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
        assert!(text.contains("\"ok\""), "the router actually ran: {text}");
        assert_eq!(
            metrics.value("kg_serve_requests_total", &[HTTP_PARSE_ENDPOINT]),
            Some(1.0),
            "no spurious 408 for fresh jobs"
        );
    }

    #[test]
    fn encode_response_matches_the_wire_format() {
        let resp = Response::error(503, "server at connection capacity").with_retry_after(7);
        let bytes = encode_response(&resp, &ConnDirective::Close);
        let text = String::from_utf8(bytes).expect("ascii");
        let body = "{\"error\":\"server at connection capacity\"}";
        assert_eq!(
            text,
            format!(
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nRetry-After: 7\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
        );
        let keep = ConnDirective::KeepAlive { timeout_secs: 5, remaining: 3 };
        let ok = Response::json_ok(crate::json::Json::Str("hi".into()));
        let text = String::from_utf8(encode_response(&ok, &keep)).expect("ascii");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Connection: keep-alive\r\nKeep-Alive: timeout=5, max=3\r\n"));
    }
}
