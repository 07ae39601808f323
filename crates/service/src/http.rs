//! A hand-rolled HTTP/1.1 front end over [`std::net::TcpListener`] — no
//! framework, no new dependencies, and defensive by construction: every
//! connection carries a read and a write timeout, the request head and
//! body are capped, and a slow-loris client times out on its own
//! connection thread without ever pinning a job worker.
//!
//! One accept thread hands each connection to the connection thread that
//! parked most recently, spawning one only when none is parked.  A
//! connection thread serves one connection at a time (one request, then
//! `Connection: close`), parks, and exits after
//! `CONNECTIONS_PER_THREAD` (64) connections.  Their number is capped at
//! [`Service::job_capacity`] plus [`CONNECTION_RESERVE`]; past the cap
//! the accept thread itself answers `503` with `Retry-After`, counted in
//! `/metrics` as `refused_connections`.
//!
//! Routes:
//!
//! * `POST /jobs` — a `key=value&…` body ([`crate::proto::parse_request`]);
//!   replies `200` with the outcome JSON, or a typed 4xx with a
//!   `Retry-After` header where retrying helps.  Add `profile=true` to
//!   the body and the job is span-profiled end to end; the assembled
//!   timeline lands in the trace ring behind `GET /trace/jobs`.
//! * `GET /metrics` — counter snapshot as JSON, or Prometheus text
//!   exposition with `?format=prometheus` (or `Accept: text/plain`).
//! * `GET /trace/jobs` — recent profiled jobs as a Chrome trace-event
//!   document (load it in `chrome://tracing` or Perfetto).
//! * `GET /healthz` — liveness probe.
//! * `GET /perf/*` — read-only perf-history queries, served when a
//!   [`PerfSource`] is mounted via [`serve_with_perf`] (see
//!   [`crate::perf`]); 404 otherwise.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use skilltax_report::prometheus::{PromWriter, PROMETHEUS_CONTENT_TYPE};
use skilltax_report::trace::{chrome_trace, TraceTrack};

use crate::perf::{self, PerfSource};
use crate::proto::{outcome_json, parse_request_profiled, rejection_json, Rejection};
use crate::service::{Service, ServiceMetrics};

const JSON_CONTENT_TYPE: &str = "application/json";

/// Environment knob for the listen address.
pub const ADDR_ENV: &str = "SKILLTAX_SERVICE_ADDR";

/// HTTP front-end configuration.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Listen address (`SKILLTAX_SERVICE_ADDR` overrides the default
    /// `127.0.0.1:0` when [`HttpConfig::default`] builds the config).
    pub addr: String,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Cap on the request line plus headers.
    pub max_header_bytes: usize,
    /// Cap on the request body.
    pub max_body_bytes: usize,
}

impl Default for HttpConfig {
    fn default() -> HttpConfig {
        HttpConfig {
            addr: std::env::var(ADDR_ENV).unwrap_or_else(|_| "127.0.0.1:0".to_string()),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            max_header_bytes: 8 * 1024,
            max_body_bytes: 16 * 1024,
        }
    }
}

/// A running HTTP server; dropping it (or calling
/// [`HttpServer::shutdown`]) stops the accept loop.
pub struct HttpServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    threads: Arc<Threads<TcpStream>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl HttpServer {
    /// The bound address (useful with the `:0` ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connection threads alive now, parked or serving; never more than
    /// [`Service::job_capacity`] plus [`CONNECTION_RESERVE`].
    pub fn connection_threads(&self) -> usize {
        self.threads.lock().live
    }

    /// Stop accepting connections, join the accept loop and retire the
    /// connection threads: parked ones wake and exit, busy ones exit
    /// after their current connection (bounded by its timeouts).
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
        // The accept thread owns the connection pool, so joining it also
        // retires the pool (see `ConnectionPool`'s `Drop`).
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve `service` over HTTP.  Returns once the socket is bound and the
/// accept loop is running.
pub fn serve(service: Arc<Service>, config: HttpConfig) -> io::Result<HttpServer> {
    serve_with_perf(service, config, None)
}

/// Like [`serve`], additionally mounting the read-only `GET /perf/*`
/// endpoints on `perf` (see [`crate::perf`]).  With `None` the perf
/// routes answer 404, keeping the job-only deployment unchanged.
pub fn serve_with_perf(
    service: Arc<Service>,
    config: HttpConfig,
    perf: Option<Arc<dyn PerfSource>>,
) -> io::Result<HttpServer> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let epoch = Instant::now();
    let cap = service.job_capacity() + CONNECTION_RESERVE;
    let refusals = Arc::clone(&service);
    // Connection threads never borrow a job worker, so a stalled client
    // holds only its own thread, and only until its timeouts expire.
    let pool = ConnectionPool::new(cap, move |stream| {
        let _ = handle_connection(&service, &config, epoch, perf.as_deref(), stream);
    });
    let threads = Arc::clone(&pool.threads);
    let accept = std::thread::spawn(move || {
        accept_loop(
            || listener.accept().map(|(stream, _)| stream),
            &accept_stop,
            |stream| {
                if let Err(stream) = pool.dispatch(stream) {
                    refuse(&refusals, stream);
                }
            },
        );
    });
    Ok(HttpServer {
        local_addr,
        stop,
        accept: Some(accept),
        threads,
    })
}

/// Connections one connection thread serves before it exits.  Reuse
/// saves the 39–48 µs of CPU a thread spawn costs, but a thread that
/// never exits keeps 240–270 KB resident, against 32–60 KB for one that
/// served a single connection: glibc's per-thread cache pins freed
/// chunks for the thread's lifetime.  Exiting after 64 spreads each
/// spawn over 64 connections and bounds that growth (DESIGN.md §11).
const CONNECTIONS_PER_THREAD: usize = 64;

/// Connection threads allowed beyond one per job the service can hold:
/// headroom for `GET` routes and slow clients while every job slot is
/// taken.
pub const CONNECTION_RESERVE: usize = 8;

/// Name of every connection thread.
const CONNECTION_THREAD_NAME: &str = "skilltax-conn";

/// Write timeout for the `503` at the cap.  The accept thread writes it
/// itself, so it must never wait long on that client.
const REFUSAL_WRITE_TIMEOUT: Duration = Duration::from_millis(10);

/// The connection threads' shared state: the cap, the live count it
/// bounds, and the LIFO stack of parked threads.
struct Threads<S> {
    cap: usize,
    state: Mutex<ThreadsState<S>>,
}

struct ThreadsState<S> {
    /// Threads alive, parked or serving.
    live: usize,
    /// One-slot hand-off channels of the parked threads, most recently
    /// parked last.
    parked: Vec<SyncSender<S>>,
    /// Raised by shutdown: no thread parks again.
    retired: bool,
}

impl<S> Threads<S> {
    /// Every critical section leaves the state consistent (none can
    /// panic midway), so a poisoned lock is safe to keep using.
    fn lock(&self) -> MutexGuard<'_, ThreadsState<S>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake every parked thread to exit (dropping its channel's sender
    /// ends its wait) and stop busy ones from parking again.
    fn retire(&self) {
        let mut state = self.lock();
        state.retired = true;
        state.parked.clear();
    }
}

/// One live thread's place under the cap, given back on drop: when the
/// thread exits, when it panics, and when it never starts.
struct LiveSlot<S>(Arc<Threads<S>>);

impl<S> Drop for LiveSlot<S> {
    fn drop(&mut self) {
        self.0.lock().live -= 1;
    }
}

/// Bounded, reused connection threads, generic over what a connection
/// is (`S`) and how one is served (`F`).
struct ConnectionPool<S, F> {
    threads: Arc<Threads<S>>,
    serve: Arc<F>,
}

impl<S, F> ConnectionPool<S, F>
where
    S: Send + 'static,
    F: Fn(S) + Send + Sync + 'static,
{
    fn new(cap: usize, serve: F) -> ConnectionPool<S, F> {
        ConnectionPool {
            threads: Arc::new(Threads {
                cap,
                state: Mutex::new(ThreadsState {
                    live: 0,
                    parked: Vec::new(),
                    retired: false,
                }),
            }),
            serve: Arc::new(serve),
        }
    }

    /// Hand `conn` to the most recently parked thread, or to a new
    /// thread when none is parked.  At the cap `conn` comes back for the
    /// caller to refuse.  If the OS refuses a new thread, `conn` is
    /// dropped, which closes it.
    fn dispatch(&self, mut conn: S) -> Result<(), S> {
        let mut state = self.threads.lock();
        while let Some(parked) = state.parked.pop() {
            match parked.try_send(conn) {
                Ok(()) => return Ok(()),
                // A parked thread waits on its empty slot until woken,
                // so this is unreachable; trying the next one is safe.
                Err(TrySendError::Full(back) | TrySendError::Disconnected(back)) => conn = back,
            }
        }
        if state.live >= self.threads.cap {
            return Err(conn);
        }
        state.live += 1;
        drop(state);
        let slot = LiveSlot(Arc::clone(&self.threads));
        let serve = Arc::clone(&self.serve);
        // Detached: shutdown must not wait on a slow client, and `slot`
        // gives the place back however the thread ends.
        let _ = std::thread::Builder::new()
            .name(CONNECTION_THREAD_NAME.to_owned())
            .spawn(move || connection_thread(&slot, &*serve, conn));
        Ok(())
    }
}

/// The accept thread owns the pool, so this retires the connection
/// threads when the accept loop ends.
impl<S, F> Drop for ConnectionPool<S, F> {
    fn drop(&mut self) {
        self.threads.retire();
    }
}

/// A connection thread: serve `conn`, park until the accept thread hands
/// over the next one, and exit after [`CONNECTIONS_PER_THREAD`] or once
/// the pool retires.
fn connection_thread<S, F: Fn(S)>(slot: &LiveSlot<S>, serve: &F, mut conn: S) {
    for _ in 1..CONNECTIONS_PER_THREAD {
        serve(conn);
        let (handoff, next) = mpsc::sync_channel(1);
        {
            let mut state = slot.0.lock();
            if state.retired {
                return;
            }
            state.parked.push(handoff);
        }
        match next.recv() {
            Ok(handed) => conn = handed,
            Err(_) => return,
        }
    }
    serve(conn);
}

/// Turn away a connection the thread cap refused: `503` with
/// `Retry-After`, written by the accept thread under a short write
/// timeout.  Request bytes already received are read without blocking,
/// so the close is less likely to reset the response away.
fn refuse(service: &Service, mut stream: TcpStream) {
    service.record_refused_connection();
    let _ = stream.set_write_timeout(Some(REFUSAL_WRITE_TIMEOUT));
    let _ = write_response(
        &mut stream,
        "503 Service Unavailable",
        JSON_CONTENT_TYPE,
        Some(1_000),
        "{\"error\":\"connection threads at capacity\"}",
    );
    let _ = stream.shutdown(Shutdown::Write);
    if stream.set_nonblocking(true).is_ok() {
        let mut sink = [0u8; 1024];
        for _ in 0..16 {
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }
}

/// First pause after a failed accept.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
/// Longest pause between failed accepts.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

/// The pause schedule after consecutive failed accepts: 1 ms, doubling
/// up to 100 ms, back to 1 ms after the next successful accept.
#[derive(Debug)]
struct AcceptBackoff {
    next: Duration,
}

impl AcceptBackoff {
    fn new() -> AcceptBackoff {
        AcceptBackoff {
            next: ACCEPT_BACKOFF_MIN,
        }
    }

    /// The pause after one more failed accept.
    fn failed(&mut self) -> Duration {
        let pause = self.next;
        self.next = (pause * 2).min(ACCEPT_BACKOFF_MAX);
        pause
    }

    fn succeeded(&mut self) {
        self.next = ACCEPT_BACKOFF_MIN;
    }
}

/// Accept connections until `stop` is raised, handing each to `serve`.
/// A persistent accept error (EMFILE, say) would otherwise spin a core,
/// so failures back off ([`AcceptBackoff`]).  The flag is checked after
/// every accept, so shutdown waits at most one pause plus one accept.
fn accept_loop<S>(
    mut accept: impl FnMut() -> io::Result<S>,
    stop: &AtomicBool,
    mut serve: impl FnMut(S),
) {
    let mut backoff = AcceptBackoff::new();
    loop {
        let accepted = accept();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok(stream) => {
                backoff.succeeded();
                serve(stream);
            }
            Err(_) => std::thread::sleep(backoff.failed()),
        }
    }
}

fn metrics_json(m: &ServiceMetrics) -> String {
    let outcomes: Vec<String> = m
        .outcomes
        .iter()
        .map(|(label, count)| format!("\"{label}\":{count}"))
        .collect();
    format!(
        "{{\"submitted\":{},\"admitted\":{},\"rejected\":{},\"finished\":{},\
         \"in_flight\":{},\"peak_depth\":{},\"trace_events_dropped\":{},\"outcomes\":{{{}}},\
         \"refused_connections\":{}}}",
        m.submitted,
        m.admitted,
        m.rejected(),
        m.finished(),
        m.in_flight,
        m.peak_depth,
        m.trace_events_dropped,
        outcomes.join(","),
        m.refused_connections
    )
}

/// Render a [`ServiceMetrics`] snapshot as Prometheus text exposition
/// (format 0.0.4) — what `GET /metrics?format=prometheus` serves.
/// Tenant ids appear as escaped label values, and the log2 wait/cycle
/// histograms flatten into cumulative `_bucket` series.
pub fn prometheus_text(m: &ServiceMetrics) -> String {
    let mut w = PromWriter::new();
    w.family(
        "skilltax_jobs_submitted_total",
        "counter",
        "Requests offered to submit.",
    )
    .sample("skilltax_jobs_submitted_total", &[], m.submitted);
    w.family(
        "skilltax_jobs_admitted_total",
        "counter",
        "Requests admitted to the queue.",
    )
    .sample("skilltax_jobs_admitted_total", &[], m.admitted);
    w.family(
        "skilltax_jobs_rejected_total",
        "counter",
        "Requests refused, by reason.",
    );
    for (reason, count) in [
        ("queue_full", m.rejected_queue_full),
        ("quota", m.rejected_quota),
        ("oversized", m.rejected_oversized),
        ("shutdown", m.rejected_shutdown),
    ] {
        w.sample("skilltax_jobs_rejected_total", &[("reason", reason)], count);
    }
    w.family(
        "skilltax_http_refused_connections_total",
        "counter",
        "Connections refused with 503 at the connection-thread cap.",
    )
    .sample(
        "skilltax_http_refused_connections_total",
        &[],
        m.refused_connections,
    );
    w.family(
        "skilltax_jobs_finished_total",
        "counter",
        "Terminal outcomes, by label.",
    );
    for (label, count) in &m.outcomes {
        w.sample(
            "skilltax_jobs_finished_total",
            &[("outcome", label)],
            *count,
        );
    }
    w.family(
        "skilltax_jobs_in_flight",
        "gauge",
        "Jobs currently executing.",
    )
    .sample("skilltax_jobs_in_flight", &[], m.in_flight as u64);
    w.family(
        "skilltax_queue_peak_depth",
        "gauge",
        "Deepest the queue has been.",
    )
    .sample("skilltax_queue_peak_depth", &[], m.peak_depth as u64);
    w.family(
        "skilltax_tenant_jobs_total",
        "counter",
        "Per-tenant job counts, by stage.",
    );
    for (tenant, (admitted, finished)) in &m.per_tenant {
        w.sample(
            "skilltax_tenant_jobs_total",
            &[("tenant", tenant), ("stage", "admitted")],
            *admitted,
        );
        w.sample(
            "skilltax_tenant_jobs_total",
            &[("tenant", tenant), ("stage", "finished")],
            *finished,
        );
    }
    w.family(
        "skilltax_trace_events_dropped_total",
        "counter",
        "Telemetry events evicted from bounded trace rings.",
    )
    .sample(
        "skilltax_trace_events_dropped_total",
        &[],
        m.trace_events_dropped,
    );
    w.family(
        "skilltax_queue_wait_ms",
        "histogram",
        "Queue wait per admitted job, milliseconds.",
    );
    w.log2_histogram(
        "skilltax_queue_wait_ms",
        &[],
        m.queue_wait_ms.bucket_counts(),
        m.queue_wait_ms.sum,
        m.queue_wait_ms.count,
    );
    w.family(
        "skilltax_run_cycles",
        "histogram",
        "Simulated cycles consumed per finished job.",
    );
    w.log2_histogram(
        "skilltax_run_cycles",
        &[],
        m.run_cycles.bucket_counts(),
        m.run_cycles.sum,
        m.run_cycles.count,
    );
    w.finish()
}

fn trace_jobs_json(service: &Service) -> String {
    let tracks: Vec<TraceTrack> = service
        .traces()
        .into_iter()
        .map(|t| TraceTrack {
            pid: t.id,
            tid: 0,
            name: format!("job {} {}/{} ({})", t.id, t.tenant, t.kind, t.outcome),
            spans: t.spans,
            marks: t.marks,
            // Span stamps are nanoseconds; Chrome trace ts/dur are µs.
            scale: 1e-3,
        })
        .collect();
    chrome_trace(&tracks).emit()
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    retry_after_ms: Option<u64>,
    body: &str,
) -> io::Result<()> {
    let retry_header = match retry_after_ms {
        // Retry-After is in whole seconds; round up so "soon" is never 0.
        Some(ms) => format!("Retry-After: {}\r\n", ms.div_ceil(1_000).max(1)),
        None => String::new(),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n{retry_header}\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

fn rejection_response(stream: &mut TcpStream, rejection: &Rejection) -> io::Result<()> {
    let status = match rejection {
        Rejection::QueueFull { .. } | Rejection::QuotaExhausted { .. } => "429 Too Many Requests",
        Rejection::Oversized { .. } => "413 Payload Too Large",
        Rejection::Malformed(_) => "400 Bad Request",
        Rejection::ShuttingDown => "503 Service Unavailable",
    };
    write_response(
        stream,
        status,
        JSON_CONTENT_TYPE,
        rejection.retry_after_ms(),
        &rejection_json(rejection),
    )
}

fn plain_error(stream: &mut TcpStream, status: &str, message: &str) -> io::Result<()> {
    write_response(
        stream,
        status,
        JSON_CONTENT_TYPE,
        None,
        &format!("{{\"error\":\"{message}\"}}"),
    )
}

/// Read until the end of the header block, enforcing the header cap.
/// Returns the raw bytes read so far (head plus any body prefix) and the
/// offset where the body starts.
fn read_head(
    stream: &mut TcpStream,
    max_header_bytes: usize,
) -> io::Result<Result<(Vec<u8>, usize), &'static str>> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(pos) = find_header_end(&buf) {
            return Ok(Ok((buf, pos)));
        }
        if buf.len() > max_header_bytes {
            return Ok(Err("431 Request Header Fields Too Large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            // Peer closed mid-header.
            return Ok(Err("400 Bad Request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Strict `Content-Length` extraction over the parsed header lines.
///
/// Absent means 0 (a GET without a body).  Anything else malformed is a
/// hard error, never a silent default: a non-digit value (including a
/// negative sign), a value that overflows `usize`, or duplicated
/// headers that disagree — the classic request-smuggling shapes — all
/// reject with the reason the 400 body carries.
fn parse_content_length<'a>(lines: impl Iterator<Item = &'a str>) -> Result<usize, &'static str> {
    let mut length: Option<usize> = None;
    for line in lines {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        if !key.trim().eq_ignore_ascii_case("content-length") {
            continue;
        }
        let value = value.trim();
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err("malformed Content-Length");
        }
        let parsed: usize = value.parse().map_err(|_| "Content-Length overflows")?;
        match length {
            Some(previous) if previous != parsed => {
                return Err("conflicting Content-Length headers");
            }
            _ => length = Some(parsed),
        }
    }
    Ok(length.unwrap_or(0))
}

fn handle_connection(
    service: &Service,
    config: &HttpConfig,
    epoch: Instant,
    perf: Option<&dyn PerfSource>,
    mut stream: TcpStream,
) -> io::Result<()> {
    let result = serve_once(service, config, epoch, perf, &mut stream);
    // Graceful close: signal EOF to the peer first, then drain whatever
    // request bytes are still in flight (bounded by the read timeout),
    // so a capped request sees the error response instead of a reset.
    let _ = stream.shutdown(Shutdown::Write);
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    result
}

fn serve_once(
    service: &Service,
    config: &HttpConfig,
    epoch: Instant,
    perf: Option<&dyn PerfSource>,
    stream: &mut TcpStream,
) -> io::Result<()> {
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    let (buf, body_start) = match read_head(stream, config.max_header_bytes) {
        Ok(Ok(head)) => head,
        Ok(Err(status)) => return plain_error(stream, status, "bad request head"),
        // A read timeout is the slow-loris case: answer 408 and hang up.
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            return plain_error(stream, "408 Request Timeout", "request head timed out");
        }
        Err(e) => return Err(e),
    };
    let head = String::from_utf8_lossy(&buf[..body_start]).to_string();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, path) = (
        parts.next().unwrap_or_default().to_string(),
        parts.next().unwrap_or_default().to_string(),
    );
    let header_lines: Vec<&str> = lines.collect();
    let content_length = match parse_content_length(header_lines.iter().copied()) {
        Ok(n) => n,
        Err(reason) => return plain_error(stream, "400 Bad Request", reason),
    };
    let accept = header_value(header_lines.iter().copied(), "accept").unwrap_or("");
    if path == "/perf" || path.starts_with("/perf/") || path.starts_with("/perf?") {
        return match (method.as_str(), perf) {
            ("GET", Some(source)) => {
                let (status, body) = perf::respond(source, &path);
                write_response(stream, status, JSON_CONTENT_TYPE, None, &body)
            }
            (_, Some(_)) => plain_error(stream, "405 Method Not Allowed", "perf routes are GET"),
            (_, None) => plain_error(stream, "404 Not Found", "no perf store mounted"),
        };
    }
    // Routing splits the query string off; handlers that care parse it.
    let (route, query) = match path.split_once('?') {
        Some((route, query)) => (route, query),
        None => (path.as_str(), ""),
    };
    match (method.as_str(), route) {
        ("GET", "/healthz") => {
            write_response(stream, "200 OK", JSON_CONTENT_TYPE, None, "{\"ok\":true}")
        }
        ("GET", "/metrics") => {
            let metrics = service.metrics();
            if wants_prometheus(query, accept) {
                let body = prometheus_text(&metrics);
                write_response(stream, "200 OK", PROMETHEUS_CONTENT_TYPE, None, &body)
            } else {
                let body = metrics_json(&metrics);
                write_response(stream, "200 OK", JSON_CONTENT_TYPE, None, &body)
            }
        }
        ("GET", "/trace/jobs") => {
            let body = trace_jobs_json(service);
            write_response(stream, "200 OK", JSON_CONTENT_TYPE, None, &body)
        }
        ("POST", "/jobs") => {
            if content_length > config.max_body_bytes {
                return plain_error(stream, "413 Payload Too Large", "body over cap");
            }
            let mut body = buf[body_start..].to_vec();
            while body.len() < content_length {
                let mut chunk = [0u8; 1024];
                let n = match stream.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => n,
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        // Slow-loris body: typed timeout, connection done.
                        return plain_error(
                            stream,
                            "408 Request Timeout",
                            "request body timed out",
                        );
                    }
                    Err(e) => return Err(e),
                };
                body.extend_from_slice(&chunk[..n]);
            }
            body.truncate(content_length);
            let body = String::from_utf8_lossy(&body).to_string();
            let parse_start = Instant::now();
            let (request, profiled) = match parse_request_profiled(&body) {
                Ok(parsed) => parsed,
                Err(rejection) => return rejection_response(stream, &rejection),
            };
            let parse_ns = parse_start.elapsed().as_nanos() as u64;
            let now_ms = epoch.elapsed().as_millis() as u64;
            let submitted = if profiled {
                service.submit_profiled(now_ms, request, parse_ns)
            } else {
                service.submit(now_ms, request)
            };
            match submitted {
                Ok(ticket) => {
                    let id = ticket.id();
                    let outcome = ticket.wait();
                    let respond_start = Instant::now();
                    let result = write_response(
                        stream,
                        "200 OK",
                        JSON_CONTENT_TYPE,
                        None,
                        &outcome_json(&outcome),
                    );
                    if profiled {
                        // The respond span is only knowable after the
                        // bytes are on the wire; stitch it in post-hoc.
                        service.finish_trace(id, respond_start.elapsed().as_nanos() as u64);
                    }
                    result
                }
                Err(rejection) => rejection_response(stream, &rejection),
            }
        }
        _ => plain_error(stream, "404 Not Found", "no such route"),
    }
}

/// First value of a header (case-insensitive name) among the raw lines.
fn header_value<'a>(lines: impl Iterator<Item = &'a str>, name: &str) -> Option<&'a str> {
    for line in lines {
        if let Some((key, value)) = line.split_once(':') {
            if key.trim().eq_ignore_ascii_case(name) {
                return Some(value.trim());
            }
        }
    }
    None
}

/// `?format=prometheus` wins; otherwise an `Accept` preferring
/// `text/plain` selects the exposition format.  JSON stays the default
/// so existing scrapers keep working.
fn wants_prometheus(query: &str, accept: &str) -> bool {
    if query.split('&').any(|pair| pair == "format=prometheus") {
        return true;
    }
    if query.split('&').any(|pair| pair == "format=json") {
        return false;
    }
    accept
        .split(',')
        .any(|part| part.trim().split(';').next() == Some("text/plain"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Poll `done` for up to five seconds.
    fn eventually(mut done: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn a_panicking_connection_thread_gives_its_place_back() {
        let (served, seen) = mpsc::channel();
        let pool = ConnectionPool::new(1, move |n: u32| {
            assert_ne!(n, 0, "connection 0 panics its thread");
            served.send(n).unwrap();
        });
        assert!(pool.dispatch(0).is_ok());
        assert!(eventually(|| pool.threads.lock().live == 0));
        // The cap is 1 and the panicked thread is gone: the next
        // connection gets a fresh thread, not a refusal.
        assert!(pool.dispatch(1).is_ok());
        assert_eq!(seen.recv_timeout(Duration::from_secs(5)), Ok(1));
    }

    #[test]
    fn the_cap_refuses_while_every_thread_is_busy() {
        let (release, gate) = mpsc::sync_channel::<()>(0);
        let gate = Mutex::new(gate);
        let pool = ConnectionPool::new(1, move |()| {
            let _ = gate.lock().unwrap().recv();
        });
        assert!(pool.dispatch(()).is_ok());
        assert_eq!(pool.dispatch(()), Err(()));
        release.send(()).unwrap();
        assert!(eventually(|| pool.threads.lock().parked.len() == 1));
        assert!(pool.dispatch(()).is_ok());
        release.send(()).unwrap();
    }

    #[test]
    fn threads_are_reused_then_retire_after_their_quota() {
        let (served, seen) = mpsc::channel();
        let pool = ConnectionPool::new(4, move |()| {
            served.send(std::thread::current().id()).unwrap();
        });
        let mut ids = Vec::new();
        for _ in 0..2 * CONNECTIONS_PER_THREAD + 1 {
            assert!(pool.dispatch(()).is_ok());
            ids.push(seen.recv_timeout(Duration::from_secs(5)).unwrap());
            // Wait for the thread to park again or, at its quota, exit.
            assert!(eventually(|| {
                let state = pool.threads.lock();
                state.parked.len() == 1 || state.live == 0
            }));
        }
        let per_thread = CONNECTIONS_PER_THREAD;
        assert!(ids[..per_thread].iter().all(|id| *id == ids[0]));
        assert!(ids[per_thread..2 * per_thread]
            .iter()
            .all(|id| *id == ids[per_thread]));
        assert_ne!(ids[0], ids[per_thread]);
        assert_ne!(ids[per_thread], ids[2 * per_thread]);
    }

    #[test]
    fn dropping_the_pool_retires_parked_and_busy_threads() {
        let (release, gate) = mpsc::sync_channel::<()>(0);
        let gate = Mutex::new(gate);
        let pool = ConnectionPool::new(4, move |busy: bool| {
            if busy {
                let _ = gate.lock().unwrap().recv();
            }
        });
        assert!(pool.dispatch(false).is_ok());
        assert!(eventually(|| pool.threads.lock().parked.len() == 1));
        assert!(pool.dispatch(true).is_ok());
        // The parked thread takes the busy connection; hand the next
        // one to a second thread so one parks while one serves.
        assert!(pool.dispatch(false).is_ok());
        assert!(eventually(|| pool.threads.lock().parked.len() == 1));
        let threads = Arc::clone(&pool.threads);
        drop(pool);
        // The parked thread exits at once; the busy one after its
        // connection, instead of parking again.
        assert!(eventually(|| threads.lock().live == 1));
        release.send(()).unwrap();
        assert!(eventually(|| threads.lock().live == 0));
        assert!(threads.lock().parked.is_empty());
    }

    #[test]
    fn accept_backoff_doubles_to_its_cap_and_resets_on_success() {
        let mut backoff = AcceptBackoff::new();
        let ms = |d: Duration| d.as_millis();
        let schedule: Vec<u128> = (0..10).map(|_| ms(backoff.failed())).collect();
        assert_eq!(schedule, [1, 2, 4, 8, 16, 32, 64, 100, 100, 100]);
        backoff.succeeded();
        assert_eq!(ms(backoff.failed()), 1);
        assert_eq!(ms(backoff.failed()), 2);
    }

    #[test]
    fn persistent_accept_errors_back_off_instead_of_spinning() {
        let stop = AtomicBool::new(false);
        let calls = AtomicUsize::new(0);
        let started = Instant::now();
        accept_loop(
            || -> io::Result<()> {
                // Stop once the pauses have reached their cap.
                if calls.fetch_add(1, Ordering::SeqCst) == 9 {
                    stop.store(true, Ordering::SeqCst);
                }
                Err(io::Error::other("too many open files"))
            },
            &stop,
            |()| panic!("nothing was accepted"),
        );
        // Nine failures slept 1+2+...+64+100+100 ms.
        assert_eq!(calls.load(Ordering::SeqCst), 10);
        assert!(started.elapsed() >= Duration::from_millis(327));
    }

    #[test]
    fn shutdown_during_backoff_is_bounded() {
        let stop = Arc::new(AtomicBool::new(false));
        let calls = Arc::new(AtomicUsize::new(0));
        let looping = {
            let (stop, calls) = (Arc::clone(&stop), Arc::clone(&calls));
            std::thread::spawn(move || {
                accept_loop(
                    || -> io::Result<()> {
                        calls.fetch_add(1, Ordering::SeqCst);
                        Err(io::Error::other("too many open files"))
                    },
                    &stop,
                    |()| {},
                );
            })
        };
        // Let the pauses grow to their 100 ms cap, then stop mid-pause.
        while calls.load(Ordering::SeqCst) < 9 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let raised = Instant::now();
        stop.store(true, Ordering::SeqCst);
        looping.join().unwrap();
        // One pause (at most 100 ms) and one accept, with slack for a
        // loaded host.
        assert!(raised.elapsed() < Duration::from_millis(1_000));
        // A hot loop would have made millions of calls by now.
        assert!(calls.load(Ordering::SeqCst) < 20);
    }

    #[test]
    fn accepted_streams_reach_serve_until_stop() {
        let stop = AtomicBool::new(false);
        let script = std::cell::Cell::new(0);
        let served = std::cell::RefCell::new(Vec::new());
        accept_loop(
            || {
                let n = script.get();
                script.set(n + 1);
                match n {
                    0 | 1 | 3 => Err(io::Error::other("transient")),
                    5 => {
                        stop.store(true, Ordering::SeqCst);
                        Ok(n)
                    }
                    _ => Ok(n),
                }
            },
            &stop,
            |n| served.borrow_mut().push(n),
        );
        // The accept that raced the stop flag is not served.
        assert_eq!(served.into_inner(), [2, 4]);
    }
}
