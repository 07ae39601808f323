//! A hand-rolled HTTP/1.1 front end over [`std::net::TcpListener`] — no
//! framework, no new dependencies, and defensive by construction: every
//! connection carries a read and a write timeout, the request head and
//! body are capped, and a slow-loris client times out on its own
//! connection thread without ever pinning a job worker.
//!
//! Connection threads accept for themselves (leader/followers): each
//! blocks in `accept` on the shared listener, serves the connection it
//! takes (one request, then `Connection: close`) and goes back to
//! `accept`, until it has served `CONNECTIONS_PER_THREAD` (64).  The
//! thread that takes the last idle place spawns a replacement, so one
//! thread stays in `accept`.  At most [`Service::job_capacity`] plus
//! [`CONNECTION_RESERVE`] threads serve at once; past that the thread
//! left in `accept` answers `503` with `Retry-After` itself, counted in
//! `/metrics` as `refused_connections`.  A cheap job runs on its
//! connection thread when a worker would start it at once
//! ([`Service::call`]).
//!
//! Routes:
//!
//! * `POST /jobs` — a `key=value&…` body ([`crate::proto::parse_request`]);
//!   replies `200` with the outcome JSON, or a typed 4xx with a
//!   `Retry-After` header where retrying helps.  Add `profile=true` to
//!   the body and the job is span-profiled end to end; the assembled
//!   timeline lands in the trace ring behind `GET /trace/jobs`.  A
//!   client that closes while its job waits for a worker cancels it.
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
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

use skilltax_report::prometheus::{PromWriter, PROMETHEUS_CONTENT_TYPE};
use skilltax_report::trace::{chrome_trace, TraceTrack};

use crate::perf::{self, PerfSource};
use crate::proto::{outcome_json, parse_request_profiled, rejection_json, JobOutcome, Rejection};
use crate::service::{JobTicket, Service, ServiceMetrics};

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
/// [`HttpServer::shutdown`]) stops the connection threads.
#[derive(Debug)]
pub struct HttpServer {
    local_addr: SocketAddr,
    /// Owned by the connection threads; the last to exit frees the service.
    acceptors: Weak<Acceptors<Http>>,
}

impl HttpServer {
    /// The bound address (useful with the `:0` ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connection threads alive now, accepting or serving: at most one
    /// more than [`Service::job_capacity`] plus [`CONNECTION_RESERVE`].
    pub fn connection_threads(&self) -> usize {
        self.acceptors.upgrade().map_or(0, |a| a.lock().live)
    }

    /// Stop accepting connections: threads in `accept` wake and exit,
    /// busy ones exit after their current connection (bounded by its
    /// timeouts).
    pub fn shutdown(&mut self) {
        // One throwaway connection per thread blocked in `accept`.
        for _ in 0..self.acceptors.upgrade().map_or(0, |a| a.stop()) {
            let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve `service` over HTTP.  Returns once the socket is bound and the
/// first connection thread is spawned.
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
    let cap = service.job_capacity() + CONNECTION_RESERVE;
    let http = Http {
        listener,
        service,
        config,
        epoch: Instant::now(),
        perf,
    };
    let acceptors = Arc::downgrade(&Acceptors::start(http, cap)?);
    Ok(HttpServer {
        local_addr,
        acceptors,
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

/// Write timeout for the `503` at the cap.  The thread left in `accept`
/// writes it itself, so it must never wait long on that client.
const REFUSAL_WRITE_TIMEOUT: Duration = Duration::from_millis(10);

/// What connection threads do with connections.  The HTTP front end is
/// the one implementation; the unit tests drive the threads with a fake.
trait Front: Send + Sync + 'static {
    /// One accepted connection.
    type Conn;
    /// Block until the next connection arrives.
    fn accept(&self) -> io::Result<Self::Conn>;
    /// Serve `conn` to its close.
    fn serve(&self, conn: Self::Conn);
    /// Turn `conn` away at the cap without blocking on it.
    fn refuse(&self, conn: Self::Conn);
}

/// The connection threads' shared state: the front they serve, the cap
/// and the census it bounds.
struct Acceptors<F> {
    front: F,
    /// Most threads serving at once; one more stays in `accept`.
    cap: usize,
    census: Mutex<Census>,
}

struct Census {
    /// Threads alive, accepting or serving.
    live: usize,
    /// Threads in `accept`, or on their way to it.
    idle: usize,
    /// Raised by shutdown: no thread serves or accepts again.
    stopped: bool,
}

impl<F: Front> Acceptors<F> {
    /// The first connection thread, in `accept` on `front`.
    fn start(front: F, cap: usize) -> io::Result<Arc<Acceptors<F>>> {
        let acceptors = Arc::new(Acceptors {
            front,
            cap,
            census: Mutex::new(Census {
                live: 1,
                idle: 1,
                stopped: false,
            }),
        });
        spawn_acceptor(&acceptors)?;
        Ok(acceptors)
    }

    /// Every critical section leaves the census consistent (none can
    /// panic midway), so a poisoned lock is safe to keep using.
    fn lock(&self) -> MutexGuard<'_, Census> {
        self.census.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Raise the stop flag and return how many threads wait in `accept`
    /// and need a connection to wake them (0 when already stopped).
    fn stop(&self) -> usize {
        let mut census = self.lock();
        if std::mem::replace(&mut census.stopped, true) {
            return 0;
        }
        census.idle
    }
}

/// One live thread's place under the cap, given back on drop: when the
/// thread exits, when it panics, and when it never starts.
struct LiveSlot<F: Front>(Arc<Acceptors<F>>);

impl<F: Front> Drop for LiveSlot<F> {
    fn drop(&mut self) {
        self.0.lock().live -= 1;
    }
}

/// Start a connection thread the caller has already counted as live and
/// idle.  If the OS refuses the thread, both counts are given back.
fn spawn_acceptor<F: Front>(acceptors: &Arc<Acceptors<F>>) -> io::Result<()> {
    let slot = LiveSlot(Arc::clone(acceptors));
    // Detached: shutdown must not wait on a slow client, and `slot`
    // gives the place back however the thread ends.
    let spawned = std::thread::Builder::new()
        .name(CONNECTION_THREAD_NAME.to_owned())
        .spawn(move || acceptor(&slot));
    if spawned.is_err() {
        // The unstarted closure, and the slot in it, are dropped.
        acceptors.lock().idle -= 1;
    }
    spawned.map(drop)
}

/// A connection thread: accept, serve, and accept again, until shutdown
/// or [`CONNECTIONS_PER_THREAD`] connections.  The thread that takes the
/// last idle place spawns a replacement while at most `cap` serve; past
/// the cap it refuses the connection and goes back to `accept`.  A
/// persistent accept error (EMFILE, say) would otherwise spin a core,
/// so failures back off ([`AcceptBackoff`]).
fn acceptor<F: Front>(slot: &LiveSlot<F>) {
    let acceptors = &slot.0;
    let mut backoff = AcceptBackoff::new();
    let mut served = 0;
    loop {
        let accepted = acceptors.front.accept();
        let mut census = acceptors.lock();
        census.idle -= 1;
        if census.stopped {
            return;
        }
        let Ok(conn) = accepted else {
            census.idle += 1;
            drop(census);
            std::thread::sleep(backoff.failed());
            continue;
        };
        backoff.succeeded();
        // The last thread in `accept` keeps a thread there: it refuses
        // at the cap, and otherwise counts in a replacement first.
        let last = census.idle == 0;
        if last && census.live > acceptors.cap {
            census.idle += 1;
            drop(census);
            acceptors.front.refuse(conn);
            continue;
        }
        census.live += usize::from(last);
        census.idle += usize::from(last);
        drop(census);
        if last {
            // On failure the place is given back; the next thread to
            // finish its connection returns to `accept`.
            let _ = spawn_acceptor(acceptors);
        }
        acceptors.front.serve(conn);
        served += 1;
        let mut census = acceptors.lock();
        if census.stopped || served == CONNECTIONS_PER_THREAD {
            return;
        }
        census.idle += 1;
    }
}

/// The HTTP front end the connection threads run.
struct Http {
    listener: TcpListener,
    service: Arc<Service>,
    config: HttpConfig,
    /// Origin of the millisecond admission clock.
    epoch: Instant,
    perf: Option<Arc<dyn PerfSource>>,
}

impl Front for Http {
    type Conn = TcpStream;

    fn accept(&self) -> io::Result<TcpStream> {
        self.listener.accept().map(|(stream, _)| stream)
    }

    fn serve(&self, mut stream: TcpStream) {
        let mut complete = false;
        let _ = serve_once(self, &mut stream, &mut complete);
        // With nothing left unread, closing at once cannot reset the
        // response away; a capped or timed-out request's response closes
        // gracefully (bounded by the read timeout).
        if !complete {
            drain(&mut stream, 64);
        }
    }

    /// `503` with `Retry-After` under a short write timeout.  Request
    /// bytes already received are read without blocking, so the close
    /// is less likely to reset the response away.
    fn refuse(&self, mut stream: TcpStream) {
        self.service.record_refused_connection();
        let _ = stream.set_write_timeout(Some(REFUSAL_WRITE_TIMEOUT));
        let _ = write_response(
            &mut stream,
            "503 Service Unavailable",
            JSON_CONTENT_TYPE,
            Some(1_000),
            "{\"error\":\"connection threads at capacity\"}",
        );
        if stream.set_nonblocking(true).is_ok() {
            drain(&mut stream, 16);
        }
    }
}

/// Signal EOF to the client first, then read what it still sends (up to
/// `reads` chunks), so the close does not reset the response away.
fn drain(stream: &mut TcpStream, reads: usize) {
    let _ = stream.shutdown(Shutdown::Write);
    let mut sink = [0u8; 1024];
    for _ in 0..reads {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
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

fn metrics_json(m: &ServiceMetrics) -> String {
    let outcomes: Vec<String> = m
        .outcomes
        .iter()
        .map(|(label, count)| format!("\"{label}\":{count}"))
        .collect();
    format!(
        "{{\"submitted\":{},\"admitted\":{},\"rejected\":{},\"finished\":{},\
         \"in_flight\":{},\"peak_depth\":{},\"trace_events_dropped\":{},\"outcomes\":{{{}}},\
         \"runs\":{{\"caller\":{},\"worker\":{}}},\"refused_connections\":{}}}",
        m.submitted,
        m.admitted,
        m.rejected(),
        m.finished(),
        m.in_flight,
        m.peak_depth,
        m.trace_events_dropped,
        outcomes.join(","),
        m.caller_runs,
        m.worker_runs,
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
        "skilltax_jobs_run_total",
        "counter",
        "Jobs run, by the thread that ran them: its caller or a worker.",
    );
    for (thread, count) in [("caller", m.caller_runs), ("worker", m.worker_runs)] {
        w.sample("skilltax_jobs_run_total", &[("thread", thread)], count);
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

/// Serve one request.  `complete` is raised once the whole request,
/// head plus `Content-Length` body bytes and nothing more, was read.
fn serve_once(http: &Http, stream: &mut TcpStream, complete: &mut bool) -> io::Result<()> {
    let (service, config) = (&*http.service, &http.config);
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
    *complete = buf.len() == body_start + content_length;
    let accept = header_value(header_lines.iter().copied(), "accept").unwrap_or("");
    if path == "/perf" || path.starts_with("/perf/") || path.starts_with("/perf?") {
        return match (method.as_str(), http.perf.as_deref()) {
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
            *complete = body.len() == content_length;
            body.truncate(content_length);
            let body = String::from_utf8_lossy(&body).to_string();
            let parse_start = Instant::now();
            let (request, profiled) = match parse_request_profiled(&body) {
                Ok(parsed) => parsed,
                Err(rejection) => return rejection_response(stream, &rejection),
            };
            let parse_ns = parse_start.elapsed().as_nanos() as u64;
            let now_ms = http.epoch.elapsed().as_millis() as u64;
            let ticket = match service.call(now_ms, request, profiled.then_some(parse_ns)) {
                Ok(ticket) => ticket,
                Err(rejection) => return rejection_response(stream, &rejection),
            };
            let Some(outcome) = await_outcome(&ticket, stream, config.read_timeout) else {
                // The client left, so nobody reads a response.
                return Ok(());
            };
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
                service.finish_trace(ticket.id(), respond_start.elapsed().as_nanos() as u64);
            }
            result
        }
        _ => plain_error(stream, "404 Not Found", "no such route"),
    }
}

/// The job's outcome, waited for in slices of `slice`.  After each slice
/// a non-blocking peek (which leaves unread any bytes the client sent
/// after the request) checks on the client: once it reads the client's
/// EOF or an error, the job is cancelled and `None` returned.  A job
/// cancelled while queued resolves `Cancelled` without running.
fn await_outcome(ticket: &JobTicket, stream: &TcpStream, slice: Duration) -> Option<JobOutcome> {
    loop {
        if let Some(outcome) = ticket.wait_timeout(slice) {
            return Some(outcome);
        }
        if stream.set_nonblocking(true).is_ok() {
            let peeked = stream.peek(&mut [0u8; 1]);
            let _ = stream.set_nonblocking(false);
            if matches!(peeked, Ok(0))
                || peeked.is_err_and(|e| e.kind() != io::ErrorKind::WouldBlock)
            {
                ticket.cancel();
                return None;
            }
        }
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
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

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

    /// A front fed through a channel: each item is one `accept` result.
    struct Fake {
        incoming: Mutex<mpsc::Receiver<io::Result<u32>>>,
        accepts: AtomicUsize,
        serve: Box<dyn Fn(u32) + Send + Sync>,
        refused: mpsc::Sender<u32>,
    }

    impl Front for Fake {
        type Conn = u32;

        fn accept(&self) -> io::Result<u32> {
            self.accepts.fetch_add(1, Ordering::SeqCst);
            let incoming = self.incoming.lock().unwrap();
            incoming
                .recv()
                .unwrap_or_else(|_| Err(io::Error::other("feed closed")))
        }

        fn serve(&self, conn: u32) {
            (self.serve)(conn);
        }

        fn refuse(&self, conn: u32) {
            self.refused.send(conn).unwrap();
        }
    }

    type Feed = mpsc::Sender<io::Result<u32>>;

    /// Connection threads on a fake front under `cap`, the channel that
    /// feeds them connections, and the one their refusals come out of.
    fn start(
        cap: usize,
        serve: impl Fn(u32) + Send + Sync + 'static,
    ) -> (Arc<Acceptors<Fake>>, Feed, mpsc::Receiver<u32>) {
        let (feed, incoming) = mpsc::channel();
        let (refused, refusals) = mpsc::channel();
        let fake = Fake {
            incoming: Mutex::new(incoming),
            accepts: AtomicUsize::new(0),
            serve: Box::new(serve),
            refused,
        };
        (Acceptors::start(fake, cap).unwrap(), feed, refusals)
    }

    /// Stop the threads, waking the idle ones as `HttpServer::shutdown`
    /// does: one connection each.
    fn stop(acceptors: &Acceptors<Fake>, feed: &Feed) {
        for _ in 0..acceptors.stop() {
            feed.send(Ok(u32::MAX)).unwrap();
        }
    }

    /// Every live thread is back in `accept`.
    fn settled(acceptors: &Acceptors<Fake>) -> bool {
        let census = acceptors.lock();
        census.live == census.idle
    }

    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn a_panicking_connection_thread_gives_its_place_back() {
        let (served, seen) = mpsc::channel();
        let (acceptors, feed, refusals) = start(1, move |n| {
            assert_ne!(n, 0, "connection 0 panics its thread");
            served.send(n).unwrap();
        });
        feed.send(Ok(0)).unwrap();
        // The panicked thread is gone; its replacement waits in accept.
        assert!(eventually(|| {
            acceptors.front.accepts.load(Ordering::SeqCst) == 2 && acceptors.lock().live == 1
        }));
        // The cap is 1: the next connection is served, not refused.
        feed.send(Ok(1)).unwrap();
        assert_eq!(seen.recv_timeout(WAIT), Ok(1));
        assert!(refusals.try_recv().is_err());
        stop(&acceptors, &feed);
    }

    #[test]
    fn the_cap_refuses_while_every_thread_is_busy() {
        let (release, gate) = mpsc::sync_channel::<()>(0);
        let gate = Mutex::new(gate);
        let (acceptors, feed, refusals) = start(1, move |_| {
            gate.lock().unwrap().recv().unwrap();
        });
        // Connection 1 takes the one serving place; the thread it
        // spawned is left in accept, and refuses connection 2.
        feed.send(Ok(1)).unwrap();
        feed.send(Ok(2)).unwrap();
        assert_eq!(refusals.recv_timeout(WAIT), Ok(2));
        assert_eq!(acceptors.lock().live, 2);
        release.send(()).unwrap();
        assert!(eventually(|| settled(&acceptors)));
        // The rendezvous completes only once connection 3 is served.
        feed.send(Ok(3)).unwrap();
        release.send(()).unwrap();
        assert!(refusals.try_recv().is_err());
        stop(&acceptors, &feed);
    }

    #[test]
    fn threads_are_reused_then_retire_after_their_quota() {
        let (served, seen) = mpsc::channel();
        let (acceptors, feed, _refusals) = start(4, move |_| {
            served.send(std::thread::current().id()).unwrap();
        });
        let mut per_thread = HashMap::new();
        for n in 0..2 * CONNECTIONS_PER_THREAD + 1 {
            feed.send(Ok(n as u32)).unwrap();
            *per_thread
                .entry(seen.recv_timeout(WAIT).unwrap())
                .or_insert(0) += 1;
            // Wait for the thread to return to accept or, at its quota,
            // exit.  Serial connections keep one thread serving and one
            // accepting.
            assert!(eventually(|| settled(&acceptors)));
            assert!(acceptors.lock().live <= 2);
        }
        // Two threads would serve all 129 only past their quota.
        assert!(per_thread.values().all(|&n| n <= CONNECTIONS_PER_THREAD));
        assert!(per_thread.values().any(|&n| n == CONNECTIONS_PER_THREAD));
        assert!(per_thread.len() >= 3, "{per_thread:?}");
        stop(&acceptors, &feed);
    }

    #[test]
    fn stopping_retires_idle_and_busy_threads() {
        let (release, gate) = mpsc::sync_channel::<()>(0);
        let gate = Mutex::new(gate);
        let (acceptors, feed, _refusals) = start(4, move |busy| {
            if busy == 1 {
                gate.lock().unwrap().recv().unwrap();
            }
        });
        feed.send(Ok(0)).unwrap();
        assert!(eventually(
            || settled(&acceptors) && acceptors.lock().live == 2
        ));
        // One thread serves the busy connection while one accepts.
        feed.send(Ok(1)).unwrap();
        assert!(eventually(|| acceptors.lock().idle == 1));
        stop(&acceptors, &feed);
        // The idle thread exits at once; the busy one after its
        // connection, instead of accepting again.
        assert!(eventually(|| acceptors.lock().live == 1));
        release.send(()).unwrap();
        assert!(eventually(|| acceptors.lock().live == 0));
        assert_eq!(acceptors.lock().idle, 0);
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
        let (served, seen) = mpsc::channel();
        let (acceptors, feed, _refusals) = start(4, move |n| served.send(n).unwrap());
        let started = Instant::now();
        for _ in 0..9 {
            feed.send(Err(io::Error::other("too many open files")))
                .unwrap();
        }
        feed.send(Ok(7)).unwrap();
        assert_eq!(seen.recv_timeout(WAIT), Ok(7));
        // Nine failures slept 1+2+...+64+100+100 ms first.
        assert!(started.elapsed() >= Duration::from_millis(327));
        stop(&acceptors, &feed);
    }

    #[test]
    fn shutdown_during_backoff_is_bounded() {
        let (acceptors, feed, _refusals) = start(4, |_| {});
        // Let the pauses grow to their 100 ms cap, then stop mid-pause.
        for _ in 0..9 {
            feed.send(Err(io::Error::other("too many open files")))
                .unwrap();
        }
        assert!(eventually(|| acceptors
            .front
            .accepts
            .load(Ordering::SeqCst)
            >= 9));
        let raised = Instant::now();
        stop(&acceptors, &feed);
        assert!(eventually(|| acceptors.lock().live == 0));
        // One pause (at most 100 ms) and one accept, with slack for a
        // loaded host.
        assert!(raised.elapsed() < Duration::from_millis(1_000));
        // A hot loop would have made millions of calls by now.
        assert!(acceptors.front.accepts.load(Ordering::SeqCst) < 20);
    }

    #[test]
    fn a_connection_accepted_after_the_stop_is_not_served() {
        let (served, seen) = mpsc::channel();
        let (acceptors, feed, _refusals) = start(4, move |n| served.send(n).unwrap());
        feed.send(Ok(1)).unwrap();
        assert_eq!(seen.recv_timeout(WAIT), Ok(1));
        assert!(eventually(|| settled(&acceptors)));
        let idle = acceptors.stop();
        for n in 0..idle {
            feed.send(Ok(2 + n as u32)).unwrap();
        }
        assert!(eventually(|| acceptors.lock().live == 0));
        assert!(seen.try_recv().is_err());
    }
}
