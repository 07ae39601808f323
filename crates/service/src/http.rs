//! A hand-rolled HTTP/1.1 front end over [`std::net::TcpListener`] — no
//! framework, no new dependencies, and defensive by construction: every
//! connection carries a read and a write timeout, the request head and
//! body are capped, and a slow-loris client times out on its own
//! connection thread without ever pinning a job worker.
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
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

    /// Stop accepting connections and join the accept loop.  In-flight
    /// connection threads finish on their own timeouts.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
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
    let accept = std::thread::spawn(move || {
        accept_loop(
            || listener.accept().map(|(stream, _)| stream),
            &accept_stop,
            |stream| {
                let service = Arc::clone(&service);
                let config = config.clone();
                let perf = perf.clone();
                // One short-lived thread per connection: its lifetime is
                // bounded by the read/write timeouts, and it never borrows
                // a job worker, so a stalled client cannot stall the queue.
                std::thread::spawn(move || {
                    let _ = handle_connection(&service, &config, epoch, perf.as_deref(), stream);
                });
            },
        );
    });
    Ok(HttpServer {
        local_addr,
        stop,
        accept: Some(accept),
    })
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
         \"in_flight\":{},\"peak_depth\":{},\"trace_events_dropped\":{},\"outcomes\":{{{}}}}}",
        m.submitted,
        m.admitted,
        m.rejected(),
        m.finished(),
        m.in_flight,
        m.peak_depth,
        m.trace_events_dropped,
        outcomes.join(",")
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
    let _ = stream.shutdown(std::net::Shutdown::Write);
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
