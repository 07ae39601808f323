//! End-to-end tests of the hand-rolled HTTP front end over a real
//! loopback socket: happy-path jobs, typed 4xx mappings with
//! `Retry-After`, header/body caps, and the slow-loris defences.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use skilltax_service::{serve, HttpConfig, Service, ServiceConfig};

fn start(queue: usize, workers: usize) -> (Arc<Service>, skilltax_service::HttpServer) {
    let service = Arc::new(Service::start(ServiceConfig {
        queue_capacity: queue,
        workers,
        ..ServiceConfig::default()
    }));
    let server = serve(
        Arc::clone(&service),
        HttpConfig {
            addr: "127.0.0.1:0".into(),
            read_timeout: Duration::from_millis(300),
            write_timeout: Duration::from_millis(300),
            max_header_bytes: 2048,
            max_body_bytes: 4096,
        },
    )
    .expect("bind loopback");
    (service, server)
}

/// Send raw bytes, read the whole response (the server always closes).
fn roundtrip(addr: SocketAddr, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut response = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.read_to_string(&mut response).expect("read response");
    response
}

fn post_jobs(addr: SocketAddr, body: &str) -> String {
    roundtrip(
        addr,
        &format!(
            "POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn a_job_round_trips_to_a_completed_outcome() {
    let (_service, server) = start(8, 2);
    let response = post_jobs(
        server.local_addr(),
        "tenant=acme&kind=simulate&cores=1&iters=50",
    );
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("\"outcome\":\"completed\""), "{response}");
    assert!(response.contains("\"cycles\":"), "{response}");
}

#[test]
fn classify_and_metrics_and_health_respond() {
    let (_service, server) = start(8, 2);
    let addr = server.local_addr();
    let response = post_jobs(
        addr,
        "tenant=acme&kind=classify&name=SIMD&row=1 %7C 16 %7C none %7C none %7C 1-n %7C none %7C none",
    );
    assert!(response.contains("\"outcome\":\"completed\""), "{response}");
    assert!(response.contains("class"), "{response}");
    let health = roundtrip(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(health.contains("\"ok\":true"), "{health}");
    let metrics = roundtrip(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(metrics.contains("\"submitted\":"), "{metrics}");
}

/// The Monte-Carlo fault study end to end: the job runs its seeds on
/// one reset array machine, and the same request is deterministic —
/// two runs return byte-identical
/// bodies (seeded fault plans, no wall-clock in the outcome).
#[test]
fn faultsweep_round_trips_deterministically() {
    let (_service, server) = start(8, 2);
    let addr = server.local_addr();
    let body = "tenant=lab&kind=faultsweep&subtype=III&lanes=4&seeds=16\
                &fault_seed=9&stall_ppm=200000&flip_ppm=50000";
    let first = post_jobs(addr, body);
    assert!(first.starts_with("HTTP/1.1 200 OK"), "{first}");
    assert!(first.contains("\"outcome\":\"completed\""), "{first}");
    assert!(first.contains("faultsweep IAP-III"), "{first}");
    assert!(first.contains("16 seeds"), "{first}");
    assert!(first.contains("faults injected"), "{first}");
    assert!(first.contains("\"cycles\":"), "{first}");
    let second = post_jobs(addr, body);
    let json = |resp: &str| resp.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    assert_eq!(json(&first), json(&second), "fault study must be seeded");

    // Typed rejections: an unknown array class is a 400, a fault rate
    // above one (10^6 ppm) is a 413 with the offending field named.
    let response = post_jobs(addr, "tenant=lab&kind=faultsweep&subtype=IX");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(
        response.contains("\"rejected\":\"malformed\""),
        "{response}"
    );
    let response = post_jobs(addr, "tenant=lab&kind=faultsweep&flip_ppm=1500000");
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");
    assert!(
        response.contains("\"rejected\":\"oversized\"") && response.contains("flip_ppm"),
        "{response}"
    );
}

#[test]
fn malformed_and_oversized_map_to_typed_4xx() {
    let (_service, server) = start(8, 1);
    let addr = server.local_addr();
    let response = post_jobs(addr, "tenant=t&kind=warp");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(
        response.contains("\"rejected\":\"malformed\""),
        "{response}"
    );
    let response = post_jobs(addr, "tenant=t&kind=simulate&cores=100000");
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");
    assert!(
        response.contains("\"rejected\":\"oversized\""),
        "{response}"
    );
    let response = roundtrip(addr, "GET /nowhere HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");
}

#[test]
fn the_removed_scheduler_key_is_a_malformed_request() {
    // `scheduler=` chose the dense reference loop or, before that, the
    // shard-parallel runner; every simulation now runs the event
    // scheduler, so the key is an unknown field: a typed 400.
    let (_service, server) = start(8, 1);
    let addr = server.local_addr();
    for scheduler in ["dense", "event", "sharded", "sharded:2"] {
        let body = format!("tenant=t&kind=simulate&cores=4&iters=10&scheduler={scheduler}");
        let response = post_jobs(addr, &body);
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(
            response.contains("\"rejected\":\"malformed\""),
            "{response}"
        );
        assert!(response.contains("unknown field"), "{response}");
    }
    let response = post_jobs(addr, "tenant=t&kind=simulate&cores=4&iters=10");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
}

#[test]
fn a_full_queue_is_429_with_a_retry_after_header() {
    let (service, server) = start(2, 1);
    service.pause();
    let addr = server.local_addr();
    // Fill the queue directly (paused dispatch keeps it full).
    for _ in 0..2 {
        let request =
            skilltax_service::proto::parse_request("tenant=t&kind=simulate&iters=10").unwrap();
        service.submit(0, request).unwrap();
    }
    let response = post_jobs(addr, "tenant=t&kind=simulate&iters=10");
    assert!(response.starts_with("HTTP/1.1 429"), "{response}");
    assert!(response.contains("Retry-After:"), "{response}");
    assert!(
        response.contains("\"rejected\":\"queue-full\""),
        "{response}"
    );
    service.resume();
}

#[test]
fn a_client_that_leaves_while_its_job_queues_cancels_it() {
    let (service, server) = start(8, 1);
    service.pause();
    let mut client = TcpStream::connect(server.local_addr()).expect("connect");
    let body = "tenant=t&kind=simulate&iters=20";
    let request = format!(
        "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    client.write_all(request.as_bytes()).expect("write request");
    // The server sees the client's EOF as it would a closed client, and
    // the open read half shows when the server gave up: it closes
    // without a response.
    client.shutdown(Shutdown::Write).expect("half-close");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut response = String::new();
    client.read_to_string(&mut response).expect("read close");
    assert_eq!(response, "");
    service.resume();
    // A worker pops the cancelled job and resolves it without a run.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !service.metrics().outcomes.contains_key("cancelled") && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let metrics = service.metrics();
    assert_eq!(metrics.outcomes.get("cancelled"), Some(&1));
    assert_eq!((metrics.caller_runs, metrics.worker_runs), (0, 0));
}

#[test]
fn slow_loris_headers_time_out_without_blocking_real_clients() {
    let (_service, server) = start(8, 1);
    let addr = server.local_addr();
    // The loris: opens a connection and sends half a request line, then
    // stalls.  Its connection thread must answer 408 on its own timeout.
    let mut loris = TcpStream::connect(addr).expect("connect loris");
    loris.write_all(b"POST /jobs HTTP/1.1\r\nContent-").unwrap();
    // Meanwhile a well-behaved client gets served immediately.
    let response = post_jobs(addr, "tenant=polite&kind=simulate&iters=20");
    assert!(response.contains("\"outcome\":\"completed\""), "{response}");
    // Now collect the loris's fate: a typed 408 once the read times out.
    loris
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut fate = String::new();
    loris.read_to_string(&mut fate).expect("read loris fate");
    assert!(fate.starts_with("HTTP/1.1 408"), "{fate}");
}

#[test]
fn slow_loris_bodies_time_out_too() {
    let (_service, server) = start(8, 1);
    let mut loris = TcpStream::connect(server.local_addr()).expect("connect");
    // Full header promising a body that never arrives.
    loris
        .write_all(b"POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 500\r\n\r\ntenant=")
        .unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut fate = String::new();
    loris.read_to_string(&mut fate).expect("read fate");
    assert!(fate.starts_with("HTTP/1.1 408"), "{fate}");
}

#[test]
fn oversized_heads_and_bodies_are_capped() {
    let (_service, server) = start(8, 1);
    let addr = server.local_addr();
    // A header block that never ends and exceeds the cap.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let huge = format!("POST /jobs HTTP/1.1\r\nX-Pad: {}\r\n", "a".repeat(4000));
    stream.write_all(huge.as_bytes()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 431"), "{response}");
    // A declared body over the cap is refused before it is read.
    let response = roundtrip(
        addr,
        "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 999999\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");
}

#[test]
fn malformed_content_length_is_rejected_not_defaulted() {
    let (_service, server) = start(8, 1);
    let addr = server.local_addr();
    // Before the fix these all fell through `parse().ok()` to a silent
    // zero-length body; now each is an explicit 400.
    for bad in [
        "Content-Length: abc",
        "Content-Length: -5",
        "Content-Length: 1x",
        "Content-Length:",
        "Content-Length: 99999999999999999999999999",
        "Content-Length: 7\r\nContent-Length: 9",
    ] {
        let response = roundtrip(
            addr,
            &format!("POST /jobs HTTP/1.1\r\nHost: t\r\n{bad}\r\n\r\nbody"),
        );
        assert!(
            response.starts_with("HTTP/1.1 400"),
            "{bad:?} -> {response}"
        );
        assert!(response.contains("Content-Length"), "{bad:?} -> {response}");
    }
    // Duplicated but *identical* declarations stay acceptable.
    let body = "tenant=t&kind=simulate&iters=10";
    let response = roundtrip(
        addr,
        &format!(
            "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {n}\r\nContent-Length: {n}\r\n\r\n{body}",
            n = body.len()
        ),
    );
    assert!(response.contains("\"outcome\":\"completed\""), "{response}");
}

/// A perf stub: enough to prove the front end routes `/perf/*` through
/// a mounted [`skilltax_service::PerfSource`].
struct StubPerf;

impl skilltax_service::PerfSource for StubPerf {
    fn benchmarks(&self, _label: Option<&str>) -> Result<String, skilltax_service::PerfError> {
        Ok("{\"labels\":[\"stub\"]}".into())
    }

    fn trajectory(
        &self,
        _label: Option<&str>,
        bench: &str,
        _counter: &str,
    ) -> Result<String, skilltax_service::PerfError> {
        if bench == "ghost" {
            return Err(skilltax_service::PerfError::NotFound(
                "no benchmark 'ghost'".into(),
            ));
        }
        Ok(format!("{{\"bench\":\"{bench}\"}}"))
    }

    fn compare(
        &self,
        _label: Option<&str>,
        from: &str,
        to: &str,
    ) -> Result<String, skilltax_service::PerfError> {
        Ok(format!("{{\"from\":\"{from}\",\"to\":\"{to}\"}}"))
    }
}

#[test]
fn perf_endpoints_route_through_a_mounted_source() {
    let service = Arc::new(Service::start(ServiceConfig::default()));
    let server = skilltax_service::serve_with_perf(
        Arc::clone(&service),
        HttpConfig {
            addr: "127.0.0.1:0".into(),
            ..HttpConfig::default()
        },
        Some(Arc::new(StubPerf)),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let response = roundtrip(addr, "GET /perf/benchmarks HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("\"stub\""), "{response}");
    let response = roundtrip(
        addr,
        "GET /perf/trajectory?bench=machine%2Fx&counter=cycles HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    assert!(response.contains("machine/x"), "{response}");
    let response = roundtrip(
        addr,
        "GET /perf/trajectory?bench=ghost&counter=cycles HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");
    let response = roundtrip(addr, "GET /perf/compare?from=a HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    let response = roundtrip(addr, "POST /perf/compare HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 405"), "{response}");
}

#[test]
fn perf_routes_without_a_mounted_store_are_404() {
    let (_service, server) = start(8, 1);
    let response = roundtrip(
        server.local_addr(),
        "GET /perf/benchmarks HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");
    assert!(response.contains("no perf store"), "{response}");
}

#[test]
fn metrics_speak_prometheus_on_request_and_json_by_default() {
    let (_service, server) = start(8, 2);
    let addr = server.local_addr();
    let response = post_jobs(addr, "tenant=acme&kind=simulate&cores=1&iters=50");
    assert!(response.contains("\"outcome\":\"completed\""), "{response}");
    // Default stays JSON so existing scrapers keep working.
    let json = roundtrip(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(json.contains("Content-Type: application/json"), "{json}");
    assert!(json.contains("\"trace_events_dropped\":"), "{json}");
    // The query string opts into the exposition format…
    let prom = roundtrip(
        addr,
        "GET /metrics?format=prometheus HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    assert!(prom.starts_with("HTTP/1.1 200 OK"), "{prom}");
    assert!(
        prom.contains("Content-Type: text/plain; version=0.0.4"),
        "{prom}"
    );
    assert!(
        prom.contains("# TYPE skilltax_jobs_submitted_total counter"),
        "{prom}"
    );
    assert!(prom.contains("skilltax_jobs_submitted_total 1"), "{prom}");
    assert!(
        prom.contains("skilltax_tenant_jobs_total{tenant=\"acme\",stage=\"admitted\"} 1"),
        "{prom}"
    );
    assert!(
        prom.contains("skilltax_queue_wait_ms_bucket{le=\"+Inf\"} 1"),
        "{prom}"
    );
    assert!(prom.contains("skilltax_run_cycles_count 1"), "{prom}");
    // …and so does an Accept header preferring text/plain.
    let sniffed = roundtrip(
        addr,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nAccept: text/plain\r\n\r\n",
    );
    assert!(
        sniffed.contains("Content-Type: text/plain; version=0.0.4"),
        "{sniffed}"
    );
    // An explicit format=json overrides the Accept sniff.
    let forced = roundtrip(
        addr,
        "GET /metrics?format=json HTTP/1.1\r\nHost: t\r\nAccept: text/plain\r\n\r\n",
    );
    assert!(
        forced.contains("Content-Type: application/json"),
        "{forced}"
    );
}

#[test]
fn profiled_jobs_land_in_the_trace_ring_with_nested_spans() {
    let (service, server) = start(8, 2);
    let addr = server.local_addr();
    // An unprofiled job must not occupy the ring.
    let plain = post_jobs(addr, "tenant=acme&kind=simulate&cores=1&iters=50");
    assert!(plain.contains("\"outcome\":\"completed\""), "{plain}");
    assert!(service.traces().is_empty());
    // A profiled one assembles the full service-over-machine timeline.
    let profiled = post_jobs(
        addr,
        "tenant=acme&kind=simulate&cores=2&iters=80&profile=true",
    );
    assert!(profiled.contains("\"outcome\":\"completed\""), "{profiled}");
    let traces = service.traces();
    assert_eq!(traces.len(), 1);
    let trace = &traces[0];
    assert_eq!(trace.tenant, "acme");
    assert_eq!(trace.outcome, "completed");
    assert!(trace.cycles > 0);
    let labels: Vec<&str> = trace.spans.iter().map(|s| s.0.as_str()).collect();
    for phase in [
        "job",
        "parse",
        "admission",
        "queue_wait",
        "pool_acquire",
        "run",
        "respond",
    ] {
        assert!(labels.contains(&phase), "missing {phase}: {labels:?}");
    }
    // Strict nesting: every child sits inside its parent's extent, the
    // root owns everything, and stamps are monotone per span.
    let (_, root_start, root_end, root_parent) = &trace.spans[0];
    assert_eq!(*root_parent, None);
    for (label, start, end, parent) in &trace.spans {
        assert!(start <= end, "{label} runs backwards");
        if let Some(p) = parent {
            let (_, ps, pe, _) = &trace.spans[*p];
            assert!(ps <= start && end <= pe, "{label} escapes its parent");
        } else {
            assert!(root_start <= start && end <= root_end);
        }
    }
    // The machine run sits under the service `run` span.
    let run_idx = trace.spans.iter().position(|s| s.0 == "run").unwrap();
    let machine_children = trace.spans.iter().filter(|s| s.3 == Some(run_idx)).count();
    assert!(machine_children > 0, "no machine spans grafted under run");
}

#[test]
fn trace_jobs_serves_a_chrome_trace_document() {
    let (_service, server) = start(8, 2);
    let addr = server.local_addr();
    // Empty ring still yields a valid (empty) document.
    let empty = roundtrip(addr, "GET /trace/jobs HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(empty.starts_with("HTTP/1.1 200 OK"), "{empty}");
    assert!(empty.contains("\"traceEvents\":[]"), "{empty}");
    let response = post_jobs(addr, "tenant=acme&kind=simulate&cores=1&iters=60&profile=1");
    assert!(response.contains("\"outcome\":\"completed\""), "{response}");
    let doc = roundtrip(addr, "GET /trace/jobs HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(doc.contains("\"traceEvents\":["), "{doc}");
    assert!(doc.contains("\"ph\":\"X\""), "{doc}");
    assert!(doc.contains("\"name\":\"queue_wait\""), "{doc}");
    assert!(doc.contains("\"name\":\"respond\""), "{doc}");
    assert!(doc.contains("job 1 acme/simulate (completed)"), "{doc}");
}

#[test]
fn shutdown_stops_accepting() {
    let (_service, mut server) = start(8, 1);
    let addr = server.local_addr();
    server.shutdown();
    // The listener is gone: connecting either fails outright or the
    // connection is never served.
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        assert!(!out.contains("\"ok\":true"), "served after shutdown");
    }
}

#[test]
fn shutdown_retires_connection_threads_and_releases_the_service() {
    let (service, mut server) = start(8, 1);
    let addr = server.local_addr();
    // Served connections leave their threads back in accept…
    for _ in 0..3 {
        let health = roundtrip(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(health.contains("\"ok\":true"), "{health}");
    }
    // …and a stalled client keeps one busy.  Connections are accepted in
    // order, so once the probe after it answers, the stall is being served.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let probe = roundtrip(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(probe.contains("\"ok\":true"), "{probe}");
    server.shutdown();
    // The busy thread answers its stall within one read timeout, then
    // exits instead of accepting again; the idle ones have already left.
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut fate = String::new();
    stalled.read_to_string(&mut fate).expect("read fate");
    assert!(fate.starts_with("HTTP/1.1 408"), "{fate}");
    drop(stalled);
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while (Arc::strong_count(&service) > 1 || server.connection_threads() > 0)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(Arc::strong_count(&service), 1, "a connection thread leaked");
    assert_eq!(server.connection_threads(), 0);
}
