//! Load generation: the closed HTTP loop, the closed in-process loop and
//! the in-process `burst` loop.  At most two load threads run at a time
//! (the benchmark host has two cores).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use skilltax_service::proto::{outcome_json, parse_request};
use skilltax_service::{JobTicket, Service};

use crate::gen::{Req, Rng, Route, Rows, Stream, Workload};
use crate::hist::Hist;
use crate::host;
use crate::trace::SpanLog;
use crate::verify::{self, PREFIX_BURST, PREFIX_PER_STREAM};

/// Closed-loop clients (HTTP connections or in-process submitters).
pub const CLIENTS: usize = 2;
/// The client's per-request timeout.
const TIMEOUT: Duration = Duration::from_secs(10);
/// How often the `burst` collector polls its oldest ticket.
const POLL: Duration = Duration::from_micros(100);

type SpanNames = (&'static str, &'static [&'static str]);

/// Span names of the HTTP pass, the in-process pass and the burst loop.
const HTTP_SPANS: SpanNames = (
    "http.request",
    &["http.connect", "http.write", "http.server", "http.drain"],
);
const INPROC_SPANS: SpanNames = (
    "inproc.request",
    &[
        "proto.parse",
        "service.submit",
        "service.wait",
        "proto.render",
    ],
);
const BURST_SPANS: SpanNames = (
    "burst.request",
    &[
        "loadgen.lag",
        "proto.parse",
        "service.submit",
        "service.wait",
        "proto.render",
    ],
);

/// A run's time plan: load starts at `start`, the measured window is
/// `[window, end)`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub start: Instant,
    pub window: Instant,
    pub end: Instant,
}

impl Plan {
    pub fn new(warmup: Duration, window: Duration) -> Plan {
        let start = Instant::now();
        Plan {
            start,
            window: start + warmup,
            end: start + warmup + window,
        }
    }

    pub fn window_s(&self) -> f64 {
        (self.end - self.window).as_secs_f64()
    }

    fn in_window(&self, t: Instant) -> bool {
        t >= self.window && t < self.end
    }
}

/// What the load threads measured over the window.
#[derive(Debug, Default)]
pub struct Tally {
    pub latency: Hist,
    pub completed: u64,
    /// Failed requests: transport errors, timeouts, non-200 statuses,
    /// refusals and wrong outcomes.
    pub failed: u64,
    /// Served responses whose outcome breaks the rules for their kind.
    pub wrong: u64,
    pub sim_instr: u64,
    /// On-CPU time of the load threads during the window.
    pub load_cpu_ns: u64,
    /// The first requests of each stream with the body each was served.
    pub prefix: Vec<(Req, String)>,
    /// This thread's CPU reading when it entered the window.
    cpu_at_window: Option<u64>,
}

impl Tally {
    pub fn attempted(&self) -> u64 {
        self.completed + self.failed
    }

    fn merge(&mut self, other: Tally) {
        self.latency.merge(&other.latency);
        self.completed += other.completed;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.sim_instr += other.sim_instr;
        self.load_cpu_ns += other.load_cpu_ns;
        self.prefix.extend(other.prefix);
    }

    /// Meter this thread's CPU from its first tick inside the window to
    /// its first tick after it.
    fn tick(&mut self, plan: &Plan, now: Instant) {
        match (self.cpu_at_window, plan.in_window(now)) {
            (None, true) => self.cpu_at_window = Some(host::thread_cpu_ns()),
            (Some(_), false) => self.stop_meter(),
            _ => {}
        }
    }

    fn stop_meter(&mut self) {
        if let Some(start) = self.cpu_at_window.take() {
            self.load_cpu_ns += host::thread_cpu_ns() - start;
        }
    }

    /// Account one finished request that belongs to the window.
    fn count(&mut self, latency: Duration, route: Route, served: Option<&str>) {
        match served {
            Some(body) if verify::response_ok(route, body) => {
                self.completed += 1;
                self.latency.record(latency.as_nanos() as u64);
                self.sim_instr += verify::instructions(body);
            }
            _ => {
                self.failed += 1;
                self.wrong += u64::from(served.is_some());
                if self.failed <= 3 {
                    eprintln!("request failed ({route:?}): {served:?}");
                }
            }
        }
    }
}

fn request_id(index: usize, client: usize) -> u64 {
    (index * CLIENTS + client) as u64
}

/// One HTTP exchange on a fresh connection (the server closes every
/// connection after its response).  `t` receives the phase stamps:
/// connect, connected, written, first byte read, end of stream.
fn exchange(
    addr: SocketAddr,
    req: &Req,
    wire: &mut Vec<u8>,
    resp: &mut Vec<u8>,
    t: &mut [Instant; 5],
) -> io::Result<u16> {
    t[0] = Instant::now();
    let mut s = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    s.set_read_timeout(Some(TIMEOUT))?;
    s.set_write_timeout(Some(TIMEOUT))?;
    s.set_nodelay(true)?;
    t[1] = Instant::now();
    wire.clear();
    if req.route == Route::Metrics {
        wire.extend_from_slice(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n");
    } else {
        write!(
            wire,
            "POST /jobs HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{}",
            req.body.len(),
            req.body
        )?;
    }
    s.write_all(wire)?;
    t[2] = Instant::now();
    resp.clear();
    let mut first = [0u8; 4096];
    let n = s.read(&mut first)?;
    t[3] = Instant::now();
    resp.extend_from_slice(&first[..n]);
    if n > 0 {
        s.read_to_end(resp)?;
    }
    t[4] = Instant::now();
    resp.get(9..12)
        .and_then(|code| std::str::from_utf8(code).ok()?.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no HTTP status line"))
}

fn response_body(resp: &[u8]) -> String {
    let at = resp
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(resp.len(), |p| p + 4);
    String::from_utf8_lossy(&resp[at..]).into_owned()
}

/// The closed HTTP loop: `CLIENTS` clients, each on a fresh connection
/// per request, sending the next request as soon as the previous one
/// completes.  `traced` adds client-side phase stamps.
pub fn http_loop(
    addr: SocketAddr,
    workload: Workload,
    seed: u64,
    rows: &Rows,
    plan: Plan,
    traced: bool,
) -> (Tally, Option<SpanLog>) {
    let spans = traced.then_some(HTTP_SPANS);
    run_clients(workload, seed, rows, plan, spans, || {
        let (mut wire, mut resp) = (Vec::with_capacity(8192), Vec::with_capacity(8192));
        move |req: &Req, t: &mut [Instant; 5]| match exchange(addr, req, &mut wire, &mut resp, t) {
            Ok(200) => Some(response_body(&resp)),
            Ok(status) => {
                eprintln!("HTTP {status}: {}", response_body(&resp));
                None
            }
            Err(e) => {
                t[1..].fill(Instant::now());
                eprintln!("transport error: {e}");
                None
            }
        }
    })
}

/// The closed in-process loop: the same streams parsed with
/// `proto::parse_request`, submitted with `Service::submit`, awaited with
/// `JobTicket::wait` and rendered with `proto::outcome_json`.  A metrics
/// read becomes `Service::metrics`.
pub fn inproc_loop(
    service: &Service,
    workload: Workload,
    seed: u64,
    rows: &Rows,
    plan: Plan,
    traced: bool,
) -> (Tally, Option<SpanLog>) {
    let spans = traced.then_some(INPROC_SPANS);
    run_clients(workload, seed, rows, plan, spans, || {
        |req: &Req, t: &mut [Instant; 5]| {
            t[0] = Instant::now();
            if req.route == Route::Metrics {
                let m = service.metrics();
                t[1..].fill(Instant::now());
                return Some(format!("{{\"submitted\":{}}}", m.submitted));
            }
            let parsed = parse_request(&req.body);
            t[1] = Instant::now();
            let ticket = parsed.and_then(|r| service.submit(ms_since(plan.start), r));
            t[2] = Instant::now();
            match ticket {
                Ok(ticket) => {
                    let outcome = ticket.wait();
                    t[3] = Instant::now();
                    let body = outcome_json(&outcome);
                    t[4] = Instant::now();
                    Some(body)
                }
                Err(rejection) => {
                    let refused = t[2];
                    t[3..].fill(refused);
                    eprintln!("rejected: {rejection}");
                    None
                }
            }
        }
    })
}

/// The service's admission clock: milliseconds since the load began.
fn ms_since(start: Instant) -> u64 {
    start.elapsed().as_millis() as u64
}

/// Run `CLIENTS` closed-loop clients and merge what they measured.  Each
/// client serves its stream's requests one after another with the
/// function `sender` makes for it, which stamps the request's phases
/// (five stamps: start, three phase boundaries, end) and returns the
/// served body.
fn run_clients<F, S>(
    workload: Workload,
    seed: u64,
    rows: &Rows,
    plan: Plan,
    spans: Option<SpanNames>,
    sender: F,
) -> (Tally, Option<SpanLog>)
where
    F: Fn() -> S + Sync,
    S: FnMut(&Req, &mut [Instant; 5]) -> Option<String>,
{
    let results: Vec<(Tally, Option<SpanLog>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let sender = &sender;
                scope.spawn(move || {
                    let mut send = sender();
                    let mut stream = Stream::new(workload, seed, client as u64, rows);
                    let mut tally = Tally::default();
                    let mut log = spans
                        .map(|(root, children)| SpanLog::new(plan.start, client, root, children));
                    let mut t = [Instant::now(); 5];
                    for index in 0.. {
                        let now = Instant::now();
                        tally.tick(&plan, now);
                        if now >= plan.end {
                            break;
                        }
                        let req = stream.next_req();
                        let served = send(&req, &mut t);
                        if plan.in_window(t[4]) {
                            tally.count(t[4] - t[0], req.route, served.as_deref());
                        }
                        if let Some(log) = log.as_mut() {
                            log.record(request_id(index, client), req.route, &t);
                        }
                        if index < PREFIX_PER_STREAM {
                            tally.prefix.push((req, served.unwrap_or_default()));
                        }
                    }
                    tally.stop_meter();
                    (tally, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut total = Tally::default();
    let mut merged: Option<SpanLog> = None;
    for (tally, log) in results {
        total.merge(tally);
        match (merged.as_mut(), log) {
            (Some(m), Some(log)) => m.merge(log),
            (None, log) => merged = log,
            (Some(_), None) => {}
        }
    }
    (total, merged)
}

/// How the `burst` submitter paces its jobs.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Poisson arrivals at this many jobs per second, each job timed from
    /// its scheduled time.
    Rate(f64),
    /// Keep this many jobs outstanding: a job is submitted as soon as an
    /// earlier one finishes, and timed from its submission.
    Depth(usize),
}

/// The outcome of one `burst` run.
#[derive(Debug)]
pub struct BurstTally {
    pub tally: Tally,
    pub rejected: u64,
    /// Outstanding jobs seen at each in-window arrival of an open loop.
    pub outstanding: Vec<u32>,
}

impl BurstTally {
    /// A rate holds when p99 ≤ 20 ms, nothing was refused, and the
    /// backlog did not grow: mean outstanding over the window's second
    /// half is at most twice the first half's, plus two.
    pub fn sustained(&self) -> bool {
        let mean = |s: &[u32]| s.iter().map(|&n| f64::from(n)).sum::<f64>() / s.len().max(1) as f64;
        let (early, late) = self.outstanding.split_at(self.outstanding.len() / 2);
        self.tally.failed == 0
            && self.rejected == 0
            && self.tally.latency.quantile_ms(0.99) <= 20.0
            && mean(late) <= 2.0 * mean(early) + 2.0
    }
}

/// A submitted `burst` job on its way to the collector.
struct Pending {
    index: usize,
    req: Req,
    /// Stamps: due, parse start, parse end, submit end.
    stamps: [Instant; 4],
    ticket: Result<JobTicket, String>,
}

/// In-process `burst` load: one submitter thread paced by `pace`, and one
/// collector thread polling tickets at ≤0.2 ms granularity.  Window
/// membership is decided by each job's due time.
pub fn burst_loop(
    service: &Service,
    seed: u64,
    rows: &Rows,
    pace: Pace,
    plan: Plan,
    traced: bool,
) -> (BurstTally, Option<SpanLog>) {
    let finished = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<Pending>();
    // The collector hands a slot back for every finished job.
    let (slot_tx, slot_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            let slot_rx = slot_rx;
            let mut meter = Tally::default();
            let mut stream = Stream::new(Workload::Burst, seed, 0, rows);
            let mut arrivals = Rng::new(seed ^ 0x5DEE_CE66_D1CE_4E5B);
            let mut outstanding = Vec::new();
            let mut scheduled = plan.start;
            for index in 0.. {
                let req = stream.next_req();
                let due = match pace {
                    Pace::Rate(rate) => {
                        scheduled += arrivals.exp_gap(rate);
                        if scheduled >= plan.end {
                            break;
                        }
                        let now = Instant::now();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        scheduled
                    }
                    Pace::Depth(depth) => {
                        if index >= depth && slot_rx.recv().is_err() {
                            break;
                        }
                        let now = Instant::now();
                        if now >= plan.end {
                            break;
                        }
                        now
                    }
                };
                let t0 = Instant::now();
                meter.tick(&plan, t0);
                let parsed = parse_request(&req.body);
                let t1 = Instant::now();
                let ticket = parsed
                    .and_then(|r| service.submit(ms_since(plan.start), r))
                    .map_err(|rejection| rejection.to_string());
                let t2 = Instant::now();
                // Only an open loop's backlog varies; sampling a standing
                // queue would grow memory with throughput.
                if let (Pace::Rate(_), true) = (pace, plan.in_window(due)) {
                    let in_flight = index as u64 + 1 - finished.load(Ordering::Relaxed);
                    outstanding.push(in_flight as u32);
                }
                let stamps = [due, t0, t1, t2];
                tx.send(Pending {
                    index,
                    req,
                    stamps,
                    ticket,
                })
                .expect("collector hung up");
            }
            drop(tx);
            meter.stop_meter();
            (outstanding, meter)
        });
        let collector = scope.spawn(|| {
            let rx = rx;
            let mut out = BurstTally {
                tally: Tally::default(),
                rejected: 0,
                outstanding: Vec::new(),
            };
            let mut log = traced.then(|| SpanLog::new(plan.start, 1, BURST_SPANS.0, BURST_SPANS.1));
            let mut pending: Vec<Pending> = Vec::with_capacity(1024);
            let mut open = true;
            while open || !pending.is_empty() {
                loop {
                    match rx.try_recv() {
                        Ok(p) => pending.push(p),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                out.tally.tick(&plan, Instant::now());
                let before = pending.len();
                pending.retain(|p| {
                    let outcome = match &p.ticket {
                        Ok(ticket) => match ticket.try_wait() {
                            Some(outcome) => Some(outcome),
                            None => return true,
                        },
                        Err(_) => None,
                    };
                    let observed = Instant::now();
                    let served = outcome.map(|o| outcome_json(&o));
                    let rendered = Instant::now();
                    finished.fetch_add(1, Ordering::Relaxed);
                    if let Pace::Depth(_) = pace {
                        let _ = slot_tx.send(());
                    }
                    let due = p.stamps[0];
                    if plan.in_window(due) {
                        if p.ticket.is_err() {
                            out.rejected += 1;
                        }
                        out.tally
                            .count(rendered - due, p.req.route, served.as_deref());
                    }
                    if let Some(log) = log.as_mut() {
                        let [due, t0, t1, t2] = p.stamps;
                        let stamps = [due, t0, t1, t2, observed, rendered];
                        log.record(p.index as u64, p.req.route, &stamps);
                    }
                    if p.index < PREFIX_BURST {
                        let served = served.unwrap_or_default();
                        out.tally.prefix.push((p.req.clone(), served));
                    }
                    false
                });
                if pending.len() == before {
                    match pending.first() {
                        Some(Pending { ticket: Ok(t), .. }) => {
                            t.wait_timeout(POLL);
                        }
                        Some(_) => {}
                        None if open => match rx.recv_timeout(POLL) {
                            Ok(p) => pending.push(p),
                            Err(mpsc::RecvTimeoutError::Timeout) => {}
                            Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
                        },
                        None => {}
                    }
                }
            }
            out.tally.stop_meter();
            (out, log)
        });
        let (outstanding, submitter) = submitter.join().expect("submitter panicked");
        let (mut out, log) = collector.join().expect("collector panicked");
        out.outstanding = outstanding;
        out.tally.merge(submitter);
        (out, log)
    })
}
