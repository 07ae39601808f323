//! End-to-end benchmark of the skilltax job service.
//!
//! ```text
//! skilltax-benchmark --workload W --seed N --seconds S --trace 0|1
//!                    [--warmup S] [--out DIR] [--commit C]
//! skilltax-benchmark compare DIR_A DIR_B
//! skilltax-benchmark capacity --seed N --seconds S
//! ```
//!
//! A run starts the service in-process (`Service::start` + `serve` on
//! `127.0.0.1:0`), drives one workload for a warm-up and a measured
//! window, checks every response and a replayed prefix, and prints each
//! metric by name and unit, ending with one JSON line.  `--trace 1`
//! reports the per-layer metrics from three traced passes instead of the
//! end-to-end ones.  See `README.md` for the workloads and metrics.

mod compare;
mod gen;
mod hist;
mod host;
mod json;
mod layers;
mod load;
mod trace;
mod verify;

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use skilltax_service::{serve, HttpConfig, HttpServer, QuotaConfig, Service, ServiceConfig};

use gen::{Rows, Workload};
use layers::Metrics;
use load::{Pace, Plan, Tally, CLIENTS};
use verify::Replay;

/// `burst`'s offered rate R, jobs per second, frozen so later commits are
/// offered the same load.  The `capacity` subcommand measured the mix's
/// closed-loop capacity at 4,350–5,300 jobs/s while the host ran at full
/// speed; it spends long stretches at ~60% of that, and R is 60% of the
/// capacity left then.  Interleaved runs at 1,000, 1,600 and 2,700 jobs/s
/// gave the steadiest latencies here.  The traced run also offers 0.5R
/// and 1.5R.
const BURST_RATE: f64 = 1600.0;
/// `burst`'s end-to-end metrics come from a standing queue of this many
/// outstanding jobs, below the default 64-deep queue.  Open-loop latency
/// at R is mostly wake-up latency, which on the benchmark host swings
/// 30–40% from run to run; a saturated service has nothing to wake.
const BURST_DEPTH: usize = 48;
/// Service start-ups timed before the load and again after it, 20 ms
/// apart, so a run's `setup_s` (their median) spans two moments of the
/// host's drifting speed.
const SETUP_SAMPLES: usize = 15;
const SETUP_GAP: Duration = Duration::from_millis(20);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    warmup: Duration,
    out: PathBuf,
    commit: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (1u64, 10.0f64, false);
    let (mut warmup, mut out, mut commit) =
        (None, PathBuf::from("benchmark/out"), "unknown".into());
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds takes a number")?,
            "--trace" => traced = value()? == "1",
            "--warmup" => {
                let s: f64 = value()?.parse().map_err(|_| "--warmup takes a number")?;
                warmup = Some(Duration::from_secs_f64(s));
            }
            "--out" => out = PathBuf::from(value()?),
            "--commit" => commit = value()?.clone(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
        warmup: warmup.unwrap_or(workload.default_warmup()),
        out,
        commit,
    })
}

/// Defaults throughout, except a quota so large the ledger still runs
/// but never refuses (the default 64-token bucket would refuse every
/// sweep costing more than 64 tokens).
fn service_config() -> ServiceConfig {
    ServiceConfig {
        quota: QuotaConfig {
            capacity: 1 << 40,
            refill_num: 1 << 20,
            refill_den: 1,
        },
        ..ServiceConfig::default()
    }
}

/// The service under test and its HTTP front end.
struct Running {
    service: Arc<Service>,
    server: HttpServer,
}

impl Running {
    fn stop(mut self) {
        self.server.shutdown();
        self.service.shutdown();
    }
}

fn healthz(addr: SocketAddr) -> io::Result<()> {
    let mut s = TcpStream::connect(addr)?;
    s.write_all(b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n")?;
    let mut resp = Vec::new();
    s.read_to_end(&mut resp)?;
    if resp.starts_with(b"HTTP/1.1 200") {
        Ok(())
    } else {
        Err(io::Error::other("healthz did not answer 200"))
    }
}

/// Start the service and its HTTP front end, timing `Service::start`
/// to the first 200 on `/healthz`.
fn start() -> io::Result<(Running, f64)> {
    let t0 = Instant::now();
    let service = Arc::new(Service::start(service_config()));
    let server = serve(Arc::clone(&service), HttpConfig::default())?;
    healthz(server.local_addr())?;
    Ok((Running { service, server }, t0.elapsed().as_secs_f64()))
}

/// Time `SETUP_SAMPLES` start-ups, stopping each again.
fn time_setups(samples: &mut Vec<f64>) -> io::Result<()> {
    for _ in 0..SETUP_SAMPLES {
        let (running, seconds) = start()?;
        samples.push(seconds);
        running.stop();
        std::thread::sleep(SETUP_GAP);
    }
    Ok(())
}

/// Host readings at the start of a window, and the process's CPU time
/// over it.
#[derive(Debug, Default, Clone, Copy)]
struct Window {
    loadavg1: f64,
    tcp_time_wait: u64,
    process_cpu_ms: f64,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Run `load` on its own thread while this one reads the host at the
/// window's start and end.
fn watch<R: Send>(plan: Plan, load: impl FnOnce() -> R + Send) -> (R, Window) {
    std::thread::scope(|scope| {
        let handle = scope.spawn(load);
        sleep_until(plan.window);
        let loadavg1 = host::loadavg1();
        let tcp_time_wait = host::tcp_time_wait();
        let cpu0 = host::process_cpu_ms();
        sleep_until(plan.end);
        let process_cpu_ms = host::process_cpu_ms() - cpu0;
        let result = handle.join().expect("load thread panicked");
        (
            result,
            Window {
                loadavg1,
                tcp_time_wait,
                process_cpu_ms,
            },
        )
    })
}

/// Everything a run reports.
struct Report {
    metrics: Metrics,
    tally: Tally,
    replay: Replay,
    window: Window,
    window_s: f64,
}

/// The reference (untraced) load of a workload on the service under test.
fn reference(
    args: &Args,
    rows: &Rows,
    running: &Running,
    window: Duration,
) -> (Tally, Window, Plan) {
    let plan = Plan::new(args.warmup, window);
    let (tally, host) = watch(plan, || match args.workload {
        Workload::Burst => {
            let service = &running.service;
            let pace = Pace::Depth(BURST_DEPTH);
            load::burst_loop(service, args.seed, rows, pace, plan, false)
                .0
                .tally
        }
        w => load::http_loop(running.server.local_addr(), w, args.seed, rows, plan, false).0,
    });
    (tally, host, plan)
}

/// The server's on-CPU time per completed request: the process's CPU
/// over the window less the load threads' own.
fn server_cpu_ms_per_req(tally: &Tally, window: &Window) -> f64 {
    let server_ms = window.process_cpu_ms - tally.load_cpu_ns as f64 / 1e6;
    server_ms / tally.completed.max(1) as f64
}

fn end_to_end(args: &Args, rows: &Rows, running: &Running) -> Report {
    let (tally, window, plan) =
        reference(args, rows, running, Duration::from_secs_f64(args.seconds));
    let window_s = plan.window_s();
    let completed = tally.completed as f64;
    let metrics = vec![
        ("throughput_rps".into(), completed / window_s, "1/s"),
        (
            "latency_p50_ms".into(),
            tally.latency.quantile_ms(0.5),
            "ms",
        ),
        (
            "latency_p99_ms".into(),
            tally.latency.quantile_ms(0.99),
            "ms",
        ),
        (
            "sim_minstr_s".into(),
            tally.sim_instr as f64 / window_s / 1e6,
            "Minstr/s",
        ),
        (
            "cpu_ms_per_req".into(),
            server_cpu_ms_per_req(&tally, &window),
            "ms",
        ),
        ("peak_rss_mb".into(), host::peak_rss_mb(), "MiB"),
    ];
    Report {
        replay: verify::replay(&tally.prefix),
        metrics,
        tally,
        window,
        window_s,
    }
}

fn per_layer(args: &Args, rows: &Rows, running: &Running) -> io::Result<Report> {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let (tally, window, plan) = reference(args, rows, running, half);
    let ref_rps = tally.completed as f64 / plan.window_s();
    let engine_budget = Duration::from_secs_f64(args.seconds);
    let server_cpu_ns_per_req = server_cpu_ms_per_req(&tally, &window) * 1e6;
    // Each branch also returns pass A's throughput and the load
    // generator's outstanding p99, lag p99 and sustained rate.
    let (metrics, passes, a_rps, outstanding, lag_us, sustained) = if args.workload
        == Workload::Burst
    {
        // Pass A: the standing queue, traced on the warm service; then the
        // open loop at R, 0.5R and 1.5R for `sustained_rps`.
        let service = &running.service;
        let before = service.metrics();
        let plan_a = Plan::new(Duration::ZERO, half);
        let depth = Pace::Depth(BURST_DEPTH);
        let (a, a_log) = load::burst_loop(service, args.seed, rows, depth, plan_a, true);
        let mut counters = service.metrics();
        counters.rejected_queue_full -= before.rejected_queue_full;
        let step = |share: f64| {
            let plan = Plan::new(Duration::ZERO, Duration::from_secs_f64(args.seconds / 3.0));
            let pace = Pace::Rate(share * BURST_RATE);
            let (tally, log) = load::burst_loop(service, args.seed, rows, pace, plan, true);
            (share * BURST_RATE, tally, log.expect("traced"))
        };
        let steps = [step(1.0), step(0.5), step(1.5)];
        let sustained = steps
            .iter()
            .filter(|s| s.1.sustained())
            .map(|s| s.0)
            .fold(0.0, f64::max);
        let engine = layers::engine_pass(args.workload, args.seed, rows, 1, engine_budget);
        let a_log = a_log.expect("traced");
        let metrics = layers::derive(&layers::Passes {
            http: None,
            inproc: &a_log,
            engine: &engine,
            service: &counters,
            server_cpu_ns_per_req,
        });
        let [(_, r_step, r_log), ..] = steps;
        let outstanding: Vec<i64> = r_step.outstanding.iter().map(|&n| i64::from(n)).collect();
        let lag_us = r_log.hist("loadgen.lag", None).quantile_us(0.99);
        (
            metrics,
            vec![
                ("A: standing queue", a_log),
                ("A: open loop at R", r_log),
                ("C: engine", engine.log),
            ],
            a.tally.completed as f64 / plan_a.window_s(),
            layers::percentile(outstanding, 0.99),
            lag_us,
            sustained,
        )
    } else {
        let addr = running.server.local_addr();
        let plan_a = Plan::new(Duration::ZERO, half);
        let (a_tally, a_log) = load::http_loop(addr, args.workload, args.seed, rows, plan_a, true);
        let service_b = Service::start(service_config());
        let plan_b = Plan::new(Duration::ZERO, half);
        let (_, b_log) =
            load::inproc_loop(&service_b, args.workload, args.seed, rows, plan_b, true);
        let counters = service_b.metrics();
        service_b.shutdown();
        let (a_log, b_log) = (a_log.expect("traced"), b_log.expect("traced"));
        let engine = layers::engine_pass(args.workload, args.seed, rows, CLIENTS, engine_budget);
        let metrics = layers::derive(&layers::Passes {
            http: Some(&a_log),
            inproc: &b_log,
            engine: &engine,
            service: &counters,
            server_cpu_ns_per_req,
        });
        (
            metrics,
            vec![
                ("A: HTTP loop", a_log),
                ("B: in-process service", b_log),
                ("C: engine", engine.log),
            ],
            a_tally.completed as f64 / plan_a.window_s(),
            CLIENTS as f64,
            0.0,
            0.0,
        )
    };
    fs::create_dir_all(&args.out)?;
    let trace_path = args
        .out
        .join(format!("{}.trace.json", args.workload.name()));
    let named: Vec<(&str, &trace::SpanLog)> = passes.iter().map(|(n, l)| (*n, l)).collect();
    trace::write_chrome(&trace_path, &named)?;
    eprintln!("trace: {}", trace_path.display());

    let cold_builds = running.service.engine().pool().cold_builds() as f64;
    let attempted = tally.attempted().max(1) as f64;
    let mut all = metrics;
    all.extend([
        ("pool.cold_builds".into(), cold_builds, "count"),
        ("loadgen.outstanding.p99".into(), outstanding, "count"),
        ("loadgen.lag_us.p99".into(), lag_us, "us"),
        ("trace.overhead_frac".into(), 1.0 - a_rps / ref_rps, "frac"),
        ("sustained_rps".into(), sustained, "1/s"),
        (
            "loadgen.cpu_ms".into(),
            tally.load_cpu_ns as f64 / 1e6,
            "ms",
        ),
        (
            "host.tcp_time_wait".into(),
            window.tcp_time_wait as f64,
            "count",
        ),
        ("host.loadavg1".into(), window.loadavg1, "load"),
        (
            "failed_frac".into(),
            tally.failed as f64 / attempted,
            "frac",
        ),
    ]);
    let replay = verify::replay(&tally.prefix);
    all.push((
        "verify.mismatches".into(),
        replay.mismatches as f64,
        "count",
    ));
    Ok(Report {
        metrics: all,
        replay,
        tally,
        window,
        window_s: plan.window_s(),
    })
}

fn metrics_json(metrics: &Metrics) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn run(args: &Args) -> io::Result<bool> {
    let env_clean = !std::env::vars_os().any(|(k, _)| k.to_string_lossy().starts_with("SKILLTAX_"));
    if !env_clean {
        eprintln!("warning: SKILLTAX_* variables are set; results are not comparable");
    }
    let rows = gen::table_iii_rows();
    let mut setups = Vec::with_capacity(2 * SETUP_SAMPLES);
    if !args.traced {
        time_setups(&mut setups)?;
    }
    let (running, _) = start()?;
    let mut report = if args.traced {
        per_layer(args, &rows, &running)?
    } else {
        end_to_end(args, &rows, &running)
    };
    running.stop();
    if !args.traced {
        time_setups(&mut setups)?;
        setups.sort_by(f64::total_cmp);
        let median = (setups[SETUP_SAMPLES - 1] + setups[SETUP_SAMPLES]) / 2.0;
        report.metrics.insert(0, ("setup_s".into(), median, "s"));
    }

    let nproc = host::nproc();
    if report.window.loadavg1 > nproc as f64 {
        eprintln!(
            "warning: load average {:.2} exceeds nproc {nproc}; the host is busy",
            report.window.loadavg1
        );
    }
    let Report {
        metrics,
        tally,
        replay,
        window,
        window_s,
    } = report;
    let correct = replay.mismatches == 0 && tally.wrong == 0;
    let meta = format!(
        "{{\"commit\":\"{}\",\"seed\":{},\"nproc\":{nproc},\"warmup_s\":{},\"window_s\":{window_s},\
         \"loadavg1\":{},\"tcp_time_wait\":{},\"skilltax_env_clean\":{env_clean},\
         \"verify_checked\":{},\"verify_mismatches\":{},\"verify_sim_instr\":{}}}",
        args.commit.replace(['"', '\\'], ""),
        args.seed,
        args.warmup.as_secs_f64(),
        window.loadavg1,
        window.tcp_time_wait,
        replay.checked,
        replay.mismatches,
        replay.sim_instr,
    );
    println!(
        "# {} seed={} traced={} meta={meta}",
        args.workload.name(),
        args.seed,
        args.traced
    );
    for (name, value, unit) in &metrics {
        println!(
            "{:<36} {value:>16.6} {unit}",
            format!("{}/{name}", args.workload.name())
        );
    }
    println!(
        "verify: {} replayed, {} mismatches, {} simulated instructions; {} wrong outcomes",
        replay.checked, replay.mismatches, replay.sim_instr, tally.wrong
    );
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.attempted().max(1),
        tally.failed,
        metrics_json(&metrics)
    );
    fs::create_dir_all(&args.out)?;
    let kind = if args.traced { "traced" } else { "result" };
    let file = args.out.join(format!(
        "{kind}-{}-{}.json",
        args.workload.name(),
        args.seed
    ));
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"meta\":{meta},{}\n",
        args.workload.name(),
        args.seed,
        args.traced,
        &result[1..]
    );
    fs::write(&file, record)?;
    println!("{result}");
    Ok(correct)
}

/// Closed-loop in-process capacity of the `burst` mix, the basis of R.
fn capacity(args: &Args) -> io::Result<()> {
    let rows = gen::table_iii_rows();
    let service = Service::start(service_config());
    let plan = Plan::new(args.warmup, Duration::from_secs_f64(args.seconds));
    let (tally, _) = load::inproc_loop(&service, Workload::Burst, args.seed, &rows, plan, false);
    service.shutdown();
    let rps = tally.completed as f64 / plan.window_s();
    println!(
        "burst closed-loop capacity: {rps:.1} jobs/s; 60% = {:.1}",
        rps * 0.6
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => {
            compare::run(Path::new(&argv[1]), Path::new(&argv[2]))
        }
        Some("capacity") => {
            let mut rest = vec!["--workload".to_string(), "burst".to_string()];
            rest.extend_from_slice(&argv[1..]);
            parse_args(&rest).and_then(|a| capacity(&a).map(|()| true).map_err(|e| e.to_string()))
        }
        _ => parse_args(&argv).and_then(|a| run(&a).map_err(|e| e.to_string())),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
