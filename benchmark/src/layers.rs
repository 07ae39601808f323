//! Pass C (the engine alone) and the per-layer metrics derived from the
//! three traced passes.

use std::time::{Duration, Instant};

use skilltax_machine::CancelToken;
use skilltax_service::proto::{outcome_json, parse_request};
use skilltax_service::{Engine, EngineConfig, JobRequest, ServiceMetrics};

use crate::gen::{Route, Rows, Stream, Workload};
use crate::trace::{SpanLog, ENGINE_ROOT, KEEP};
use crate::verify;

/// What pass C measured per route.
#[derive(Debug)]
pub struct EnginePass {
    pub log: SpanLog,
    ns: [u64; Route::COUNT],
    instr: [u64; Route::COUNT],
    jobs: [u64; Route::COUNT],
    /// Requests covered, metrics reads (which run no engine) included.
    requests: u64,
    retries: u64,
    degraded: u64,
}

/// Run the first [`KEEP`] requests (interleaved across `streams` the way
/// the load passes number them) on one thread through a private engine,
/// stopping early once `budget` is spent.  The requests run once
/// untimed first, so the engine's program cache is as warm as the
/// service's.
pub fn engine_pass(
    workload: Workload,
    seed: u64,
    rows: &Rows,
    streams: usize,
    budget: Duration,
) -> EnginePass {
    let engine = Engine::new(EngineConfig::default());
    let token = CancelToken::new();
    let mut gens: Vec<Stream> = (0..streams)
        .map(|s| Stream::new(workload, seed, s as u64, rows))
        .collect();
    let requests: Vec<(u64, Route, JobRequest)> = (0..KEEP)
        .filter_map(|id| {
            let req = gens[id as usize % streams].next_req();
            let parsed = (req.route != Route::Metrics)
                .then(|| parse_request(&req.body).expect("generated bodies parse"));
            Some((id, req.route, parsed?))
        })
        .collect();
    let warm = Instant::now();
    for (_, _, request) in &requests {
        if warm.elapsed() > budget {
            break;
        }
        engine.execute(request, &token);
    }
    let epoch = Instant::now();
    let mut pass = EnginePass {
        log: SpanLog::new(epoch, 0, ENGINE_ROOT, &[]),
        ns: [0; Route::COUNT],
        instr: [0; Route::COUNT],
        jobs: [0; Route::COUNT],
        requests: 0,
        retries: 0,
        degraded: 0,
    };
    for (id, route, request) in &requests {
        if epoch.elapsed() > budget {
            break;
        }
        // Metrics reads run no engine but count toward the per-request mean.
        pass.requests = id + 1;
        let t0 = Instant::now();
        let outcome = engine.execute(request, &token);
        let t1 = Instant::now();
        pass.log.record(*id, *route, &[t0, t1]);
        let body = outcome_json(&outcome);
        let r = route.index();
        pass.ns[r] += (t1 - t0).as_nanos() as u64;
        pass.instr[r] += verify::instructions(&body);
        pass.jobs[r] += 1;
        if *route == Route::FaultMulti {
            pass.retries += verify::json_u64(&body, "retries").unwrap_or(0);
            pass.degraded += u64::from(verify::outcome_label(&body) == Some("degraded"));
        }
    }
    pass
}

/// The per-layer metrics, as `(name, value, unit)`.
pub type Metrics = Vec<(String, f64, &'static str)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Exact `q` percentile of an unsorted sample (0 when empty).
pub fn percentile(mut values: Vec<i64>, q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    values[((values.len() - 1) as f64 * q).round() as usize] as f64
}

/// Upper edge, in ms, of the log2 bucket holding the `q` quantile of the
/// service's own queue-wait histogram.
fn log2_quantile(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    let rank = (q * total as f64).ceil() as u64;
    let mut seen = 0;
    for (i, &n) in counts.iter().enumerate() {
        seen += n;
        if n > 0 && seen >= rank {
            return if i == 0 {
                0.0
            } else {
                ((1u64 << i) - 1) as f64
            };
        }
    }
    0.0
}

/// Everything the per-layer derivation reads.
pub struct Passes<'a> {
    /// Pass A's client-side HTTP spans (`None` on `burst`, which has no
    /// HTTP layer).
    pub http: Option<&'a SpanLog>,
    /// Spans around the in-process service calls: pass B, or the `burst`
    /// loop's R step.
    pub inproc: &'a SpanLog,
    pub engine: &'a EnginePass,
    /// Counters of the service the in-process spans ran against.
    pub service: &'a ServiceMetrics,
    /// The server's on-CPU time per request in the untraced window.
    pub server_cpu_ns_per_req: f64,
}

pub fn derive(p: &Passes) -> Metrics {
    let mut m: Metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.push((
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
            unit,
        ));
    };
    let us = |log: &SpanLog, name: &str, route: Option<Route>, q: f64| {
        log.hist(name, route).quantile_us(q)
    };

    // service::http — client-side spans; the front end's own cost is the
    // server span less the in-process layers, per route, then weighted.
    let (connect, server50, server99, front) = match p.http {
        Some(a) => {
            let mut fronts: Vec<(f64, u64)> = Route::ENGINE
                .iter()
                .filter_map(|&r| {
                    let n = a.hist("http.server", Some(r)).count();
                    let inner: f64 = [
                        "proto.parse",
                        "service.submit",
                        "service.wait",
                        "proto.render",
                    ]
                    .iter()
                    .map(|s| us(p.inproc, s, Some(r), 0.5))
                    .sum();
                    (n > 0 && p.inproc.hist("service.wait", Some(r)).count() > 0)
                        .then(|| (us(a, "http.server", Some(r), 0.5) - inner, n))
                })
                .collect();
            fronts.sort_by(|x, y| x.0.total_cmp(&y.0));
            let half = fronts.iter().map(|f| f.1).sum::<u64>() / 2;
            let mut seen = 0;
            let front = fronts
                .iter()
                .find(|f| {
                    seen += f.1;
                    seen > half
                })
                .map_or(0.0, |f| f.0);
            (
                us(a, "http.connect", None, 0.5),
                us(a, "http.server", None, 0.5),
                us(a, "http.server", None, 0.99),
                front,
            )
        }
        None => (0.0, 0.0, 0.0, 0.0),
    };
    put("http.connect_us.p50", connect, "us");
    put("http.server_us.p50", server50, "us");
    put("http.server_us.p99", server99, "us");
    put("http.front_us.p50", front, "us");

    // service::proto
    put(
        "proto.parse_us.p50",
        us(p.inproc, "proto.parse", None, 0.5),
        "us",
    );
    put(
        "proto.render_us.p50",
        us(p.inproc, "proto.render", None, 0.5),
        "us",
    );

    // service::service, admission, quota
    put(
        "service.submit_us.p50",
        us(p.inproc, "service.submit", None, 0.5),
        "us",
    );
    put(
        "service.submit_us.p99",
        us(p.inproc, "service.submit", None, 0.99),
        "us",
    );
    let waits = p.inproc.durations("service.wait");
    let dispatch: Vec<i64> = p
        .engine
        .log
        .kept
        .iter()
        .map(|s| (s.req, s.dur_ns()))
        .filter_map(|(req, ns)| Some(*waits.get(&req)? as i64 - ns as i64))
        .collect();
    put(
        "service.dispatch_us.p50",
        percentile(dispatch.clone(), 0.5) / 1e3,
        "us",
    );
    put(
        "service.dispatch_us.p99",
        percentile(dispatch, 0.99) / 1e3,
        "us",
    );
    put(
        "service.queue_wait_ms.p99",
        log2_quantile(p.service.queue_wait_ms.bucket_counts(), 0.99),
        "ms",
    );
    put("admission.peak_depth", p.service.peak_depth as f64, "count");
    put(
        "admission.rejected_queue_full",
        p.service.rejected_queue_full as f64,
        "count",
    );

    // engine → every machine layer.  Shares are of pass C's time.
    let e = p.engine;
    let total_ns: u64 = e.ns.iter().sum();
    for r in [
        Route::Classify,
        Route::Estimate,
        Route::Uni,
        Route::Multi,
        Route::FaultMulti,
    ] {
        let name = format!("{}.run_us.p50", r.engine_span());
        put(&name, us(&e.log, ENGINE_ROOT, Some(r), 0.5), "us");
    }
    for r in [
        Route::Uni,
        Route::Multi,
        Route::FleetUni,
        Route::FleetArray,
        Route::FaultMulti,
    ] {
        let i = r.index();
        let name = format!("{}.ns_per_instr", r.engine_span());
        put(&name, ratio(e.ns[i] as f64, e.instr[i] as f64), "ns/instr");
    }
    let fault_jobs = e.jobs[Route::FaultMulti.index()] as f64;
    put("engine.fault_multi.retries", e.retries as f64, "count");
    put(
        "engine.fault_multi.degraded_frac",
        ratio(e.degraded as f64, fault_jobs),
        "frac",
    );
    for r in Route::ENGINE {
        let name = format!("{}.share", r.engine_span());
        put(
            &name,
            ratio(e.ns[r.index()] as f64, total_ns as f64),
            "frac",
        );
    }
    // The engine's share of the server's on-CPU time per request.  Pass C
    // runs alone on an idle host, so its wall time is engine CPU.
    let engine_ns_per_req = ratio(total_ns as f64, e.requests as f64);
    put(
        "engine.server_share",
        ratio(engine_ns_per_req, p.server_cpu_ns_per_req),
        "frac",
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_quantile_reports_the_bucket_upper_edge() {
        // 99 zeros and one value in [4, 8): p99 is still a zero.
        let mut counts = [0u64; 17];
        counts[0] = 99;
        counts[3] = 1;
        assert_eq!(log2_quantile(&counts, 0.99), 0.0);
        assert_eq!(log2_quantile(&counts, 1.0), 7.0);
    }
}
