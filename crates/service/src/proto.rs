//! The service protocol: typed requests, typed terminal outcomes, typed
//! rejections, and the deliberately minimal wire format the HTTP front
//! end speaks (`key=value` lines in, JSON out — hermetic, no parser
//! dependencies).

use std::fmt;

use skilltax_machine::array::ArraySubtype;
use skilltax_machine::{MachineError, Stats};

/// Hard caps a request must respect at admission (oversized work is a
/// typed rejection, not a queued job that times out an hour later).
#[derive(Debug, Clone, Copy)]
pub struct RequestLimits {
    /// Largest simulated cycle budget a single job may ask for.
    pub max_cycles: u64,
    /// Largest core/lane count a single job may ask for.
    pub max_cores: usize,
    /// Largest sweep point count a single job may ask for.  The points
    /// run one after another on pooled uni-processors, whose burst
    /// kernel keeps the per-point cost low.
    pub max_sweep_points: usize,
}

impl Default for RequestLimits {
    fn default() -> RequestLimits {
        RequestLimits {
            max_cycles: 5_000_000,
            max_cores: 256,
            max_sweep_points: 256,
        }
    }
}

/// What a job asks the service to compute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// Classify an architecture row (the Table III DSL) into the
    /// extended taxonomy.
    Classify {
        /// Architecture name.
        name: String,
        /// The `ips | dps | ... | dp-dp` row.
        row: String,
    },
    /// Estimate area and configuration bits for an architecture row.
    Estimate {
        /// Architecture name.
        name: String,
        /// The `ips | dps | ... | dp-dp` row.
        row: String,
    },
    /// Run a spin workload on a machine and return its statistics.
    Simulate {
        /// Core count (1 = uni-processor, pooled).
        cores: usize,
        /// Loop iterations per core.
        iters: i64,
        /// Optional fault-plan seed: enables the transient-stall storm
        /// the retry/degradation tiers are exercised against.
        fault_seed: Option<u64>,
    },
    /// Simulate over a range of core counts and return cycles per point.
    Sweep {
        /// Core counts to simulate.
        cores: Vec<usize>,
        /// Loop iterations per core.
        iters: i64,
    },
    /// Seeded Monte-Carlo fault study on a SIMD array machine: every
    /// seed runs the same lane kernel under an independent deterministic
    /// fault plan.  The engine runs the seeds one after another with
    /// `run_resilient` on one array machine, reset between seeds
    /// (DESIGN.md §9).
    FaultSweep {
        /// Array sub-type (IAP-I..IV) under study.
        subtype: ArraySubtype,
        /// Data-path lanes per array instance.
        lanes: usize,
        /// Monte-Carlo population: seed `k` runs plan `seed0 + k`.
        seeds: usize,
        /// Base fault seed.
        seed0: u64,
        /// Transient DP stall probability, parts per million.  Integer
        /// ppm keeps [`JobKind`] `Eq` and the wire format float-free.
        stall_ppm: u32,
        /// Memory bit-flip probability, parts per million.
        flip_ppm: u32,
    },
}

impl JobKind {
    /// A short label for logs and reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Classify { .. } => "classify",
            JobKind::Estimate { .. } => "estimate",
            JobKind::Simulate { .. } => "simulate",
            JobKind::Sweep { .. } => "sweep",
            JobKind::FaultSweep { .. } => "faultsweep",
        }
    }

    /// The admission-time cost of the job in quota tokens: heavier work
    /// charges more, so one tenant's big simulations drain its bucket
    /// faster than another tenant's classifications.
    pub fn cost(&self) -> u64 {
        match self {
            JobKind::Classify { .. } | JobKind::Estimate { .. } => 1,
            JobKind::Simulate { cores, .. } => 1 + (*cores as u64) / 16,
            JobKind::Sweep { cores, .. } => 1 + cores.len() as u64,
            JobKind::FaultSweep { seeds, .. } => 1 + *seeds as u64,
        }
    }
}

/// One admitted unit of work.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// The tenant the job is billed to (quota + fairness identity).
    pub tenant: String,
    /// The work itself.
    pub kind: JobKind,
    /// Optional deadline in *simulated cycles*: the run is cancelled
    /// deterministically once it has consumed this many cycles.
    pub deadline_cycles: Option<u64>,
}

/// Why a request was refused at the front door.  Every rejection carries
/// enough structure for the client to act on it (the HTTP layer maps
/// these onto 4xx statuses and a `Retry-After` hint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The bounded job queue is full; retry after the hinted delay.
    QueueFull {
        /// Jobs currently queued.
        depth: usize,
        /// Queue capacity.
        capacity: usize,
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The tenant's token bucket is empty; retry once it refills.
    QuotaExhausted {
        /// Tokens the job needed.
        needed: u64,
        /// Milliseconds until the bucket holds that many tokens again.
        retry_after_ms: u64,
    },
    /// The request exceeds a hard size cap and would never be admitted.
    Oversized {
        /// Which limit was violated.
        what: &'static str,
        /// The configured cap.
        limit: u64,
        /// What the request asked for.
        got: u64,
    },
    /// The request could not be parsed or validated.
    Malformed(String),
    /// The service is draining and admits nothing new.
    ShuttingDown,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::QueueFull {
                depth,
                capacity,
                retry_after_ms,
            } => write!(
                f,
                "queue full ({depth}/{capacity}); retry after {retry_after_ms} ms"
            ),
            Rejection::QuotaExhausted {
                needed,
                retry_after_ms,
            } => write!(
                f,
                "quota exhausted (needed {needed} tokens); retry after {retry_after_ms} ms"
            ),
            Rejection::Oversized { what, limit, got } => {
                write!(
                    f,
                    "oversized request: {what} = {got} exceeds the cap {limit}"
                )
            }
            Rejection::Malformed(why) => write!(f, "malformed request: {why}"),
            Rejection::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl Rejection {
    /// The client backoff hint, if the rejection is retryable.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            Rejection::QueueFull { retry_after_ms, .. }
            | Rejection::QuotaExhausted { retry_after_ms, .. } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

/// The typed terminal outcome of an *admitted* job.  Every admitted job
/// reaches exactly one of these — the chaos suite's core invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The job completed cleanly.
    Completed {
        /// Human-readable result line (class name, area figure, …).
        summary: String,
        /// Run statistics for simulate/sweep jobs.
        stats: Option<Stats>,
    },
    /// The job completed, but only by degrading around injected faults
    /// (the `run_resilient` fallback tier).
    Degraded {
        /// Run statistics of the degraded run.
        stats: Stats,
        /// Faults the plan injected.
        faults_injected: u64,
        /// Whole-job retries the engine spent before degrading.
        retries: u32,
    },
    /// The job was cancelled (deadline or client disconnect) with the
    /// partial statistics at the stop cycle.
    Cancelled {
        /// The cycle the run stopped at.
        at_cycle: u64,
        /// Statistics accumulated up to the stop.
        partial: Stats,
    },
    /// The run exceeded its watchdog budget.
    TimedOut {
        /// The budget that tripped.
        limit: u64,
        /// Statistics accumulated up to the trip.
        partial: Stats,
    },
    /// The job failed with a typed machine error (after the retry and
    /// degradation tiers were exhausted).
    Failed {
        /// The rendered error.
        error: String,
        /// Whole-job retries the engine spent before giving up.
        retries: u32,
    },
}

impl JobOutcome {
    /// A short label for logs, metrics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Completed { .. } => "completed",
            JobOutcome::Degraded { .. } => "degraded",
            JobOutcome::Cancelled { .. } => "cancelled",
            JobOutcome::TimedOut { .. } => "timed-out",
            JobOutcome::Failed { .. } => "failed",
        }
    }

    /// Map a machine error onto the matching typed outcome.
    pub fn from_error(error: MachineError, retries: u32) -> JobOutcome {
        match error {
            MachineError::Cancelled { at_cycle, partial } => {
                JobOutcome::Cancelled { at_cycle, partial }
            }
            MachineError::WatchdogTimeout { limit, partial } => {
                JobOutcome::TimedOut { limit, partial }
            }
            other => JobOutcome::Failed {
                error: other.to_string(),
                retries,
            },
        }
    }
}

/// Parse the wire body: one `key=value` pair per `&`-separated field
/// (the shape `curl --data` produces), keys case-sensitive.
///
/// Recognised keys: `tenant`, `kind` (`classify` | `estimate` |
/// `simulate` | `sweep` | `faultsweep`), `name`, `row`, `cores` (single
/// number, or a comma list for sweeps), `iters`, `fault_seed`,
/// `deadline_cycles`,
/// and for fault sweeps `subtype` (`I`..`IV`), `lanes`, `seeds`,
/// `stall_ppm`, `flip_ppm` (fault rates as integer parts per million).
pub fn parse_request(body: &str) -> Result<JobRequest, Rejection> {
    let mut tenant = None;
    let mut kind = None;
    let mut name = None;
    let mut row = None;
    let mut cores = None;
    let mut iters = None;
    let mut fault_seed = None;
    let mut deadline_cycles = None;
    let mut subtype = None;
    let mut lanes = None;
    let mut seeds = None;
    let mut stall_ppm = None;
    let mut flip_ppm = None;
    for pair in body.split('&').filter(|p| !p.trim().is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| Rejection::Malformed(format!("field without '=': {pair:?}")))?;
        let value = value.trim();
        match key.trim() {
            "tenant" => tenant = Some(value.to_string()),
            "kind" => kind = Some(value.to_string()),
            "name" => name = Some(value.to_string()),
            "row" => row = Some(value.replace("%7C", "|").replace("%20", " ")),
            "cores" => cores = Some(value.to_string()),
            "iters" => {
                iters = Some(value.parse::<i64>().map_err(|_| {
                    Rejection::Malformed(format!("iters is not a number: {value:?}"))
                })?)
            }
            "fault_seed" => {
                fault_seed = Some(value.parse::<u64>().map_err(|_| {
                    Rejection::Malformed(format!("fault_seed is not a number: {value:?}"))
                })?)
            }
            "deadline_cycles" => {
                deadline_cycles = Some(value.parse::<u64>().map_err(|_| {
                    Rejection::Malformed(format!("deadline_cycles is not a number: {value:?}"))
                })?)
            }
            "subtype" => {
                subtype = Some(match value {
                    "I" => ArraySubtype::I,
                    "II" => ArraySubtype::II,
                    "III" => ArraySubtype::III,
                    "IV" => ArraySubtype::IV,
                    other => {
                        return Err(Rejection::Malformed(format!(
                            "unknown array subtype (expected I..IV): {other:?}"
                        )))
                    }
                })
            }
            "lanes" => {
                lanes = Some(value.parse::<usize>().map_err(|_| {
                    Rejection::Malformed(format!("lanes is not a number: {value:?}"))
                })?)
            }
            "seeds" => {
                seeds = Some(value.parse::<usize>().map_err(|_| {
                    Rejection::Malformed(format!("seeds is not a number: {value:?}"))
                })?)
            }
            "stall_ppm" => {
                stall_ppm = Some(value.parse::<u32>().map_err(|_| {
                    Rejection::Malformed(format!("stall_ppm is not a number: {value:?}"))
                })?)
            }
            "flip_ppm" => {
                flip_ppm = Some(value.parse::<u32>().map_err(|_| {
                    Rejection::Malformed(format!("flip_ppm is not a number: {value:?}"))
                })?)
            }
            other => return Err(Rejection::Malformed(format!("unknown field: {other:?}"))),
        }
    }
    let tenant = tenant.ok_or_else(|| Rejection::Malformed("missing tenant".into()))?;
    if tenant.is_empty() {
        return Err(Rejection::Malformed("empty tenant".into()));
    }
    let kind_name = kind.ok_or_else(|| Rejection::Malformed("missing kind".into()))?;
    let parse_cores_one = |s: &Option<String>| -> Result<usize, Rejection> {
        s.as_deref()
            .unwrap_or("1")
            .parse()
            .map_err(|_| Rejection::Malformed("cores is not a number".into()))
    };
    let kind = match kind_name.as_str() {
        "classify" | "estimate" => {
            let name = name.ok_or_else(|| Rejection::Malformed("missing name".into()))?;
            let row = row.ok_or_else(|| Rejection::Malformed("missing row".into()))?;
            if kind_name == "classify" {
                JobKind::Classify { name, row }
            } else {
                JobKind::Estimate { name, row }
            }
        }
        "simulate" => JobKind::Simulate {
            cores: parse_cores_one(&cores)?,
            iters: iters.unwrap_or(100),
            fault_seed,
        },
        "sweep" => {
            let list = cores.ok_or_else(|| Rejection::Malformed("missing cores list".into()))?;
            let cores: Result<Vec<usize>, _> =
                list.split(',').map(|c| c.trim().parse::<usize>()).collect();
            JobKind::Sweep {
                cores: cores
                    .map_err(|_| Rejection::Malformed("cores list has a non-number".into()))?,
                iters: iters.unwrap_or(100),
            }
        }
        "faultsweep" => {
            let lanes = lanes.unwrap_or(4);
            let seeds = seeds.unwrap_or(16);
            if lanes == 0 {
                return Err(Rejection::Malformed(
                    "faultsweep needs at least one lane".into(),
                ));
            }
            if seeds == 0 {
                return Err(Rejection::Malformed(
                    "faultsweep needs at least one seed".into(),
                ));
            }
            JobKind::FaultSweep {
                subtype: subtype.unwrap_or(ArraySubtype::III),
                lanes,
                seeds,
                seed0: fault_seed.unwrap_or(1),
                stall_ppm: stall_ppm.unwrap_or(0),
                flip_ppm: flip_ppm.unwrap_or(0),
            }
        }
        other => return Err(Rejection::Malformed(format!("unknown kind: {other:?}"))),
    };
    Ok(JobRequest {
        tenant,
        kind,
        deadline_cycles,
    })
}

/// [`parse_request`] plus the `profile` wire key: `profile=true` (or
/// `1`) asks the service to span-profile the job and retain its trace
/// for `GET /trace/jobs`.  The key is stripped before the regular parse,
/// so [`JobRequest`] itself is unchanged and plain clients see identical
/// behaviour.
pub fn parse_request_profiled(body: &str) -> Result<(JobRequest, bool), Rejection> {
    let mut profiled = false;
    let mut rest: Vec<&str> = Vec::new();
    for pair in body.split('&').filter(|p| !p.trim().is_empty()) {
        match pair.split_once('=') {
            Some((key, value)) if key.trim() == "profile" => {
                profiled = match value.trim() {
                    "true" | "1" => true,
                    "false" | "0" => false,
                    other => {
                        return Err(Rejection::Malformed(format!(
                            "profile is not a boolean: {other:?}"
                        )))
                    }
                };
            }
            _ => rest.push(pair),
        }
    }
    Ok((parse_request(&rest.join("&"))?, profiled))
}

/// Validate a parsed request against the hard caps.
pub fn validate(request: &JobRequest, limits: &RequestLimits) -> Result<(), Rejection> {
    let over = |what: &'static str, limit: u64, got: u64| -> Result<(), Rejection> {
        if got > limit {
            Err(Rejection::Oversized { what, limit, got })
        } else {
            Ok(())
        }
    };
    match &request.kind {
        JobKind::Classify { .. } | JobKind::Estimate { .. } => Ok(()),
        JobKind::Simulate { cores, iters, .. } => {
            over("cores", limits.max_cores as u64, *cores as u64)?;
            over("iters", limits.max_cycles, iters.unsigned_abs())
        }
        JobKind::Sweep { cores, iters } => {
            over(
                "sweep points",
                limits.max_sweep_points as u64,
                cores.len() as u64,
            )?;
            for &c in cores {
                over("cores", limits.max_cores as u64, c as u64)?;
            }
            over("iters", limits.max_cycles, iters.unsigned_abs())
        }
        JobKind::FaultSweep {
            lanes,
            seeds,
            stall_ppm,
            flip_ppm,
            ..
        } => {
            over("lanes", limits.max_cores as u64, *lanes as u64)?;
            over("seeds", limits.max_sweep_points as u64, *seeds as u64)?;
            // A probability cannot exceed one: ppm rates cap at 10^6.
            over("stall_ppm", 1_000_000, u64::from(*stall_ppm))?;
            over("flip_ppm", 1_000_000, u64::from(*flip_ppm))
        }
    }
}

/// Minimal JSON string escaping for response bodies.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn stats_json(stats: &Stats) -> String {
    format!(
        "{{\"cycles\":{},\"instructions\":{},\"alu_ops\":{},\"mem_reads\":{},\
         \"mem_writes\":{},\"messages\":{},\"stalls\":{}}}",
        stats.cycles,
        stats.instructions,
        stats.alu_ops,
        stats.mem_reads,
        stats.mem_writes,
        stats.messages,
        stats.stalls
    )
}

/// Render an outcome as the JSON body the HTTP layer returns.
pub fn outcome_json(outcome: &JobOutcome) -> String {
    match outcome {
        JobOutcome::Completed { summary, stats } => match stats {
            Some(s) => format!(
                "{{\"outcome\":\"completed\",\"summary\":\"{}\",\"stats\":{}}}",
                json_escape(summary),
                stats_json(s)
            ),
            None => format!(
                "{{\"outcome\":\"completed\",\"summary\":\"{}\"}}",
                json_escape(summary)
            ),
        },
        JobOutcome::Degraded {
            stats,
            faults_injected,
            retries,
        } => format!(
            "{{\"outcome\":\"degraded\",\"faults_injected\":{faults_injected},\
             \"retries\":{retries},\"stats\":{}}}",
            stats_json(stats)
        ),
        JobOutcome::Cancelled { at_cycle, partial } => format!(
            "{{\"outcome\":\"cancelled\",\"at_cycle\":{at_cycle},\"partial\":{}}}",
            stats_json(partial)
        ),
        JobOutcome::TimedOut { limit, partial } => format!(
            "{{\"outcome\":\"timed-out\",\"limit\":{limit},\"partial\":{}}}",
            stats_json(partial)
        ),
        JobOutcome::Failed { error, retries } => format!(
            "{{\"outcome\":\"failed\",\"retries\":{retries},\"error\":\"{}\"}}",
            json_escape(error)
        ),
    }
}

/// Render a rejection as the JSON body the HTTP layer returns.
pub fn rejection_json(rejection: &Rejection) -> String {
    let mut body = format!(
        "{{\"rejected\":\"{}\",\"reason\":\"{}\"",
        match rejection {
            Rejection::QueueFull { .. } => "queue-full",
            Rejection::QuotaExhausted { .. } => "quota-exhausted",
            Rejection::Oversized { .. } => "oversized",
            Rejection::Malformed(_) => "malformed",
            Rejection::ShuttingDown => "shutting-down",
        },
        json_escape(&rejection.to_string())
    );
    if let Some(ms) = rejection.retry_after_ms() {
        body.push_str(&format!(",\"retry_after_ms\":{ms}"));
    }
    body.push('}');
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_simulate_request() {
        let req = parse_request(
            "tenant=acme&kind=simulate&cores=16&iters=500&fault_seed=7&deadline_cycles=1000",
        )
        .unwrap();
        assert_eq!(req.tenant, "acme");
        assert_eq!(req.deadline_cycles, Some(1_000));
        match req.kind {
            JobKind::Simulate {
                cores,
                iters,
                fault_seed,
            } => {
                assert_eq!((cores, iters), (16, 500));
                assert_eq!(fault_seed, Some(7));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn parses_classify_and_sweep() {
        let req = parse_request("tenant=t&kind=classify&name=MorphoSys&row=1 | 64 | none").unwrap();
        assert!(matches!(req.kind, JobKind::Classify { .. }));
        let req = parse_request("tenant=t&kind=sweep&cores=1,2,4&iters=50").unwrap();
        match req.kind {
            JobKind::Sweep { cores, iters } => {
                assert_eq!(cores, vec![1, 2, 4]);
                assert_eq!(iters, 50);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn parses_a_faultsweep_request() {
        let req = parse_request(
            "tenant=lab&kind=faultsweep&subtype=II&lanes=8&seeds=32\
             &fault_seed=5&stall_ppm=200000&flip_ppm=50000",
        )
        .unwrap();
        assert_eq!(req.kind.label(), "faultsweep");
        assert_eq!(req.kind.cost(), 33);
        assert_eq!(
            req.kind,
            JobKind::FaultSweep {
                subtype: ArraySubtype::II,
                lanes: 8,
                seeds: 32,
                seed0: 5,
                stall_ppm: 200_000,
                flip_ppm: 50_000,
            }
        );
        // Defaults: IAP-III, 4 lanes, 16 seeds, base seed 1, no faults.
        let req = parse_request("tenant=lab&kind=faultsweep").unwrap();
        assert_eq!(
            req.kind,
            JobKind::FaultSweep {
                subtype: ArraySubtype::III,
                lanes: 4,
                seeds: 16,
                seed0: 1,
                stall_ppm: 0,
                flip_ppm: 0,
            }
        );
    }

    #[test]
    fn malformed_requests_are_typed_rejections() {
        for body in [
            "kind=simulate",              // missing tenant
            "tenant=t",                   // missing kind
            "tenant=t&kind=warp",         // unknown kind
            "tenant=t&kind=simulate&x=1", // unknown field
            "tenant=t&kind=simulate&iters=zebra",
            "tenant=&kind=simulate",              // empty tenant
            "tenant=t&kind=faultsweep&subtype=V", // no such array class
            "tenant=t&kind=faultsweep&lanes=0",   // degenerate array
            "tenant=t&kind=faultsweep&seeds=0",   // empty population
            "tenant=t&kind=faultsweep&stall_ppm=-1",
            "tenant=t&kind=simulate&scheduler=sharded", // removed key
            "tenant=t&kind=simulate&scheduler=sharded:2",
            "tenant=t&kind=simulate&scheduler=dense",
            "tenant=t&kind=simulate&scheduler=event",
        ] {
            assert!(
                matches!(parse_request(body), Err(Rejection::Malformed(_))),
                "{body:?} should be malformed"
            );
        }
    }

    #[test]
    fn profile_key_is_recognised_and_stripped() {
        let (req, profiled) =
            parse_request_profiled("tenant=acme&profile=true&kind=simulate&iters=50").unwrap();
        assert!(profiled);
        assert_eq!(req.tenant, "acme");
        let (_, profiled) = parse_request_profiled("tenant=t&kind=simulate&profile=0").unwrap();
        assert!(!profiled);
        // Absent key defaults off; plain parse still rejects the key.
        let (_, profiled) = parse_request_profiled("tenant=t&kind=simulate").unwrap();
        assert!(!profiled);
        assert!(matches!(
            parse_request("tenant=t&kind=simulate&profile=true"),
            Err(Rejection::Malformed(_))
        ));
        assert!(matches!(
            parse_request_profiled("tenant=t&kind=simulate&profile=maybe"),
            Err(Rejection::Malformed(_))
        ));
    }

    #[test]
    fn oversized_requests_are_typed_rejections() {
        let limits = RequestLimits::default();
        let req = parse_request("tenant=t&kind=simulate&cores=100000").unwrap();
        assert!(matches!(
            validate(&req, &limits),
            Err(Rejection::Oversized { what: "cores", .. })
        ));
        let req = parse_request("tenant=t&kind=sweep&cores=1,2&iters=999999999999").unwrap();
        assert!(matches!(
            validate(&req, &limits),
            Err(Rejection::Oversized { what: "iters", .. })
        ));
        for (body, what) in [
            ("tenant=t&kind=faultsweep&lanes=1000", "lanes"),
            ("tenant=t&kind=faultsweep&seeds=1000", "seeds"),
            ("tenant=t&kind=faultsweep&stall_ppm=1000001", "stall_ppm"),
            ("tenant=t&kind=faultsweep&flip_ppm=2000000", "flip_ppm"),
        ] {
            let req = parse_request(body).unwrap();
            match validate(&req, &limits) {
                Err(Rejection::Oversized { what: got, .. }) => assert_eq!(got, what),
                other => panic!("{body:?} should be oversized, got {other:?}"),
            }
        }
    }

    #[test]
    fn outcome_json_is_well_formed() {
        let json = outcome_json(&JobOutcome::Cancelled {
            at_cycle: 9,
            partial: Stats::default(),
        });
        assert!(json.starts_with("{\"outcome\":\"cancelled\""));
        assert!(json.contains("\"at_cycle\":9"));
        let json = rejection_json(&Rejection::QueueFull {
            depth: 8,
            capacity: 8,
            retry_after_ms: 40,
        });
        assert!(json.contains("\"retry_after_ms\":40"));
    }
}
