//! The execution engine: maps an admitted [`JobRequest`] onto the
//! model / taxonomy / estimate / machine crates and always produces a
//! typed [`JobOutcome`].
//!
//! Three resilience tiers compose here (DESIGN.md §11):
//!
//! 1. the *run* itself, cancellation-aware and watchdog-bounded at every
//!    machine loop;
//! 2. a *whole-job retry* tier using the machine crate's [`RetryState`]
//!    bounded exponential backoff — each attempt re-runs the trial with
//!    a larger in-run retry budget, so transient fault storms that
//!    exhaust one attempt can clear on the next;
//! 3. *graceful degradation* inside `run_resilient`, which remaps work
//!    off failed components where the taxonomy says a crossbar exists.
//!
//! Single-core simulations run on pooled machines (zero steady-state
//! allocations — see [`UniPool`]); multi-core machines are built per
//! request, the documented cold tier.  Sweeps run their points one
//! after another on the same paths, and fault sweeps run their seeds one
//! after another on one reset array machine, whose lockstep kernel
//! charges each broadcast's stalled cycles as one sampled run
//! (DESIGN.md §7, §9).
//! The program and ring caches are insert-only, so they keep serving
//! after a panicking job poisoned their lock.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use skilltax_estimate::{estimate_area, estimate_config_bits, CostParams};
use skilltax_machine::array::{ArrayMachine, ArraySubtype};
use skilltax_machine::fault::{FaultPlan, LinkOutage, RetryState};
use skilltax_machine::multi::{MultiMachine, MultiSubtype};
use skilltax_machine::{
    Assembler, CancelToken, Instr, MachineError, NullTracer, Phase, Profiled, Program, SpanProfile,
    Stats, Telemetry, Tracer, Word,
};
use skilltax_model::dsl::parse_row;
use skilltax_taxonomy::classify;

use crate::pool::UniPool;
use crate::proto::{JobKind, JobOutcome, JobRequest, RequestLimits};

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The hard caps requests were validated against (the watchdog
    /// budget for simulate jobs is `limits.max_cycles`).
    pub limits: RequestLimits,
    /// Data-memory words per pooled uni-processor.
    pub mem_words: usize,
    /// Idle machines the pool may park.
    pub pool_capacity: usize,
    /// Whole-job retry budget for transient faults (tier 2).
    pub max_job_retries: u32,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            limits: RequestLimits::default(),
            mem_words: 64,
            pool_capacity: 8,
            max_job_retries: 4,
        }
    }
}

/// The stateless-per-request execution engine (the pool and program
/// cache are shared, warm state).
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    pool: UniPool,
    /// Spin programs keyed by iteration count: the steady state hands
    /// out `Arc` clones, so repeat requests assemble nothing.
    programs: Mutex<HashMap<i64, Arc<Program>>>,
    /// Ring-shift programs keyed by core count, cached the same way.
    rings: Mutex<HashMap<usize, Arc<Vec<Program>>>>,
}

/// Count to `iters` and halt — the service's canonical spin workload.
fn spin_program(iters: Word) -> Program {
    let mut asm = Assembler::new();
    asm.movi(0, 0).movi(1, iters);
    asm.label("loop").unwrap();
    asm.emit(Instr::AddI(0, 0, 1));
    asm.blt(0, 1, "loop");
    asm.emit(Instr::Halt);
    asm.assemble().unwrap()
}

/// Backward ring-shift programs (core `i > 0` sends to `i - 1`): the
/// message traffic gives link outages something to break.
fn ring_programs(cores: usize) -> Vec<Program> {
    (0..cores)
        .map(|i| {
            let mut asm = Assembler::new();
            if i + 1 == cores {
                asm.movi(0, 100 + i as Word).emit(Instr::Send(i - 1, 0));
            } else if i == 0 {
                asm.emit(Instr::Recv(5, 1));
            } else {
                asm.movi(0, 100 + i as Word)
                    .emit(Instr::Send(i - 1, 0))
                    .emit(Instr::Recv(5, i + 1));
            }
            asm.emit(Instr::Halt);
            asm.assemble().expect("ring program assembles")
        })
        .collect()
}

/// The fault plan of one whole-job attempt at a seeded trial.
/// Reseeding by attempt models a transient environment; the in-run
/// retry budget grows with the attempt so tier 2 genuinely escalates.
fn fault_plan(seed: u64, cores: usize, attempt: u32) -> FaultPlan {
    let attempt_seed = seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    match seed % 3 {
        // A stall storm on a plain shared-nothing multi.
        0 => {
            let rate = 0.1 + 0.2 * ((seed / 3) % 4) as f64;
            FaultPlan::seeded(attempt_seed).stall_dps(rate)
        }
        // A dead DP on an IP–DP-crossbar machine: degradation remaps
        // the work and the job completes `Degraded`.
        1 => FaultPlan::seeded(attempt_seed)
            .stall_dps(0.1)
            .fail_dp((seed / 3) as usize % cores),
        // A link outage under ring traffic on a DP–DP machine: the
        // in-run backoff must outlast the outage, so early attempts
        // can exhaust (`RetryExhausted`) and later ones clear.
        _ => {
            let outage_until = 4 + seed % 32;
            FaultPlan::seeded(attempt_seed)
                .fail_link(LinkOutage {
                    from: 1,
                    to: 0,
                    from_cycle: 0,
                    until_cycle: outage_until,
                })
                .with_max_retries(1 + 2 * attempt)
        }
    }
}

fn add_stats(acc: &mut Stats, s: &Stats) {
    acc.cycles += s.cycles;
    acc.instructions += s.instructions;
    acc.alu_ops += s.alu_ops;
    acc.mem_reads += s.mem_reads;
    acc.mem_writes += s.mem_writes;
    acc.messages += s.messages;
    acc.stalls += s.stalls;
}

/// What [`Engine::execute_profiled`] captured alongside the outcome: the
/// machine-layer span tree (cycle domain, sealed) plus the trace-channel
/// loss counter, so the service can graft the run into a job timeline
/// and surface drops in its metrics.
#[derive(Debug, Clone, Default)]
pub struct RunCapture {
    /// The sealed span profile of the run (empty for classify/estimate
    /// jobs, which never touch a machine loop).
    pub profile: SpanProfile,
    /// Events the bounded telemetry ring evicted during the run.
    pub events_dropped: u64,
}

/// Is this error worth a whole-job retry under a reseeded environment?
fn is_transient(error: &MachineError) -> bool {
    matches!(
        error,
        MachineError::RetryExhausted { .. } | MachineError::LinkDown { .. }
    )
}

impl Engine {
    /// An engine with a cold pool under `config`.
    pub fn new(config: EngineConfig) -> Engine {
        Engine {
            pool: UniPool::new(config.pool_capacity, config.mem_words),
            config,
            programs: Mutex::new(HashMap::new()),
            rings: Mutex::new(HashMap::new()),
        }
    }

    /// The machine pool (exposed for warm-up and allocation tests).
    pub fn pool(&self) -> &UniPool {
        &self.pool
    }

    /// The spin program for `iters`, cached so the steady state is an
    /// `Arc` clone (no assembly, no allocation).
    fn spin(&self, iters: i64) -> Arc<Program> {
        // Insert-only: a thread that panicked holding the lock left every
        // entry whole, so a poisoned cache is still a good cache.
        let mut cache = self.programs.lock().unwrap_or_else(PoisonError::into_inner);
        cache
            .entry(iters)
            .or_insert_with(|| Arc::new(spin_program(iters)))
            .clone()
    }

    /// The effective cancellation token for a request: the job token,
    /// with the request deadline folded in.
    fn request_token(&self, cancel: &CancelToken, deadline: Option<u64>) -> CancelToken {
        match deadline {
            Some(d) => cancel.clone().with_deadline(d),
            None => cancel.clone(),
        }
    }

    /// Execute an admitted request to its typed terminal outcome.
    /// `cancel` is the job's token: raising its flag (client disconnect,
    /// shutdown) stops the run promptly with a `Cancelled` outcome.
    pub fn execute(&self, request: &JobRequest, cancel: &CancelToken) -> JobOutcome {
        #[cfg(test)]
        if request.tenant == tests::PANIC_TENANT {
            panic!("a job of the panic test tenant");
        }
        #[cfg(test)]
        if request.tenant == tests::GATE_TENANT {
            tests::pass_gate();
        }
        self.run(request, cancel, &mut NullTracer)
    }

    /// [`Engine::execute`] with span profiling: the same typed outcome,
    /// plus a sealed cycle-domain [`SpanProfile`] of the machine run and
    /// the telemetry ring's drop count.  Events and counters still flow
    /// (into a job-local [`Telemetry`]), so profiled jobs observe the
    /// identical machine behaviour — the profile rides the same tracer.
    pub fn execute_profiled(
        &self,
        request: &JobRequest,
        cancel: &CancelToken,
    ) -> (JobOutcome, RunCapture) {
        let mut t = Profiled::new(Telemetry::new());
        let outcome = self.run(request, cancel, &mut t);
        t.profile.seal();
        (
            outcome,
            RunCapture {
                events_dropped: t.inner.trace.dropped(),
                profile: t.profile,
            },
        )
    }

    /// The request's outcome, its machine runs observed by `tracer`;
    /// with a [`NullTracer`] the hooks compile away.
    fn run<T: Tracer>(
        &self,
        request: &JobRequest,
        cancel: &CancelToken,
        tracer: &mut T,
    ) -> JobOutcome {
        let token = self.request_token(cancel, request.deadline_cycles);
        match &request.kind {
            JobKind::Classify { name, row } => Self::classify_job(name, row),
            JobKind::Estimate { name, row } => Self::estimate_job(name, row),
            JobKind::Simulate {
                cores,
                iters,
                fault_seed,
            } => match fault_seed {
                Some(seed) if *cores >= 2 => {
                    self.faulted_simulate(*cores, *iters, *seed, &token, tracer)
                }
                // Fault plans live on the multi-core fabric; a 1-core
                // request with a seed runs the plain pooled path.
                _ => self.plain_simulate(*cores, *iters, &token, tracer),
            },
            JobKind::Sweep { cores, iters } => self.sweep(cores, *iters, &token, tracer),
            // `ArrayMachine::run_resilient` takes no tracer, so a profiled
            // fault sweep reports the same typed outcome with an empty
            // machine span tree.
            JobKind::FaultSweep {
                subtype,
                lanes,
                seeds,
                seed0,
                stall_ppm,
                flip_ppm,
            } => self.fault_sweep(
                *subtype, *lanes, *seeds, *seed0, *stall_ppm, *flip_ppm, &token,
            ),
        }
    }

    fn classify_job(name: &str, row: &str) -> JobOutcome {
        let spec = match parse_row(name, row) {
            Ok(spec) => spec,
            Err(e) => {
                return JobOutcome::Failed {
                    error: e.to_string(),
                    retries: 0,
                }
            }
        };
        match classify(&spec) {
            Ok(c) => JobOutcome::Completed {
                summary: format!("{name}: class {} (serial {})", c.name(), c.serial()),
                stats: None,
            },
            Err(e) => JobOutcome::Failed {
                error: e.to_string(),
                retries: 0,
            },
        }
    }

    fn estimate_job(name: &str, row: &str) -> JobOutcome {
        let spec = match parse_row(name, row) {
            Ok(spec) => spec,
            Err(e) => {
                return JobOutcome::Failed {
                    error: e.to_string(),
                    retries: 0,
                }
            }
        };
        let params = CostParams::default();
        let area = estimate_area(&spec, &params);
        let bits = estimate_config_bits(&spec, &params);
        JobOutcome::Completed {
            summary: format!(
                "{name}: area={:.0}, config_bits={}",
                area.total(),
                bits.total()
            ),
            stats: None,
        }
    }

    fn build_multi(&self, cores: usize, subtype: u8) -> MultiMachine {
        MultiMachine::new(
            MultiSubtype::from_index(subtype).expect("engine subtypes are valid"),
            cores,
            self.config.mem_words,
        )
        .with_cycle_limit(self.config.limits.max_cycles)
    }

    fn plain_simulate<T: Tracer>(
        &self,
        cores: usize,
        iters: i64,
        token: &CancelToken,
        tracer: &mut T,
    ) -> JobOutcome {
        let program = self.spin(iters);
        if cores <= 1 {
            let result = self
                .pool
                .run(self.config.limits.max_cycles, token.clone(), |m| {
                    m.run_traced(&program, tracer)
                });
            return match result {
                Ok(stats) => JobOutcome::Completed {
                    // `String::new` allocates nothing; clients read stats.
                    summary: String::new(),
                    stats: Some(stats),
                },
                Err(e) => JobOutcome::from_error(e, 0),
            };
        }
        let mut m = self.build_multi(cores, 1).with_cancel(token.clone());
        match m.run_simd_traced(&program, tracer) {
            Ok(stats) => JobOutcome::Completed {
                summary: String::new(),
                stats: Some(stats),
            },
            Err(e) => JobOutcome::from_error(e, 0),
        }
    }

    /// Ring programs for `cores`, cached like [`Engine::spin`] so repeat
    /// requests assemble nothing.
    fn ring(&self, cores: usize) -> Arc<Vec<Program>> {
        // Insert-only, like the program cache: poisoning loses nothing.
        let mut cache = self.rings.lock().unwrap_or_else(PoisonError::into_inner);
        cache
            .entry(cores)
            .or_insert_with(|| Arc::new(ring_programs(cores)))
            .clone()
    }

    /// The fault trial a seed selects: the per-core programs and the
    /// machine sub-type.  Both are fixed for the request; only the plan
    /// ([`fault_plan`]) changes between whole-job attempts.
    fn fault_trial(&self, seed: u64, cores: usize, iters: i64) -> (Arc<Vec<Program>>, u8) {
        let spin = || Arc::new(vec![(*self.spin(iters)).clone(); cores]);
        match seed % 3 {
            // Stall storms run on IMP-I, dead DPs on an IP–DP crossbar,
            // link outages under ring traffic on a DP–DP crossbar.
            0 => (spin(), 1),
            1 => (spin(), 10),
            _ => (self.ring(cores), 2),
        }
    }

    fn faulted_simulate<T: Tracer>(
        &self,
        cores: usize,
        iters: i64,
        seed: u64,
        token: &CancelToken,
        tracer: &mut T,
    ) -> JobOutcome {
        let (programs, subtype) = self.fault_trial(seed, cores, iters);
        let mut retry = RetryState::default();
        loop {
            let plan = fault_plan(seed, cores, retry.attempts);
            let mut m = self.build_multi(cores, subtype).with_cancel(token.clone());
            match m.run_resilient_traced(&programs, plan, tracer) {
                Ok(out) => {
                    return if out.degraded || out.faults_injected > 0 {
                        JobOutcome::Degraded {
                            stats: out.stats,
                            faults_injected: out.faults_injected,
                            retries: retry.attempts,
                        }
                    } else {
                        JobOutcome::Completed {
                            summary: String::new(),
                            stats: Some(out.stats),
                        }
                    };
                }
                Err(e) if is_transient(&e) => {
                    // Tier 2: bounded backoff, then a fresh attempt.  The
                    // delay is in simulated cycles — the service does not
                    // sleep, the bound is what matters.
                    if retry
                        .back_off(0, 0, 0, self.config.max_job_retries)
                        .is_err()
                    {
                        return JobOutcome::from_error(e, retry.attempts);
                    }
                    // A whole-job retry is a profile instant between runs.
                    tracer.span_mark(0, Phase::Retry);
                }
                Err(e) => return JobOutcome::from_error(e, retry.attempts),
            }
        }
    }

    /// Each sweep point runs as its own sequential root span in the
    /// profile, so the exported timeline shows the points end to end.
    fn sweep<T: Tracer>(
        &self,
        cores: &[usize],
        iters: i64,
        token: &CancelToken,
        tracer: &mut T,
    ) -> JobOutcome {
        let mut total = Stats::default();
        let mut points = String::new();
        for &c in cores {
            let outcome = self.plain_simulate(c, iters, token, tracer);
            match outcome {
                JobOutcome::Completed {
                    stats: Some(stats), ..
                } => {
                    if !points.is_empty() {
                        points.push(' ');
                    }
                    points.push_str(&format!("{c}:{}", stats.cycles));
                    add_stats(&mut total, &stats);
                }
                // The first point that does not complete ends the sweep
                // with that point's typed outcome.
                other => return other,
            }
        }
        JobOutcome::Completed {
            summary: points,
            stats: Some(total),
        }
    }

    /// Seeded Monte-Carlo fault study: seed `k` runs fault plan
    /// `seed0 + k` under `run_resilient` on one array machine, scrubbed
    /// with [`ArrayMachine::reset`] between seeds, so each seed sees a
    /// fresh machine.  The request token — deadline folded in — bounds
    /// every seed's run.  Seeds run in seed order and the first one that
    /// does not complete ends the job with its typed outcome, matching
    /// sweep semantics.
    #[allow(clippy::too_many_arguments)]
    fn fault_sweep(
        &self,
        subtype: ArraySubtype,
        lanes: usize,
        seeds: usize,
        seed0: u64,
        stall_ppm: u32,
        flip_ppm: u32,
        token: &CancelToken,
    ) -> JobOutcome {
        let mut asm = Assembler::new();
        asm.emit(Instr::LaneId(0))
            .movi(1, 100)
            .emit(Instr::Add(1, 1, 0))
            .emit(Instr::Store(0, 1))
            .emit(Instr::Halt);
        let program = asm.assemble().expect("fault-sweep kernel is well formed");
        let (stall_rate, flip_rate) = (f64::from(stall_ppm) / 1e6, f64::from(flip_ppm) / 1e6);
        let mut machine = ArrayMachine::new(subtype, lanes, lanes.max(4))
            .with_cycle_limit(self.config.limits.max_cycles)
            .with_cancel(token.clone());
        let mut total = Stats::default();
        let (mut faults, mut retries, mut degraded) = (0u64, 0u64, 0usize);
        for k in 0..seeds as u64 {
            machine.reset();
            let plan = FaultPlan::seeded(seed0.wrapping_add(k))
                .stall_dps(stall_rate)
                .flip_memory_bits(flip_rate);
            match machine.run_resilient(&program, plan) {
                Ok(run) => {
                    add_stats(&mut total, &run.stats);
                    faults += run.faults_injected;
                    retries += run.retries;
                    degraded += usize::from(run.degraded);
                }
                Err(e) => return JobOutcome::from_error(e, 0),
            }
        }
        JobOutcome::Completed {
            summary: format!(
                "faultsweep {}x{lanes}: {seeds} seeds, {faults} faults injected, \
                 {retries} retries, {degraded} degraded",
                subtype.class_name()
            ),
            stats: Some(total),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Jobs of this tenant panic inside [`Engine::execute`] (test builds
    /// only), standing in for an engine bug.
    pub(crate) const PANIC_TENANT: &str = "panic-test";

    /// Jobs of this tenant wait inside [`Engine::execute`] until
    /// [`open_gate`] (test builds only), standing in for a long run.
    pub(crate) const GATE_TENANT: &str = "gate-test";

    static GATE: (std::sync::Mutex<bool>, std::sync::Condvar) =
        (std::sync::Mutex::new(false), std::sync::Condvar::new());

    pub(crate) fn pass_gate() {
        let (open, cv) = &GATE;
        let mut open = open.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
    }

    /// Let every gated job through, now and later.
    pub(crate) fn open_gate() {
        let (open, cv) = &GATE;
        *open.lock().unwrap() = true;
        cv.notify_all();
    }

    fn engine() -> Engine {
        Engine::new(EngineConfig::default())
    }

    #[test]
    fn poisoned_caches_still_serve_simulate_jobs() {
        let e = engine();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _programs = e.programs.lock().unwrap();
                let _rings = e.rings.lock().unwrap();
                panic!("poison both caches");
            })
            .join()
            .unwrap_err();
        });
        assert!(e.programs.is_poisoned() && e.rings.is_poisoned());
        let simulate = |cores, fault_seed| {
            e.execute(
                &request(
                    JobKind::Simulate {
                        cores,
                        iters: 30,
                        fault_seed,
                    },
                    None,
                ),
                &CancelToken::new(),
            )
        };
        assert!(matches!(simulate(4, None), JobOutcome::Completed { .. }));
        // Seed 2 selects the ring trial, which reads the ring cache.
        assert!(matches!(
            simulate(4, Some(2)),
            JobOutcome::Completed { .. } | JobOutcome::Degraded { .. }
        ));
    }

    fn request(kind: JobKind, deadline: Option<u64>) -> JobRequest {
        JobRequest {
            tenant: "t".into(),
            kind,
            deadline_cycles: deadline,
        }
    }

    #[test]
    fn classify_and_estimate_complete_with_summaries() {
        let e = engine();
        let token = CancelToken::new();
        let row = "1 | 16 | none | none | 1-n | none | none";
        let out = e.execute(
            &request(
                JobKind::Classify {
                    name: "SIMD".into(),
                    row: row.into(),
                },
                None,
            ),
            &token,
        );
        match &out {
            JobOutcome::Completed { summary, stats } => {
                assert!(summary.contains("class"), "summary {summary:?}");
                assert!(stats.is_none());
            }
            other => panic!("classify: {other:?}"),
        }
        let out = e.execute(
            &request(
                JobKind::Estimate {
                    name: "SIMD".into(),
                    row: row.into(),
                },
                None,
            ),
            &token,
        );
        match &out {
            JobOutcome::Completed { summary, .. } => {
                assert!(summary.contains("area="), "summary {summary:?}");
            }
            other => panic!("estimate: {other:?}"),
        }
    }

    #[test]
    fn bad_rows_fail_with_a_typed_error() {
        let out = engine().execute(
            &request(
                JobKind::Classify {
                    name: "x".into(),
                    row: "not a row".into(),
                },
                None,
            ),
            &CancelToken::new(),
        );
        assert!(matches!(out, JobOutcome::Failed { retries: 0, .. }));
    }

    #[test]
    fn pooled_simulate_completes_with_stats() {
        let e = engine();
        let out = e.execute(
            &request(
                JobKind::Simulate {
                    cores: 1,
                    iters: 50,
                    fault_seed: None,
                },
                None,
            ),
            &CancelToken::new(),
        );
        match out {
            JobOutcome::Completed {
                stats: Some(stats), ..
            } => assert!(stats.cycles > 50),
            other => panic!("{other:?}"),
        }
        assert_eq!(e.pool().idle(), 1, "machine returned to the pool");
    }

    #[test]
    fn deadline_cancels_a_simulate_deterministically() {
        let e = engine();
        let run = || {
            e.execute(
                &request(
                    JobKind::Simulate {
                        cores: 4,
                        iters: 1_000_000,
                        fault_seed: None,
                    },
                    Some(25),
                ),
                &CancelToken::new(),
            )
        };
        match run() {
            JobOutcome::Cancelled { at_cycle, partial } => {
                assert_eq!(at_cycle, 25);
                assert_eq!(partial.cycles, 25);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(run(), run(), "deadline outcomes replay bit-identically");
    }

    #[test]
    fn fault_seeds_reach_typed_outcomes_deterministically() {
        let e = engine();
        for seed in 0..12u64 {
            let run = || {
                e.execute(
                    &request(
                        JobKind::Simulate {
                            cores: 4,
                            iters: 60,
                            fault_seed: Some(seed),
                        },
                        None,
                    ),
                    &CancelToken::new(),
                )
            };
            let first = run();
            assert_eq!(first, run(), "seed {seed} not deterministic");
            match seed % 3 {
                1 => assert!(
                    matches!(first, JobOutcome::Degraded { .. }),
                    "seed {seed}: dead DP should degrade, got {first:?}"
                ),
                _ => assert!(
                    !matches!(first, JobOutcome::TimedOut { .. }),
                    "seed {seed}: unexpected watchdog, got {first:?}"
                ),
            }
        }
    }

    #[test]
    fn sweep_summary_and_totals_equal_the_per_point_simulates() {
        let e = engine();
        let token = CancelToken::new();
        let sweep = e.execute(
            &request(
                JobKind::Sweep {
                    cores: vec![1; 96],
                    iters: 75,
                },
                None,
            ),
            &token,
        );
        let point = match e.execute(
            &request(
                JobKind::Simulate {
                    cores: 1,
                    iters: 75,
                    fault_seed: None,
                },
                None,
            ),
            &token,
        ) {
            JobOutcome::Completed {
                stats: Some(stats), ..
            } => stats,
            other => panic!("{other:?}"),
        };
        let mut total = Stats::default();
        for _ in 0..96 {
            add_stats(&mut total, &point);
        }
        let summary = vec![format!("1:{}", point.cycles); 96].join(" ");
        assert_eq!(
            sweep,
            JobOutcome::Completed {
                summary,
                stats: Some(total),
            }
        );
    }

    #[test]
    fn sweep_honours_deadline_cancellation() {
        let e = engine();
        let out = e.execute(
            &request(
                JobKind::Sweep {
                    cores: vec![1; 8],
                    iters: 1_000_000,
                },
                Some(50),
            ),
            &CancelToken::new(),
        );
        assert!(
            matches!(out, JobOutcome::Cancelled { at_cycle: 50, .. }),
            "expected cancellation, got {out:?}"
        );
    }

    #[test]
    fn fault_sweep_matches_sequential_resilient_runs() {
        let e = engine();
        let mut asm = Assembler::new();
        asm.emit(Instr::LaneId(0))
            .movi(1, 100)
            .emit(Instr::Add(1, 1, 0))
            .emit(Instr::Store(0, 1))
            .emit(Instr::Halt);
        let program = asm.assemble().unwrap();
        // A faulted study and a fault-free one: each must aggregate the
        // stats of twelve resilient runs on fresh machines.
        for (stall_ppm, flip_ppm) in [(250_000, 100_000), (0, 0)] {
            let out = e.execute(
                &request(
                    JobKind::FaultSweep {
                        subtype: ArraySubtype::III,
                        lanes: 4,
                        seeds: 12,
                        seed0: 7,
                        stall_ppm,
                        flip_ppm,
                    },
                    None,
                ),
                &CancelToken::new(),
            );
            let mut total = Stats::default();
            let mut faults = 0;
            for k in 0..12u64 {
                let mut m = ArrayMachine::new(ArraySubtype::III, 4, 4)
                    .with_cycle_limit(RequestLimits::default().max_cycles);
                let run = m
                    .run_resilient(
                        &program,
                        FaultPlan::seeded(7 + k)
                            .stall_dps(f64::from(stall_ppm) / 1e6)
                            .flip_memory_bits(f64::from(flip_ppm) / 1e6),
                    )
                    .unwrap();
                add_stats(&mut total, &run.stats);
                faults += run.faults_injected;
            }
            assert_eq!(faults == 0, stall_ppm == 0, "{stall_ppm} ppm stalls");
            match out {
                JobOutcome::Completed { summary, stats } => {
                    assert_eq!(stats, Some(total));
                    assert!(
                        summary.contains(&format!("12 seeds, {faults} faults injected")),
                        "{summary}"
                    );
                }
                other => panic!("fault sweep should complete: {other:?}"),
            }
        }
    }

    #[test]
    fn fault_sweep_respects_request_deadline() {
        let e = engine();
        let out = e.execute(
            &request(
                JobKind::FaultSweep {
                    subtype: ArraySubtype::I,
                    lanes: 4,
                    seeds: 8,
                    seed0: 1,
                    stall_ppm: 900_000,
                    flip_ppm: 0,
                },
                Some(1),
            ),
            &CancelToken::new(),
        );
        assert!(
            matches!(out, JobOutcome::Cancelled { .. }),
            "deadline must cancel the sweep: {out:?}"
        );
    }

    #[test]
    fn fault_sweep_deadline_cancels_mid_sweep_at_the_first_late_seed() {
        // Seed 5 finishes in 18 cycles and seed 6 needs 26, so a 22-cycle
        // deadline passes the first seed and cancels the second.
        let out = engine().execute(
            &request(
                JobKind::FaultSweep {
                    subtype: ArraySubtype::III,
                    lanes: 4,
                    seeds: 4,
                    seed0: 5,
                    stall_ppm: 400_000,
                    flip_ppm: 50_000,
                },
                Some(22),
            ),
            &CancelToken::new(),
        );
        assert_eq!(
            out,
            JobOutcome::Cancelled {
                at_cycle: 22,
                partial: Stats {
                    cycles: 22,
                    instructions: 16,
                    stalls: 18,
                    ..Stats::default()
                },
            }
        );
    }

    #[test]
    fn sweep_reports_cycles_per_point() {
        let out = engine().execute(
            &request(
                JobKind::Sweep {
                    cores: vec![1, 2, 4],
                    iters: 40,
                },
                None,
            ),
            &CancelToken::new(),
        );
        match out {
            JobOutcome::Completed {
                summary,
                stats: Some(_),
            } => {
                assert_eq!(summary.split(' ').count(), 3, "summary {summary:?}");
                assert!(summary.starts_with("1:"), "summary {summary:?}");
            }
            other => panic!("{other:?}"),
        }
    }
}
