//! The service core: a bounded worker pool draining the DRR queue, with
//! admission control at `submit` and a typed terminal outcome delivered
//! to every admitted job's ticket — also when the run panics: the
//! thread running the job catches the panic, resolves the ticket
//! `Failed` with an `internal:` error and goes on.
//!
//! [`Service::call`] admits exactly as `submit` does, and runs a cheap
//! job on the calling thread when a worker would start it at once: the
//! service is not paused, fewer than `workers` jobs are running, and the
//! DRR queue holds nothing else.  At most `workers` jobs run at a time,
//! whichever threads run them.
//!
//! All admission decisions run on a caller-supplied millisecond clock
//! (the HTTP layer feeds wall time, the chaos harness a scripted virtual
//! clock), so they replay bit-identically under any worker count.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use skilltax_machine::{configured_threads, CancelToken, Histogram, Phase};

use crate::admission::{DrrQueue, QueuedJob};
use crate::engine::{Engine, EngineConfig, RunCapture};
use crate::proto::{validate, JobOutcome, JobRequest, Rejection};
use crate::quota::{QuotaConfig, QuotaLedger};

/// Finished job traces retained for `GET /trace/jobs` (oldest evicted).
pub const TRACE_RING: usize = 32;

/// The highest admission cost ([`crate::proto::JobKind::cost`]) of a job
/// [`Service::call`] runs on its caller: a classify, an estimate or a
/// simulation of fewer than 16 cores, which take microseconds.  A costlier job runs
/// for milliseconds, and then the thread it runs on matters: the caller
/// was woken by its client's connection, which Linux places on the
/// client's CPU, and two such client-and-caller pairs can share one CPU
/// while the other idles.  A worker woken through the queue is placed on
/// an idle CPU instead (DESIGN.md §11).
pub const CALLER_MAX_COST: u64 = 1;

/// Environment knob for the bounded queue depth.
pub const QUEUE_ENV: &str = "SKILLTAX_SERVICE_QUEUE";

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Bounded job-queue depth (`SKILLTAX_SERVICE_QUEUE` overrides the
    /// default 64 when [`ServiceConfig::default`] builds the config).
    pub queue_capacity: usize,
    /// DRR quantum (deficit granted per lane visit).
    pub drr_quantum: u64,
    /// Worker threads draining the queue (defaults to
    /// [`configured_threads`], i.e. the `SKILLTAX_THREADS` knob).
    pub workers: usize,
    /// Per-tenant token-bucket parameters.
    pub quota: QuotaConfig,
    /// Engine tuning (request limits, pool size, retry budget).
    pub engine: EngineConfig,
    /// Milliseconds of estimated service time per queued job, used for
    /// the queue-full `Retry-After` hint.
    pub est_ms_per_job: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        let queue_capacity = std::env::var(QUEUE_ENV)
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(64);
        ServiceConfig {
            queue_capacity,
            drr_quantum: 1,
            workers: configured_threads(),
            quota: QuotaConfig::default(),
            engine: EngineConfig::default(),
            est_ms_per_job: 5,
        }
    }
}

/// Counters the service keeps (snapshot via [`Service::metrics`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Requests offered to `submit`.
    pub submitted: u64,
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Refused: queue at capacity.
    pub rejected_queue_full: u64,
    /// Refused: tenant bucket empty.
    pub rejected_quota: u64,
    /// Refused: over a hard size cap.
    pub rejected_oversized: u64,
    /// Refused: service draining.
    pub rejected_shutdown: u64,
    /// Terminal outcomes by label.
    pub outcomes: BTreeMap<&'static str, u64>,
    /// Jobs currently executing.
    pub in_flight: usize,
    /// Deepest the queue has been.
    pub peak_depth: usize,
    /// Per-tenant `(admitted, finished)` counts.
    pub per_tenant: BTreeMap<String, (u64, u64)>,
    /// Telemetry events the bounded trace rings evicted across profiled
    /// jobs (`EventTrace::dropped`, summed).
    pub trace_events_dropped: u64,
    /// Queue-wait times in milliseconds, log2-bucketed (every job).
    pub queue_wait_ms: Histogram,
    /// Simulated cycles consumed per finished job, log2-bucketed.
    pub run_cycles: Histogram,
    /// Connections the HTTP front end refused with `503` because every
    /// connection thread was busy (see [`Service::job_capacity`]).
    pub refused_connections: u64,
    /// Jobs run on the thread that offered them ([`Service::call`]).
    pub caller_runs: u64,
    /// Jobs run on a worker thread.
    pub worker_runs: u64,
}

impl ServiceMetrics {
    /// Total refusals across rejection kinds.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full
            + self.rejected_quota
            + self.rejected_oversized
            + self.rejected_shutdown
    }

    /// Terminal outcomes delivered in total.
    pub fn finished(&self) -> u64 {
        self.outcomes.values().sum()
    }
}

type OutcomeSlot = Arc<(Mutex<Option<JobOutcome>>, Condvar)>;

/// A span row in a job trace: `(label, start_ns, end_ns, parent index)`
/// — the same plain shape the report crate's flame/trace renderers eat.
pub type TraceSpan = (String, u64, u64, Option<usize>);

/// One finished job's assembled timeline: service-layer phases in
/// nanoseconds wrapping the machine run's cycle-domain span tree,
/// grafted at 1 cycle = 1 ns.
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// The job id ([`JobTicket::id`]).
    pub id: u64,
    /// The tenant the job billed to.
    pub tenant: String,
    /// Job kind label (`classify`, `simulate`, …).
    pub kind: &'static str,
    /// Terminal outcome label (`completed`, `degraded`, …).
    pub outcome: &'static str,
    /// Simulated cycles the run consumed.
    pub cycles: u64,
    /// The strictly nested span tree, job-relative nanoseconds.
    pub spans: Vec<TraceSpan>,
    /// Instant markers (`barrier`, `delivery`, `retry`, …) as
    /// `(label, stamp_ns)`.
    pub marks: Vec<(String, u64)>,
}

/// Profiling context carried by an opted-in job.
#[derive(Debug)]
struct ProfileCtx {
    /// Nanoseconds the HTTP layer spent parsing the request body.
    parse_ns: u64,
    /// When admission began (submit entry).
    admission_start: Instant,
}

/// One admitted job as it travels the queue.
#[derive(Debug)]
struct Job {
    id: u64,
    request: JobRequest,
    cancel: CancelToken,
    slot: OutcomeSlot,
    /// When the job entered the queue (queue-wait accounting).
    enqueued: Instant,
    /// `Some` when the job asked to be span-profiled.
    profile: Option<ProfileCtx>,
}

/// The caller's handle to an admitted job.
#[derive(Debug, Clone)]
pub struct JobTicket {
    id: u64,
    cancel: CancelToken,
    slot: OutcomeSlot,
}

impl JobTicket {
    /// The job id (unique per service instance).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Raise the job's cancellation flag (client disconnect, impatient
    /// caller): a queued job resolves `Cancelled` without running; a
    /// running job stops at the next cycle poll.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Block until the job reaches its typed terminal outcome.
    pub fn wait(&self) -> JobOutcome {
        let (lock, cv) = &*self.slot;
        let mut slot = lock.lock().expect("ticket lock poisoned");
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = cv.wait(slot).expect("ticket lock poisoned");
        }
    }

    /// [`JobTicket::wait`] with a bound; `None` when the timeout expires
    /// first (the chaos harness uses this to turn a would-be deadlock
    /// into a reported violation instead of a hung test).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        let (lock, cv) = &*self.slot;
        let mut slot = lock.lock().expect("ticket lock poisoned");
        loop {
            if let Some(outcome) = slot.as_ref() {
                return Some(outcome.clone());
            }
            let (guard, result) = cv
                .wait_timeout(slot, timeout)
                .expect("ticket lock poisoned");
            slot = guard;
            if result.timed_out() && slot.is_none() {
                return None;
            }
        }
    }

    /// The outcome if the job already finished.
    pub fn try_wait(&self) -> Option<JobOutcome> {
        self.slot.0.lock().expect("ticket lock poisoned").clone()
    }
}

struct DispatchState {
    queue: DrrQueue<Job>,
    quotas: QuotaLedger,
    metrics: ServiceMetrics,
    next_id: u64,
    paused: bool,
    shutdown: bool,
}

/// Which kind of thread runs a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Runner {
    /// The thread that offered it, inside [`Service::call`].
    Caller,
    /// A worker thread.
    Worker,
}

struct Inner {
    config: ServiceConfig,
    state: Mutex<DispatchState>,
    work_ready: Condvar,
    /// Signalled when the last running job finishes during shutdown.
    drained: Condvar,
    engine: Engine,
    /// Bounded ring of finished profiled-job traces (oldest evicted).
    traces: Mutex<VecDeque<JobTrace>>,
    /// Front-end refusals; an atomic, so counting one never waits on
    /// (or panics over) the dispatch lock.
    refused_connections: AtomicU64,
}

/// The multi-tenant job service.
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("workers", &self.inner.config.workers)
            .field("queue_capacity", &self.inner.config.queue_capacity)
            .finish()
    }
}

fn deliver(slot: &OutcomeSlot, outcome: JobOutcome) {
    let (lock, cv) = &**slot;
    *lock.lock().expect("ticket lock poisoned") = Some(outcome);
    cv.notify_all();
}

/// The typed outcome of a job whose run panicked: the thread running it
/// survives, and the ticket resolves `Failed` with an `internal:` error.
fn panicked(payload: Box<dyn Any + Send>) -> JobOutcome {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    JobOutcome::Failed {
        error: format!("internal: the job panicked: {message}"),
        retries: 0,
    }
}

/// Simulated cycles a terminal outcome consumed, when the job ran.
fn outcome_cycles(outcome: &JobOutcome) -> Option<u64> {
    match outcome {
        JobOutcome::Completed {
            stats: Some(stats), ..
        } => Some(stats.cycles),
        JobOutcome::Degraded { stats, .. } => Some(stats.cycles),
        JobOutcome::Cancelled { partial, .. } | JobOutcome::TimedOut { partial, .. } => {
            Some(partial.cycles)
        }
        _ => None,
    }
}

/// Build the job's nanosecond timeline: the service phases as measured
/// wall intervals, with the machine run's cycle-domain span tree grafted
/// under the `run` span at 1 cycle = 1 ns.  The `run` span extends to
/// whichever is longer — the measured wall time or the grafted cycle
/// tree — so the machine spans always nest inside it.
#[allow(clippy::too_many_arguments)]
fn assemble_trace(
    id: u64,
    request: &JobRequest,
    outcome: &JobOutcome,
    capture: &RunCapture,
    parse_ns: u64,
    admission_ns: u64,
    queue_wait_ns: u64,
    acquire_ns: u64,
    run_wall_ns: u64,
) -> JobTrace {
    let parse_end = parse_ns;
    let admission_end = parse_end + admission_ns;
    let queue_end = admission_end + queue_wait_ns;
    let run_start = queue_end + acquire_ns;
    let run_end = run_start + run_wall_ns.max(capture.profile.last_cycle());
    let mut spans: Vec<TraceSpan> = vec![
        (Phase::Job.label().to_owned(), 0, run_end, None),
        (Phase::Parse.label().to_owned(), 0, parse_end, Some(0)),
        (
            Phase::Admission.label().to_owned(),
            parse_end,
            admission_end,
            Some(0),
        ),
        (
            Phase::QueueWait.label().to_owned(),
            admission_end,
            queue_end,
            Some(0),
        ),
        (
            Phase::PoolAcquire.label().to_owned(),
            queue_end,
            run_start,
            Some(0),
        ),
        (Phase::Run.label().to_owned(), run_start, run_end, Some(0)),
    ];
    let run_idx = spans.len() - 1;
    let base = spans.len();
    for (label, start, end, parent) in capture.profile.rows() {
        spans.push((
            label,
            run_start + start,
            run_start + end,
            Some(parent.map_or(run_idx, |p| base + p)),
        ));
    }
    let marks = capture
        .profile
        .marks()
        .iter()
        .map(|m| (m.phase.label().to_owned(), run_start + m.cycle))
        .collect();
    JobTrace {
        id,
        tenant: request.tenant.clone(),
        kind: request.kind.label(),
        outcome: outcome.label(),
        cycles: outcome_cycles(outcome).unwrap_or(0),
        spans,
        marks,
    }
}

impl Inner {
    /// Jobs allowed to run at once, on workers and callers together.
    fn workers(&self) -> usize {
        self.config.workers.max(1)
    }

    /// Run `job`, already counted in `in_flight`, to its typed outcome on
    /// this thread: a panicking run fails its job, not the thread.  Then
    /// record the metrics, retain a profiled job's trace and deliver the
    /// outcome.  Workers and [`Service::call`] share this.
    fn run(&self, job: Job, runner: Runner) {
        let waited = job.enqueued.elapsed();
        let picked = Instant::now();
        let mut capture: Option<(RunCapture, u64, u64)> = None;
        // Cancelled while queued: resolve without running.
        let runs = !job.cancel.is_cancelled();
        let outcome = if !runs {
            JobOutcome::Cancelled {
                at_cycle: 0,
                partial: Default::default(),
            }
        } else if job.profile.is_some() {
            let run_start = Instant::now();
            let acquire_ns = (run_start - picked).as_nanos() as u64;
            match catch_unwind(AssertUnwindSafe(|| {
                self.engine.execute_profiled(&job.request, &job.cancel)
            })) {
                Ok((outcome, run)) => {
                    let run_wall_ns = run_start.elapsed().as_nanos() as u64;
                    capture = Some((run, acquire_ns, run_wall_ns));
                    outcome
                }
                Err(payload) => panicked(payload),
            }
        } else {
            catch_unwind(AssertUnwindSafe(|| {
                self.engine.execute(&job.request, &job.cancel)
            }))
            .unwrap_or_else(panicked)
        };
        {
            let mut state = self.state.lock().expect("service lock poisoned");
            state.metrics.in_flight -= 1;
            if runs {
                match runner {
                    Runner::Caller => state.metrics.caller_runs += 1,
                    Runner::Worker => state.metrics.worker_runs += 1,
                }
            }
            *state.metrics.outcomes.entry(outcome.label()).or_insert(0) += 1;
            state
                .metrics
                .per_tenant
                .entry(job.request.tenant.clone())
                .or_insert((0, 0))
                .1 += 1;
            state
                .metrics
                .queue_wait_ms
                .record(waited.as_millis() as u64);
            if let Some(cycles) = outcome_cycles(&outcome) {
                state.metrics.run_cycles.record(cycles);
            }
            if let Some((run, _, _)) = &capture {
                state.metrics.trace_events_dropped += run.events_dropped;
            }
            // A worker held back by the running-job cap may start the
            // next job now; a worker returning from here pops it itself.
            if runner == Runner::Caller && state.queue.depth() > 0 {
                self.work_ready.notify_one();
            }
            if state.shutdown && state.metrics.in_flight == 0 {
                self.drained.notify_all();
            }
        }
        if let (Some(ctx), Some((run, acquire_ns, run_wall_ns))) = (&job.profile, capture) {
            let admission_ns = (job.enqueued - ctx.admission_start).as_nanos() as u64;
            let trace = assemble_trace(
                job.id,
                &job.request,
                &outcome,
                &run,
                ctx.parse_ns,
                admission_ns,
                waited.as_nanos() as u64,
                acquire_ns,
                run_wall_ns,
            );
            let mut traces = self.traces.lock().expect("trace ring poisoned");
            if traces.len() == TRACE_RING {
                traces.pop_front();
            }
            traces.push_back(trace);
        }
        deliver(&job.slot, outcome);
    }
}

impl Service {
    /// Start the service: spawns the worker pool and prewarms the
    /// machine pool so the first requests hit the zero-allocation path.
    pub fn start(config: ServiceConfig) -> Service {
        let workers = config.workers.max(1);
        let engine = Engine::new(config.engine);
        engine
            .pool()
            .prewarm(workers.min(config.engine.pool_capacity));
        let inner = Arc::new(Inner {
            state: Mutex::new(DispatchState {
                queue: DrrQueue::new(config.queue_capacity, config.drr_quantum),
                quotas: QuotaLedger::new(config.quota),
                metrics: ServiceMetrics::default(),
                next_id: 0,
                paused: false,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            drained: Condvar::new(),
            engine,
            config,
            traces: Mutex::new(VecDeque::new()),
            refused_connections: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || Service::worker(&inner))
            })
            .collect();
        Service {
            inner,
            workers: Mutex::new(handles),
        }
    }

    fn worker(inner: &Inner) {
        loop {
            let job = {
                let mut state = inner.state.lock().expect("service lock poisoned");
                loop {
                    if state.shutdown && state.queue.depth() == 0 {
                        return;
                    }
                    if !state.paused && state.metrics.in_flight < inner.workers() {
                        if let Some(queued) = state.queue.pop() {
                            state.metrics.in_flight += 1;
                            break queued.payload;
                        }
                    }
                    state = inner.work_ready.wait(state).expect("service lock poisoned");
                }
            };
            inner.run(job, Runner::Worker);
        }
    }

    /// Offer a request at `now_ms` on the caller's clock.  Admission is
    /// all-or-nothing: a typed [`Rejection`] (with a retry hint where
    /// retrying helps) or a [`JobTicket`] that is guaranteed a typed
    /// terminal outcome.  A worker runs the job.
    pub fn submit(&self, now_ms: u64, request: JobRequest) -> Result<JobTicket, Rejection> {
        let mut state = self.inner.state.lock().expect("service lock poisoned");
        let ticket = self.admit(&mut state, now_ms, request, None)?;
        drop(state);
        self.inner.work_ready.notify_one();
        Ok(ticket)
    }

    /// Offer a request as [`Service::submit`] does (the same checks,
    /// quota charge and queue push) and, when a worker would start it at
    /// once, run it on the calling thread before returning: the service
    /// is not paused, fewer than `workers` jobs are running, and the DRR
    /// pop yields this job.  Only jobs of admission cost
    /// [`CALLER_MAX_COST`] run there.  The returned ticket has then
    /// resolved; otherwise a worker takes the job and the ticket
    /// resolves later.
    ///
    /// With `parse_ns` the job is span-profiled: its service and machine
    /// phases are traced and the assembled timeline retained in a
    /// bounded ring ([`Service::traces`]).  `parse_ns` is how long the
    /// caller spent parsing the request (the timeline's first phase).
    pub fn call(
        &self,
        now_ms: u64,
        request: JobRequest,
        parse_ns: Option<u64>,
    ) -> Result<JobTicket, Rejection> {
        let profile = parse_ns.map(|parse_ns| ProfileCtx {
            parse_ns,
            admission_start: Instant::now(),
        });
        let cheap = request.kind.cost() <= CALLER_MAX_COST;
        let mut state = self.inner.state.lock().expect("service lock poisoned");
        let ticket = self.admit(&mut state, now_ms, request, profile)?;
        // A free slot with nothing paused means every job queued before
        // this one already has a worker on its way, so the pop yields
        // this job only when the queue holds nothing else.
        if cheap
            && !state.paused
            && state.metrics.in_flight < self.inner.workers()
            && state.queue.depth() == 1
        {
            let job = state.queue.pop().expect("the queue holds this job").payload;
            debug_assert_eq!(job.id, ticket.id);
            state.metrics.in_flight += 1;
            drop(state);
            self.inner.run(job, Runner::Caller);
        } else {
            drop(state);
            self.inner.work_ready.notify_one();
        }
        Ok(ticket)
    }

    /// Admission under the dispatch lock: the four doors in order, then
    /// the quota charge and the DRR push.
    fn admit(
        &self,
        state: &mut DispatchState,
        now_ms: u64,
        request: JobRequest,
        profile: Option<ProfileCtx>,
    ) -> Result<JobTicket, Rejection> {
        state.metrics.submitted += 1;
        if state.shutdown {
            state.metrics.rejected_shutdown += 1;
            return Err(Rejection::ShuttingDown);
        }
        if let Err(rejection) = validate(&request, &self.inner.config.engine.limits) {
            state.metrics.rejected_oversized += 1;
            return Err(rejection);
        }
        // Queue check before the quota charge, so a full queue does not
        // also drain the tenant's bucket.
        let depth = state.queue.depth();
        let capacity = state.queue.capacity();
        if depth >= capacity {
            state.metrics.rejected_queue_full += 1;
            return Err(Rejection::QueueFull {
                depth,
                capacity,
                retry_after_ms: self.inner.config.est_ms_per_job * (depth as u64 + 1),
            });
        }
        let cost = request.kind.cost();
        if let Err(wait_ms) = state.quotas.charge(&request.tenant, cost, now_ms) {
            state.metrics.rejected_quota += 1;
            return Err(Rejection::QuotaExhausted {
                needed: cost,
                retry_after_ms: wait_ms,
            });
        }
        state.next_id += 1;
        let id = state.next_id;
        let cancel = CancelToken::new();
        let slot: OutcomeSlot = Arc::new((Mutex::new(None), Condvar::new()));
        let tenant = request.tenant.clone();
        let job = QueuedJob {
            payload: Job {
                id,
                request,
                cancel: cancel.clone(),
                slot: Arc::clone(&slot),
                enqueued: Instant::now(),
                profile,
            },
            cost,
        };
        state
            .queue
            .push(&tenant, job)
            .unwrap_or_else(|_| unreachable!("depth checked under the same lock"));
        state.metrics.admitted += 1;
        state.metrics.peak_depth = state.queue.peak_depth();
        state.metrics.per_tenant.entry(tenant).or_insert((0, 0)).0 += 1;
        Ok(JobTicket { id, cancel, slot })
    }

    /// Stop dispatching (queued jobs stay queued).  The chaos harness
    /// uses this to make queue-full shedding exactly reproducible.
    pub fn pause(&self) {
        self.inner
            .state
            .lock()
            .expect("service lock poisoned")
            .paused = true;
    }

    /// Resume dispatching.
    pub fn resume(&self) {
        self.inner
            .state
            .lock()
            .expect("service lock poisoned")
            .paused = false;
        self.inner.work_ready.notify_all();
    }

    /// A snapshot of the counters.
    pub fn metrics(&self) -> ServiceMetrics {
        let state = self.inner.state.lock().expect("service lock poisoned");
        let mut metrics = state.metrics.clone();
        metrics.peak_depth = state.queue.peak_depth();
        metrics.refused_connections = self.inner.refused_connections.load(Ordering::Relaxed);
        metrics
    }

    /// Jobs the service can hold at once: a full queue plus one running
    /// on every worker.  The HTTP front end derives its connection-thread
    /// cap from this, so a full queue answers `429` before the front end
    /// refuses anything.
    pub fn job_capacity(&self) -> usize {
        self.inner.config.queue_capacity + self.inner.config.workers.max(1)
    }

    /// Count one connection the HTTP front end refused at its cap.
    pub(crate) fn record_refused_connection(&self) {
        self.inner
            .refused_connections
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The engine (pool inspection for tests and warm-up).
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// A snapshot of the retained profiled-job traces, oldest first.
    pub fn traces(&self) -> Vec<JobTrace> {
        self.inner
            .traces
            .lock()
            .expect("trace ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Close job `id`'s trace with its `respond` phase: the HTTP layer
    /// calls this after writing the response, appending a `respond` span
    /// and extending the job root to cover it.  A no-op when the trace
    /// was already evicted or the id never profiled.
    pub fn finish_trace(&self, id: u64, respond_ns: u64) {
        let mut traces = self.inner.traces.lock().expect("trace ring poisoned");
        if let Some(trace) = traces.iter_mut().rev().find(|t| t.id == id) {
            let start = trace.spans[0].2;
            trace.spans.push((
                Phase::Respond.label().to_owned(),
                start,
                start + respond_ns,
                Some(0),
            ));
            trace.spans[0].2 = start + respond_ns;
        }
    }

    /// Drain and stop: refuse new work, let the workers finish every
    /// queued job (each still reaches its typed outcome), join the pool,
    /// and wait until no caller runs a job.  Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.inner.state.lock().expect("service lock poisoned");
            state.shutdown = true;
            state.paused = false;
        }
        self.inner.work_ready.notify_all();
        let mut workers = self.workers.lock().expect("worker handles poisoned");
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
        let mut state = self.inner.state.lock().expect("service lock poisoned");
        while state.metrics.in_flight > 0 {
            state = self
                .inner
                .drained
                .wait(state)
                .expect("service lock poisoned");
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::JobKind;

    fn config(queue: usize, workers: usize) -> ServiceConfig {
        ServiceConfig {
            queue_capacity: queue,
            workers,
            ..ServiceConfig::default()
        }
    }

    fn simulate(tenant: &str, iters: i64) -> JobRequest {
        JobRequest {
            tenant: tenant.into(),
            kind: JobKind::Simulate {
                cores: 1,
                iters,
                fault_seed: None,
            },
            deadline_cycles: None,
        }
    }

    #[test]
    fn a_submitted_job_completes() {
        let service = Service::start(config(8, 2));
        let ticket = service.submit(0, simulate("acme", 40)).unwrap();
        match ticket.wait() {
            JobOutcome::Completed {
                stats: Some(stats), ..
            } => assert!(stats.cycles > 40),
            other => panic!("{other:?}"),
        }
        let metrics = service.metrics();
        assert_eq!((metrics.admitted, metrics.finished()), (1, 1));
        service.shutdown();
    }

    #[test]
    fn a_panicking_job_fails_typed_and_keeps_its_worker() {
        let service = Service::start(config(8, 1));
        let alive = |service: &Service| {
            let workers = service.workers.lock().unwrap();
            workers.iter().filter(|w| !w.is_finished()).count()
        };
        let ticket = service
            .submit(0, simulate(crate::engine::tests::PANIC_TENANT, 40))
            .unwrap();
        match ticket.wait() {
            JobOutcome::Failed { error, retries: 0 } => {
                assert!(error.starts_with("internal:"), "{error}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(alive(&service), 1, "the worker survived the panic");
        let next = service.submit(0, simulate("acme", 40)).unwrap();
        assert!(matches!(next.wait(), JobOutcome::Completed { .. }));
        let metrics = service.metrics();
        assert_eq!(metrics.in_flight, 0);
        assert_eq!(metrics.outcomes.get("failed"), Some(&1));
        assert_eq!(metrics.outcomes.get("completed"), Some(&1));
        assert_eq!((metrics.admitted, metrics.finished()), (2, 2));
        service.shutdown();
    }

    #[test]
    fn queue_full_is_a_typed_rejection_with_a_hint() {
        let service = Service::start(config(2, 1));
        service.pause();
        let _first = service.submit(0, simulate("acme", 10)).unwrap();
        let _second = service.submit(0, simulate("acme", 10)).unwrap();
        match service.submit(0, simulate("acme", 10)) {
            Err(Rejection::QueueFull {
                depth: 2,
                capacity: 2,
                retry_after_ms,
            }) => assert!(retry_after_ms > 0),
            other => panic!("{other:?}"),
        }
        service.resume();
        service.shutdown();
        assert_eq!(service.metrics().rejected_queue_full, 1);
    }

    #[test]
    fn quota_exhaustion_rejects_with_a_refill_hint() {
        let mut cfg = config(64, 1);
        cfg.quota = QuotaConfig {
            capacity: 2,
            refill_num: 1,
            refill_den: 10,
        };
        let service = Service::start(cfg);
        service.submit(0, simulate("acme", 10)).unwrap();
        service.submit(0, simulate("acme", 10)).unwrap();
        match service.submit(0, simulate("acme", 10)) {
            Err(Rejection::QuotaExhausted { retry_after_ms, .. }) => {
                assert_eq!(retry_after_ms, 10)
            }
            other => panic!("{other:?}"),
        }
        // Another tenant is unaffected; time refills the bucket.
        service.submit(0, simulate("other", 10)).unwrap();
        service.submit(20, simulate("acme", 10)).unwrap();
        service.shutdown();
    }

    #[test]
    fn cancelling_a_queued_job_resolves_it_without_running() {
        let service = Service::start(config(8, 1));
        service.pause();
        let ticket = service.submit(0, simulate("acme", 1_000_000)).unwrap();
        ticket.cancel();
        service.resume();
        match ticket.wait() {
            JobOutcome::Cancelled { at_cycle: 0, .. } => {}
            other => panic!("{other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_jobs_then_refuses() {
        let service = Service::start(config(8, 1));
        service.pause();
        let tickets: Vec<JobTicket> = (0..4)
            .map(|_| service.submit(0, simulate("acme", 20)).unwrap())
            .collect();
        service.resume();
        service.shutdown();
        for ticket in &tickets {
            assert!(
                matches!(ticket.wait(), JobOutcome::Completed { .. }),
                "drained job lost its outcome"
            );
        }
        assert!(matches!(
            service.submit(0, simulate("acme", 10)),
            Err(Rejection::ShuttingDown)
        ));
    }

    /// A job that waits at the engine's test gate once it runs.
    fn gated() -> JobRequest {
        simulate(crate::engine::tests::GATE_TENANT, 10)
    }

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
    fn a_call_runs_on_its_caller_and_a_second_call_queues_behind_it() {
        let service = Service::start(config(8, 1));
        // Both jobs wait at the gate once they run, so a second job
        // started early would hold a second slot until the gate opens.
        std::thread::scope(|scope| {
            let first = scope.spawn(|| service.call(0, gated(), None).unwrap());
            assert!(eventually(|| service.metrics().in_flight == 1));
            let second = service.call(0, gated(), None).unwrap();
            assert_eq!(second.wait_timeout(Duration::from_millis(100)), None);
            let metrics = service.metrics();
            assert_eq!((metrics.in_flight, metrics.caller_runs), (1, 0));
            crate::engine::tests::open_gate();
            let first = first.join().unwrap();
            assert!(matches!(
                first.try_wait(),
                Some(JobOutcome::Completed { .. })
            ));
            assert!(matches!(second.wait(), JobOutcome::Completed { .. }));
        });
        let metrics = service.metrics();
        assert_eq!((metrics.caller_runs, metrics.worker_runs), (1, 1));
        assert_eq!(metrics.in_flight, 0);
        service.shutdown();
    }

    #[test]
    fn a_costly_call_goes_to_a_worker() {
        let service = Service::start(config(8, 1));
        let request = JobRequest {
            kind: JobKind::Simulate {
                cores: 32,
                iters: 10,
                fault_seed: None,
            },
            ..simulate("acme", 10)
        };
        assert!(request.kind.cost() > CALLER_MAX_COST);
        let ticket = service.call(0, request, None).unwrap();
        assert!(matches!(ticket.wait(), JobOutcome::Completed { .. }));
        let metrics = service.metrics();
        assert_eq!((metrics.caller_runs, metrics.worker_runs), (0, 1));
        service.shutdown();
    }

    #[test]
    fn a_paused_service_runs_nothing_on_the_caller() {
        let service = Service::start(config(8, 1));
        service.pause();
        let ticket = service.call(0, simulate("acme", 40), None).unwrap();
        assert_eq!(ticket.try_wait(), None);
        assert_eq!(service.metrics().caller_runs, 0);
        service.resume();
        assert!(matches!(ticket.wait(), JobOutcome::Completed { .. }));
        let metrics = service.metrics();
        assert_eq!((metrics.caller_runs, metrics.worker_runs), (0, 1));
        service.shutdown();
    }

    #[test]
    fn a_panicking_caller_run_fails_typed_and_frees_its_slot() {
        let service = Service::start(config(8, 1));
        let ticket = service
            .call(0, simulate(crate::engine::tests::PANIC_TENANT, 40), None)
            .unwrap();
        match ticket.try_wait() {
            Some(JobOutcome::Failed { error, retries: 0 }) => {
                assert!(error.starts_with("internal:"), "{error}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(service.metrics().in_flight, 0);
        let next = service.call(0, simulate("acme", 40), None).unwrap();
        assert!(matches!(
            next.try_wait(),
            Some(JobOutcome::Completed { .. })
        ));
        let metrics = service.metrics();
        assert_eq!((metrics.caller_runs, metrics.worker_runs), (2, 0));
        service.shutdown();
    }

    #[test]
    fn a_caller_run_leaves_the_drr_queue_as_a_worker_pop_does() {
        // A quantum above the cost leaves deficit banked in the lanes.
        let mut cfg = config(8, 1);
        cfg.drr_quantum = 4;
        let by_caller = Service::start(cfg);
        let by_worker = Service::start(cfg);
        for tenant in ["a", "b", "a", "c"] {
            let request = simulate(tenant, 10);
            let ticket = by_caller.call(0, request.clone(), None).unwrap();
            assert!(ticket.try_wait().is_some(), "ran on its caller");
            by_worker.pause();
            let ticket = by_worker.submit(0, request).unwrap();
            by_worker.resume();
            ticket.wait();
        }
        let queue = |service: &Service| format!("{:?}", service.inner.state.lock().unwrap().queue);
        assert_eq!(queue(&by_caller), queue(&by_worker));
        assert_eq!(by_caller.metrics().caller_runs, 4);
        assert_eq!(by_worker.metrics().worker_runs, 4);
        by_caller.shutdown();
        by_worker.shutdown();
    }

    #[test]
    fn oversized_requests_never_reach_the_queue() {
        let service = Service::start(config(8, 1));
        let request = JobRequest {
            tenant: "t".into(),
            kind: JobKind::Simulate {
                cores: 100_000,
                iters: 10,
                fault_seed: None,
            },
            deadline_cycles: None,
        };
        assert!(matches!(
            service.submit(0, request),
            Err(Rejection::Oversized { .. })
        ));
        assert_eq!(service.metrics().admitted, 0);
        service.shutdown();
    }
}
