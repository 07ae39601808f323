//! Hierarchical span profiling for machine and service phases.
//!
//! Where [`telemetry`](crate::telemetry) *counts* events, this module
//! attributes **time**: every run loop brackets its phases (decode,
//! scheduler slice, time-warp wait, SIMD lane loop, …) with
//! [`Tracer::span_enter`](crate::telemetry::Tracer::span_enter) /
//! [`Tracer::span_exit`](crate::telemetry::Tracer::span_exit) hooks, and a
//! [`SpanProfile`] turns those hooks into a strictly nested tree of
//! cycle-stamped [`Span`]s — the same shape rustc's `-Zself-profile`
//! produces, renderable as a Chrome trace, a flamegraph, or a self-time
//! table.
//!
//! The hooks default to no-ops on the [`Tracer`](crate::telemetry::Tracer)
//! trait and the run loops stay monomorphised, so [`NullProfiler`] (and the
//! plain `NullTracer`) compile away entirely — profiling off costs nothing,
//! which the bench suite proves with a hard-gated overhead twin.
//!
//! ## Timestamp domains and the reconciliation invariant
//!
//! Machine spans are stamped in the **cycle domain** (deterministic,
//! identical across dense and event scheduling); wall-clock capture is
//! optional and sits *beside* the cycle tree, never inside it.  The
//! contract every instrumented loop upholds, locked by
//! `tests/profile.rs`:
//!
//! 1. spans are strictly nested (exit always closes the innermost open
//!    span) and sibling spans never overlap;
//! 2. **leaf** spans tile their root exactly: the sum of leaf extents
//!    equals the run's `Stats` cycle total, for every family, under every
//!    scheduler;
//! 3. instantaneous events (message deliveries, retries,
//!    degradations, reconfigurations) are zero-width [`Mark`]s so they can
//!    never break invariant 2, and the mark buffer is bounded with an
//!    explicit dropped counter, like `EventTrace`.
//!
//! Sequential composites (`run_resilient` attempts, which restart local
//! cycle counts at zero) re-base each new root span at the current high
//! water, so a multi-attempt profile is one globally monotone timeline.

use crate::telemetry::{EventKind, Tracer};
use std::time::{Duration, Instant};

/// One phase of a run, machine- or service-layer.  `label()` values are
/// stable: they name spans in every export format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Root span of one machine run (one `run_*` call).
    Run,
    /// Program decode / placement checks before the first cycle.
    Decode,
    /// A contiguous stretch of executed scheduler cycles.
    Slice,
    /// An event-scheduler time warp (all units idle until the next wake).
    Warp,
    /// The SIMD broadcast loop over live lanes (array machines).
    Lanes,
    /// Instant: a cross-DP message delivery.
    Delivery,
    /// Instant: a fault-retry attempt started.
    Retry,
    /// Instant: work was remapped off a failed component.
    Degrade,
    /// Instant: a fabric/machine reconfiguration was applied.
    Reconfigure,
    /// Service: root span of one job (submit → respond).
    Job,
    /// Service: request-body parsing.
    Parse,
    /// Service: admission control (validation, quota, queue push).
    Admission,
    /// Service: queued, waiting for a worker.
    QueueWait,
    /// Service: waiting to check a pooled machine out.
    PoolAcquire,
    /// Service: the job body executing (machine spans nest under this).
    Respond,
}

impl Phase {
    /// Stable span name used by all exporters.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Run => "run",
            Phase::Decode => "decode",
            Phase::Slice => "slice",
            Phase::Warp => "warp",
            Phase::Lanes => "lanes",
            Phase::Delivery => "delivery",
            Phase::Retry => "retry",
            Phase::Degrade => "degrade",
            Phase::Reconfigure => "reconfigure",
            Phase::Job => "job",
            Phase::Parse => "parse",
            Phase::Admission => "admission",
            Phase::QueueWait => "queue_wait",
            Phase::PoolAcquire => "pool_acquire",
            Phase::Respond => "respond",
        }
    }
}

/// One closed span: a phase with an inclusive start and exclusive end
/// stamp in the profile's (re-based) cycle domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What this span measures.
    pub phase: Phase,
    /// First cycle covered.
    pub start: u64,
    /// One past the last cycle covered (`end - start` is the extent).
    pub end: u64,
    /// Index of the enclosing span in [`SpanProfile::spans`], if any.
    pub parent: Option<usize>,
    /// Nesting depth (0 for roots).
    pub depth: usize,
    /// Whether any child span was opened under this one.
    pub has_children: bool,
}

impl Span {
    /// Cycles covered by this span.
    pub fn extent(&self) -> u64 {
        self.end - self.start
    }
}

/// One instantaneous cycle-stamped marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    /// The (re-based) cycle the event happened on.
    pub cycle: u64,
    /// What happened.
    pub phase: Phase,
}

/// Default bound on retained [`Mark`]s (total per-phase counts stay exact
/// past the cap, mirroring `EventTrace`).
pub const DEFAULT_MARK_CAPACITY: usize = 4096;

/// A span-recording tracer: builds the strictly nested phase tree from
/// the run loops' span hooks.
///
/// `enabled()` is deliberately `false`: the profiler wants the *phase*
/// structure, not the per-event firehose, so loops still skip their
/// trace-only work (counter diffing, per-DP sampling).  `record` /
/// `record_many` are implemented only to track the cycle high water, which
/// lets [`SpanProfile::seal`] close spans honestly when a run exits early
/// (watchdog, cancellation, fault) without reaching its own `span_exit`
/// calls.
#[derive(Debug, Clone)]
pub struct SpanProfile {
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Offset added to incoming (run-local) cycle stamps: re-based to the
    /// current high water whenever a new root span opens, so sequential
    /// runs concatenate into one monotone timeline.
    base: u64,
    /// Highest absolute cycle stamped so far.
    cursor: u64,
    /// Highest run-local cycle observed since the current root opened.
    high_water: u64,
    marks: Vec<Mark>,
    mark_capacity: usize,
    marks_dropped: u64,
    mark_counts: Vec<(Phase, u64)>,
    wall_start: Option<Instant>,
    wall_elapsed: Option<Duration>,
}

impl SpanProfile {
    /// An empty profile with the default mark bound.
    pub fn new() -> SpanProfile {
        SpanProfile::with_mark_capacity(DEFAULT_MARK_CAPACITY)
    }

    /// An empty profile retaining at most `capacity` marks (min 1).
    pub fn with_mark_capacity(capacity: usize) -> SpanProfile {
        SpanProfile {
            spans: Vec::new(),
            stack: Vec::new(),
            base: 0,
            cursor: 0,
            high_water: 0,
            marks: Vec::new(),
            mark_capacity: capacity.max(1),
            marks_dropped: 0,
            mark_counts: Vec::new(),
            wall_start: None,
            wall_elapsed: None,
        }
    }

    /// Also capture wall-clock time from now until [`SpanProfile::seal`].
    /// Wall time is reported beside the cycle tree
    /// ([`SpanProfile::wall_elapsed`]), never mixed into span stamps, so
    /// profiles stay deterministic.
    pub fn with_wall_clock(mut self) -> SpanProfile {
        self.wall_start = Some(Instant::now());
        self
    }

    fn absolute(&self, cycle: u64) -> u64 {
        self.base.saturating_add(cycle)
    }

    /// Open a span.  A root-level enter re-bases the local cycle domain at
    /// the current cursor so sequential runs stay monotone.
    pub fn enter(&mut self, cycle: u64, phase: Phase) {
        if self.stack.is_empty() {
            self.base = self.cursor;
            self.high_water = 0;
        }
        let start = self.absolute(cycle).max(self.cursor);
        let parent = self.stack.last().copied();
        if let Some(p) = parent {
            self.spans[p].has_children = true;
        }
        let depth = self.stack.len();
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            phase,
            start,
            end: start,
            parent,
            depth,
            has_children: false,
        });
        self.cursor = self.cursor.max(start);
    }

    /// Close the innermost open span at `cycle`.  Unbalanced exits are
    /// ignored (the run loops are balanced; `seal` handles early returns).
    pub fn exit(&mut self, cycle: u64) {
        self.high_water = self.high_water.max(cycle);
        if let Some(idx) = self.stack.pop() {
            let end = self.absolute(cycle).max(self.spans[idx].start);
            self.spans[idx].end = end;
            self.cursor = self.cursor.max(end);
        }
    }

    /// Record an instantaneous marker at `cycle`.  A mark arriving between
    /// roots (empty stack — e.g. a degradation remap between sequential
    /// run phases) is pinned to the current timeline cursor, because its
    /// local stamp is relative to a base that no longer applies.
    pub fn mark(&mut self, cycle: u64, phase: Phase) {
        let cycle = if self.stack.is_empty() {
            self.cursor
        } else {
            self.high_water = self.high_water.max(cycle);
            self.absolute(cycle)
        };
        self.cursor = self.cursor.max(cycle);
        match self.mark_counts.iter_mut().find(|(p, _)| *p == phase) {
            Some((_, n)) => *n += 1,
            None => self.mark_counts.push((phase, 1)),
        }
        if self.marks.len() < self.mark_capacity {
            self.marks.push(Mark { cycle, phase });
        } else {
            self.marks_dropped += 1;
        }
    }

    /// Close every still-open span at the cycle high water.  Run loops
    /// exit their spans on the normal path; early returns (watchdog,
    /// cancellation, faults) leave spans open, and `seal` closes them at
    /// the highest cycle any event or span hook reported — which is why
    /// this type tracks `record` stamps at all.  Also stops the optional
    /// wall clock.  Idempotent.
    pub fn seal(&mut self) {
        let end = self.absolute(self.high_water).max(self.cursor);
        while let Some(idx) = self.stack.pop() {
            self.spans[idx].end = end.max(self.spans[idx].start);
        }
        self.cursor = self.cursor.max(end);
        if let (Some(start), None) = (self.wall_start, self.wall_elapsed) {
            self.wall_elapsed = Some(start.elapsed());
        }
    }

    /// All spans, in open order.  Open spans have `end == start` until
    /// exited or sealed.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Retained marks, in record order (bounded; see
    /// [`SpanProfile::marks_dropped`]).
    pub fn marks(&self) -> &[Mark] {
        &self.marks
    }

    /// Marks discarded because the buffer was full.
    pub fn marks_dropped(&self) -> u64 {
        self.marks_dropped
    }

    /// Exact per-phase mark totals (unaffected by the buffer bound).
    pub fn mark_counts(&self) -> &[(Phase, u64)] {
        &self.mark_counts
    }

    /// Wall-clock duration captured between
    /// [`SpanProfile::with_wall_clock`] and [`SpanProfile::seal`].
    pub fn wall_elapsed(&self) -> Option<Duration> {
        self.wall_elapsed
    }

    /// Number of spans still open (0 after `seal`).
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    /// Highest absolute cycle stamped anywhere in the profile.
    pub fn last_cycle(&self) -> u64 {
        self.cursor
    }

    /// Sum of **leaf** span extents — the profiler side of the
    /// reconciliation invariant: equals the run's `Stats` cycle total for
    /// every instrumented loop.
    pub fn leaf_cycle_total(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| !s.has_children)
            .map(|s| s.extent())
            .sum()
    }

    /// Plain-data rows `(label, start, end, parent)` for the report
    /// crate's renderers (flame, Chrome trace).
    pub fn rows(&self) -> Vec<(String, u64, u64, Option<usize>)> {
        self.spans
            .iter()
            .map(|s| (s.phase.label().to_owned(), s.start, s.end, s.parent))
            .collect()
    }
}

impl Default for SpanProfile {
    fn default() -> Self {
        SpanProfile::new()
    }
}

impl Tracer for SpanProfile {
    // Deliberately disabled: the profiler consumes span hooks, not the
    // event firehose, so loops keep skipping trace-only work.
    fn record(&mut self, cycle: u64, _kind: EventKind) {
        self.high_water = self.high_water.max(cycle);
    }

    fn record_many(&mut self, cycle: u64, _kind: EventKind, _n: u64) {
        self.high_water = self.high_water.max(cycle);
    }

    fn span_enter(&mut self, cycle: u64, phase: Phase) {
        self.enter(cycle, phase);
    }

    fn span_exit(&mut self, cycle: u64) {
        self.exit(cycle);
    }

    fn span_mark(&mut self, cycle: u64, phase: Phase) {
        self.mark(cycle, phase);
    }
}

/// The do-nothing profiler: every hook monomorphises away, exactly like
/// `NullTracer`.  Exists as a distinct type so the bench overhead twin can
/// prove "profiler compiled in but disabled" is indistinguishable from
/// "no profiler at all".
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProfiler;

impl Tracer for NullProfiler {
    fn record_many(&mut self, _cycle: u64, _kind: EventKind, _n: u64) {}
}

/// Composes an event/metrics tracer with a [`SpanProfile`]: counters and
/// events flow to `inner`, span hooks to `profile`.  This is how a service
/// job captures its telemetry *and* its phase tree in one run.
#[derive(Debug, Clone, Default)]
pub struct Profiled<T: Tracer> {
    /// The event/metrics tracer.
    pub inner: T,
    /// The span tree.
    pub profile: SpanProfile,
}

impl<T: Tracer> Profiled<T> {
    /// Wrap `inner` with a fresh profile.
    pub fn new(inner: T) -> Profiled<T> {
        Profiled {
            inner,
            profile: SpanProfile::new(),
        }
    }
}

impl<T: Tracer> Tracer for Profiled<T> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, cycle: u64, kind: EventKind) {
        self.inner.record(cycle, kind);
        self.profile.record(cycle, kind);
    }

    fn record_many(&mut self, cycle: u64, kind: EventKind, n: u64) {
        self.inner.record_many(cycle, kind, n);
        self.profile.record_many(cycle, kind, n);
    }

    fn counter(&mut self, name: &str, delta: u64) {
        self.inner.counter(name, delta);
    }

    fn sample(&mut self, name: &str, value: u64) {
        self.inner.sample(name, value);
    }

    fn span_enter(&mut self, cycle: u64, phase: Phase) {
        self.profile.enter(cycle, phase);
    }

    fn span_exit(&mut self, cycle: u64) {
        self.profile.exit(cycle);
    }

    fn span_mark(&mut self, cycle: u64, phase: Phase) {
        self.profile.mark(cycle, phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_leaves_tile() {
        let mut p = SpanProfile::new();
        p.enter(0, Phase::Run);
        p.enter(0, Phase::Decode);
        p.exit(0);
        p.enter(0, Phase::Slice);
        p.exit(7);
        p.exit(7);
        assert_eq!(p.open_spans(), 0);
        let spans = p.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].phase, Phase::Run);
        assert!(spans[0].has_children);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].depth, 1);
        assert_eq!(p.leaf_cycle_total(), 7);
        assert_eq!(p.last_cycle(), 7);
    }

    #[test]
    fn sequential_roots_rebase_to_a_monotone_timeline() {
        let mut p = SpanProfile::new();
        // First attempt runs 5 cycles …
        p.enter(0, Phase::Run);
        p.enter(0, Phase::Slice);
        p.exit(5);
        p.exit(5);
        // … second attempt restarts its local clock at zero.
        p.enter(0, Phase::Run);
        p.enter(0, Phase::Slice);
        p.exit(3);
        p.exit(3);
        let spans = p.spans();
        assert_eq!(spans[2].start, 5, "second root re-based after first");
        assert_eq!(spans[3].end, 8);
        assert_eq!(p.leaf_cycle_total(), 8);
        let mut last_start = 0;
        for s in spans {
            assert!(s.start >= last_start || s.parent.is_some());
            last_start = last_start.max(s.start);
        }
    }

    #[test]
    fn seal_closes_open_spans_at_the_event_high_water() {
        let mut p = SpanProfile::new();
        p.enter(0, Phase::Run);
        p.enter(0, Phase::Slice);
        // The loop stamped events up to cycle 41, then bailed early
        // (watchdog) without reaching its span_exit calls.
        p.record(41, EventKind::Issue);
        p.seal();
        assert_eq!(p.open_spans(), 0);
        assert_eq!(p.spans()[1].end, 41);
        assert_eq!(p.leaf_cycle_total(), 41);
        // Idempotent.
        p.seal();
        assert_eq!(p.leaf_cycle_total(), 41);
    }

    #[test]
    fn marks_are_bounded_with_exact_totals() {
        let mut p = SpanProfile::with_mark_capacity(2);
        p.enter(0, Phase::Run);
        for c in 0..5 {
            p.mark(c, Phase::Retry);
        }
        p.mark(5, Phase::Delivery);
        p.exit(6);
        assert_eq!(p.marks().len(), 2);
        assert_eq!(p.marks_dropped(), 4);
        assert_eq!(p.mark_counts(), &[(Phase::Retry, 5), (Phase::Delivery, 1)]);
        // Marks never affect the leaf tiling.
        assert_eq!(p.leaf_cycle_total(), 6);
    }

    #[test]
    fn wall_clock_is_optional_and_beside_the_cycle_tree() {
        let mut p = SpanProfile::new();
        p.enter(0, Phase::Run);
        p.exit(4);
        p.seal();
        assert_eq!(p.wall_elapsed(), None);
        let mut q = SpanProfile::new().with_wall_clock();
        q.enter(0, Phase::Run);
        q.exit(4);
        q.seal();
        assert!(q.wall_elapsed().is_some());
        assert_eq!(q.spans()[0].end, 4, "wall capture never shifts stamps");
    }

    #[test]
    fn profiled_routes_events_inward_and_spans_to_the_profile() {
        use crate::telemetry::{EventClass, EventTrace};
        let mut t = Profiled::new(EventTrace::new());
        assert!(t.enabled());
        t.span_enter(0, Phase::Run);
        t.record(3, EventKind::Issue);
        t.span_exit(3);
        assert_eq!(t.inner.count(EventClass::Issue), 1);
        assert_eq!(t.profile.spans().len(), 1);
        assert_eq!(t.profile.spans()[0].end, 3);
    }

    #[test]
    fn null_profiler_is_disabled() {
        assert!(!NullProfiler.enabled());
    }
}
