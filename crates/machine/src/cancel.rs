//! Cooperative cancellation for the machine run loops.
//!
//! A [`CancelToken`] carries two independent stop signals that compose
//! with the watchdog cycle budgets threaded through every run loop:
//!
//! * a **deadline cycle** — checked exactly where the watchdog budget is
//!   checked, so a deadline of `d` stops the run after precisely `d`
//!   simulated cycles with partial [`Stats`] that are bit-identical
//!   across the dense and event-driven schedulers (the same identity
//!   contract the watchdog already satisfies, DESIGN.md §9);
//! * an **asynchronous flag** — an `Arc<AtomicBool>` any thread may
//!   raise (a service worker observing a client disconnect, an operator
//!   abort).  Flag cancellation is *prompt* but promises no stop cycle:
//!   run loops poll the flag at points of their choosing — some every
//!   simulated cycle, the burst-kernel loops once per quantum of cycles
//!   — so the stop cycle depends on when the flag was raised and is not
//!   replayable the way a deadline is.
//!
//! Both paths surface as the typed
//! [`MachineError::Cancelled`](crate::error::MachineError::Cancelled)
//! carrying the partial statistics, mirroring
//! [`MachineError::WatchdogTimeout`](crate::error::MachineError::WatchdogTimeout).
//! When a deadline and the watchdog budget coincide the cancellation
//! wins: the caller asked to stop, the budget merely ran out.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::MachineError;
use crate::exec::Stats;
use crate::telemetry::{EventKind, Tracer};

/// A cloneable cancellation handle: clones share the same flag, so a
/// token given to a machine can be cancelled from another thread.
#[derive(Debug, Clone)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: u64,
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token that never fires on its own (no deadline, flag down).
    pub fn new() -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: u64::MAX,
        }
    }

    /// Set the deterministic deadline: the run stops after exactly
    /// `cycles` simulated cycles with [`MachineError::Cancelled`].
    pub fn with_deadline(mut self, cycles: u64) -> CancelToken {
        self.deadline = cycles;
        self
    }

    /// The deadline cycle (`u64::MAX` when none was set).
    pub fn deadline(&self) -> u64 {
        self.deadline
    }

    /// Raise the asynchronous cancellation flag.  Every clone of this
    /// token observes it on its next poll.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has the asynchronous flag been raised?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Hot-loop poll of the asynchronous flag (relaxed: the loops only
    /// need promptness, not ordering against other memory).
    #[inline]
    pub(crate) fn flag_raised(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// The per-run budget resolved from a watchdog cycle limit and a
/// [`CancelToken`] deadline: whichever ceiling is lower owns the run,
/// and [`RunBudget::trip`] emits the matching typed error.  Cancellation
/// wins ties so that "cancel at the budget" behaves like every other
/// cancel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunBudget {
    limit: u64,
    cancel_owns: bool,
}

impl RunBudget {
    /// Resolve the effective ceiling for one run.
    pub(crate) fn resolve(cycle_limit: u64, cancel: &CancelToken) -> RunBudget {
        let deadline = cancel.deadline();
        if deadline <= cycle_limit {
            RunBudget {
                limit: deadline,
                cancel_owns: true,
            }
        } else {
            RunBudget {
                limit: cycle_limit,
                cancel_owns: false,
            }
        }
    }

    /// The effective cycle ceiling (min of watchdog budget and deadline).
    #[inline]
    pub(crate) fn limit(&self) -> u64 {
        self.limit
    }

    /// Build the typed error for a run that hit the ceiling at `cycle`,
    /// recording the matching trace event.
    pub(crate) fn trip<T: Tracer>(
        &self,
        cycle: u64,
        partial: Stats,
        tracer: &mut T,
    ) -> MachineError {
        if self.cancel_owns {
            tracer.record(cycle, EventKind::Cancelled);
            MachineError::Cancelled {
                at_cycle: cycle,
                partial,
            }
        } else {
            tracer.record(cycle, EventKind::Watchdog);
            MachineError::WatchdogTimeout {
                limit: self.limit,
                partial,
            }
        }
    }
}

/// Build the typed error for a run stopped by the asynchronous flag at
/// `cycle`, recording the trace event.
pub(crate) fn flag_trip<T: Tracer>(cycle: u64, partial: Stats, tracer: &mut T) -> MachineError {
    tracer.record(cycle, EventKind::Cancelled);
    MachineError::Cancelled {
        at_cycle: cycle,
        partial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::NullTracer;

    #[test]
    fn default_token_never_fires() {
        let t = CancelToken::new();
        assert_eq!(t.deadline(), u64::MAX);
        assert!(!t.is_cancelled());
        let budget = RunBudget::resolve(1_000, &t);
        assert_eq!(budget.limit(), 1_000);
        assert!(matches!(
            budget.trip(1_000, Stats::default(), &mut NullTracer),
            MachineError::WatchdogTimeout { limit: 1_000, .. }
        ));
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled() && t.flag_raised());
    }

    #[test]
    fn deadline_below_budget_owns_the_run() {
        let t = CancelToken::new().with_deadline(10);
        let budget = RunBudget::resolve(1_000, &t);
        assert_eq!(budget.limit(), 10);
        assert!(matches!(
            budget.trip(10, Stats::default(), &mut NullTracer),
            MachineError::Cancelled { at_cycle: 10, .. }
        ));
    }

    #[test]
    fn deadline_at_budget_still_cancels() {
        let t = CancelToken::new().with_deadline(1_000);
        let budget = RunBudget::resolve(1_000, &t);
        assert!(matches!(
            budget.trip(1_000, Stats::default(), &mut NullTracer),
            MachineError::Cancelled {
                at_cycle: 1_000,
                ..
            }
        ));
    }

    #[test]
    fn deadline_above_budget_leaves_the_watchdog_in_charge() {
        let t = CancelToken::new().with_deadline(2_000);
        let budget = RunBudget::resolve(1_000, &t);
        assert_eq!(budget.limit(), 1_000);
        assert!(matches!(
            budget.trip(1_000, Stats::default(), &mut NullTracer),
            MachineError::WatchdogTimeout { limit: 1_000, .. }
        ));
    }
}
