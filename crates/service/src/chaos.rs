//! Deterministic chaos soak: a seeded cast of hostile and well-behaved
//! tenants hammers a real [`Service`] in rounds, and every invariant
//! violation is *reported*, not panicked, so the harness doubles as a
//! library (`tests/service_chaos.rs`) and an executable soak
//! (`examples/service_soak.rs`).
//!
//! Determinism comes from structure, not luck: the virtual millisecond
//! clock is scripted (`round * 100`), each round drains every ticket
//! before the next begins, and queue-full shedding is measured with
//! dispatch paused — so admission decisions and outcome counts replay
//! bit-identically under any `SKILLTAX_THREADS` setting.
//!
//! Invariants checked:
//!
//! * no panic, no deadlock (a stuck ticket is a reported violation);
//! * queue depth never exceeds its bound;
//! * every admitted job reaches a typed terminal outcome;
//! * hostile tenants (oversized, deadline-violating, fault-storming,
//!   flooding) get *typed* refusals or typed degraded outcomes, never
//!   collateral damage on the steady tenant;
//! * a deadline cancels a simulation at exactly its cycle.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::proto::{JobKind, JobOutcome, JobRequest, Rejection};
use crate::quota::QuotaConfig;
use crate::service::{JobTicket, Service, ServiceConfig};

/// Chaos-soak parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed for the scripted tenant mix.
    pub seed: u64,
    /// Rounds to run (each round submits, then drains).
    pub rounds: usize,
    /// Worker threads (`0` = the `SKILLTAX_THREADS` default).
    pub workers: usize,
    /// Bounded queue depth under test.
    pub queue_capacity: usize,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0xC0FFEE,
            rounds: 6,
            workers: 0,
            queue_capacity: 16,
        }
    }
}

/// What the soak observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Rounds executed.
    pub rounds: usize,
    /// Requests offered.
    pub submitted: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Typed refusals by kind.
    pub rejections: BTreeMap<&'static str, u64>,
    /// Typed terminal outcomes by label.
    pub outcomes: BTreeMap<&'static str, u64>,
    /// Per-tenant `(admitted, finished)`.
    pub per_tenant: BTreeMap<String, (u64, u64)>,
    /// Per-tenant terminal-outcome counts by label.
    pub per_tenant_outcomes: BTreeMap<String, BTreeMap<&'static str, u64>>,
    /// Deepest the queue ever got.
    pub peak_depth: usize,
    /// Invariant violations (empty = the soak passed).
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// A compact human-readable summary.
    pub fn summary(&self) -> String {
        let outcomes: Vec<String> = self
            .outcomes
            .iter()
            .map(|(label, count)| format!("{label}={count}"))
            .collect();
        let rejections: Vec<String> = self
            .rejections
            .iter()
            .map(|(label, count)| format!("{label}={count}"))
            .collect();
        format!(
            "rounds={} submitted={} admitted={} peak_depth={} outcomes[{}] rejections[{}] \
             violations={}",
            self.rounds,
            self.submitted,
            self.admitted,
            self.peak_depth,
            outcomes.join(" "),
            rejections.join(" "),
            self.violations.len()
        )
    }
}

fn rejection_label(rejection: &Rejection) -> &'static str {
    match rejection {
        Rejection::QueueFull { .. } => "queue-full",
        Rejection::QuotaExhausted { .. } => "quota-exhausted",
        Rejection::Oversized { .. } => "oversized",
        Rejection::Malformed(_) => "malformed",
        Rejection::ShuttingDown => "shutting-down",
    }
}

/// Deterministic split-mix style stream over (seed, round, lane).
fn mix(seed: u64, round: u64, lane: u64) -> u64 {
    let mut x =
        seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ lane.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn simulate(tenant: &str, cores: usize, iters: i64) -> JobRequest {
    JobRequest {
        tenant: tenant.into(),
        kind: JobKind::Simulate {
            cores,
            iters,
            fault_seed: None,
        },
        deadline_cycles: None,
    }
}

struct Soak {
    service: Service,
    report: ChaosReport,
    /// Tickets of the current round with the tenant and a tag for
    /// outcome expectations.
    pending: Vec<(String, &'static str, JobTicket)>,
}

impl Soak {
    fn offer(&mut self, now_ms: u64, expect: &'static str, request: JobRequest) {
        let tenant = request.tenant.clone();
        self.report.submitted += 1;
        match self.service.submit(now_ms, request) {
            Ok(ticket) => {
                self.report.admitted += 1;
                self.report.per_tenant.entry(tenant.clone()).or_default().0 += 1;
                self.pending.push((tenant, expect, ticket));
            }
            Err(rejection) => {
                *self
                    .report
                    .rejections
                    .entry(rejection_label(&rejection))
                    .or_insert(0) += 1;
            }
        }
    }

    /// Drain every pending ticket; a ticket that does not resolve within
    /// the bound is the no-deadlock invariant failing.
    fn drain(&mut self) {
        for (tenant, expect, ticket) in self.pending.drain(..) {
            let Some(outcome) = ticket.wait_timeout(Duration::from_secs(60)) else {
                self.report
                    .violations
                    .push(format!("job {} for {tenant} never resolved", ticket.id()));
                continue;
            };
            let label = outcome.label();
            *self.report.outcomes.entry(label).or_insert(0) += 1;
            self.report.per_tenant.entry(tenant.clone()).or_default().1 += 1;
            *self
                .report
                .per_tenant_outcomes
                .entry(tenant.clone())
                .or_default()
                .entry(label)
                .or_insert(0) += 1;
            let ok = match expect {
                "any" => true,
                "complete" => label == "completed",
                "cancel" => label == "cancelled",
                // Fault storms may complete clean, degrade, or exhaust
                // the retry tier — but must never trip the watchdog.
                "storm" => label != "timed-out",
                other => unreachable!("unknown expectation {other}"),
            };
            if !ok {
                self.report.violations.push(format!(
                    "{tenant} expected {expect}, got {label}: {outcome:?}"
                ));
            }
        }
    }
}

/// Run the soak and report.
pub fn run_chaos(config: &ChaosConfig) -> ChaosReport {
    let service = Service::start(ServiceConfig {
        queue_capacity: config.queue_capacity,
        workers: if config.workers == 0 {
            skilltax_machine::configured_threads()
        } else {
            config.workers
        },
        // A generous bucket: quota pressure comes from the flood phases,
        // not from the steady cast.
        quota: QuotaConfig {
            capacity: 64,
            refill_num: 1,
            refill_den: 1,
        },
        ..ServiceConfig::default()
    });
    let mut soak = Soak {
        service,
        report: ChaosReport::default(),
        pending: Vec::new(),
    };
    for round in 0..config.rounds {
        let now_ms = round as u64 * 100;
        let roll = |lane: u64| mix(config.seed, round as u64, lane);

        // The steady tenant: a classify and a small pooled simulate.
        soak.offer(
            now_ms,
            "complete",
            JobRequest {
                tenant: "steady".into(),
                kind: JobKind::Classify {
                    name: "SIMD".into(),
                    row: "1 | 16 | none | none | 1-n | none | none".into(),
                },
                deadline_cycles: None,
            },
        );
        soak.offer(
            now_ms,
            "complete",
            simulate("steady", 1, 20 + (roll(0) % 40) as i64),
        );

        // The oversized tenant: always refused at the front door.
        soak.offer(now_ms, "any", simulate("greedy", 100_000, 10));

        // The deadline tenant: work that cannot finish inside its
        // deadline — cancelled with partial stats, never a watchdog.
        soak.offer(now_ms, "cancel", {
            let mut r = simulate("deadline", 4, 1_000_000);
            r.deadline_cycles = Some(10 + roll(1) % 40);
            r
        });

        // The fault-storm tenant: seeded stalls, dead DPs and link
        // outages through the retry and degradation tiers.
        soak.offer(now_ms, "storm", {
            let mut r = simulate("storm", 4, 30 + (roll(2) % 30) as i64);
            if let JobKind::Simulate { fault_seed, .. } = &mut r.kind {
                *fault_seed = Some(roll(3) % 64);
            }
            r
        });

        // The cast drains before any flood so queue depth is zero at a
        // known point regardless of worker count.
        soak.drain();

        // The bursty tenant: a paused-dispatch flood every third round
        // makes queue-full shedding exact — the queue is empty and
        // dispatch frozen, so exactly `burst - capacity` submissions
        // shed, independent of `SKILLTAX_THREADS`.
        if round % 3 == 2 {
            soak.service.pause();
            let burst = config.queue_capacity + 4;
            for i in 0..burst {
                soak.offer(now_ms, "complete", simulate("bursty", 1, 10 + i as i64));
            }
            let depth_now = soak.service.metrics().peak_depth;
            if depth_now > config.queue_capacity {
                soak.report.violations.push(format!(
                    "queue depth {depth_now} exceeded capacity {}",
                    config.queue_capacity
                ));
            }
            soak.service.resume();
            soak.drain();
        }
    }

    // Deadline probe: a long simulation must cancel at exactly its
    // deadline cycle.  (The dense reference agrees with the event
    // scheduler on the partial stats: the machine crate's cancel tests.)
    let request = JobRequest {
        tenant: "probe".into(),
        kind: JobKind::Simulate {
            cores: 4,
            iters: 1_000_000,
            fault_seed: None,
        },
        deadline_cycles: Some(25),
    };
    soak.report.submitted += 1;
    match soak.service.submit(config.rounds as u64 * 100, request) {
        Ok(ticket) => {
            soak.report.admitted += 1;
            match ticket.wait_timeout(Duration::from_secs(60)) {
                Some(JobOutcome::Cancelled { at_cycle: 25, .. }) => {}
                other => soak.report.violations.push(format!(
                    "deadline probe: expected Cancelled at 25, got {other:?}"
                )),
            }
        }
        Err(rejection) => soak
            .report
            .violations
            .push(format!("deadline probe rejected: {rejection}")),
    }

    soak.service.shutdown();
    let metrics = soak.service.metrics();
    soak.report.rounds = config.rounds;
    soak.report.peak_depth = metrics.peak_depth;
    if metrics.peak_depth > config.queue_capacity {
        soak.report.violations.push(format!(
            "service peak depth {} exceeded capacity {}",
            metrics.peak_depth, config.queue_capacity
        ));
    }
    let unfinished = metrics.admitted.saturating_sub(metrics.finished());
    if unfinished > 0 {
        soak.report
            .violations
            .push(format!("{unfinished} admitted jobs never finished"));
    }
    // Fairness floor: the steady tenant's admitted work all finished.
    if let Some(&(admitted, finished)) = soak.report.per_tenant.get("steady") {
        if admitted != finished {
            soak.report.violations.push(format!(
                "steady tenant lost work: admitted {admitted}, finished {finished}"
            ));
        }
    }
    soak.report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_soak_passes_its_invariants() {
        let report = run_chaos(&ChaosConfig {
            rounds: 3,
            ..ChaosConfig::default()
        });
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.admitted > 0);
        assert!(report.rejections.contains_key("oversized"));
        assert!(report.rejections.contains_key("queue-full"));
    }
}
