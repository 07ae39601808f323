//! Deterministic, seeded fault injection and the resilience report.
//!
//! The paper's flexibility argument (Section III) says flexible classes can
//! route *around* structural constraints that rigid classes cannot.  This
//! module makes that claim falsifiable: a [`FaultPlan`] schedules link
//! failures, dropped/corrupted messages, DP stalls, permanent DP failures
//! and transient memory bit-flips by cycle and component, and the machine
//! families react according to their switch kinds — crossbar (`x`) classes
//! degrade gracefully, direct (`-`) classes fail with a typed
//! [`MachineError::DegradationImpossible`].
//!
//! Everything is driven by the in-repo xorshift PRNG
//! ([`skilltax_model::rng::XorShift64`]); no external randomness, so every
//! storm is reproducible from its seed.

use std::collections::BTreeSet;

use skilltax_model::rng::XorShift64;

use crate::error::MachineError;
use crate::exec::Stats;
use crate::isa::Word;

/// Default bound on send retries after repeated link failures.
pub const DEFAULT_MAX_RETRIES: u32 = 8;

/// Default packet time-to-live in the NoC (cycles in flight before the
/// drain declares the packet lost).
pub const DEFAULT_PACKET_TTL: u64 = 1_024;

/// A scheduled window during which one directed link is down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOutage {
    /// Source endpoint.
    pub from: usize,
    /// Destination endpoint.
    pub to: usize,
    /// First cycle of the outage (inclusive).
    pub from_cycle: u64,
    /// Last cycle of the outage (inclusive); `u64::MAX` = permanent.
    pub until_cycle: u64,
}

/// A deterministic fault schedule: permanent DP failures, link outage
/// windows, and seeded per-cycle probabilistic faults (drops, corruption,
/// stalls, bit-flips).
///
/// Cloning a plan clones the PRNG state, so two components holding clones
/// roll decorrelated-but-reproducible streams (each query sequence is
/// deterministic for a given seed).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: XorShift64,
    /// The construction seed, kept verbatim: per-cycle stall decisions
    /// hash it with `(cycle, dp)` so they are order-independent — every
    /// fork and clone of a plan agrees on the stall schedule no matter
    /// which scheduler (dense, event, sharded) asks, or in what order.
    stall_seed: u64,
    failed_dps: BTreeSet<usize>,
    outages: Vec<LinkOutage>,
    /// Each probability is stored once, as its `threshold`: a roll
    /// fires when its 53-bit draw is below it (DESIGN.md §7).
    drop_threshold: u64,
    corrupt_threshold: u64,
    stall_threshold: u64,
    flip_threshold: u64,
    max_retries: u32,
    injected: u64,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            rng: XorShift64::new(seed),
            stall_seed: seed,
            failed_dps: BTreeSet::new(),
            outages: Vec::new(),
            drop_threshold: 0,
            corrupt_threshold: 0,
            stall_threshold: 0,
            flip_threshold: 0,
            max_retries: DEFAULT_MAX_RETRIES,
            injected: 0,
        }
    }

    /// Permanently fail data processor `dp`.
    pub fn fail_dp(mut self, dp: usize) -> FaultPlan {
        self.failed_dps.insert(dp);
        self
    }

    /// Schedule a directed link outage.
    pub fn fail_link(mut self, outage: LinkOutage) -> FaultPlan {
        self.outages.push(outage);
        self
    }

    /// Drop each in-flight message with probability `rate`.
    pub fn drop_messages(mut self, rate: f64) -> FaultPlan {
        self.drop_threshold = threshold(rate);
        self
    }

    /// Corrupt each delivered message payload with probability `rate`.
    pub fn corrupt_messages(mut self, rate: f64) -> FaultPlan {
        self.corrupt_threshold = threshold(rate);
        self
    }

    /// Stall each DP on each cycle with probability `rate`.
    pub fn stall_dps(mut self, rate: f64) -> FaultPlan {
        self.stall_threshold = threshold(rate);
        self
    }

    /// Flip one memory bit per cycle with probability `rate`.
    pub fn flip_memory_bits(mut self, rate: f64) -> FaultPlan {
        self.flip_threshold = threshold(rate);
        self
    }

    /// Override the retry bound used by hardened senders.
    pub fn with_max_retries(mut self, retries: u32) -> FaultPlan {
        self.max_retries = retries;
        self
    }

    /// The retry bound hardened senders should honour.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// The set of permanently failed DPs.
    pub fn failed_dps(&self) -> &BTreeSet<usize> {
        &self.failed_dps
    }

    /// Is `dp` permanently failed?
    pub fn dp_failed(&self, dp: usize) -> bool {
        self.failed_dps.contains(&dp)
    }

    /// Faults actually injected so far (every query that fired counts).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Does this plan roll the PRNG on every simulated cycle?
    ///
    /// Memory bit-flips consume one random draw per cycle, so an
    /// event-driven scheduler that skips idle cycles would desynchronise
    /// the stream.  Engines use this to fall back to their dense
    /// reference loop.  DP stalls do *not* roll: they hash
    /// `(seed, cycle, dp)` and are therefore order-independent — dense,
    /// event and sharded interleavings all see the same stall schedule.
    /// Drops, corruption and link outages only roll on actual sends,
    /// which the event path replays at identical cycles in identical
    /// order.
    pub fn has_per_cycle_rolls(&self) -> bool {
        self.flip_threshold > 0
    }

    /// Does this plan roll the PRNG on message sends?
    ///
    /// Drops and corruption consume one random draw per send in global
    /// send order, which a shard-parallel runner (one forked plan per
    /// shard) cannot reproduce.  Link outages are schedule-driven and
    /// roll no randomness, so they shard fine.  Engines use this to fall
    /// back to the single-threaded scheduler.
    pub fn has_message_rolls(&self) -> bool {
        self.drop_threshold > 0 || self.corrupt_threshold > 0
    }

    /// Is the `from -> to` link down at `cycle`?
    pub fn link_down(&mut self, cycle: u64, from: usize, to: usize) -> bool {
        let down = self.outages.iter().any(|o| {
            o.from == from && o.to == to && cycle >= o.from_cycle && cycle <= o.until_cycle
        });
        if down {
            self.injected += 1;
        }
        down
    }

    /// Should the message in flight right now be dropped?
    #[inline]
    pub fn should_drop(&mut self) -> bool {
        if self.drop_threshold > 0 && draw(&mut self.rng) < self.drop_threshold {
            self.injected += 1;
            true
        } else {
            false
        }
    }

    /// Maybe corrupt a payload (single random bit-flip).
    #[inline]
    pub fn corrupt(&mut self, value: Word) -> Word {
        if self.corrupt_threshold > 0 && draw(&mut self.rng) < self.corrupt_threshold {
            self.injected += 1;
            value ^ (1 << self.rng.below(63))
        } else {
            value
        }
    }

    /// Is `dp` transiently stalled this cycle?
    ///
    /// The decision is a pure function of `(seed, cycle, dp)` — no PRNG
    /// stream is consumed — so stall outcomes are order-independent:
    /// identical under dense, event-driven and shard-parallel
    /// interleavings, and across forks of the same plan.  Only queries
    /// that actually fire count toward [`FaultPlan::injected`], so the
    /// totals agree too as long as every scheduler queries the same
    /// `(cycle, dp)` set (the run loops query exactly the processors
    /// that would otherwise act this cycle).
    #[inline]
    pub fn dp_stalled(&mut self, cycle: u64, dp: usize) -> bool {
        if self.stall_threshold > 0 && stall_hash(self.stall_seed, cycle, dp) < self.stall_threshold
        {
            self.injected += 1;
            true
        } else {
            false
        }
    }

    /// The stall law of a lockstep broadcast over `live` lanes: the
    /// sampler of how many cycles each broadcast waits before it issues.
    ///
    /// A lockstep cycle stalls when any live lane stalls, each lane
    /// independently with this plan's stall rate `p`, so a broadcast
    /// issues on a cycle with probability `q = (1 − p)^live` and the
    /// stalled cycles in front of it are geometric with that `q`.  The
    /// sampler draws the whole run at once instead of rolling every lane
    /// on every cycle (DESIGN.md §7).  A plan with no stall rate draws
    /// nothing; a rate of 1 stalls every broadcast forever.
    pub fn stall_runs(&self, live: usize) -> StallRuns {
        if self.stall_threshold == 0 {
            return StallRuns::Never;
        }
        let p = self.stall_threshold as f64 / UNIT as f64;
        // ln(1 − q) with ln q = live · ln(1 − p), through ln1p and expm1
        // so that neither a q near 0 nor a q near 1 loses its precision.
        let ln_issue = live as f64 * (-p).ln_1p();
        let ln_stall = if ln_issue < -std::f64::consts::LN_2 {
            (-ln_issue.exp()).ln_1p()
        } else {
            (-ln_issue.exp_m1()).ln()
        };
        if ln_stall < 0.0 {
            StallRuns::Geometric {
                seed: self.stall_seed,
                ln_stall,
            }
        } else {
            // q rounded to 0: no broadcast ever issues.
            StallRuns::Forever
        }
    }

    /// Count `cycles` lockstep stall cycles a [`StallRuns`] run charged:
    /// each is one injected fault, as when a lane roll fired.
    #[inline]
    pub fn charge_stalls(&mut self, cycles: u64) {
        self.injected += cycles;
    }

    /// Roll for a transient memory bit-flip this cycle: `(bank_choice,
    /// addr_choice, bit)` as raw draws for the caller to reduce modulo its
    /// own geometry.
    #[inline]
    pub fn memory_bit_flip(&mut self) -> Option<(u64, u64, u32)> {
        if self.flip_threshold > 0 && draw(&mut self.rng) < self.flip_threshold {
            self.injected += 1;
            Some((
                self.rng.next_u64(),
                self.rng.next_u64(),
                self.rng.below(63) as u32,
            ))
        } else {
            None
        }
    }

    /// Split off a child plan with the same schedule but a decorrelated
    /// RNG stream and a fresh injection counter, so several components
    /// (machine + interconnect) can each hold a plan for one run.
    pub fn fork(&mut self) -> FaultPlan {
        let mut child = self.clone();
        child.rng = self.rng.fork();
        child.injected = 0;
        child
    }

    /// Apply a pending transient bit-flip (if any) to `mem`, reducing the
    /// raw draws modulo the memory's geometry.  Returns `true` when a bit
    /// was actually flipped (so callers can trace the injection).
    #[inline]
    pub fn maybe_flip_memory(&mut self, mem: &mut crate::mem::BankedMemory) -> bool {
        if let Some((bank_raw, addr_raw, bit)) = self.memory_bit_flip() {
            let banks = mem.bank_count();
            let words = mem.bank_size();
            if banks == 0 || words == 0 {
                return false;
            }
            let bank = (bank_raw % banks as u64) as usize;
            let addr = (addr_raw % words as u64) as usize;
            let old = mem.bank(bank).contents()[addr];
            mem.bank_mut(bank).write(addr, old ^ (1 << bit));
            return true;
        }
        false
    }
}

/// `2^53`: every roll draws a uniform 53-bit integer `m`, the mantissa
/// of the unit float `m / 2^53` that [`XorShift64::unit_f64`] returns.
const UNIT: u64 = 1 << 53;

/// The integer form of probability `rate`: `ceil(rate * 2^53)`, with
/// `rate` clamped to `[0, 1]` and NaN mapped to 0 (never fires).  For
/// any 53-bit `m`, `m / 2^53 < rate` holds exactly when `m < threshold`:
/// scaling by a power of two is exact, and an integer is below a real
/// exactly when it is below that real's ceiling.
fn threshold(rate: f64) -> u64 {
    // `as` saturates and maps NaN to 0.
    (rate.clamp(0.0, 1.0) * UNIT as f64).ceil() as u64
}

/// One 53-bit draw from the plan's stream: the mantissa that
/// [`XorShift64::chance`] compares, taken from one `next_u64`.
#[inline]
fn draw(rng: &mut XorShift64) -> u64 {
    rng.next_u64() >> 11
}

/// The order-independent stall draw: a splitmix64-style finalizer over
/// `(seed, cycle, dp)` reduced to 53 bits.  Pure, so every scheduler
/// and every fork of a plan computes the same answer.
#[inline]
fn stall_hash(seed: u64, cycle: u64, dp: usize) -> u64 {
    let mut x = seed
        ^ cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (dp as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x >> 11
}

/// The lane tag the broadcast stall draw hashes in place of a processor
/// index, so it never coincides with a per-processor `dp_stalled` draw.
const BROADCAST_TAG: usize = usize::MAX;

/// The stalled-cycle runs of a lockstep broadcast stream
/// ([`FaultPlan::stall_runs`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StallRuns {
    /// No stall rate: every broadcast issues at once.
    Never,
    /// Every broadcast stalls until a budget stops the run.
    Forever,
    /// Geometric runs: broadcast `k` waits `floor(ln u / ln(1 − q))`
    /// cycles, `u` in (0, 1) hashed from `(seed, k)`.
    Geometric {
        /// The plan's construction seed.
        seed: u64,
        /// `ln(1 − q)`, strictly negative.
        ln_stall: f64,
    },
}

impl StallRuns {
    /// The stalled cycles in front of broadcast `k` (0-based): a pure
    /// function of the plan's seed and `k`, `u64::MAX` for a run that
    /// never ends.  `P(run ≥ s) = (1 − q)^s` for every `s`.
    #[inline]
    pub fn run(&self, k: u64) -> u64 {
        match *self {
            StallRuns::Never => 0,
            StallRuns::Forever => u64::MAX,
            StallRuns::Geometric { seed, ln_stall } => {
                let u = (stall_hash(seed, k, BROADCAST_TAG) as f64 + 0.5) / UNIT as f64;
                // `as` floors the non-negative quotient.
                (u.ln() / ln_stall) as u64
            }
        }
    }
}

/// Per-core retry state for bounded exponential backoff on denied routes.
#[derive(Debug, Clone, Copy, Default)]
pub struct RetryState {
    /// Attempts made so far.
    pub attempts: u32,
    /// Cycle before which no retry will be attempted.
    pub next_attempt: u64,
}

impl RetryState {
    /// Record a failed attempt at `cycle`; returns the backoff delay in
    /// cycles, or the error when the bound is exhausted.
    pub fn back_off(
        &mut self,
        cycle: u64,
        from: usize,
        to: usize,
        max_retries: u32,
    ) -> Result<u64, MachineError> {
        // A counter pegged at u32::MAX has lost count: treat saturation
        // as exhaustion rather than silently granting infinite retries.
        let saturated = self.attempts == u32::MAX;
        self.attempts = self.attempts.saturating_add(1);
        if saturated || self.attempts > max_retries {
            return Err(MachineError::RetryExhausted {
                from,
                to,
                attempts: self.attempts,
            });
        }
        // Exponential backoff: 1, 2, 4, ... cycles.  The exponent is
        // clamped (a shift of >= 64 would overflow; attempt 63+ must not
        // wrap back to short delays) and the wake cycle saturates so a
        // caller near the end of a u64 budget cannot overflow either.
        let delay = 1u64 << (self.attempts - 1).min(10);
        self.next_attempt = cycle.saturating_add(delay);
        Ok(delay)
    }

    /// May the caller retry at `cycle`?
    pub fn ready(&self, cycle: u64) -> bool {
        cycle >= self.next_attempt
    }
}

/// The report of a fault-injected run: what it cost and how the machine
/// coped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Execution statistics (including degraded-mode work).
    pub stats: Stats,
    /// Faults the plan actually injected.
    pub faults_injected: u64,
    /// Send retries performed (backoff round-trips).
    pub retries: u64,
    /// Did the machine have to remap work off failed components?
    pub degraded: bool,
}

impl RunOutcome {
    /// An outcome with no faults observed.
    pub fn clean(stats: Stats) -> RunOutcome {
        RunOutcome {
            stats,
            faults_injected: 0,
            retries: 0,
            degraded: false,
        }
    }
}

/// One row of the cross-family resilience experiment (rendered by
/// `skilltax-report`'s resilience table and asserted by the umbrella
/// integration tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceRow {
    /// Taxonomy class name (e.g. `IMP-IX`).
    pub class_name: String,
    /// The switch that decides the outcome, in row notation (e.g. `nxn`).
    pub deciding_switch: String,
    /// Faults injected during the trial.
    pub faults_injected: u64,
    /// Did the machine finish its workload?
    pub completed: bool,
    /// Did it have to degrade to finish?
    pub degraded: bool,
    /// The typed error when it could not finish.
    pub error: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let mut a = FaultPlan::seeded(9).drop_messages(0.5);
        let mut b = FaultPlan::seeded(9).drop_messages(0.5);
        let da: Vec<bool> = (0..32).map(|_| a.should_drop()).collect();
        let db: Vec<bool> = (0..32).map(|_| b.should_drop()).collect();
        assert_eq!(da, db);
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0);
    }

    #[test]
    fn link_outage_windows_are_inclusive() {
        let mut plan = FaultPlan::seeded(0).fail_link(LinkOutage {
            from: 0,
            to: 1,
            from_cycle: 5,
            until_cycle: 7,
        });
        assert!(!plan.link_down(4, 0, 1));
        assert!(plan.link_down(5, 0, 1));
        assert!(plan.link_down(7, 0, 1));
        assert!(!plan.link_down(8, 0, 1));
        assert!(!plan.link_down(6, 1, 0), "outages are directed");
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn retry_state_backs_off_exponentially_then_exhausts() {
        let mut r = RetryState::default();
        r.back_off(10, 0, 1, 3).unwrap();
        assert!(!r.ready(10));
        assert!(r.ready(11)); // +1
        r.back_off(11, 0, 1, 3).unwrap();
        assert!(r.ready(13)); // +2
        r.back_off(13, 0, 1, 3).unwrap();
        assert!(r.ready(17)); // +4
        let err = r.back_off(17, 0, 1, 3).unwrap_err();
        assert!(matches!(
            err,
            MachineError::RetryExhausted { attempts: 4, .. }
        ));
    }

    #[test]
    fn back_off_survives_huge_attempt_counts_without_overflow() {
        // Regression: with an unbounded retry budget the attempt counter
        // reaches the shift-width region (attempt >= 63).  The delay must
        // stay clamped at 2^10 and never overflow the shift or the wake
        // cycle.
        let mut r = RetryState::default();
        let mut cycle = 0u64;
        for attempt in 1..=200u32 {
            let delay = r.back_off(cycle, 0, 1, u32::MAX).unwrap();
            assert!(delay <= 1 << 10, "attempt {attempt}: delay {delay}");
            assert_eq!(r.attempts, attempt);
            cycle = r.next_attempt;
        }
        // Saturating wake cycle: backing off at the end of the u64 range
        // clamps instead of wrapping to a cycle in the past.
        let mut edge = RetryState {
            attempts: 62,
            next_attempt: 0,
        };
        edge.back_off(u64::MAX - 1, 0, 1, u32::MAX).unwrap();
        assert_eq!(edge.next_attempt, u64::MAX);
        assert!(!edge.ready(u64::MAX - 1));
        // Attempt-counter saturation: a state already at u32::MAX reports
        // exhaustion instead of wrapping to attempt 0.
        let mut maxed = RetryState {
            attempts: u32::MAX,
            next_attempt: 0,
        };
        let err = maxed.back_off(0, 0, 1, u32::MAX).unwrap_err();
        assert!(matches!(
            err,
            MachineError::RetryExhausted {
                attempts: u32::MAX,
                ..
            }
        ));
    }

    #[test]
    fn stall_decisions_are_order_independent() {
        // The same (cycle, dp) query answers identically regardless of
        // query order, interleaving, or fork lineage.
        let mut forward = FaultPlan::seeded(42).stall_dps(0.3);
        let mut backward = FaultPlan::seeded(42).stall_dps(0.3);
        let mut forked = forward.clone().fork();
        let queries: Vec<(u64, usize)> = (1..=32u64)
            .flat_map(|c| (0..4).map(move |d| (c, d)))
            .collect();
        let a: Vec<bool> = queries
            .iter()
            .map(|&(c, d)| forward.dp_stalled(c, d))
            .collect();
        let b: Vec<bool> = queries
            .iter()
            .rev()
            .map(|&(c, d)| backward.dp_stalled(c, d))
            .collect();
        let mut b = b;
        b.reverse();
        assert_eq!(a, b);
        assert_eq!(forward.injected(), backward.injected());
        let f: Vec<bool> = queries
            .iter()
            .map(|&(c, d)| forked.dp_stalled(c, d))
            .collect();
        assert_eq!(a, f, "forks share the stall schedule");
        assert!(
            a.iter().any(|&s| s),
            "a 30% rate fires somewhere in 128 draws"
        );
        assert!(!a.iter().all(|&s| s));
    }

    /// The float roll the integer thresholds replace: the top 53 bits of
    /// a draw as a unit float, compared with the rate.
    fn float_roll(x: u64, rate: f64) -> bool {
        (x >> 11) as f64 / ((1u64 << 53) as f64) < rate
    }

    #[test]
    fn integer_rolls_equal_the_float_formula() {
        let half = 0.5f64;
        let rates = [
            0.0,
            1.0 / (1u64 << 53) as f64,
            1e-6,
            0.1,
            f64::from_bits(half.to_bits() - 1),
            half,
            f64::from_bits(half.to_bits() + 1),
            1.0 - 1.0 / (1u64 << 53) as f64,
            1.0,
            f64::NAN,
        ];
        for rate in rates {
            let t = threshold(rate);
            // Exhaustive at the decision boundary: the 53-bit draws just
            // below, at and above the threshold, and both ends.
            let edges = [0, 1, t.saturating_sub(1), t, t + 1, UNIT - 1];
            for m in edges.into_iter().filter(|&m| m < UNIT) {
                assert_eq!(m < t, float_roll(m << 11, rate), "rate {rate:e}, m {m}");
            }
            // Hashed stall rolls over random (seed, cycle, dp) triples.
            let mut rng = XorShift64::new(rate.to_bits());
            for _ in 0..100_000 {
                let (seed, cycle) = (rng.next_u64(), rng.next_u64());
                let dp = rng.below(1 << 16) as usize;
                let mut plan = FaultPlan::seeded(seed).stall_dps(rate);
                let fired = plan.dp_stalled(cycle, dp);
                assert_eq!(
                    fired,
                    float_roll(stall_hash(seed, cycle, dp) << 11, rate),
                    "rate {rate:e}, triple ({seed}, {cycle}, {dp})"
                );
                assert_eq!(plan.injected(), u64::from(fired));
            }
            // Stream rolls consume the same draws as the float roll did.
            let mut plan = FaultPlan::seeded(9)
                .drop_messages(rate)
                .flip_memory_bits(rate);
            let mut stream = XorShift64::new(9);
            for _ in 0..1_000 {
                let expect = rate > 0.0 && float_roll(stream.next_u64(), rate);
                assert_eq!(plan.should_drop(), expect, "rate {rate:e}");
                let flip = rate > 0.0 && float_roll(stream.next_u64(), rate);
                let drawn = flip.then(|| {
                    let (bank, addr) = (stream.next_u64(), stream.next_u64());
                    (bank, addr, stream.below(63) as u32)
                });
                assert_eq!(plan.memory_bit_flip(), drawn, "rate {rate:e}");
            }
        }
        assert_eq!(threshold(f64::NAN), 0);
        assert_eq!(threshold(1.0), UNIT);
        assert_eq!(threshold(-3.0), 0);
    }

    /// Share of broadcasts that issue at once and mean stall run, with
    /// their standard errors, over `n` runs drawn by `next`.
    fn run_stats(n: u64, mut next: impl FnMut() -> u64) -> (f64, f64) {
        let (mut zero, mut sum) = (0u64, 0f64);
        for _ in 0..n {
            let run = next();
            zero += u64::from(run == 0);
            sum += run as f64;
        }
        (zero as f64 / n as f64, sum / n as f64)
    }

    #[test]
    fn broadcast_stall_runs_follow_the_lockstep_law() {
        // Within 5 standard errors (plus the f64 floor), over 10^5
        // broadcasts per rate and live-lane count: the share of
        // broadcasts that issue at once estimates q = (1 − p)^L' and the
        // mean run (1 − q) / q.  The old rule — one hashed roll per lane
        // per cycle, stalling the cycle when any lane stalls — is
        // replayed over up to 10^5 broadcasts or 2·10^6 cycles and must
        // agree with the same law.
        const N: u64 = 100_000;
        for p in [1e-6f64, 0.01, 0.1, 0.3, 0.5, 0.9] {
            for live in [1usize, 4, 16] {
                let label = format!("p {p}, {live} live lanes");
                let q = (1.0 - p).powi(live as i32);
                let mean = (1.0 - q) / q;
                let share_tol = |n: u64| 5.0 * (q * (1.0 - q) / n as f64).sqrt() + 1e-12;
                let mean_tol = |n: u64| 5.0 * ((1.0 - q) / n as f64).sqrt() / q + 1e-9 * mean;
                let plan = FaultPlan::seeded(live as u64 ^ p.to_bits()).stall_dps(p);
                let runs = plan.stall_runs(live);
                let mut k = 0;
                let (share, got) = run_stats(N, || {
                    k += 1;
                    runs.run(k - 1)
                });
                assert!((share - q).abs() <= share_tol(N), "{label}: share {share}");
                assert!((got - mean).abs() <= mean_tol(N), "{label}: mean {got}");

                let mut old = plan.clone();
                let (mut cycle, mut issued, mut stalled) = (0u64, 0u64, 0u64);
                let mut no_stall = 0u64;
                'old: while issued < N {
                    let mut run = 0;
                    loop {
                        if cycle == 2_000_000 {
                            break 'old;
                        }
                        cycle += 1;
                        if !(0..live).any(|lane| old.dp_stalled(cycle, lane)) {
                            break;
                        }
                        run += 1;
                    }
                    stalled += run;
                    issued += 1;
                    no_stall += u64::from(run == 0);
                }
                if issued >= 1_000 {
                    let share = no_stall as f64 / issued as f64;
                    let got = stalled as f64 / issued as f64;
                    assert!(
                        (share - q).abs() <= share_tol(issued),
                        "{label}: old rule share {share}"
                    );
                    assert!(
                        (got - mean).abs() <= mean_tol(issued),
                        "{label}: old rule mean {got}"
                    );
                } else {
                    // Too few broadcasts issue: compare the per-cycle
                    // issue rate with q instead.
                    let rate = issued as f64 / cycle as f64;
                    let tol = 5.0 * (q * (1.0 - q) / cycle as f64).sqrt() + 1e-12;
                    assert!((rate - q).abs() <= tol, "{label}: old rule rate {rate}");
                }
            }
        }
    }

    #[test]
    fn stall_runs_at_the_extremes() {
        assert_eq!(FaultPlan::seeded(1).stall_runs(16), StallRuns::Never);
        assert_eq!(
            FaultPlan::seeded(1).stall_dps(1.0).stall_runs(1),
            StallRuns::Forever
        );
        assert_eq!(StallRuns::Forever.run(0), u64::MAX);
        // The sampler is a pure function of (seed, k).
        let a = FaultPlan::seeded(5).stall_dps(0.3).stall_runs(4);
        let mut forked = FaultPlan::seeded(5).stall_dps(0.3);
        let b = forked.fork().stall_runs(4);
        assert!((0..1_000).all(|k| a.run(k) == b.run(k)));
        assert!((0..1_000).any(|k| a.run(k) > 0));
    }

    #[test]
    fn stall_plans_no_longer_force_the_dense_scheduler() {
        let stall_only = FaultPlan::seeded(1).stall_dps(0.5);
        assert!(!stall_only.has_per_cycle_rolls());
        let flips = FaultPlan::seeded(1).flip_memory_bits(0.01);
        assert!(flips.has_per_cycle_rolls());
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut plan = FaultPlan::seeded(3).corrupt_messages(1.0);
        let v = plan.corrupt(0);
        assert_eq!(v.count_ones(), 1);
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn failed_dps_are_a_set() {
        let plan = FaultPlan::seeded(0).fail_dp(2).fail_dp(2).fail_dp(5);
        assert!(plan.dp_failed(2) && plan.dp_failed(5) && !plan.dp_failed(0));
        assert_eq!(plan.failed_dps().len(), 2);
    }

    #[test]
    fn clean_outcome_reports_no_faults() {
        let o = RunOutcome::clean(Stats::default());
        assert_eq!(o.faults_injected, 0);
        assert!(!o.degraded);
    }
}
