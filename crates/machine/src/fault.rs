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
//! Everything is driven by the plan's seed — the in-repo xorshift PRNG
//! ([`skilltax_model::rng::XorShift64`]) and splitmix64 hashes and
//! streams derived from the seed; no external randomness, so every storm
//! is reproducible from its seed.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use skilltax_model::rng::XorShift64;

use crate::error::MachineError;
use crate::exec::Stats;
use crate::isa::Word;
use crate::mem::BankedMemory;
use crate::telemetry::{EventKind, FaultKind, Tracer};

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
/// windows, and seeded probabilistic faults (drops and corruption per
/// message, stall runs per fetch or broadcast, bit-flips per keyed gap).
///
/// Cloning a plan clones the PRNG state, so two components holding clones
/// roll decorrelated-but-reproducible streams (each query sequence is
/// deterministic for a given seed).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: XorShift64,
    /// The construction seed, kept verbatim: stall draws hash it (with
    /// `(cycle, dp)` per cycle in the dataflow engine, with `(dp, core)`
    /// for a MIMD core's stream, with the broadcast index on an array),
    /// so every fork and clone of a plan agrees on the stall schedule no
    /// matter which scheduler asks, or in what order.
    stall_seed: u64,
    failed_dps: BTreeSet<usize>,
    outages: Vec<LinkOutage>,
    /// Each probability is stored once, as its `threshold`: a roll
    /// fires when its 53-bit draw is below it (DESIGN.md §7).
    drop_threshold: u64,
    corrupt_threshold: u64,
    stall_threshold: u64,
    /// The MIMD stall law of `stall_threshold`, built on first use and
    /// kept by every clone and fork made after it (array and dataflow
    /// runs never build it).
    stall_law: OnceLock<Arc<StallLaw>>,
    /// The bit-flip schedule; during a run, its next flip due
    /// ([`FaultPlan::start_flips`]).
    flips: FlipSchedule,
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
            stall_law: OnceLock::new(),
            flips: FlipSchedule::new(seed, 0.0),
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

    /// Stall each DP with probability `rate` per cycle at its fetch
    /// stage: `P(a fetch waits ≥ s cycles) = rate^s`.
    pub fn stall_dps(mut self, rate: f64) -> FaultPlan {
        self.stall_threshold = threshold(rate);
        self.stall_law = OnceLock::new();
        self
    }

    /// Flip one memory bit per cycle with probability `rate`, drawn as
    /// the gaps between flips ([`FlipSchedule`]).
    pub fn flip_memory_bits(mut self, rate: f64) -> FaultPlan {
        let p = threshold(rate) as f64 / UNIT as f64;
        self.flips = FlipSchedule::new(self.flips.key, (-p).ln_1p());
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

    /// Is `dp` transiently stalled this cycle?  The dataflow engine's
    /// per-cycle roll; MIMD cores draw whole runs instead
    /// ([`FaultPlan::stall_law`]).
    ///
    /// The decision is a pure function of `(seed, cycle, dp)` — no PRNG
    /// stream is consumed — so stall outcomes are order-independent:
    /// identical under dense and event-driven interleavings, and across
    /// forks of the same plan.  Only queries that actually fire count
    /// toward [`FaultPlan::injected`], so the totals agree too as long as
    /// every scheduler queries the same `(cycle, dp)` set (the run loops
    /// query exactly the processors that would otherwise act this cycle).
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

    /// The per-core stall law of a MIMD machine: the sampler of how many
    /// cycles each fetch waits, built on the plan's first ask and shared
    /// from then on, by its clones and forks too.  `None` when the plan
    /// has no stall rate, so a run without one draws nothing.
    ///
    /// With stall rate `p`, every fetch waits `S` cycles with
    /// `P(S ≥ s) = p^s` — the law of the old per-cycle roll, which
    /// stalled each cycle at the fetch stage independently with `p` —
    /// drawn from the core's own [`StallStream`] (DESIGN.md §7).
    pub fn stall_law(&self) -> Option<Arc<StallLaw>> {
        (self.stall_threshold > 0).then(|| {
            let build = || Arc::new(StallLaw::new(self.stall_threshold));
            Arc::clone(self.stall_law.get_or_init(build))
        })
    }

    /// The private stall stream of instruction processor `core` driving
    /// data processor `dp`, seeded from the plan's seed and both indices:
    /// a pure function of them, so every scheduler and every fork of the
    /// plan draws the same runs for the same core.
    pub fn stall_stream(&self, dp: usize, core: usize) -> StallStream {
        StallStream {
            state: stall_hash(self.stall_seed, core as u64, dp),
            fetch_at: 0,
        }
    }

    /// Count `cycles` stall cycles a sampled run charged ([`StallRuns`]
    /// or a [`StallStream`]): each is one injected fault, as when a
    /// per-cycle roll fired.
    #[inline]
    pub fn charge_stalls(&mut self, cycles: u64) {
        self.injected += cycles;
    }

    /// This plan's bit-flip schedule from the start of a run: a pure
    /// function of the flip key and rate, so every scheduler applies the
    /// same flips at the same cycles.
    pub fn bit_flips(&self) -> FlipSchedule {
        FlipSchedule::new(self.flips.key, self.flips.ln_keep)
    }

    /// Restart the bit-flip schedule for a run on `mem`.  A memory
    /// without a word takes no flip and counts none.
    pub(crate) fn start_flips(&mut self, mem: &BankedMemory) {
        self.flips = self.bit_flips();
        if mem.capacity() == 0 {
            self.flips.at = u64::MAX;
        }
    }

    /// The cycle the run's next bit flip is due on (`u64::MAX`: none).
    #[inline]
    pub(crate) fn next_flip(&self) -> u64 {
        self.flips.at
    }

    /// Apply every bit flip due by `cycle` to `mem`, each recorded at its
    /// own cycle: a run loop calls this before it acts on `cycle`.
    #[inline]
    pub(crate) fn flip_through<T: Tracer>(
        &mut self,
        cycle: u64,
        mem: &mut BankedMemory,
        tracer: &mut T,
    ) {
        if self.flips.at <= cycle {
            self.apply_flips(cycle, mem, tracer);
        }
    }

    /// [`FaultPlan::flip_through`] once a flip is due.
    #[cold]
    fn apply_flips<T: Tracer>(&mut self, cycle: u64, mem: &mut BankedMemory, tracer: &mut T) {
        let (banks, words) = (mem.bank_count() as u64, mem.bank_size() as u64);
        while self.flips.at <= cycle {
            let flip = self.flips.next().expect("a flip is due");
            let (bank, addr) = ((flip.bank % banks) as usize, (flip.addr % words) as usize);
            let old = mem.bank(bank).contents()[addr];
            mem.bank_mut(bank).write(addr, old ^ (1 << flip.bit));
            self.injected += 1;
            tracer.record(flip.cycle, EventKind::FaultInjected(FaultKind::BitFlip));
        }
    }

    /// Split off a child plan with the same schedule but a decorrelated
    /// RNG stream, its own flip key and a fresh injection counter, so
    /// several components (machine + interconnect) or the phases of one
    /// run can each hold a plan.
    pub fn fork(&mut self) -> FaultPlan {
        let mut child = self.clone();
        // `XorShift64::fork`, with the same draw keying the child's flips.
        let seed = self.rng.next_u64();
        child.rng = XorShift64::new(seed);
        child.flips = FlipSchedule::new(seed, self.flips.ln_keep);
        child.injected = 0;
        child
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
    mix(seed ^ cycle.wrapping_mul(GOLDEN) ^ (dp as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)) >> 11
}

/// The splitmix64 increment (`2^64` over the golden ratio).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The tags the keyed draws hash in place of a processor index, so they
/// never coincide with a per-processor `dp_stalled` draw or each other:
/// a broadcast's stall run, and a bit flip's gap and site.
const BROADCAST_TAG: usize = usize::MAX;
const FLIP_GAP_TAG: usize = usize::MAX - 1;
const FLIP_BANK_TAG: usize = usize::MAX - 2;
const FLIP_ADDR_TAG: usize = usize::MAX - 3;
const FLIP_BIT_TAG: usize = usize::MAX - 4;

/// The geometric sampler: draw `k` under `(key, tag)` is
/// `floor(ln u / ln_q)`, `u` in (0, 1) hashed from `(key, k, tag)`, so
/// `P(draw ≥ s) = q^s` for `ln_q = ln q < 0` (0 when `ln_q = −∞`).
#[inline]
fn geometric(key: u64, k: u64, tag: usize, ln_q: f64) -> u64 {
    let u = (stall_hash(key, k, tag) as f64 + 0.5) / UNIT as f64;
    // `as` floors the non-negative quotient and saturates.
    (u.ln() / ln_q) as u64
}

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
            StallRuns::Geometric { seed, ln_stall } => geometric(seed, k, BROADCAST_TAG, ln_stall),
        }
    }
}

/// Thresholds in a [`StallLaw`]'s table: a draw that clears all of them
/// stands for a run of at least this many cycles.
const STALL_TABLE: usize = 16;

/// Bits of a draw that index a [`StallLaw`]'s bucket lookup.
const BUCKET_BITS: u32 = 8;

/// The per-core stall law of a MIMD machine ([`FaultPlan::stall_law`]):
/// the integer table that turns one 53-bit draw into the stalled cycles
/// in front of one fetch.
///
/// For the plan's exact rate `p = t / 2^53` the table holds
/// `T_s = ⌈p^s · 2^53⌉` for `s = 1..=16`.  A draw `m` clears `T_s`
/// (`m < T_s`) exactly when `m / 2^53 < p^s`, so the count of thresholds
/// it clears, `S`, has `P(S ≥ s) = T_s / 2^53`: `p^s` up to the one
/// ceiling.  A draw that clears all sixteen is redrawn and its run
/// continues past sixteen — the law is memoryless.  A 256-entry lookup
/// on the draw's top bits brackets `S`; only draws in a bucket that a
/// threshold splits scan the table.
#[derive(Clone)]
pub struct StallLaw {
    /// `T_1 > T_2 > … > T_16` (non-increasing).
    thresholds: [u64; STALL_TABLE],
    /// Per bucket of draws with the same top bits: how many thresholds
    /// every draw in it clears, and how many some draw in it clears.
    buckets: [(u8, u8); 1 << BUCKET_BITS],
    /// `p = 1`: every fetch waits for the rest of the budget.
    certain: bool,
}

impl StallLaw {
    /// The law of integer stall threshold `t` (`0 < t ≤ 2^53`).
    fn new(t: u64) -> StallLaw {
        let thresholds = pow_thresholds(t);
        let width = UNIT >> BUCKET_BITS;
        let mut buckets = [(0u8, 0u8); 1 << BUCKET_BITS];
        // The thresholds a draw clears are a prefix of the table, and the
        // prefix only shrinks as the buckets rise.
        let (mut every, mut some) = (STALL_TABLE, STALL_TABLE);
        for (b, bucket) in buckets.iter_mut().enumerate() {
            let low = b as u64 * width;
            while some > 0 && thresholds[some - 1] <= low {
                some -= 1;
            }
            while every > 0 && thresholds[every - 1] < low + width {
                every -= 1;
            }
            *bucket = (every as u8, some as u8);
        }
        StallLaw {
            thresholds,
            buckets,
            certain: t == UNIT,
        }
    }

    /// The stalled cycles in front of one fetch, drawn from `stream`.
    /// A run of the table's length or more is cut at `cap` (at least 1):
    /// it outlasts the budget then, so its length past the cap is never
    /// drawn.  One draw per sixteen cycles of run; a certain law returns
    /// `cap` after its first draw.
    #[inline]
    fn run(&self, stream: &mut StallStream, cap: u64) -> u64 {
        let s = self.cleared(stream.draw());
        if s < STALL_TABLE as u64 {
            return s;
        }
        // By value, so the stream's state never leaves a register on
        // the common path.
        let (run, state) = self.run_past_table(stream.state, cap);
        stream.state = state;
        run
    }

    /// [`StallLaw::run`] once the first draw cleared every threshold:
    /// the run so far, and the stream state after its last draw.
    #[cold]
    fn run_past_table(&self, state: u64, cap: u64) -> (u64, u64) {
        if self.certain {
            return (cap, state);
        }
        let mut stream = StallStream { state, fetch_at: 0 };
        let mut run = STALL_TABLE as u64;
        while run < cap {
            let s = self.cleared(stream.draw());
            run += s;
            if s < STALL_TABLE as u64 {
                break;
            }
        }
        (run.min(cap), stream.state)
    }

    /// How many thresholds the 53-bit draw `m` clears.
    #[inline]
    fn cleared(&self, m: u64) -> u64 {
        let (mut s, hi) = self.buckets[(m >> (53 - BUCKET_BITS)) as usize];
        while s < hi && m < self.thresholds[usize::from(s)] {
            s += 1;
        }
        u64::from(s)
    }
}

impl std::fmt::Debug for StallLaw {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StallLaw")
            .field("thresholds", &self.thresholds)
            .finish_non_exhaustive()
    }
}

/// `⌈t^s / 2^(53(s-1))⌉ = ⌈p^s · 2^53⌉` for `p = t / 2^53` and
/// `s = 1..=16`, computed exactly: `t^s` is carried as a little-endian
/// multi-word integer (`t ≤ 2^53`, so `t^16 < 2^849`).
fn pow_thresholds(t: u64) -> [u64; STALL_TABLE] {
    const WORDS: usize = 14;
    let mut power = [0u64; WORDS];
    power[0] = 1;
    let mut thresholds = [0u64; STALL_TABLE];
    for (s, threshold) in thresholds.iter_mut().enumerate() {
        let mut carry = 0u128;
        for word in &mut power {
            let x = u128::from(*word) * u128::from(t) + carry;
            *word = x as u64;
            carry = x >> 64;
        }
        // Shift right by 53·s bits, rounding up on any bit shifted out.
        let shift = 53 * s;
        let (skip, bits) = (shift / 64, shift % 64);
        let lo = power[skip] >> bits;
        let hi = power.get(skip + 1).map_or(0, |&w| w);
        let quotient = if bits == 0 {
            lo
        } else {
            lo | (hi << (64 - bits))
        };
        let rest = power[..skip].iter().any(|&w| w != 0) || power[skip] & ((1u64 << bits) - 1) != 0;
        *threshold = quotient + u64::from(rest);
    }
    thresholds
}

/// One MIMD core's private stall stream ([`FaultPlan::stall_stream`]):
/// a splitmix64 sequence, and the fetch its last draw delayed.  Its
/// state advances by one addition per draw, so consecutive draws do not
/// wait on each other.
#[derive(Debug, Clone, Default)]
pub struct StallStream {
    state: u64,
    /// The cycle the pending fetch issues on; 0 while the next fetch has
    /// not drawn its run yet.
    fetch_at: u64,
}

impl StallStream {
    /// The next 53-bit draw.
    #[inline]
    fn draw(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix(self.state) >> 11
    }

    /// The cycle on which a core that reached its fetch stage by `cycle`
    /// fetches: `cycle` itself when no run delays it.  The first ask
    /// for a fetch draws its run from `law` (a run that outlasts the
    /// budget, `limit`, is cut once it passes it); asking again before
    /// that cycle returns the same cycle, and asking on it hands the
    /// fetch over, so the next ask draws the next fetch's run.
    #[inline]
    pub fn fetch_at(&mut self, law: &StallLaw, cycle: u64, limit: u64) -> u64 {
        if self.fetch_at == 0 {
            self.fetch_at = self.draw_fetch(law, cycle, limit);
        }
        let at = self.fetch_at;
        if at <= cycle {
            self.fetch_at = 0;
        }
        at
    }

    /// Draw the run of the fetch a core reaches on `cycle`, capped as in
    /// [`StallStream::fetch_at`]: the cycle the fetch issues on.
    #[inline]
    pub(crate) fn draw_fetch(&mut self, law: &StallLaw, cycle: u64, limit: u64) -> u64 {
        let cap = limit.saturating_sub(cycle).saturating_add(1);
        cycle.saturating_add(law.run(self, cap))
    }

    /// Take the fetch cycle an earlier draw still holds back (0 when the
    /// next fetch has not drawn yet).
    #[inline]
    pub(crate) fn take_held(&mut self) -> u64 {
        std::mem::take(&mut self.fetch_at)
    }

    /// Hold the next fetch back until cycle `at`.
    #[inline]
    pub(crate) fn hold(&mut self, at: u64) {
        self.fetch_at = at;
    }
}

/// A plan's keyed bit-flip schedule ([`FaultPlan::bit_flips`]): an
/// iterator over its flips in cycle order.
///
/// Flip `k` lands `gap_k + 1` cycles after flip `k − 1` (after cycle 0
/// for the first), with `P(gap_k ≥ g) = (1 − p)^g` for flip rate `p` —
/// the law of one roll per cycle, drawn once per flip.  The gap and the
/// site are hashed from `(key, k)`; the key is the plan's seed, and a
/// fork takes the draw that seeds its stream (DESIGN.md §7).
#[derive(Debug, Clone)]
pub struct FlipSchedule {
    key: u64,
    /// `ln(1 − p)`: negative, `−∞` for `p = 1`, 0 without a flip rate.
    ln_keep: f64,
    /// The index of the next flip, and its cycle (`u64::MAX`: none).
    k: u64,
    at: u64,
}

/// One scheduled bit flip: its cycle and its site as raw draws, which a
/// run reduces modulo its memory's geometry — bit `bit` of word
/// `addr % words` in bank `bank % banks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flip {
    /// The cycle the flip lands on, before anything acts on it.
    pub cycle: u64,
    /// The bank draw.
    pub bank: u64,
    /// The word draw.
    pub addr: u64,
    /// The flipped bit, `0..63`.
    pub bit: u32,
}

impl FlipSchedule {
    fn new(key: u64, ln_keep: f64) -> FlipSchedule {
        let mut schedule = FlipSchedule {
            key,
            ln_keep,
            k: 0,
            at: 0,
        };
        schedule.at = schedule.after(0);
        schedule
    }

    /// The cycle of flip `k` when the one before it landed on `cycle`.
    fn after(&self, cycle: u64) -> u64 {
        if self.ln_keep == 0.0 {
            return u64::MAX;
        }
        let gap = geometric(self.key, self.k, FLIP_GAP_TAG, self.ln_keep);
        cycle.saturating_add(gap).saturating_add(1)
    }
}

impl Iterator for FlipSchedule {
    type Item = Flip;

    fn next(&mut self) -> Option<Flip> {
        if self.at == u64::MAX {
            return None;
        }
        let site = |tag| stall_hash(self.key, self.k, tag);
        let flip = Flip {
            cycle: self.at,
            bank: site(FLIP_BANK_TAG),
            addr: site(FLIP_ADDR_TAG),
            bit: (site(FLIP_BIT_TAG) % 63) as u32,
        };
        self.k += 1;
        self.at = self.after(self.at);
        Some(flip)
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
            let mut plan = FaultPlan::seeded(9).drop_messages(rate);
            let mut stream = XorShift64::new(9);
            for _ in 0..1_000 {
                let expect = rate > 0.0 && float_roll(stream.next_u64(), rate);
                assert_eq!(plan.should_drop(), expect, "rate {rate:e}");
            }
        }
        assert_eq!(threshold(f64::NAN), 0);
        assert_eq!(threshold(1.0), UNIT);
        assert_eq!(threshold(-3.0), 0);
    }

    #[test]
    fn broadcast_stall_runs_follow_the_lockstep_law() {
        // A broadcast issues on a cycle with q = (1 − p)^L', so its run
        // has P(S ≥ s) = (1 − q)^s: histogram and mean over 10^5
        // broadcasts per rate and live-lane count.  The old rule — one
        // hashed roll per lane per cycle, stalling the cycle when any
        // lane stalls — is replayed over up to 10^5 broadcasts or 2·10^6
        // cycles and must agree with the same law: the share of
        // broadcasts that issue at once estimates q, the mean run
        // (1 − q) / q, within 5 standard errors.
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
                assert_geometric(&label, 1.0 - q, q, u64::MAX, || {
                    k += 1;
                    runs.run(k - 1)
                });

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
    fn stall_law_thresholds_are_exact_ceilings() {
        // p = 3/8: p^s · 2^53 = 3^s · 2^(53 - 3s), an integer for s ≤ 16.
        let law = StallLaw::new(3 << 50);
        for (s, &t) in (1..).zip(&law.thresholds) {
            assert_eq!(t, 3u64.pow(s) << (53 - 3 * s), "3/8, s = {s}");
        }
        // p = 1 − 2^-53: (2^53 − 1)^s / 2^(53(s−1)) = 2^53 − s + (a
        // positive remainder below 1 for s ≥ 2), so the ceiling adds one.
        let law = StallLaw::new(UNIT - 1);
        for (s, &t) in (1..).zip(&law.thresholds) {
            assert_eq!(t, UNIT - s.max(2) + 1, "1 - 2^-53, s = {s}");
        }
        // The smallest rate: 1 / 2^(53(s−1)) rounds up to 1.
        assert_eq!(StallLaw::new(1).thresholds, [1; STALL_TABLE]);
        assert_eq!(StallLaw::new(UNIT).thresholds, [UNIT; STALL_TABLE]);
        assert!(StallLaw::new(UNIT).certain && !StallLaw::new(UNIT - 1).certain);
    }

    #[test]
    fn bucket_lookup_counts_the_cleared_thresholds() {
        let mut rng = XorShift64::new(0xB0C);
        for rate in [1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0 - 1e-12] {
            let law = StallLaw::new(threshold(rate));
            let linear = |m: u64| law.thresholds.iter().filter(|&&t| m < t).count() as u64;
            // Both sides of every threshold and every bucket edge, then
            // random draws.
            let width = UNIT >> BUCKET_BITS;
            let edges = law
                .thresholds
                .iter()
                .chain(
                    &(0..=1u64 << BUCKET_BITS)
                        .map(|b| b * width)
                        .collect::<Vec<_>>(),
                )
                .flat_map(|&e| [e.saturating_sub(1), e, e + 1])
                .filter(|&m| m < UNIT)
                .collect::<Vec<_>>();
            for m in edges.into_iter().chain((0..20_000).map(|_| draw(&mut rng))) {
                assert_eq!(law.cleared(m), linear(m), "rate {rate}, draw {m}");
            }
        }
    }

    /// Within 5 standard errors (plus the f64 floor), over 10^5 draws
    /// from `next`: the share of draws of each length s estimates
    /// (1 − p)·p^s, and the mean draw its expectation, for
    /// `P(S ≥ s) = p^s` below `cap` (`u64::MAX`: uncapped).  `q` is
    /// `1 − p`, passed exactly.
    fn assert_geometric(label: &str, p: f64, q: f64, cap: u64, mut next: impl FnMut() -> u64) {
        const N: u64 = 100_000;
        const BINS: usize = 48;
        let mut hist = [0u64; BINS + 1];
        let mut sum = 0f64;
        for _ in 0..N {
            let run = next();
            hist[(run as usize).min(BINS)] += 1;
            sum += run as f64;
        }
        let at_least = |s: usize| {
            if (s as u64) > cap {
                0.0
            } else {
                p.powi(s as i32)
            }
        };
        let share_tol = |q: f64| 5.0 * (q * (1.0 - q) / N as f64).sqrt() + 1e-12;
        for (s, &n) in hist.iter().enumerate() {
            let q = if s < BINS {
                at_least(s) - at_least(s + 1)
            } else {
                at_least(BINS)
            };
            let got = n as f64 / N as f64;
            assert!(
                (got - q).abs() <= share_tol(q),
                "{label}, S = {s}: {got} vs {q}"
            );
        }
        let (mean, var) = if cap == u64::MAX {
            (p / q, p / (q * q))
        } else {
            let (mut m1, mut m2) = (0.0, 0.0);
            for s in 0..=cap {
                let q = at_least(s as usize) - at_least(s as usize + 1);
                m1 += s as f64 * q;
                m2 += (s * s) as f64 * q;
            }
            (m1, m2 - m1 * m1)
        };
        let got = sum / N as f64;
        let tol = 5.0 * (var.max(0.0) / N as f64).sqrt() + 1e-9 * mean;
        assert!((got - mean).abs() <= tol, "{label}: mean {got} vs {mean}");
    }

    #[test]
    fn per_core_stall_runs_follow_the_geometric_law() {
        // Stall runs at rate p: P(S ≥ s) = p^s.  The rate just below 1
        // is capped at 64 cycles, as a run budget would cap it; the
        // others run uncapped.
        let mut redrawn = 0u64;
        for p in [1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1.0 / UNIT as f64] {
            let cap = if p > 0.99 { 64 } else { u64::MAX };
            let plan = FaultPlan::seeded(p.to_bits()).stall_dps(p);
            let law = plan.stall_law().unwrap();
            let mut stream = plan.stall_stream(0, 0);
            assert_geometric(&format!("stall p {p}"), p, 1.0 - p, cap, || {
                let run = law.run(&mut stream, cap);
                redrawn += u64::from(run >= STALL_TABLE as u64);
                run
            });
        }
        assert!(redrawn > 0, "no run went past the table");
        // The cycles between bit flips at flip rate p: P(gap ≥ g) =
        // (1 − p)^g.
        for p in [1e-6f64, 0.01, 0.1, 0.3, 0.7] {
            let mut flips = FaultPlan::seeded(p.to_bits())
                .flip_memory_bits(p)
                .bit_flips();
            let mut last = 0;
            assert_geometric(&format!("flip gap p {p}"), 1.0 - p, p, u64::MAX, || {
                let cycle = flips.next().unwrap().cycle;
                let gap = cycle - last - 1;
                last = cycle;
                gap
            });
        }
    }

    #[test]
    fn per_core_stall_streams_at_the_extremes() {
        // Rate 0: no law, so a run draws nothing.
        assert!(FaultPlan::seeded(1).stall_law().is_none());
        assert!(FaultPlan::seeded(1).stall_dps(0.0).stall_law().is_none());
        // Rate 1: the first fetch waits past the limit, on one draw.
        let plan = FaultPlan::seeded(1).stall_dps(1.0);
        let law = plan.stall_law().unwrap();
        let mut stream = plan.stall_stream(0, 0);
        let mut once = stream.clone();
        once.draw();
        assert_eq!(stream.fetch_at(&law, 5, 100), 101);
        assert_eq!(stream.fetch_at(&law, 100, 100), 101);
        once.hold(101);
        assert_eq!(format!("{stream:?}"), format!("{once:?}"));
        // An unbounded budget saturates instead of wrapping.
        let mut stream = plan.stall_stream(0, 0);
        assert_eq!(stream.fetch_at(&law, 9, u64::MAX), u64::MAX);
        // A pending run answers the same cycle until it is spent, then
        // the next fetch draws afresh; streams are pure in (seed, dp, core).
        let plan = FaultPlan::seeded(3).stall_dps(0.9);
        let law = plan.stall_law().unwrap();
        let (mut a, mut b) = (
            plan.stall_stream(2, 5),
            plan.clone().fork().stall_stream(2, 5),
        );
        let mut cycle = 1;
        for _ in 0..1_000 {
            let at = a.fetch_at(&law, cycle, u64::MAX);
            assert!(at >= cycle);
            assert_eq!(b.fetch_at(&law, cycle, u64::MAX), at);
            if at > cycle {
                assert_eq!(a.fetch_at(&law, at - 1, u64::MAX), at);
                assert_eq!(a.fetch_at(&law, at, u64::MAX), at);
                assert_eq!(b.fetch_at(&law, at, u64::MAX), at);
            }
            cycle = at + 1;
        }
        assert_ne!(
            format!("{:?}", plan.stall_stream(2, 5)),
            format!("{:?}", plan.stall_stream(5, 2))
        );
    }

    #[test]
    fn the_stall_law_is_built_once_per_plan() {
        let mut plan = FaultPlan::seeded(1).stall_dps(0.4);
        let law = plan.stall_law().unwrap();
        assert!(Arc::ptr_eq(&law, &plan.stall_law().unwrap()));
        assert!(Arc::ptr_eq(&law, &plan.clone().stall_law().unwrap()));
        assert!(Arc::ptr_eq(&law, &plan.fork().stall_law().unwrap()));
        // A new rate takes a new law.
        let law = plan.stall_dps(0.5).stall_law().unwrap();
        assert_eq!(law.thresholds[0], threshold(0.5));
    }

    #[test]
    fn flip_schedules_at_the_extremes() {
        // Rate 0 (or none): no flip, ever.
        assert_eq!(FaultPlan::seeded(1).bit_flips().next(), None);
        assert_eq!(
            FaultPlan::seeded(1)
                .flip_memory_bits(0.0)
                .bit_flips()
                .next(),
            None
        );
        // Rate 1: one flip on every cycle, sites in range.
        let plan = FaultPlan::seeded(1).flip_memory_bits(1.0);
        let flips: Vec<Flip> = plan.bit_flips().take(1_000).collect();
        assert!(flips
            .iter()
            .zip(1..)
            .all(|(f, c)| f.cycle == c && f.bit < 63));
        assert!(flips.iter().any(|f| f.bit == 62) && flips.iter().any(|f| f.bit == 0));
        // A clone replays the schedule; a fork draws its own key, and two
        // forks of one parent differ.
        let mut parent = FaultPlan::seeded(4).flip_memory_bits(0.2);
        let first = |plan: &FaultPlan| plan.bit_flips().take(64).collect::<Vec<_>>();
        assert_eq!(first(&parent.clone()), first(&parent));
        let (a, b) = (parent.fork(), parent.fork());
        assert_ne!(first(&a), first(&parent));
        assert_ne!(first(&a), first(&b));
        // A stall rate leaves the flips alone.
        assert_eq!(first(&parent.clone().stall_dps(0.5)), first(&parent));
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
