//! The MIMD multi-processor machine (IMP-I..XVI): `n` instruction
//! processors, each driving a data processor.
//!
//! The sixteen sub-types encode which relations are crossbars, and each bit
//! is a concrete runtime capability here:
//!
//! * **DP–DM `x`** — shared global memory instead of per-core private
//!   banks;
//! * **DP–DP `x`** — a message-passing fabric between cores (`send`/`recv`
//!   work);
//! * **IP–IM `x`** — a shared program store: any core can be assigned any
//!   program from a library (with direct IP–IM, core *i* runs program *i*);
//! * **IP–DP `x`** — rebinding: instruction processor *i* can drive a data
//!   processor other than *i* (a lane permutation).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use skilltax_model::{ArchSpec, Count, Link, Relation};

use crate::cancel::{flag_trip, CancelToken, RunBudget};
use crate::dp::Stalls;
use crate::dp::{BurstEnd, DataProcessor, LocalOutcome, QUANTUM};
use crate::error::MachineError;
use crate::exec::Stats;
use crate::fault::{FaultPlan, RetryState, RunOutcome, StallLaw, StallStream, DEFAULT_MAX_RETRIES};
use crate::interconnect::{FabricTopology, Mailboxes};
use crate::isa::{Instr, Word};
use crate::mem::{BankedMemory, DataTopology};
use crate::profile::Phase;
use crate::program::Program;
use crate::telemetry::{EventKind, FaultKind, NullTracer, Tracer};
use crate::uniprocessor::DEFAULT_CYCLE_LIMIT;

/// One of the sixteen IMP sub-types, identified by its 4-bit crossbar code
/// (`IMP-(code+1)` in Roman numerals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiSubtype(u8);

impl MultiSubtype {
    /// Sub-type from the crossbar code (0..=15).
    pub fn from_code(code: u8) -> Result<MultiSubtype, MachineError> {
        if code < 16 {
            Ok(MultiSubtype(code))
        } else {
            Err(MachineError::config(format!(
                "IMP sub-type code {code} out of range 0..16"
            )))
        }
    }

    /// Sub-type from the 1-based Roman index (1..=16).
    pub fn from_index(index: u8) -> Result<MultiSubtype, MachineError> {
        if (1..=16).contains(&index) {
            Ok(MultiSubtype(index - 1))
        } else {
            Err(MachineError::config(format!(
                "IMP sub-type index {index} out of range 1..=16"
            )))
        }
    }

    /// The crossbar code.
    pub fn code(&self) -> u8 {
        self.0
    }

    /// Is IP–DP a crossbar (core→lane rebinding allowed)?
    pub fn ip_dp_crossbar(&self) -> bool {
        self.0 & 0b1000 != 0
    }

    /// Is IP–IM a crossbar (shared program store)?
    pub fn ip_im_crossbar(&self) -> bool {
        self.0 & 0b0100 != 0
    }

    /// Is DP–DM a crossbar (shared data memory)?
    pub fn dp_dm_crossbar(&self) -> bool {
        self.0 & 0b0010 != 0
    }

    /// Is DP–DP a crossbar (message passing available)?
    pub fn dp_dp_crossbar(&self) -> bool {
        self.0 & 0b0001 != 0
    }

    /// The taxonomy name, e.g. `IMP-XIV`.
    pub fn class_name(&self) -> String {
        format!(
            "IMP-{}",
            skilltax_taxonomy::roman::to_roman(u16::from(self.0) + 1)
        )
    }
}

/// One core: an IP (program counter + assignment) and its DP.
#[derive(Debug)]
struct Core {
    dp: DataProcessor,
    pc: usize,
    program: usize,
    halted: bool,
    /// A pending blocked receive: (destination register, source core).
    waiting: Option<(u8, usize)>,
    /// This run's stall stream, seeded at run start under a stall law.
    stall: StallStream,
}

/// A MIMD multi-processor.
#[derive(Debug)]
pub struct MultiMachine {
    subtype: MultiSubtype,
    cores: Vec<Core>,
    /// Lane driven by each core (identity unless rebinding is used).
    binding: Vec<usize>,
    mem: BankedMemory,
    mailboxes: Mailboxes,
    cycle_limit: u64,
    dense_reference: bool,
    cancel: CancelToken,
}

impl MultiMachine {
    /// A machine of `cores` cores with `bank_words` words per bank.
    pub fn new(subtype: MultiSubtype, cores: usize, bank_words: usize) -> MultiMachine {
        assert!(cores >= 2, "a multi-processor needs at least two cores");
        let topology = if subtype.dp_dm_crossbar() {
            DataTopology::SharedCrossbar
        } else {
            DataTopology::PrivateBanks
        };
        let fabric = if subtype.dp_dp_crossbar() {
            FabricTopology::Crossbar
        } else {
            FabricTopology::None
        };
        MultiMachine {
            subtype,
            cores: (0..cores)
                .map(|i| Core {
                    dp: DataProcessor::new(i),
                    pc: 0,
                    program: i,
                    halted: false,
                    waiting: None,
                    stall: StallStream::default(),
                })
                .collect(),
            binding: (0..cores).collect(),
            mem: BankedMemory::new(cores, bank_words, topology),
            mailboxes: Mailboxes::new(cores, fabric),
            cycle_limit: DEFAULT_CYCLE_LIMIT,
            dense_reference: false,
            cancel: CancelToken::new(),
        }
    }

    /// Override the livelock guard.
    pub fn with_cycle_limit(mut self, limit: u64) -> MultiMachine {
        self.cycle_limit = limit;
        self
    }

    /// Install a cancellation token for subsequent runs.  A deadline
    /// stops the run after exactly that many simulated cycles, with
    /// partial [`Stats`] bit-identical across the event scheduler, the
    /// decoupled path and the dense reference; the asynchronous flag
    /// stops promptly but at no promised cycle (polled per cycle by the
    /// event loop, once per quantum by the decoupled path).
    pub fn with_cancel(mut self, cancel: CancelToken) -> MultiMachine {
        self.cancel = cancel;
        self
    }

    /// Force the dense reference loop instead of the event-driven
    /// scheduler (see DESIGN.md §9).  The two are counter-identical; the
    /// dense loop is the identity suites' oracle, not a production path.
    pub fn with_dense_reference(mut self, dense: bool) -> MultiMachine {
        self.dense_reference = dense;
        self
    }

    /// The sub-type.
    pub fn subtype(&self) -> MultiSubtype {
        self.subtype
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// The banked memory.
    pub fn memory_mut(&mut self) -> &mut BankedMemory {
        &mut self.mem
    }

    /// The banked memory.
    pub fn memory(&self) -> &BankedMemory {
        &self.mem
    }

    /// A core's register, after a run.
    pub fn core_reg(&self, core: usize, r: u8) -> Word {
        self.cores[core].dp.reg(r)
    }

    /// Rebind core `ip` to drive lane `dp` — requires the IP–DP crossbar
    /// (sub-types VIII+ ... any with bit 3 set).
    pub fn rebind(&mut self, ip: usize, dp: usize) -> Result<(), MachineError> {
        if ip >= self.cores.len() || dp >= self.cores.len() {
            return Err(MachineError::config(format!(
                "rebind({ip}, {dp}) out of range for {} cores",
                self.cores.len()
            )));
        }
        if ip == dp {
            return Ok(());
        }
        if !self.subtype.ip_dp_crossbar() {
            return Err(MachineError::unsupported(
                self.subtype.class_name(),
                "IP-DP is a direct switch: instruction processor i is wired to \
                 data processor i and cannot be rebound",
            ));
        }
        self.binding[ip] = dp;
        // The DP's lane identity follows the binding so memory and fabric
        // addressing stay consistent.
        self.cores[ip].dp = DataProcessor::new(dp);
        Ok(())
    }

    /// The structural [`ArchSpec`] of this machine.
    pub fn spec(&self) -> ArchSpec {
        let n = (self.cores.len() as u32).max(2);
        let pick = |x: bool| {
            if x {
                Link::crossbar_between(n, n)
            } else {
                Link::direct_between(n, n)
            }
        };
        let dp_dp = if self.subtype.dp_dp_crossbar() {
            Link::crossbar_between(n, n)
        } else {
            Link::None
        };
        ArchSpec::builder(format!("multi-{}x{}", self.subtype.class_name(), n))
            .ips(Count::fixed(n))
            .dps(Count::fixed(n))
            .link(Relation::IpDp, pick(self.subtype.ip_dp_crossbar()))
            .link(Relation::IpIm, pick(self.subtype.ip_im_crossbar()))
            .link(Relation::DpDm, pick(self.subtype.dp_dm_crossbar()))
            .link(Relation::DpDp, dp_dp)
            .build_unchecked()
    }

    /// Run with one program per core (core *i* runs `programs[i]`): the
    /// plain MIMD mode every sub-type supports.
    pub fn run(&mut self, programs: &[Program]) -> Result<Stats, MachineError> {
        if programs.len() != self.cores.len() {
            return Err(MachineError::config(format!(
                "{} programs for {} cores",
                programs.len(),
                self.cores.len()
            )));
        }
        let assignment: Vec<usize> = (0..self.cores.len()).collect();
        let library: Vec<&Program> = programs.iter().collect();
        self.execute(&library, &assignment)
    }

    /// [`MultiMachine::run`] with observation hooks; with a [`NullTracer`]
    /// this monomorphises back to the plain core loop.
    pub fn run_traced<T: Tracer>(
        &mut self,
        programs: &[Program],
        tracer: &mut T,
    ) -> Result<Stats, MachineError> {
        if programs.len() != self.cores.len() {
            return Err(MachineError::config(format!(
                "{} programs for {} cores",
                programs.len(),
                self.cores.len()
            )));
        }
        let assignment: Vec<usize> = (0..self.cores.len()).collect();
        let library: Vec<&Program> = programs.iter().collect();
        self.execute_with(&library, &assignment, None, tracer)
            .map(|outcome| outcome.stats)
    }

    /// Run from a shared program library with an arbitrary core→program
    /// assignment — requires the IP–IM crossbar.  With a direct IP–IM the
    /// assignment must be the identity onto a library of exactly one
    /// program per core.
    pub fn run_shared(
        &mut self,
        library: &[Program],
        assignment: &[usize],
    ) -> Result<Stats, MachineError> {
        if assignment.len() != self.cores.len() {
            return Err(MachineError::config(format!(
                "{} assignments for {} cores",
                assignment.len(),
                self.cores.len()
            )));
        }
        if let Some(bad) = assignment.iter().find(|&&p| p >= library.len()) {
            return Err(MachineError::config(format!(
                "assignment references program {bad} but the library has {}",
                library.len()
            )));
        }
        let identity = assignment.iter().enumerate().all(|(i, &p)| i == p);
        if !self.subtype.ip_im_crossbar() && !identity {
            return Err(MachineError::unsupported(
                self.subtype.class_name(),
                "IP-IM is a direct switch: each core fetches only from its own \
                 instruction memory; cross-assignment needs an IP-IM crossbar",
            ));
        }
        let library: Vec<&Program> = library.iter().collect();
        self.execute(&library, assignment)
    }

    /// SIMD-emulation mode: every core runs (a private copy of) the same
    /// program.  This is the paper's morphing argument — "IMP-I can act as
    /// an array processor if all the processors are executing the same
    /// program" — and works on every sub-type because each core's own IM
    /// simply holds the same contents.
    pub fn run_simd(&mut self, program: &Program) -> Result<Stats, MachineError> {
        self.run_simd_traced(program, &mut NullTracer)
    }

    /// [`MultiMachine::run_simd`] with observation hooks; with a
    /// [`NullTracer`] this monomorphises back to the plain core loop.
    pub fn run_simd_traced<T: Tracer>(
        &mut self,
        program: &Program,
        tracer: &mut T,
    ) -> Result<Stats, MachineError> {
        // A single-entry library with an all-zeros assignment: every core
        // fetches the same `Program` without cloning it per core.
        let assignment = vec![0; self.cores.len()];
        self.execute_with(&[program], &assignment, None, tracer)
            .map(|outcome| outcome.stats)
    }

    fn execute(
        &mut self,
        library: &[&Program],
        assignment: &[usize],
    ) -> Result<Stats, MachineError> {
        self.execute_with(library, assignment, None, &mut NullTracer)
            .map(|outcome| outcome.stats)
    }

    /// The fault-aware core loop.  A `FaultPlan` adds transient DP stalls,
    /// memory bit-flips and (via a forked plan installed in the mailboxes)
    /// link outages — which the sender survives with bounded exponential
    /// backoff — plus drops and corruption.  Exceeding the cycle budget
    /// returns [`MachineError::WatchdogTimeout`] carrying the partial
    /// statistics.
    ///
    /// Runs the event-driven scheduler, which hands untraced
    /// interaction-free runs to the temporally decoupled path, unless
    /// the dense reference loop was requested.
    fn execute_with<T: Tracer>(
        &mut self,
        library: &[&Program],
        assignment: &[usize],
        faults: Option<FaultPlan>,
        tracer: &mut T,
    ) -> Result<RunOutcome, MachineError> {
        if self.dense_reference {
            self.execute_dense(library, assignment, faults, tracer)
        } else {
            self.execute_event(library, assignment, faults, tracer)
        }
    }

    /// Put every core at the start of `assignment`, hand the mailboxes a
    /// fork of the plan, restart its bit-flip schedule, and, when the
    /// plan has a stall rate, seed each core's stall stream from
    /// `(dp, core)` and return the plan's stall law (DESIGN.md §7).
    fn start_run(
        &mut self,
        assignment: &[usize],
        faults: Option<&mut FaultPlan>,
    ) -> Option<Arc<StallLaw>> {
        let law = faults.and_then(|plan| {
            self.mailboxes.install_faults(plan.fork());
            plan.start_flips(&self.mem);
            let law = plan.stall_law()?;
            for (i, core) in self.cores.iter_mut().enumerate() {
                core.stall = plan.stall_stream(self.binding[i], i);
            }
            Some(law)
        });
        for (core, &prog) in self.cores.iter_mut().zip(assignment) {
            core.pc = 0;
            core.program = prog;
            core.halted = false;
            core.waiting = None;
        }
        law
    }

    /// The dense reference loop: every core is visited on every cycle.
    /// This is the semantic ground truth the event scheduler must
    /// reproduce counter-for-counter.
    fn execute_dense<T: Tracer>(
        &mut self,
        library: &[&Program],
        assignment: &[usize],
        mut faults: Option<FaultPlan>,
        tracer: &mut T,
    ) -> Result<RunOutcome, MachineError> {
        let law = self.start_run(assignment, faults.as_mut());
        let mut stats = Stats::default();
        let mut retries: u64 = 0;
        let n = self.cores.len();
        let mut retry = vec![RetryState::default(); n];
        let max_retries = faults
            .as_ref()
            .map_or(DEFAULT_MAX_RETRIES, FaultPlan::max_retries);
        let base: Vec<(u64, u64, u64)> = self.cores.iter().map(|c| c.dp.counters()).collect();
        let budget = RunBudget::resolve(self.cycle_limit, &self.cancel);
        tracer.span_enter(0, Phase::Run);
        tracer.span_enter(0, Phase::Decode);
        tracer.span_exit(0);
        tracer.span_enter(0, Phase::Slice);
        loop {
            if self.cores.iter().all(|c| c.halted) {
                break;
            }
            if self.cancel.flag_raised() {
                return Err(flag_trip(stats.cycles, stats, tracer));
            }
            if stats.cycles >= budget.limit() {
                return Err(budget.trip(stats.cycles, stats, tracer));
            }
            stats.cycles += 1;
            self.mailboxes.set_cycle(stats.cycles);
            if let Some(plan) = faults.as_mut() {
                plan.flip_through(stats.cycles, &mut self.mem, tracer);
            }
            let mut progress = false;
            for i in 0..n {
                if self.cores[i].halted {
                    continue;
                }
                // A core backing off after a failed send waits its turn.
                if !retry[i].ready(stats.cycles) {
                    stats.stalls += 1;
                    tracer.record(stats.cycles, EventKind::Stall);
                    progress = true;
                    continue;
                }
                // A blocked receive retries before fetching anything new.
                if let Some((rd, src)) = self.cores[i].waiting {
                    let lane = self.binding[i];
                    let from = self.binding[src];
                    match self.mailboxes.recv(lane, from)? {
                        Some(v) => {
                            self.cores[i].dp.set_reg(rd, v);
                            self.cores[i].waiting = None;
                            self.cores[i].pc += 1;
                            stats.messages += 1;
                            tracer.record(stats.cycles, EventKind::Message { from, to: lane });
                            tracer.record(stats.cycles, EventKind::CrossbarTraversal);
                            tracer.span_mark(stats.cycles, Phase::Delivery);
                            progress = true;
                        }
                        None => {
                            stats.stalls += 1;
                            tracer.record(stats.cycles, EventKind::Stall);
                        }
                    }
                    continue;
                }
                // A transient injected stall run holds the core at its
                // fetch stage, one cycle at a time here; it counts as
                // forward progress in the deadlock sense (it always
                // ends).  The core draws the run when it first reaches
                // this point for a fetch — after the backoff and
                // blocked-receive checks — which every scheduler
                // reproduces, so all of them draw the same runs.
                if let (Some(law), Some(plan)) = (&law, faults.as_mut()) {
                    let cycle = stats.cycles;
                    if self.cores[i].stall.fetch_at(law, cycle, budget.limit()) > cycle {
                        plan.charge_stalls(1);
                        stats.stalls += 1;
                        tracer.record(cycle, EventKind::FaultInjected(FaultKind::Stall));
                        tracer.record(cycle, EventKind::Stall);
                        progress = true;
                        continue;
                    }
                }
                let program = &library[self.cores[i].program];
                let Some(instr) = program.fetch(self.cores[i].pc) else {
                    self.cores[i].halted = true;
                    progress = true;
                    continue;
                };
                match instr {
                    Instr::GetLane(..) => {
                        return Err(MachineError::unsupported(
                            self.subtype.class_name(),
                            "getlane is a lockstep-SIMD exchange; independent cores \
                             communicate with send/recv",
                        ));
                    }
                    Instr::Send(dest, rs) => {
                        if dest >= n {
                            return Err(MachineError::RouteDenied {
                                from: i,
                                to: dest,
                                reason: format!("destination {dest} out of range"),
                            });
                        }
                        let value = self.cores[i].dp.reg(rs);
                        match self
                            .mailboxes
                            .send(self.binding[i], self.binding[dest], value)
                        {
                            Ok(()) => {
                                retry[i] = RetryState::default();
                                self.cores[i].pc += 1;
                                stats.instructions += 1;
                                tracer.record(stats.cycles, EventKind::Issue);
                                progress = true;
                            }
                            Err(MachineError::LinkDown { from, to, .. }) => {
                                let delay =
                                    retry[i].back_off(stats.cycles, from, to, max_retries)?;
                                retries += 1;
                                stats.stalls += 1;
                                tracer.record(
                                    stats.cycles,
                                    EventKind::FaultInjected(FaultKind::LinkDown),
                                );
                                tracer.record(stats.cycles, EventKind::Retry);
                                tracer.record(stats.cycles, EventKind::Stall);
                                tracer.span_mark(stats.cycles, Phase::Retry);
                                tracer.counter("retries", 1);
                                tracer.sample("backoff.delay", delay);
                                progress = true;
                            }
                            Err(other) => return Err(other),
                        }
                    }
                    Instr::Recv(rd, src) => {
                        if src >= n {
                            return Err(MachineError::RouteDenied {
                                from: src,
                                to: i,
                                reason: format!("source {src} out of range"),
                            });
                        }
                        // Route feasibility is checked immediately so a
                        // missing DP-DP switch fails fast instead of
                        // deadlocking.
                        self.mailboxes
                            .topology()
                            .route(self.binding[src], self.binding[i], n)?;
                        self.cores[i].waiting = Some((rd, src));
                        stats.instructions += 1;
                        tracer.record(stats.cycles, EventKind::Issue);
                        progress = true;
                    }
                    _ => {
                        stats.instructions += 1;
                        tracer.record(stats.cycles, EventKind::Issue);
                        match self.cores[i].dp.execute_traced(
                            instr,
                            &mut self.mem,
                            stats.cycles,
                            tracer,
                        )? {
                            LocalOutcome::Next => self.cores[i].pc += 1,
                            LocalOutcome::Branch(t) => self.cores[i].pc = t,
                            LocalOutcome::Halt => self.cores[i].halted = true,
                        }
                        progress = true;
                    }
                }
            }
            if !progress {
                return Err(MachineError::Deadlock {
                    cycle: stats.cycles,
                });
            }
        }
        tracer.span_exit(stats.cycles);
        tracer.span_exit(stats.cycles);
        self.add_dp_counters(&base, &mut stats, tracer);
        let faults_injected =
            faults.as_ref().map_or(0, FaultPlan::injected) + self.mailboxes.faults_injected();
        Ok(RunOutcome {
            stats,
            faults_injected,
            retries,
            degraded: false,
        })
    }

    /// The event-driven scheduler: counter-identical to
    /// [`MultiMachine::execute_dense`] (same `Stats`, same per-class
    /// event totals, same errors at the same cycles) but it only visits
    /// cores that can act.  The non-halted cores are partitioned into
    /// three disjoint pools:
    ///
    /// * `active` — cores that may act this cycle, kept sorted
    ///   ascending so within-cycle effects replay in dense core order;
    /// * sleeping ([`Parking`]) — cores in retry backoff or in an
    ///   injected stall run, keyed by their deterministic wake cycle (a
    ///   min-heap on `next_attempt` or on the fetch cycle the run ends
    ///   at);
    /// * blocked ([`Parking`]) — cores parked on an empty receive, woken
    ///   by the next matching send.
    ///
    /// A parked core stalls once per cycle in the dense loop; here that
    /// accounting is deferred and settled in bulk with
    /// [`Tracer::record_many`] when the core resumes or the run ends.
    /// When `active` drains, the cycle counter time-warps straight to
    /// the earliest wake, so the dense loop's counters are reproduced
    /// exactly (see DESIGN.md §9 for the invariants).
    fn execute_event<T: Tracer>(
        &mut self,
        library: &[&Program],
        assignment: &[usize],
        mut faults: Option<FaultPlan>,
        tracer: &mut T,
    ) -> Result<RunOutcome, MachineError> {
        let law = self.start_run(assignment, faults.as_mut());
        let mut stats = Stats::default();
        let mut retries: u64 = 0;
        let n = self.cores.len();
        let mut retry = vec![RetryState::default(); n];
        let max_retries = faults
            .as_ref()
            .map_or(DEFAULT_MAX_RETRIES, FaultPlan::max_retries);
        let base: Vec<(u64, u64, u64)> = self.cores.iter().map(|c| c.dp.counters()).collect();
        let budget = RunBudget::resolve(self.cycle_limit, &self.cancel);
        let limit = budget.limit();
        let decoupled = !tracer.enabled() && self.interaction_free(library, assignment);

        // A decoupled run returns with every core halted, so the loop
        // below starts with all three pools empty and ends at once.
        let mut active: Vec<usize> = if decoupled {
            Vec::new()
        } else {
            (0..n).collect()
        };
        let mut parking = Parking::default();

        tracer.span_enter(0, Phase::Run);
        tracer.span_enter(0, Phase::Decode);
        tracer.span_exit(0);
        tracer.span_enter(0, Phase::Slice);
        if decoupled {
            self.execute_decoupled(
                library,
                faults.as_mut(),
                law.as_deref(),
                budget,
                &mut stats,
                tracer,
            )?;
        }
        loop {
            if active.is_empty() && parking.is_empty() {
                break; // every core halted
            }
            if self.cancel.flag_raised() {
                parking.settle_through(stats.cycles, &mut stats, faults.as_mut(), tracer);
                return Err(flag_trip(stats.cycles, stats, tracer));
            }
            // The next cycle where the dense loop would do real work:
            // the very next one while anything is runnable, otherwise
            // the earliest wake.
            let next = if let Some(wake) = parking.next_wake() {
                if active.is_empty() {
                    wake
                } else {
                    stats.cycles + 1
                }
            } else if active.is_empty() {
                // Only blocked receivers remain.  Dense stalls them once
                // per cycle with no progress: watchdog if the budget is
                // already spent, deadlock on the very next cycle else.
                if stats.cycles >= limit {
                    parking.settle_through(limit, &mut stats, faults.as_mut(), tracer);
                    return Err(budget.trip(stats.cycles, stats, tracer));
                }
                let cycle = stats.cycles + 1;
                if let Some(plan) = faults.as_mut() {
                    plan.flip_through(cycle, &mut self.mem, tracer);
                }
                parking.settle_through(cycle, &mut stats, faults.as_mut(), tracer);
                return Err(MachineError::Deadlock { cycle });
            } else {
                stats.cycles + 1
            };
            if next > limit {
                // Dense burns the rest of the budget stalling the
                // sleepers and blocked receivers, then trips the
                // watchdog.
                if let Some(plan) = faults.as_mut() {
                    plan.flip_through(limit, &mut self.mem, tracer);
                }
                parking.settle_through(limit, &mut stats, faults.as_mut(), tracer);
                stats.cycles = limit;
                return Err(budget.trip(limit, stats, tracer));
            }
            if next - stats.cycles > 1 {
                // The warped-over cycles are their own leaf span, so the
                // Slice/Warp alternation still tiles [0, cycles] exactly.
                tracer.span_exit(stats.cycles);
                tracer.span_enter(stats.cycles, Phase::Warp);
                tracer.span_exit(next - 1);
                tracer.span_enter(next - 1, Phase::Slice);
            }
            stats.cycles = next;
            self.mailboxes.set_cycle(next);
            // The flips due on the warped-over cycles land now: no core
            // touched memory on them.
            if let Some(plan) = faults.as_mut() {
                plan.flip_through(next, &mut self.mem, tracer);
            }
            parking.wake(next, &mut active, &mut stats, faults.as_mut(), tracer);
            // Cores still sleeping stall this cycle (dense `!ready`, or
            // a stall run), which also counts as forward progress there.
            let mut progress = parking.sleepers() > 0;
            let cycle = stats.cycles;
            let mut idx = 0;
            while idx < active.len() {
                let i = active[idx];
                // A blocked receive retries before fetching anything new.
                if let Some((rd, src)) = self.cores[i].waiting {
                    let lane = self.binding[i];
                    let from = self.binding[src];
                    match self.mailboxes.recv(lane, from) {
                        Ok(Some(v)) => {
                            self.cores[i].dp.set_reg(rd, v);
                            self.cores[i].waiting = None;
                            self.cores[i].pc += 1;
                            stats.messages += 1;
                            tracer.record(cycle, EventKind::Message { from, to: lane });
                            tracer.record(cycle, EventKind::CrossbarTraversal);
                            tracer.span_mark(cycle, Phase::Delivery);
                            progress = true;
                            idx += 1;
                        }
                        Ok(None) => {
                            // Park until a matching send; this cycle's
                            // stall is charged live, later ones lazily.
                            stats.stalls += 1;
                            tracer.record(cycle, EventKind::Stall);
                            active.remove(idx);
                            parking.blocked.push(Parked {
                                core: i,
                                since: cycle + 1,
                                faulted: false,
                            });
                        }
                        Err(e) => {
                            parking.settle_on_error(i, cycle, &mut stats, faults.as_mut(), tracer);
                            return Err(e);
                        }
                    }
                    continue;
                }
                // Same fetch stage as the dense loop: the active set holds
                // exactly the cores dense would walk to this point.  The
                // run's first cycle is charged live; a longer run puts
                // the core to sleep until the cycle it fetches on.
                if let (Some(law), Some(plan)) = (&law, faults.as_mut()) {
                    let at = self.cores[i].stall.fetch_at(law, cycle, limit);
                    if at > cycle {
                        plan.charge_stalls(1);
                        stats.stalls += 1;
                        tracer.record(cycle, EventKind::FaultInjected(FaultKind::Stall));
                        tracer.record(cycle, EventKind::Stall);
                        progress = true;
                        if at > cycle + 1 {
                            active.remove(idx);
                            parking.sleep(
                                at,
                                Parked {
                                    core: i,
                                    since: cycle + 1,
                                    faulted: true,
                                },
                            );
                        } else {
                            idx += 1;
                        }
                        continue;
                    }
                }
                let program = &library[self.cores[i].program];
                let Some(instr) = program.fetch(self.cores[i].pc) else {
                    self.cores[i].halted = true;
                    progress = true;
                    active.remove(idx);
                    continue;
                };
                match instr {
                    Instr::GetLane(..) => {
                        parking.settle_on_error(i, cycle, &mut stats, faults.as_mut(), tracer);
                        return Err(MachineError::unsupported(
                            self.subtype.class_name(),
                            "getlane is a lockstep-SIMD exchange; independent cores \
                             communicate with send/recv",
                        ));
                    }
                    Instr::Send(dest, rs) => {
                        if dest >= n {
                            parking.settle_on_error(i, cycle, &mut stats, faults.as_mut(), tracer);
                            return Err(MachineError::RouteDenied {
                                from: i,
                                to: dest,
                                reason: format!("destination {dest} out of range"),
                            });
                        }
                        let value = self.cores[i].dp.reg(rs);
                        let from = self.binding[i];
                        let to = self.binding[dest];
                        match self.mailboxes.send(from, to, value) {
                            Ok(()) => {
                                retry[i] = RetryState::default();
                                self.cores[i].pc += 1;
                                stats.instructions += 1;
                                tracer.record(cycle, EventKind::Issue);
                                progress = true;
                                // Wake receivers parked on this channel,
                                // settling the stalls dense charged them
                                // while parked.  Even when the plan
                                // dropped the message this is right: the
                                // woken core re-checks, stalls once live
                                // and parks again — exactly dense.
                                let mut b = 0;
                                while b < parking.blocked.len() {
                                    let Parked { core: w, since, .. } = parking.blocked[b];
                                    let listening = self.cores[w]
                                        .waiting
                                        .is_some_and(|(_, wsrc)| self.binding[wsrc] == from)
                                        && self.binding[w] == to;
                                    if !listening {
                                        b += 1;
                                        continue;
                                    }
                                    parking.blocked.swap_remove(b);
                                    if since <= cycle {
                                        // Cores before the sender also
                                        // stalled earlier this cycle.
                                        let owed = (cycle - since) + u64::from(w < i);
                                        if owed > 0 {
                                            stats.stalls += owed;
                                            tracer.record_many(cycle, EventKind::Stall, owed);
                                        }
                                    }
                                    let pos = active.partition_point(|&c| c < w);
                                    active.insert(pos, w);
                                    if pos <= idx {
                                        // Inserted behind the scan head:
                                        // first re-checked next cycle,
                                        // as in the dense order.
                                        idx += 1;
                                    }
                                }
                                idx += 1;
                            }
                            Err(MachineError::LinkDown { from, to, .. }) => {
                                let delay = match retry[i].back_off(cycle, from, to, max_retries) {
                                    Ok(delay) => delay,
                                    Err(e) => {
                                        parking.settle_on_error(
                                            i,
                                            cycle,
                                            &mut stats,
                                            faults.as_mut(),
                                            tracer,
                                        );
                                        return Err(e);
                                    }
                                };
                                retries += 1;
                                stats.stalls += 1;
                                tracer.record(cycle, EventKind::FaultInjected(FaultKind::LinkDown));
                                tracer.record(cycle, EventKind::Retry);
                                tracer.record(cycle, EventKind::Stall);
                                tracer.span_mark(cycle, Phase::Retry);
                                tracer.counter("retries", 1);
                                tracer.sample("backoff.delay", delay);
                                progress = true;
                                if retry[i].next_attempt > cycle + 1 {
                                    // The deterministic wake cycle comes
                                    // straight from the backoff state —
                                    // never re-rolled.
                                    active.remove(idx);
                                    parking.sleep(
                                        retry[i].next_attempt,
                                        Parked {
                                            core: i,
                                            since: cycle + 1,
                                            faulted: false,
                                        },
                                    );
                                } else {
                                    idx += 1;
                                }
                            }
                            Err(other) => {
                                parking.settle_on_error(
                                    i,
                                    cycle,
                                    &mut stats,
                                    faults.as_mut(),
                                    tracer,
                                );
                                return Err(other);
                            }
                        }
                    }
                    Instr::Recv(rd, src) => {
                        if src >= n {
                            parking.settle_on_error(i, cycle, &mut stats, faults.as_mut(), tracer);
                            return Err(MachineError::RouteDenied {
                                from: src,
                                to: i,
                                reason: format!("source {src} out of range"),
                            });
                        }
                        // Route feasibility is checked immediately so a
                        // missing DP-DP switch fails fast instead of
                        // deadlocking.
                        if let Err(e) =
                            self.mailboxes
                                .topology()
                                .route(self.binding[src], self.binding[i], n)
                        {
                            parking.settle_on_error(i, cycle, &mut stats, faults.as_mut(), tracer);
                            return Err(e);
                        }
                        self.cores[i].waiting = Some((rd, src));
                        stats.instructions += 1;
                        tracer.record(cycle, EventKind::Issue);
                        progress = true;
                        idx += 1;
                    }
                    _ => {
                        stats.instructions += 1;
                        tracer.record(cycle, EventKind::Issue);
                        match self.cores[i]
                            .dp
                            .execute_traced(instr, &mut self.mem, cycle, tracer)
                        {
                            Ok(LocalOutcome::Next) => {
                                self.cores[i].pc += 1;
                                idx += 1;
                            }
                            Ok(LocalOutcome::Branch(t)) => {
                                self.cores[i].pc = t;
                                idx += 1;
                            }
                            Ok(LocalOutcome::Halt) => {
                                self.cores[i].halted = true;
                                active.remove(idx);
                            }
                            Err(e) => {
                                parking.settle_on_error(
                                    i,
                                    cycle,
                                    &mut stats,
                                    faults.as_mut(),
                                    tracer,
                                );
                                return Err(e);
                            }
                        }
                        progress = true;
                    }
                }
            }
            if !progress {
                // Just-parked cores carry `since == cycle + 1`: their
                // stall this cycle was already charged live.
                parking.settle_through(cycle, &mut stats, faults.as_mut(), tracer);
                return Err(MachineError::Deadlock { cycle });
            }
        }
        tracer.span_exit(stats.cycles);
        tracer.span_exit(stats.cycles);
        self.add_dp_counters(&base, &mut stats, tracer);
        let faults_injected =
            faults.as_ref().map_or(0, FaultPlan::injected) + self.mailboxes.faults_injected();
        Ok(RunOutcome {
            stats,
            faults_injected,
            retries,
            degraded: false,
        })
    }

    /// Can no core observe another during this run?  Then the cores may
    /// run one after another instead of interleaved cycle by cycle
    /// ([`MultiMachine::execute_decoupled`]).  That needs private banks,
    /// no `send`/`recv`/`getlane` in any assigned program (they are the
    /// only DP–DP interactions, and the only instructions that can stall
    /// on another core), and no lane driven by two cores that both touch
    /// memory (a rebound IP shares its lane's bank with the lane's own
    /// IP).  Stall runs come from each core's own stream, and bit flips
    /// cut the quanta, so no fault plan bars the decoupled path.
    fn interaction_free(&self, library: &[&Program], assignment: &[usize]) -> bool {
        if self.mem.topology() != DataTopology::PrivateBanks {
            return false;
        }
        let mut lane_used = vec![false; self.cores.len()];
        for (&prog, &lane) in assignment.iter().zip(&self.binding) {
            let instrs = library[prog].instrs();
            if instrs.iter().any(Instr::uses_dp_dp) {
                return false;
            }
            if instrs.iter().any(Instr::touches_memory)
                && std::mem::replace(&mut lane_used[lane], true)
            {
                return false;
            }
        }
        true
    }

    /// Temporal decoupling (DESIGN.md §9): advance the cores core by core
    /// through one quantum of cycles at a time, each with the tight
    /// [`DataProcessor::run_burst`] kernel, instead of visiting every
    /// core on every cycle.  Only called on interaction-free runs, where
    /// the result equals the dense loop: the same `Stats`, the same
    /// watchdog and deadline partial stats (every core stands at the
    /// quantum boundary when they are taken), the same fault counts, and
    /// the same error — the earliest `(cycle, core)`, because once a core
    /// fails at cycle `e` later cores only run through `e - 1`.  The
    /// cancellation flag is polled once per quantum.  A core's stall runs
    /// come from its own stream, so running it alone draws exactly the
    /// runs the dense loop draws; a run that crosses the quantum boundary
    /// stays with the stream.  A quantum ends the cycle before the next
    /// bit flip, which lands before any core acts on its cycle, as in
    /// the dense loop.  Architectural state after an error is
    /// unspecified: cores before the failing one may have run past its
    /// cycle.
    fn execute_decoupled<T: Tracer>(
        &mut self,
        library: &[&Program],
        mut faults: Option<&mut FaultPlan>,
        law: Option<&StallLaw>,
        budget: RunBudget,
        stats: &mut Stats,
        tracer: &mut T,
    ) -> Result<(), MachineError> {
        let limit = budget.limit();
        let mut running = self.cores.len();
        // The latest cycle on which a core halted or ran off its program.
        let mut last = 0u64;
        loop {
            if running == 0 {
                stats.cycles = last;
                return Ok(());
            }
            if self.cancel.flag_raised() {
                return Err(flag_trip(stats.cycles, *stats, tracer));
            }
            if stats.cycles >= limit {
                return Err(budget.trip(stats.cycles, *stats, tracer));
            }
            let start = stats.cycles;
            let next_flip = faults.as_deref_mut().map_or(u64::MAX, |plan| {
                plan.flip_through(start + 1, &mut self.mem, tracer);
                plan.next_flip()
            });
            let bound = limit.min(start.saturating_add(QUANTUM)).min(next_flip - 1);
            let mut horizon = bound;
            let mut error = None;
            for core in self.cores.iter_mut().filter(|c| !c.halted) {
                let mut clock = Stats {
                    cycles: start,
                    ..Stats::default()
                };
                let stalls = law.map(|law| Stalls {
                    law,
                    stream: &mut core.stall,
                    limit,
                });
                let end = core.dp.run_burst(
                    library[core.program],
                    &mut core.pc,
                    &mut self.mem,
                    &mut clock,
                    horizon,
                    stalls,
                    tracer,
                );
                stats.instructions += clock.instructions;
                stats.stalls += clock.stalls;
                // Every stall a burst charges is an injected one.
                if let Some(plan) = faults.as_deref_mut() {
                    plan.charge_stalls(clock.stalls);
                }
                match end {
                    Ok(BurstEnd::Bound) => continue,
                    Ok(BurstEnd::Halt) => last = last.max(clock.cycles),
                    // The dense loop spends a cycle finding the end.
                    Ok(BurstEnd::OffEnd) => last = last.max(clock.cycles + 1),
                    Ok(BurstEnd::Fabric) => {
                        unreachable!("interaction-free programs never reach the fabric")
                    }
                    Err(e) => {
                        // Later cores lose ties on this cycle: an earlier
                        // failure is the only one that can still win.
                        horizon = clock.cycles - 1;
                        error = Some(e);
                        continue;
                    }
                }
                core.halted = true;
                running -= 1;
            }
            if let Some(e) = error {
                return Err(e);
            }
            stats.cycles = bound;
        }
    }

    /// Fold every core's ALU and memory counters since `base` into
    /// `stats` (sampling them per DP when the tracer records).
    fn add_dp_counters<T: Tracer>(
        &self,
        base: &[(u64, u64, u64)],
        stats: &mut Stats,
        tracer: &mut T,
    ) {
        for (core, &(b_alu, b_mr, b_mw)) in self.cores.iter().zip(base) {
            let (alu, mr, mw) = core.dp.counters();
            stats.alu_ops += alu - b_alu;
            stats.mem_reads += mr - b_mr;
            stats.mem_writes += mw - b_mw;
            if tracer.enabled() {
                tracer.sample("dp.alu_ops", alu - b_alu);
                tracer.sample("dp.mem_ops", (mr - b_mr) + (mw - b_mw));
            }
        }
    }

    /// Run one program per core under a fault plan, degrading gracefully
    /// where the sub-type's switches allow it.
    ///
    /// Cores whose DP is marked failed in the plan sit out the main phase;
    /// their programs are then *remapped*: each failed core's IP is rebound
    /// (IP–DP crossbar required) to a healthy DP and its program replays
    /// there, with statistics accumulated sequentially.  The replayed work
    /// observes the substitute DP's lane identity, so its results land in
    /// the substitute lane's bank — degraded, but complete.  Without the
    /// IP–DP crossbar the machine reports
    /// [`MachineError::DegradationImpossible`]: the direct-switched classes
    /// of the paper's Table I cannot route around a dead DP.
    pub fn run_resilient(
        &mut self,
        programs: &[Program],
        plan: FaultPlan,
    ) -> Result<RunOutcome, MachineError> {
        self.run_resilient_traced(programs, plan, &mut NullTracer)
    }

    /// [`MultiMachine::run_resilient`] with observation hooks: the trace
    /// additionally records one `FaultInjected(DpFailed)` per failed DP
    /// and one `Degradation` event per replayed remap.
    pub fn run_resilient_traced<T: Tracer>(
        &mut self,
        programs: &[Program],
        mut plan: FaultPlan,
        tracer: &mut T,
    ) -> Result<RunOutcome, MachineError> {
        if programs.len() != self.cores.len() {
            return Err(MachineError::config(format!(
                "{} programs for {} cores",
                programs.len(),
                self.cores.len()
            )));
        }
        let n = self.cores.len();
        let identity: Vec<usize> = (0..n).collect();
        let failed: Vec<usize> = (0..n).filter(|&i| plan.dp_failed(i)).collect();
        if failed.is_empty() {
            let library: Vec<&Program> = programs.iter().collect();
            return self.execute_with(&library, &identity, Some(plan), tracer);
        }
        for _ in &failed {
            tracer.record(0, EventKind::FaultInjected(FaultKind::DpFailed));
        }
        if failed.len() == n {
            return Err(MachineError::DegradationImpossible {
                machine: self.subtype.class_name(),
                reason: "every data processor has failed".to_owned(),
            });
        }
        if !self.subtype.ip_dp_crossbar() {
            return Err(MachineError::DegradationImpossible {
                machine: self.subtype.class_name(),
                reason: "IP-DP is a direct switch: the IP of a failed DP cannot be \
                         rebound to a healthy one"
                    .to_owned(),
            });
        }
        let idle = Program::new(vec![Instr::Halt]).expect("halt program is valid");
        // Every phase's fork keeps the stall law built here.
        plan.stall_law();
        // One shared library for every phase — the n real programs plus
        // the idle program at index n; phases differ only in the
        // core→program assignment, so nothing is ever cloned per phase.
        let mut library: Vec<&Program> = programs.iter().collect();
        library.push(&idle);
        // Main phase: healthy cores run their own programs, failed ones
        // idle.
        let phase1: Vec<usize> = (0..n)
            .map(|i| if plan.dp_failed(i) { n } else { i })
            .collect();
        let mut outcome = self.execute_with(&library, &phase1, Some(plan.fork()), tracer)?;
        outcome.faults_injected += failed.len() as u64;
        // Replay phases: each failed core's program runs on a healthy DP.
        let spare = (0..n)
            .find(|&i| !plan.dp_failed(i))
            .expect("a healthy DP exists");
        for &f in &failed {
            self.rebind(f, spare)?;
            tracer.record(outcome.stats.cycles, EventKind::Degradation);
            tracer.span_mark(outcome.stats.cycles, Phase::Degrade);
            let phase: Vec<usize> = (0..n).map(|i| if i == f { f } else { n }).collect();
            let replay = self.execute_with(&library, &phase, Some(plan.fork()), tracer)?;
            outcome.stats = outcome.stats.accumulate_sequential(replay.stats);
            outcome.faults_injected += replay.faults_injected;
            outcome.retries += replay.retries;
        }
        outcome.degraded = true;
        Ok(outcome)
    }
}

/// A core the event scheduler parked.  The dense loop stalls it once
/// per cycle from `since` until it resumes; the event scheduler charges
/// those stalls in bulk when it resumes or the run ends first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Parked {
    core: usize,
    /// The first cycle the core stalls parked (the one after it parked).
    since: u64,
    /// Parked on an injected stall run: each stall is also a fault.
    faulted: bool,
}

impl Parked {
    /// Charge the stalls owed for the cycles `since..=through`.
    fn settle<T: Tracer>(
        &self,
        through: u64,
        stats: &mut Stats,
        faults: Option<&mut FaultPlan>,
        tracer: &mut T,
    ) {
        if through < self.since {
            return;
        }
        let owed = through - self.since + 1;
        stats.stalls += owed;
        tracer.record_many(through, EventKind::Stall, owed);
        if self.faulted {
            tracer.record_many(through, EventKind::FaultInjected(FaultKind::Stall), owed);
            if let Some(plan) = faults {
                plan.charge_stalls(owed);
            }
        }
    }
}

/// The event scheduler's parked cores: sleepers with a known wake cycle
/// (retry backoff, stall runs) and receivers blocked until a send.
#[derive(Debug, Default)]
struct Parking {
    sleeping: BinaryHeap<Reverse<(u64, Parked)>>,
    blocked: Vec<Parked>,
}

impl Parking {
    fn is_empty(&self) -> bool {
        self.sleeping.is_empty() && self.blocked.is_empty()
    }

    fn sleepers(&self) -> usize {
        self.sleeping.len()
    }

    /// The earliest wake cycle among the sleepers.
    fn next_wake(&self) -> Option<u64> {
        self.sleeping.peek().map(|&Reverse((wake, _))| wake)
    }

    /// Park `parked` until cycle `wake`.
    fn sleep(&mut self, wake: u64, parked: Parked) {
        self.sleeping.push(Reverse((wake, parked)));
    }

    /// Move the sleepers due by `cycle` back into `active` (kept sorted),
    /// charging the stalls they slept.
    fn wake<T: Tracer>(
        &mut self,
        cycle: u64,
        active: &mut Vec<usize>,
        stats: &mut Stats,
        mut faults: Option<&mut FaultPlan>,
        tracer: &mut T,
    ) {
        while let Some(&Reverse((wake, parked))) = self.sleeping.peek() {
            if wake > cycle {
                break;
            }
            self.sleeping.pop();
            parked.settle(wake - 1, stats, faults.as_deref_mut(), tracer);
            let pos = active.partition_point(|&c| c < parked.core);
            active.insert(pos, parked.core);
        }
    }

    /// Charge every parked core's stalls through `through`.
    fn settle_through<T: Tracer>(
        &self,
        through: u64,
        stats: &mut Stats,
        mut faults: Option<&mut FaultPlan>,
        tracer: &mut T,
    ) {
        let sleepers = self.sleeping.iter().map(|Reverse((_, parked))| parked);
        for parked in self.blocked.iter().chain(sleepers) {
            parked.settle(through, stats, faults.as_deref_mut(), tracer);
        }
    }

    /// [`Parking::settle_through`] for an error raised by core `err_core`
    /// at `cycle`: dense visits cores in ascending order, so parked cores
    /// before the erring one have already stalled this cycle while later
    /// ones were never reached.
    fn settle_on_error<T: Tracer>(
        &self,
        err_core: usize,
        cycle: u64,
        stats: &mut Stats,
        mut faults: Option<&mut FaultPlan>,
        tracer: &mut T,
    ) {
        let sleepers = self.sleeping.iter().map(|Reverse((_, parked))| parked);
        for parked in self.blocked.iter().chain(sleepers) {
            let through = if parked.core < err_core {
                cycle
            } else {
                cycle - 1
            };
            parked.settle(through, stats, faults.as_deref_mut(), tracer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Assembler;

    fn store_const(addr: Word, value: Word) -> Program {
        let mut asm = Assembler::new();
        asm.movi(0, addr)
            .movi(1, value)
            .emit(Instr::Store(0, 1))
            .emit(Instr::Halt);
        asm.assemble().unwrap()
    }

    #[test]
    fn independent_cores_run_distinct_programs() {
        // IMP-I: n different programs at once — the capability IAP lacks.
        let mut m = MultiMachine::new(MultiSubtype::from_index(1).unwrap(), 4, 8);
        let programs: Vec<Program> = (0..4)
            .map(|i| store_const(0, (i as Word + 1) * 11))
            .collect();
        let stats = m.run(&programs).unwrap();
        for core in 0..4 {
            assert_eq!(m.memory().bank(core).contents()[0], (core as Word + 1) * 11);
        }
        assert!(stats.ipc() > 1.0);
    }

    #[test]
    fn simd_emulation_works_on_the_least_flexible_subtype() {
        // The morphing claim: IMP-I acts as an array processor.
        let mut m = MultiMachine::new(MultiSubtype::from_index(1).unwrap(), 4, 8);
        for lane in 0..4 {
            m.memory_mut().bank_mut(lane).load(&[lane as Word, 100, 0]);
        }
        let mut asm = Assembler::new();
        asm.movi(0, 0)
            .movi(1, 1)
            .emit(Instr::Load(2, 0))
            .emit(Instr::Load(3, 1))
            .emit(Instr::Add(4, 2, 3))
            .movi(5, 2)
            .emit(Instr::Store(5, 4))
            .emit(Instr::Halt);
        let prog = asm.assemble().unwrap();
        m.run_simd(&prog).unwrap();
        for lane in 0..4 {
            assert_eq!(m.memory().bank(lane).contents()[2], lane as Word + 100);
        }
    }

    #[test]
    fn message_passing_requires_the_dp_dp_crossbar() {
        let mut send_recv: Vec<Program> = Vec::new();
        let mut asm = Assembler::new();
        asm.movi(0, 42).emit(Instr::Send(1, 0)).emit(Instr::Halt);
        send_recv.push(asm.assemble().unwrap());
        let mut asm = Assembler::new();
        asm.emit(Instr::Recv(5, 0)).emit(Instr::Halt);
        send_recv.push(asm.assemble().unwrap());

        // IMP-II (DP-DP crossbar): messages flow.
        let mut m = MultiMachine::new(MultiSubtype::from_index(2).unwrap(), 2, 4);
        let stats = m.run(&send_recv).unwrap();
        assert_eq!(m.core_reg(1, 5), 42);
        assert!(stats.messages >= 1);

        // IMP-I (no DP-DP): the send is a route error.
        let mut m = MultiMachine::new(MultiSubtype::from_index(1).unwrap(), 2, 4);
        assert!(matches!(
            m.run(&send_recv),
            Err(MachineError::RouteDenied { .. })
        ));
    }

    #[test]
    fn shared_memory_requires_the_dp_dm_crossbar() {
        // Producer writes global address 5 (bank 1 via crossbar); consumer
        // (core 1) reads its own bank — only possible when DP-DM is shared.
        let producer = store_const(5, 7);
        let mut asm = Assembler::new();
        asm.movi(0, 5).movi(2, 0);
        asm.label("spin").unwrap();
        asm.emit(Instr::Load(1, 0));
        asm.beq(1, 2, "spin"); // wait until the producer's value lands
        asm.emit(Instr::Halt);
        let consumer = asm.assemble().unwrap();

        // IMP-III (DP-DM crossbar, code 0b0010): works.
        let mut m = MultiMachine::new(MultiSubtype::from_index(3).unwrap(), 2, 4);
        m.run(&[producer.clone(), consumer.clone()]).unwrap();
        assert_eq!(m.core_reg(1, 1), 7);

        // IMP-I: core 0's address 5 overflows its 4-word private bank.
        let mut m = MultiMachine::new(MultiSubtype::from_index(1).unwrap(), 2, 4);
        assert!(matches!(
            m.run(&[producer, consumer]),
            Err(MachineError::MemoryOutOfBounds { .. })
        ));
    }

    #[test]
    fn shared_program_store_requires_ip_im_crossbar() {
        let lib = vec![store_const(0, 5)];
        // IMP-V (IP-IM crossbar, code 0b0100): both cores run program 0.
        let mut m = MultiMachine::new(MultiSubtype::from_index(5).unwrap(), 2, 4);
        m.run_shared(&lib, &[0, 0]).unwrap();
        assert_eq!(m.memory().bank(0).contents()[0], 5);
        assert_eq!(m.memory().bank(1).contents()[0], 5);

        // IMP-I: cross-assignment denied.
        let mut m = MultiMachine::new(MultiSubtype::from_index(1).unwrap(), 2, 4);
        assert!(matches!(
            m.run_shared(&lib, &[0, 0]),
            Err(MachineError::WorkloadUnsupported { .. })
        ));
    }

    #[test]
    fn rebinding_requires_ip_dp_crossbar() {
        // IMP-IX (IP-DP crossbar, code 0b1000).
        let mut m = MultiMachine::new(MultiSubtype::from_index(9).unwrap(), 2, 4);
        m.rebind(0, 1).unwrap();
        let prog = store_const(0, 9);
        let idle = Program::new(vec![Instr::Halt]).unwrap();
        m.run(&[prog.clone(), idle.clone()]).unwrap();
        // Core 0 now drives lane 1, so the write lands in bank 1.
        assert_eq!(m.memory().bank(1).contents()[0], 9);

        let mut m = MultiMachine::new(MultiSubtype::from_index(1).unwrap(), 2, 4);
        assert!(matches!(
            m.rebind(0, 1),
            Err(MachineError::WorkloadUnsupported { .. })
        ));
    }

    #[test]
    fn recv_without_sender_deadlocks() {
        let mut m = MultiMachine::new(MultiSubtype::from_index(2).unwrap(), 2, 4);
        let mut asm = Assembler::new();
        asm.emit(Instr::Recv(0, 1)).emit(Instr::Halt);
        let waiter = asm.assemble().unwrap();
        let idle = Program::new(vec![Instr::Halt]).unwrap();
        assert!(matches!(
            m.run(&[waiter, idle]),
            Err(MachineError::Deadlock { .. })
        ));
    }

    #[test]
    fn subtype_codes_round_trip() {
        for idx in 1..=16u8 {
            let s = MultiSubtype::from_index(idx).unwrap();
            assert_eq!(s.code(), idx - 1);
        }
        assert!(MultiSubtype::from_index(0).is_err());
        assert!(MultiSubtype::from_index(17).is_err());
        assert!(MultiSubtype::from_code(16).is_err());
        assert_eq!(
            MultiSubtype::from_index(14).unwrap().class_name(),
            "IMP-XIV"
        );
    }

    #[test]
    fn specs_classify_back_to_their_subtype() {
        use skilltax_taxonomy::classify;
        for code in 0..16u8 {
            let m = MultiMachine::new(MultiSubtype::from_code(code).unwrap(), 4, 4);
            let c = classify(&m.spec()).unwrap();
            assert_eq!(
                c.name().to_string(),
                m.subtype().class_name(),
                "code {code}"
            );
        }
    }

    #[test]
    fn resilient_run_degrades_with_ip_dp_crossbar() {
        use crate::fault::FaultPlan;
        // IMP-IX (code 0b1000): IP-DP crossbar, everything else direct.
        let mut m = MultiMachine::new(MultiSubtype::from_index(9).unwrap(), 3, 8);
        let programs: Vec<Program> = (0..3)
            .map(|i| store_const(0, (i as Word + 1) * 5))
            .collect();
        let outcome = m
            .run_resilient(&programs, FaultPlan::seeded(1).fail_dp(2))
            .unwrap();
        assert!(outcome.degraded);
        // Healthy lanes keep their results; lane 2's work replayed on the
        // spare (lane 0), overwriting its value — degraded but complete.
        assert_eq!(m.memory().bank(1).contents()[0], 10);
        assert_eq!(m.memory().bank(0).contents()[0], 15);
    }

    #[test]
    fn resilient_run_impossible_without_ip_dp_crossbar() {
        use crate::fault::FaultPlan;
        // IMP-I: all switches direct — the rigid end of the ordering.
        let mut m = MultiMachine::new(MultiSubtype::from_index(1).unwrap(), 3, 8);
        let programs: Vec<Program> = (0..3).map(|i| store_const(0, i as Word)).collect();
        assert!(matches!(
            m.run_resilient(&programs, FaultPlan::seeded(1).fail_dp(2)),
            Err(MachineError::DegradationImpossible { .. })
        ));
    }

    fn send_recv_pair() -> Vec<Program> {
        let mut programs = Vec::new();
        let mut asm = Assembler::new();
        asm.movi(0, 42).emit(Instr::Send(1, 0)).emit(Instr::Halt);
        programs.push(asm.assemble().unwrap());
        let mut asm = Assembler::new();
        asm.emit(Instr::Recv(5, 0)).emit(Instr::Halt);
        programs.push(asm.assemble().unwrap());
        programs
    }

    #[test]
    fn transient_link_outage_is_survived_by_backoff() {
        use crate::fault::{FaultPlan, LinkOutage};
        let mut m = MultiMachine::new(MultiSubtype::from_index(2).unwrap(), 2, 4);
        let plan = FaultPlan::seeded(0).fail_link(LinkOutage {
            from: 0,
            to: 1,
            from_cycle: 0,
            until_cycle: 4,
        });
        let outcome = m.run_resilient(&send_recv_pair(), plan).unwrap();
        assert_eq!(
            m.core_reg(1, 5),
            42,
            "the message got through after the outage"
        );
        assert!(outcome.retries >= 1, "the sender had to retry");
        assert!(outcome.faults_injected >= 1);
        assert!(!outcome.degraded);
    }

    #[test]
    fn permanent_link_outage_exhausts_retries() {
        use crate::fault::{FaultPlan, LinkOutage};
        let mut m = MultiMachine::new(MultiSubtype::from_index(2).unwrap(), 2, 4);
        let plan = FaultPlan::seeded(0)
            .fail_link(LinkOutage {
                from: 0,
                to: 1,
                from_cycle: 0,
                until_cycle: u64::MAX,
            })
            .with_max_retries(3);
        assert!(matches!(
            m.run_resilient(&send_recv_pair(), plan),
            Err(MachineError::RetryExhausted {
                from: 0,
                to: 1,
                attempts: 4
            })
        ));
    }

    #[test]
    fn adversarial_stalls_trip_the_watchdog_with_partial_stats() {
        use crate::fault::FaultPlan;
        let mut m =
            MultiMachine::new(MultiSubtype::from_index(1).unwrap(), 2, 4).with_cycle_limit(100);
        let programs: Vec<Program> = (0..2).map(|i| store_const(0, i as Word)).collect();
        match m.run_resilient(&programs, FaultPlan::seeded(5).stall_dps(1.0)) {
            Err(MachineError::WatchdogTimeout {
                limit: 100,
                partial,
            }) => {
                assert_eq!(partial.cycles, 100);
                assert!(
                    partial.stalls > 0,
                    "the stall storm shows up in partial stats"
                );
            }
            other => panic!("expected WatchdogTimeout, got {other:?}"),
        }
    }

    #[test]
    fn a_certain_stall_rate_injects_one_fault_per_charged_cycle() {
        use crate::fault::FaultPlan;
        use crate::telemetry::Telemetry;
        // Rate 1: no fetch ever issues, and every core-cycle up to the
        // watchdog is one charged stall and one injected fault — on the
        // dense loop, on the event scheduler and on the decoupled path.
        let programs: Vec<Program> = (0..3).map(|i| store_const(0, i as Word)).collect();
        for dense in [true, false] {
            let mut m = MultiMachine::new(MultiSubtype::from_index(1).unwrap(), 3, 4)
                .with_cycle_limit(100)
                .with_dense_reference(dense);
            let mut t = Telemetry::new();
            let plan = FaultPlan::seeded(5).stall_dps(1.0);
            let partial = match m.run_resilient_traced(&programs, plan.clone(), &mut t) {
                Err(MachineError::WatchdogTimeout { partial, .. }) => partial,
                other => panic!("expected WatchdogTimeout, got {other:?}"),
            };
            assert_eq!((partial.cycles, partial.stalls), (100, 300));
            assert_eq!(partial.instructions, 0);
            let faults = t.trace.class_counts();
            let count = |label: &str| faults.iter().find(|(l, _)| l == label).unwrap().1;
            assert_eq!(count("fault"), partial.stalls, "dense {dense}");
            assert_eq!(count("stall"), partial.stalls, "dense {dense}");
            let untraced = m.run_resilient(&programs, plan);
            assert_eq!(
                untraced,
                Err(MachineError::WatchdogTimeout {
                    limit: 100,
                    partial
                })
            );
        }
    }

    #[test]
    fn a_memory_without_words_takes_no_bit_flips() {
        use crate::array::{ArrayMachine, ArraySubtype};
        use crate::fault::FaultPlan;
        // Zero-word banks leave a flip no site: a certain flip rate draws
        // and counts nothing, on every scheduler and on the array.
        let nops = Program::new(vec![Instr::Nop, Instr::Nop, Instr::Halt]).unwrap();
        let plan = FaultPlan::seeded(1).flip_memory_bits(1.0);
        for dense in [true, false] {
            let mut m = MultiMachine::new(MultiSubtype::from_index(1).unwrap(), 2, 0)
                .with_dense_reference(dense);
            let outcome = m.run_resilient(&[nops.clone(), nops.clone()], plan.clone());
            assert_eq!(outcome.unwrap().faults_injected, 0, "dense {dense}");
        }
        let mut a = ArrayMachine::new(ArraySubtype::I, 2, 0);
        assert_eq!(a.run_resilient(&nops, plan).unwrap().faults_injected, 0);
    }

    #[test]
    fn getlane_rejected_on_mimd() {
        let mut m = MultiMachine::new(MultiSubtype::from_index(16).unwrap(), 2, 4);
        let prog = Program::new(vec![Instr::GetLane(0, 1, 2), Instr::Halt]).unwrap();
        let progs = vec![prog, Program::new(vec![Instr::Halt]).unwrap()];
        assert!(matches!(
            m.run(&progs),
            Err(MachineError::WorkloadUnsupported { .. })
        ));
    }
}
