//! The SIMD array machine (IAP-I..IV): one instruction processor
//! broadcasting to `n` data processors.
//!
//! The four sub-types differ exactly as Table I says:
//!
//! | Sub-type | DP–DM | DP–DP |
//! |----------|-------|-------|
//! | IAP-I    | private banks (`n-n`) | none |
//! | IAP-II   | private banks (`n-n`) | crossbar (`nxn`) |
//! | IAP-III  | shared crossbar (`nxn`) | none |
//! | IAP-IV   | shared crossbar (`nxn`) | crossbar (`nxn`) |
//!
//! A lane-exchange instruction (`getlane`) only works where the DP–DP
//! relation has a switch; cross-bank addressing only where DP–DM is a
//! crossbar.  Those are the concrete flexibility differences the paper's
//! scoring abstracts into "+1 per `x`".

use skilltax_model::{ArchSpec, Count, Link, Relation};

use crate::cancel::{flag_trip, CancelToken, RunBudget};
use crate::dp::{broadcast, DataProcessor, LocalOutcome, QUANTUM};
use crate::error::MachineError;
use crate::exec::Stats;
use crate::fault::{FaultPlan, RunOutcome, StallRuns};
use crate::interconnect::FabricTopology;
use crate::isa::{Instr, Word};
use crate::mem::{BankedMemory, DataTopology};
use crate::profile::Phase;
use crate::program::Program;
use crate::telemetry::{EventKind, NullTracer, Tracer};
use crate::uniprocessor::DEFAULT_CYCLE_LIMIT;

/// The four array sub-types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArraySubtype {
    /// Private banks, no lane exchange.
    I,
    /// Private banks, crossbar lane exchange.
    II,
    /// Shared memory crossbar, no lane exchange.
    III,
    /// Shared memory crossbar and crossbar lane exchange.
    IV,
}

impl ArraySubtype {
    /// All four sub-types.
    pub const ALL: [ArraySubtype; 4] = [
        ArraySubtype::I,
        ArraySubtype::II,
        ArraySubtype::III,
        ArraySubtype::IV,
    ];

    /// DP–DM topology of this sub-type.
    pub fn data_topology(&self) -> DataTopology {
        match self {
            ArraySubtype::I | ArraySubtype::II => DataTopology::PrivateBanks,
            ArraySubtype::III | ArraySubtype::IV => DataTopology::SharedCrossbar,
        }
    }

    /// DP–DP fabric of this sub-type.
    pub fn lane_fabric(&self) -> FabricTopology {
        match self {
            ArraySubtype::I | ArraySubtype::III => FabricTopology::None,
            ArraySubtype::II | ArraySubtype::IV => FabricTopology::Crossbar,
        }
    }

    /// The taxonomy name (`IAP-I`..`IAP-IV`).
    pub fn class_name(&self) -> &'static str {
        match self {
            ArraySubtype::I => "IAP-I",
            ArraySubtype::II => "IAP-II",
            ArraySubtype::III => "IAP-III",
            ArraySubtype::IV => "IAP-IV",
        }
    }
}

/// A SIMD array machine.
#[derive(Debug)]
pub struct ArrayMachine {
    subtype: ArraySubtype,
    lanes: Vec<DataProcessor>,
    mem: BankedMemory,
    cycle_limit: u64,
    dense_reference: bool,
    cancel: CancelToken,
    /// Per-run scratch, kept across runs so a reset machine allocates
    /// nothing: the lane-alive mask, the live lanes in ascending order,
    /// each lane's operation counters at the start of the run, and the
    /// pre-instruction registers a `getlane` reads.
    alive: Vec<bool>,
    live: Vec<usize>,
    base: Vec<(u64, u64, u64)>,
    snapshot: Vec<Word>,
}

impl ArrayMachine {
    /// An array of `lanes` DPs with `bank_words` words per memory bank.
    pub fn new(subtype: ArraySubtype, lanes: usize, bank_words: usize) -> ArrayMachine {
        assert!(lanes >= 1, "an array machine needs at least one lane");
        ArrayMachine {
            subtype,
            lanes: (0..lanes).map(DataProcessor::new).collect(),
            mem: BankedMemory::new(lanes, bank_words, subtype.data_topology()),
            cycle_limit: DEFAULT_CYCLE_LIMIT,
            dense_reference: false,
            cancel: CancelToken::new(),
            alive: Vec::new(),
            live: Vec::new(),
            base: Vec::new(),
            snapshot: Vec::new(),
        }
    }

    /// Override the livelock guard.
    pub fn with_cycle_limit(mut self, limit: u64) -> ArrayMachine {
        self.cycle_limit = limit;
        self
    }

    /// Install a cancellation token for subsequent runs (deadline cycles
    /// stop deterministically; the flag stops promptly).
    pub fn with_cancel(mut self, cancel: CancelToken) -> ArrayMachine {
        self.cancel = cancel;
        self
    }

    /// Step the broadcast lane by lane through
    /// [`DataProcessor::execute_traced`] over the alive mask, and stall
    /// runs a cycle at a time (the dense reference), instead of the
    /// opcode-hoisted kernel over the precomputed live-lane set (see
    /// DESIGN.md §9); the two take the same stall runs and bit flips and
    /// are counter-identical.
    pub fn with_dense_reference(mut self, dense: bool) -> ArrayMachine {
        self.dense_reference = dense;
        self
    }

    /// Scrub architectural state — every lane's registers and counters,
    /// every memory word — without an allocation, so one machine can run
    /// a study's seeds back to back as if each had a fresh machine.  The
    /// cycle limit, cancellation token, scheduler choice and the run
    /// scratch's capacity stay.
    pub fn reset(&mut self) {
        self.lanes.iter_mut().for_each(DataProcessor::reset);
        self.mem.clear();
    }

    /// The sub-type.
    pub fn subtype(&self) -> ArraySubtype {
        self.subtype
    }

    /// Number of lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The banked memory (workload setup / result checks).
    pub fn memory_mut(&mut self) -> &mut BankedMemory {
        &mut self.mem
    }

    /// The banked memory.
    pub fn memory(&self) -> &BankedMemory {
        &self.mem
    }

    /// A lane's register, after a run.
    pub fn lane_reg(&self, lane: usize, r: u8) -> Word {
        self.lanes[lane].reg(r)
    }

    /// The structural [`ArchSpec`] of this machine — classifying it yields
    /// the sub-type's taxonomy class (tested in the integration suite).
    pub fn spec(&self) -> ArchSpec {
        let n = self.lanes.len() as u32;
        let dp_dm = match self.subtype.data_topology() {
            DataTopology::PrivateBanks => Link::direct_between(n.max(2), n.max(2)),
            DataTopology::SharedCrossbar => Link::crossbar_between(n.max(2), n.max(2)),
        };
        let dp_dp = match self.subtype.lane_fabric() {
            FabricTopology::None => Link::None,
            _ => Link::crossbar_between(n.max(2), n.max(2)),
        };
        ArchSpec::builder(format!("array-{}x{}", self.subtype.class_name(), n))
            .ips(Count::one())
            .dps(Count::fixed(n.max(2)))
            .link(Relation::IpDp, Link::direct_between(1, n.max(2)))
            .link(Relation::IpIm, Link::direct_between(1, 1))
            .link(Relation::DpDm, dp_dm)
            .link(Relation::DpDp, dp_dp)
            .build_unchecked()
    }

    /// Run one SIMD program: the single IP fetches each instruction and
    /// broadcasts it to every lane.  Control flow is resolved on lane 0
    /// (the canonical SIMD "scalar unit" view).
    pub fn run(&mut self, program: &Program) -> Result<Stats, MachineError> {
        self.run_traced(program, &mut NullTracer)
    }

    /// [`ArrayMachine::run`] with observation hooks; with a [`NullTracer`]
    /// this monomorphises back to the plain broadcast loop.
    pub fn run_traced<T: Tracer>(
        &mut self,
        program: &Program,
        tracer: &mut T,
    ) -> Result<Stats, MachineError> {
        self.alive.clear();
        self.alive.resize(self.lanes.len(), true);
        self.run_masked(program, None, tracer)
            .map(|outcome| outcome.stats)
    }

    /// The lockstep kernel: the broadcast loop over the lanes that
    /// `self.alive` marks, with an optional fault plan.  Control flow
    /// follows the first alive lane.  Under a plan, broadcast `k` first
    /// waits out the stall run [`StallRuns::run`] draws for it — one
    /// stalled cycle holds back the whole broadcast — and the bit flips
    /// due by a cycle land before the broadcast issues on it.  Exceeding
    /// the cycle budget returns [`MachineError::WatchdogTimeout`] with
    /// partial statistics; the cancellation flag is polled once per
    /// broadcast and at least every [`QUANTUM`] cycles of a stall run.
    fn run_masked<T: Tracer>(
        &mut self,
        program: &Program,
        mut faults: Option<&mut FaultPlan>,
        tracer: &mut T,
    ) -> Result<RunOutcome, MachineError> {
        let mut stats = Stats::default();
        let mut pc = 0usize;
        let n = self.lanes.len();
        // The live-lane set is static for the whole run, so the kernel
        // iterates it directly instead of re-testing `alive` per lane.
        self.live.clear();
        self.live.extend((0..n).filter(|&l| self.alive[l]));
        let Some(&ctrl) = self.live.first() else {
            return Err(MachineError::DegradationImpossible {
                machine: format!("{} array machine", self.subtype.class_name()),
                reason: "every lane has failed".to_owned(),
            });
        };
        let live = self.live.len() as u64;
        self.base.clear();
        self.base
            .extend(self.lanes.iter().map(DataProcessor::counters));
        let runs = faults.as_deref_mut().map_or(StallRuns::Never, |plan| {
            plan.start_flips(&self.mem);
            plan.stall_runs(self.live.len())
        });
        // Stall cycles run one by one only for a trace event on each, or
        // in the dense reference; otherwise a run is one addition and
        // the flips inside it land at its end.
        let per_cycle = tracer.enabled() || self.dense_reference;
        let budget = RunBudget::resolve(self.cycle_limit, &self.cancel);
        let limit = budget.limit();
        tracer.span_enter(0, Phase::Run);
        tracer.span_enter(0, Phase::Decode);
        tracer.span_exit(0);
        tracer.span_enter(0, Phase::Lanes);
        loop {
            if self.cancel.flag_raised() {
                return Err(flag_trip(stats.cycles, stats, tracer));
            }
            if stats.cycles >= limit {
                return Err(budget.trip(stats.cycles, stats, tracer));
            }
            let Some(instr) = program.fetch(pc) else {
                break;
            };
            if let Some(plan) = faults.as_deref_mut() {
                // Every cycle so far either stalled or issued a broadcast.
                let mut run = runs.run(stats.cycles - stats.stalls);
                while run > 0 {
                    let chunk = run.min(QUANTUM).min(limit - stats.cycles);
                    if per_cycle {
                        for _ in 0..chunk {
                            stats.cycles += 1;
                            plan.flip_through(stats.cycles, &mut self.mem, tracer);
                            tracer.record(stats.cycles, EventKind::Stall);
                        }
                    } else {
                        stats.cycles += chunk;
                        plan.flip_through(stats.cycles, &mut self.mem, tracer);
                    }
                    stats.stalls += chunk;
                    plan.charge_stalls(chunk);
                    run -= chunk;
                    if self.cancel.flag_raised() {
                        return Err(flag_trip(stats.cycles, stats, tracer));
                    }
                    if stats.cycles >= limit {
                        return Err(budget.trip(stats.cycles, stats, tracer));
                    }
                }
                stats.cycles += 1;
                plan.flip_through(stats.cycles, &mut self.mem, tracer);
            } else {
                stats.cycles += 1;
            }
            match instr {
                Instr::Send(..) | Instr::Recv(..) => {
                    return Err(MachineError::unsupported(
                        format!("{} array machine", self.subtype.class_name()),
                        "array lanes have no independent control to exchange \
                         asynchronous messages; use getlane",
                    ));
                }
                Instr::GetLane(rd, lane_reg, rs) => {
                    let fabric = self.subtype.lane_fabric();
                    // SIMD semantics: every lane reads the *pre-instruction*
                    // value of its source lane's register.
                    self.snapshot.clear();
                    self.snapshot.extend(self.lanes.iter().map(|l| l.reg(rs)));
                    for &lane in &self.live {
                        let src = self.lanes[lane].reg(lane_reg);
                        if src < 0 || src as usize >= n {
                            return Err(MachineError::RouteDenied {
                                from: lane,
                                to: src.max(0) as usize,
                                reason: format!("source lane {src} out of range"),
                            });
                        }
                        let src = src as usize;
                        if src != lane {
                            fabric.route(src, lane, n)?;
                            stats.messages += 1;
                            tracer.record(
                                stats.cycles,
                                EventKind::Message {
                                    from: src,
                                    to: lane,
                                },
                            );
                            tracer.record(stats.cycles, EventKind::CrossbarTraversal);
                        }
                        self.lanes[lane].set_reg(rd, self.snapshot[src]);
                    }
                    stats.instructions += live;
                    tracer.record_many(stats.cycles, EventKind::Issue, live);
                    pc += 1;
                }
                _ if instr.is_control() => {
                    // The IP resolves control flow against the control lane.
                    stats.instructions += 1;
                    tracer.record(stats.cycles, EventKind::Issue);
                    match self.lanes[ctrl].execute_traced(
                        instr,
                        &mut self.mem,
                        stats.cycles,
                        tracer,
                    )? {
                        LocalOutcome::Next => pc += 1,
                        LocalOutcome::Branch(t) => pc = t,
                        LocalOutcome::Halt => break,
                    }
                }
                _ => {
                    if self.dense_reference {
                        for lane in 0..n {
                            if self.alive[lane] {
                                self.lanes[lane].execute_traced(
                                    instr,
                                    &mut self.mem,
                                    stats.cycles,
                                    tracer,
                                )?;
                            }
                        }
                    } else {
                        broadcast(
                            &mut self.lanes,
                            &self.live,
                            instr,
                            &mut self.mem,
                            stats.cycles,
                            tracer,
                        )?;
                    }
                    stats.instructions += live;
                    tracer.record_many(stats.cycles, EventKind::Issue, live);
                    pc += 1;
                }
            }
        }
        tracer.span_exit(stats.cycles);
        tracer.span_exit(stats.cycles);
        for (lane, dp) in self.lanes.iter().enumerate() {
            let (alu, mr, mw) = dp.counters();
            let (b_alu, b_mr, b_mw) = self.base[lane];
            stats.alu_ops += alu - b_alu;
            stats.mem_reads += mr - b_mr;
            stats.mem_writes += mw - b_mw;
            if tracer.enabled() && self.alive[lane] {
                tracer.sample("dp.alu_ops", alu - b_alu);
                tracer.sample("dp.mem_ops", (mr - b_mr) + (mw - b_mw));
            }
        }
        let faults_injected = faults.as_ref().map_or(0, |p| p.injected());
        Ok(RunOutcome {
            stats,
            faults_injected,
            retries: 0,
            degraded: false,
        })
    }

    /// Run one SIMD program under a fault plan, degrading gracefully where
    /// the sub-type's switches allow it.
    ///
    /// Lanes whose DP is marked failed sit out the broadcast.  Their work
    /// is then *replayed*: a substitute DP adopts the failed lane's
    /// identity and re-executes the program sequentially — but only when
    /// DP–DM is a shared crossbar (IAP-III/IV), because the replay must
    /// reach the failed lane's data through the global address space.  On
    /// private-bank sub-types (IAP-I/II) the dead lane's bank is wired to
    /// its dead DP alone, so the machine reports
    /// [`MachineError::DegradationImpossible`].
    pub fn run_resilient(
        &mut self,
        program: &Program,
        mut plan: FaultPlan,
    ) -> Result<RunOutcome, MachineError> {
        let n = self.lanes.len();
        self.alive.clear();
        self.alive.extend((0..n).map(|i| !plan.dp_failed(i)));
        let failed = self.alive.iter().filter(|&&a| !a).count();
        if failed > 0 && self.subtype.data_topology() == DataTopology::PrivateBanks {
            return Err(MachineError::DegradationImpossible {
                machine: format!("{} array machine", self.subtype.class_name()),
                reason: "DP-DM is a direct switch: a failed lane's private bank is \
                         unreachable from any substitute DP"
                    .to_owned(),
            });
        }
        let mut fork = plan.fork();
        let mut outcome = self.run_masked(program, Some(&mut fork), &mut NullTracer)?;
        outcome.faults_injected += failed as u64;
        if failed == 0 {
            return Ok(outcome);
        }
        for f in 0..n {
            if !self.alive[f] {
                let replay = self.replay_lane(program, f)?;
                outcome.stats = outcome.stats.accumulate_sequential(replay);
            }
        }
        outcome.degraded = true;
        Ok(outcome)
    }

    /// Sequential degraded replay: a fresh substitute DP adopts lane `f`'s
    /// identity and runs the whole program against shared memory.
    fn replay_lane(&mut self, program: &Program, f: usize) -> Result<Stats, MachineError> {
        let mut dp = DataProcessor::new(f);
        let mut stats = Stats::default();
        let mut pc = 0usize;
        let budget = RunBudget::resolve(self.cycle_limit, &self.cancel);
        loop {
            if self.cancel.flag_raised() {
                return Err(flag_trip(stats.cycles, stats, &mut NullTracer));
            }
            if stats.cycles >= budget.limit() {
                return Err(budget.trip(stats.cycles, stats, &mut NullTracer));
            }
            let Some(instr) = program.fetch(pc) else {
                break;
            };
            stats.cycles += 1;
            match instr {
                Instr::Send(..) | Instr::Recv(..) | Instr::GetLane(..) => {
                    return Err(MachineError::unsupported(
                        format!(
                            "{} array machine (degraded replay)",
                            self.subtype.class_name()
                        ),
                        "a degraded replay is lane-local; exchange instructions \
                         need the full lockstep array",
                    ));
                }
                _ => {
                    stats.instructions += 1;
                    match dp.execute_local(instr, &mut self.mem)? {
                        LocalOutcome::Next => pc += 1,
                        LocalOutcome::Branch(t) => pc = t,
                        LocalOutcome::Halt => break,
                    }
                }
            }
        }
        let (alu, mr, mw) = dp.counters();
        stats.alu_ops += alu;
        stats.mem_reads += mr;
        stats.mem_writes += mw;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Assembler;

    /// Element-wise c[i] = a[i] + b[i] with lane-private data:
    /// bank layout (per lane): [a, b, _] at addresses 0, 1, 2.
    fn vector_add_private() -> Program {
        let mut asm = Assembler::new();
        asm.movi(0, 0)
            .movi(1, 1)
            .movi(2, 2)
            .emit(Instr::Load(3, 0))
            .emit(Instr::Load(4, 1))
            .emit(Instr::Add(5, 3, 4))
            .emit(Instr::Store(2, 5))
            .emit(Instr::Halt);
        asm.assemble().unwrap()
    }

    #[test]
    fn simd_vector_add_runs_on_every_subtype() {
        for subtype in ArraySubtype::ALL {
            // For shared-crossbar subtypes the same bank-local layout works
            // when each lane's addresses are offset by lane * bank_size —
            // here we keep the private program and only assert sub-types
            // with private banks; shared ones get their own test below.
            if subtype.data_topology() != DataTopology::PrivateBanks {
                continue;
            }
            let mut m = ArrayMachine::new(subtype, 4, 4);
            for lane in 0..4 {
                m.memory_mut()
                    .bank_mut(lane)
                    .load(&[10 * lane as Word, 3, 0, 0]);
            }
            let stats = m.run(&vector_add_private()).unwrap();
            for lane in 0..4 {
                assert_eq!(m.memory().bank(lane).contents()[2], 10 * lane as Word + 3);
            }
            assert!(stats.ipc() > 1.0, "SIMD should beat scalar IPC");
        }
    }

    #[test]
    fn shared_memory_lets_lanes_gather_anywhere() {
        // IAP-III: every lane loads from bank 0 (global address 1).
        let mut m = ArrayMachine::new(ArraySubtype::III, 4, 4);
        m.memory_mut().bank_mut(0).load(&[0, 77, 0, 0]);
        let mut asm = Assembler::new();
        asm.movi(0, 1).emit(Instr::Load(1, 0)).emit(Instr::Halt);
        let prog = asm.assemble().unwrap();
        m.run(&prog).unwrap();
        for lane in 0..4 {
            assert_eq!(m.lane_reg(lane, 1), 77);
        }
    }

    #[test]
    fn private_banks_deny_cross_bank_access() {
        // IAP-I: lane addresses beyond its bank fail.
        let mut m = ArrayMachine::new(ArraySubtype::I, 4, 4);
        let mut asm = Assembler::new();
        asm.movi(0, 6).emit(Instr::Load(1, 0)).emit(Instr::Halt);
        let prog = asm.assemble().unwrap();
        assert!(matches!(
            m.run(&prog),
            Err(MachineError::MemoryOutOfBounds { .. })
        ));
    }

    /// Rotate each lane's r1 from its left neighbour via getlane.
    fn rotate_program(lanes: i64) -> Program {
        let mut asm = Assembler::new();
        asm.emit(Instr::LaneId(0))
            .movi(1, 100)
            .emit(Instr::Add(1, 1, 0)) // r1 = 100 + lane
            .movi(2, 1)
            .emit(Instr::Sub(3, 0, 2)) // r3 = lane - 1
            .movi(4, lanes)
            // wrap: if lane == 0 then r3 = lanes - 1
            .emit(Instr::MovI(5, 0));
        asm.bne(0, 5, "fetch");
        asm.emit(Instr::AddI(3, 4, -1));
        asm.label("fetch").unwrap();
        asm.emit(Instr::GetLane(6, 3, 1)).emit(Instr::Halt);
        asm.assemble().unwrap()
    }

    #[test]
    fn lane_exchange_works_with_dp_dp_crossbar() {
        let mut m = ArrayMachine::new(ArraySubtype::II, 4, 4);
        m.run(&rotate_program(4)).unwrap();
        // Control flow follows lane 0 (which takes the wrap branch), so
        // every lane reads from lane (lanes-1) on this SIMD machine — what
        // matters here is that the transfer itself is routable.
        for lane in 0..4 {
            assert_eq!(m.lane_reg(lane, 6), 103);
        }
    }

    #[test]
    fn lane_exchange_denied_without_dp_dp_switch() {
        // IAP-I: no DP-DP switch — the flexibility difference to IAP-II,
        // observed as a routing error rather than a table entry.
        let mut m = ArrayMachine::new(ArraySubtype::I, 4, 4);
        assert!(matches!(
            m.run(&rotate_program(4)),
            Err(MachineError::RouteDenied { .. })
        ));
    }

    #[test]
    fn async_messaging_is_not_an_array_capability() {
        let mut m = ArrayMachine::new(ArraySubtype::IV, 4, 4);
        let prog = Program::new(vec![Instr::Send(1, 0), Instr::Halt]).unwrap();
        assert!(matches!(
            m.run(&prog),
            Err(MachineError::WorkloadUnsupported { .. })
        ));
    }

    #[test]
    fn specs_classify_back_to_their_subtype() {
        use skilltax_taxonomy::classify;
        for subtype in ArraySubtype::ALL {
            let m = ArrayMachine::new(subtype, 8, 4);
            let c = classify(&m.spec()).unwrap();
            assert_eq!(c.name().to_string(), subtype.class_name());
        }
    }

    #[test]
    fn resilient_run_replays_the_failed_lane_on_shared_memory() {
        use crate::fault::FaultPlan;
        // IAP-III (shared crossbar): each lane writes 100 + lane to global
        // address lane (bank layout: 1 word per bank not needed — use
        // global addressing directly).
        let mut m = ArrayMachine::new(ArraySubtype::III, 4, 4);
        let mut asm = Assembler::new();
        asm.emit(Instr::LaneId(0))
            .movi(1, 100)
            .emit(Instr::Add(1, 1, 0))
            .emit(Instr::Store(0, 1)) // mem[lane] = 100 + lane
            .emit(Instr::Halt);
        let prog = asm.assemble().unwrap();
        let outcome = m
            .run_resilient(&prog, FaultPlan::seeded(0).fail_dp(2))
            .unwrap();
        assert!(outcome.degraded);
        assert!(outcome.faults_injected >= 1);
        // All four outputs present, including the replayed lane 2.
        for lane in 0..4 {
            assert_eq!(
                m.memory().bank(0).contents()[lane],
                100 + lane as Word,
                "lane {lane}"
            );
        }
        // The replay cost extra sequential cycles.
        let clean = ArrayMachine::new(ArraySubtype::III, 4, 4)
            .run(&prog)
            .unwrap();
        assert!(outcome.stats.cycles > clean.cycles);
    }

    #[test]
    fn resilient_run_impossible_on_private_banks() {
        use crate::fault::FaultPlan;
        let mut m = ArrayMachine::new(ArraySubtype::I, 4, 4);
        let err = m.run_resilient(&vector_add_private(), FaultPlan::seeded(0).fail_dp(2));
        match err {
            Err(MachineError::DegradationImpossible { machine, reason }) => {
                assert!(machine.contains("IAP-I"));
                assert!(reason.contains("private bank"));
            }
            other => panic!("expected DegradationImpossible, got {other:?}"),
        }
    }

    #[test]
    fn adversarial_stalls_trip_the_watchdog_with_partial_stats() {
        use crate::fault::FaultPlan;
        let mut m = ArrayMachine::new(ArraySubtype::I, 4, 4).with_cycle_limit(50);
        match m.run_resilient(&vector_add_private(), FaultPlan::seeded(9).stall_dps(1.0)) {
            Err(MachineError::WatchdogTimeout { limit: 50, partial }) => {
                assert_eq!(partial.cycles, 50);
                assert!(partial.stalls > 0);
            }
            other => panic!("expected WatchdogTimeout, got {other:?}"),
        }
    }

    #[test]
    fn reset_machine_replays_like_a_fresh_one() {
        use crate::fault::FaultPlan;
        // Each lane accumulates into its own word, so registers and
        // memory left by one run (bit-flips included) feed the next.
        let mut asm = Assembler::new();
        asm.emit(Instr::LaneId(0)).movi(3, 6);
        asm.label("loop").unwrap();
        asm.emit(Instr::Load(1, 0))
            .emit(Instr::Add(1, 1, 0))
            .emit(Instr::AddI(1, 1, 1))
            .emit(Instr::Store(0, 1))
            .emit(Instr::AddI(2, 2, 1));
        asm.blt(2, 3, "loop");
        asm.emit(Instr::Halt);
        let prog = asm.assemble().unwrap();
        let plan = |seed| FaultPlan::seeded(seed).stall_dps(0.1).flip_memory_bits(0.4);
        let snapshot = |m: &ArrayMachine| {
            let regs: Vec<Word> = (0..4)
                .flat_map(|l| (0..4).map(move |r| (l, r)))
                .map(|(l, r)| m.lane_reg(l, r))
                .collect();
            let mem: Vec<Word> = (0..4)
                .flat_map(|b| m.memory().bank(b).contents().to_vec())
                .collect();
            (regs, mem, m.memory().traffic())
        };
        let mut reused = ArrayMachine::new(ArraySubtype::III, 4, 8);
        reused.run_resilient(&prog, plan(1)).unwrap();
        let mut leaky = ArrayMachine::new(ArraySubtype::III, 4, 8);
        leaky.run_resilient(&prog, plan(1)).unwrap();
        let leaked = leaky.run_resilient(&prog, plan(2)).unwrap();
        reused.reset();
        let second = reused.run_resilient(&prog, plan(2)).unwrap();
        let mut fresh = ArrayMachine::new(ArraySubtype::III, 4, 8);
        let expected = fresh.run_resilient(&prog, plan(2)).unwrap();
        assert_eq!(second, expected);
        assert_eq!(snapshot(&reused), snapshot(&fresh));
        assert!(
            snapshot(&leaky) != snapshot(&fresh) || leaked != expected,
            "the kernel must observe state left by an earlier run"
        );
    }

    #[test]
    fn getlane_self_read_needs_no_fabric() {
        // Reading your own lane is always legal, even on IAP-I.
        let mut m = ArrayMachine::new(ArraySubtype::I, 2, 4);
        let mut asm = Assembler::new();
        asm.emit(Instr::LaneId(0))
            .movi(1, 55)
            .emit(Instr::GetLane(2, 0, 1))
            .emit(Instr::Halt);
        m.run(&asm.assemble().unwrap()).unwrap();
        assert_eq!(m.lane_reg(0, 2), 55);
        assert_eq!(m.lane_reg(1, 2), 55);
    }
}
