//! The data processor: a register file plus an ALU that executes the
//! non-fabric instructions against a banked memory.
//!
//! The local ISA's semantics are written once, in one `#[inline(always)]`
//! step that decodes and executes an instruction in a single `match`.
//! Three callers share it:
//!
//! * [`DataProcessor::run_burst`], the one interpreter loop over local
//!   instructions: the uni-processor runs on it alone, and the MIMD
//!   machine runs every core on it when the cores cannot observe each
//!   other (DESIGN.md §9, temporal decoupling);
//! * `broadcast`, the array's lockstep kernel: one instruction decoded
//!   once and executed on every live lane;
//! * [`DataProcessor::execute_local`] / [`DataProcessor::execute_traced`],
//!   one instruction at a time, for the dense, event, spatial, VLIW and
//!   replay loops that interleave processors cycle by cycle, and for the
//!   array's dense reference.
//!
//! Tracer events come from the step's arms, so traced and untraced runs
//! execute the same code and [`NullTracer`] compiles the events away.

use crate::error::MachineError;
use crate::exec::Stats;
use crate::fault::{StallLaw, StallStream};
use crate::isa::{Instr, Reg, Word, NUM_REGS};
use crate::mem::BankedMemory;
use crate::program::Program;
use crate::telemetry::{EventKind, FaultKind, NullTracer, Tracer};

/// Cycles a run loop hands [`DataProcessor::run_burst`] at a time.  The
/// cancellation flag is polled once per quantum, so it bounds how long a
/// raised flag can go unnoticed; every other outcome is independent of it.
pub(crate) const QUANTUM: u64 = 1024;

/// Why [`DataProcessor::run_burst`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BurstEnd {
    /// The cycle bound was reached; the processor can continue.
    Bound,
    /// A `Halt` executed (its cycle is charged).
    Halt,
    /// The program counter left the program; no cycle is charged.
    OffEnd,
    /// The next instruction uses the DP–DP fabric; no cycle is charged
    /// and the program counter still points at it.
    Fabric,
}

/// What the processor should do after executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalOutcome {
    /// Advance to the next instruction.
    Next,
    /// Jump to the given instruction index.
    Branch(usize),
    /// Stop.
    Halt,
}

/// Where control goes after one [`step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Next,
    Jump(usize),
    Halt,
    /// A fabric instruction: nothing executed, nothing charged.
    Fabric,
}

/// The operation counter an executed instruction bumps (each bump also
/// records the matching event on an enabled tracer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    None,
    Alu,
    Read,
    Write,
}

/// A processor's (ALU, memory read, memory write) operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    alu: u64,
    reads: u64,
    writes: u64,
}

/// Execute one local instruction: the only definition of the local ISA.
///
/// With `FETCHED` the instruction came from a validated [`Program`]
/// through the burst kernel: register indices are known to be in range
/// (they are masked rather than bounds-checked) and the step records the
/// instruction's `Issue` event itself, before its `AluOp` / `MemRead` /
/// `MemWrite`.  Without it, indexing is checked (an out-of-range register
/// panics) and the caller records `Issue`.  The operation events are
/// recorded only when the tracer is enabled.  A fabric instruction
/// executes nothing and returns [`Flow::Fabric`]; an instruction whose
/// memory access fails changes nothing and bumps no counter.
#[inline(always)]
fn step<T: Tracer, const FETCHED: bool>(
    regs: &mut [Word; NUM_REGS],
    ops: &mut Counters,
    lane: usize,
    instr: Instr,
    mem: &mut BankedMemory,
    cycle: u64,
    tracer: &mut T,
) -> Result<Flow, MachineError> {
    let ix = |r: Reg| {
        if FETCHED {
            usize::from(r) & (NUM_REGS - 1)
        } else {
            usize::from(r)
        }
    };
    let error = 'exec: {
        let (flow, op) = match instr {
            Instr::Send(..) | Instr::Recv(..) | Instr::GetLane(..) => return Ok(Flow::Fabric),
            Instr::Nop => (Flow::Next, Op::None),
            Instr::Halt => (Flow::Halt, Op::None),
            Instr::MovI(rd, imm) => {
                regs[ix(rd)] = imm;
                (Flow::Next, Op::None)
            }
            Instr::Mov(rd, rs) => {
                regs[ix(rd)] = regs[ix(rs)];
                (Flow::Next, Op::None)
            }
            Instr::Add(rd, a, b) => {
                regs[ix(rd)] = regs[ix(a)].wrapping_add(regs[ix(b)]);
                (Flow::Next, Op::Alu)
            }
            Instr::Sub(rd, a, b) => {
                regs[ix(rd)] = regs[ix(a)].wrapping_sub(regs[ix(b)]);
                (Flow::Next, Op::Alu)
            }
            Instr::Mul(rd, a, b) => {
                regs[ix(rd)] = regs[ix(a)].wrapping_mul(regs[ix(b)]);
                (Flow::Next, Op::Alu)
            }
            Instr::Min(rd, a, b) => {
                regs[ix(rd)] = regs[ix(a)].min(regs[ix(b)]);
                (Flow::Next, Op::Alu)
            }
            Instr::Max(rd, a, b) => {
                regs[ix(rd)] = regs[ix(a)].max(regs[ix(b)]);
                (Flow::Next, Op::Alu)
            }
            Instr::AddI(rd, rs, imm) => {
                regs[ix(rd)] = regs[ix(rs)].wrapping_add(imm);
                (Flow::Next, Op::Alu)
            }
            Instr::Load(rd, rs) => match mem.read(lane, regs[ix(rs)]) {
                Ok(value) => {
                    regs[ix(rd)] = value;
                    (Flow::Next, Op::Read)
                }
                Err(e) => break 'exec e,
            },
            Instr::Store(ra, rs) => match mem.write(lane, regs[ix(ra)], regs[ix(rs)]) {
                Ok(()) => (Flow::Next, Op::Write),
                Err(e) => break 'exec e,
            },
            Instr::LaneId(rd) => {
                regs[ix(rd)] = lane as Word;
                (Flow::Next, Op::None)
            }
            Instr::Beq(a, b, t) => (branch(regs[ix(a)] == regs[ix(b)], t), Op::None),
            Instr::Bne(a, b, t) => (branch(regs[ix(a)] != regs[ix(b)], t), Op::None),
            Instr::Blt(a, b, t) => (branch(regs[ix(a)] < regs[ix(b)], t), Op::None),
            Instr::Jmp(t) => (Flow::Jump(t), Op::None),
        };
        if FETCHED {
            tracer.record(cycle, EventKind::Issue);
        }
        let kind = match op {
            Op::None => return Ok(flow),
            Op::Alu => {
                ops.alu += 1;
                EventKind::AluOp
            }
            Op::Read => {
                ops.reads += 1;
                EventKind::MemRead
            }
            Op::Write => {
                ops.writes += 1;
                EventKind::MemWrite
            }
        };
        if tracer.enabled() {
            tracer.record(cycle, kind);
        }
        return Ok(flow);
    };
    // The failing instruction still issued.
    if FETCHED {
        tracer.record(cycle, EventKind::Issue);
    }
    Err(error)
}

/// Execute one broadcast local instruction on every lane in `live`, in
/// that order, with the opcode decoded once: each arm hands [`step`] an
/// instruction whose variant is a constant, so the inlined step folds to
/// that opcode's body and the loop over the lanes carries no decode.
/// The first lane whose memory access fails stops the broadcast with its
/// error; lanes before it have executed.  The caller records `Issue`.
#[inline]
pub(crate) fn broadcast<T: Tracer>(
    lanes: &mut [DataProcessor],
    live: &[usize],
    instr: Instr,
    mem: &mut BankedMemory,
    cycle: u64,
    tracer: &mut T,
) -> Result<(), MachineError> {
    macro_rules! each {
        ($instr:expr) => {{
            for &lane in live {
                let dp = &mut lanes[lane];
                step::<T, false>(
                    &mut dp.regs,
                    &mut dp.ops,
                    dp.lane,
                    $instr,
                    mem,
                    cycle,
                    tracer,
                )?;
            }
            Ok(())
        }};
    }
    match instr {
        Instr::MovI(rd, imm) => each!(Instr::MovI(rd, imm)),
        Instr::Mov(rd, rs) => each!(Instr::Mov(rd, rs)),
        Instr::Add(rd, a, b) => each!(Instr::Add(rd, a, b)),
        Instr::Sub(rd, a, b) => each!(Instr::Sub(rd, a, b)),
        Instr::Mul(rd, a, b) => each!(Instr::Mul(rd, a, b)),
        Instr::Min(rd, a, b) => each!(Instr::Min(rd, a, b)),
        Instr::Max(rd, a, b) => each!(Instr::Max(rd, a, b)),
        Instr::AddI(rd, rs, imm) => each!(Instr::AddI(rd, rs, imm)),
        Instr::Load(rd, rs) => each!(Instr::Load(rd, rs)),
        Instr::Store(ra, rs) => each!(Instr::Store(ra, rs)),
        Instr::LaneId(rd) => each!(Instr::LaneId(rd)),
        other => each!(other),
    }
}

#[inline(always)]
fn branch(taken: bool, target: usize) -> Flow {
    if taken {
        Flow::Jump(target)
    } else {
        Flow::Next
    }
}

/// The stall runs a burst is instantiated with, chosen once per burst so
/// a run without a stall law carries no draw at all.
trait StallRoll {
    /// Does this instance draw at all?
    const DRAWS: bool;
    /// The cycle on which the fetch the processor reaches on `cycle`
    /// issues: a fetch an earlier burst held back, else a fresh draw.
    fn fetch_at(&mut self, cycle: u64) -> u64;
    /// Hold the next fetch back until `at`, past the burst's bound.
    fn hold(&mut self, at: u64);
}

/// A core's stall stream as a burst spends it: the plan's law, the
/// core's stream, and the run's cycle limit, where runs are capped.
pub(crate) struct Stalls<'a, S> {
    pub(crate) law: &'a StallLaw,
    pub(crate) stream: S,
    pub(crate) limit: u64,
}

impl StallRoll for Stalls<'_, StallStream> {
    const DRAWS: bool = true;

    #[inline(always)]
    fn fetch_at(&mut self, cycle: u64) -> u64 {
        match self.stream.take_held() {
            0 => self.stream.draw_fetch(self.law, cycle, self.limit),
            held => held,
        }
    }

    #[inline(always)]
    fn hold(&mut self, at: u64) {
        self.stream.hold(at);
    }
}

/// No stall law: every fetch issues at once.
struct NoStalls;

impl StallRoll for NoStalls {
    const DRAWS: bool = false;

    #[inline(always)]
    fn fetch_at(&mut self, cycle: u64) -> u64 {
        cycle
    }

    #[inline(always)]
    fn hold(&mut self, _at: u64) {}
}

/// A data processor: registers, ALU, and its lane identity.
#[derive(Debug, Clone)]
pub struct DataProcessor {
    regs: [Word; NUM_REGS],
    lane: usize,
    ops: Counters,
}

impl DataProcessor {
    /// A zeroed processor with the given lane index.
    pub fn new(lane: usize) -> DataProcessor {
        DataProcessor {
            regs: [0; NUM_REGS],
            lane,
            ops: Counters::default(),
        }
    }

    /// This processor's lane index.
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// Read a register.
    pub fn reg(&self, r: Reg) -> Word {
        self.regs[usize::from(r)]
    }

    /// Write a register.
    pub fn set_reg(&mut self, r: Reg, value: Word) {
        self.regs[usize::from(r)] = value;
    }

    /// (alu, mem reads, mem writes) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.ops.alu, self.ops.reads, self.ops.writes)
    }

    /// Zero the register file and operation counters, keeping the lane
    /// identity — a pooled machine reuses the processor across requests.
    pub fn reset(&mut self) {
        self.regs = [0; NUM_REGS];
        self.ops = Counters::default();
    }

    /// Run local instructions from `program[*pc]` until the cycle bound,
    /// a `Halt`, the end of the program, a fabric instruction or an error.
    ///
    /// `stats.cycles` is the processor's clock on entry; every executed
    /// instruction charges one cycle and one `stats.instructions`, and
    /// every cycle a stall run holds a fetch back charges one cycle and
    /// one `stats.stalls`.  The run comes from `stalls`, the core's
    /// stream, one draw per fetch: the burst adds it to the clock at once
    /// and leaves any part past `bound` with the stream, for the next
    /// burst to spend first.  `Halt` and an instruction whose memory
    /// access fails are charged like any other and leave the program
    /// counter on themselves; a fabric instruction and running off the
    /// end charge nothing (the fetch's stall run is spent by then, so the
    /// caller issues the fabric instruction on the next cycle).
    ///
    /// The kernel is one fused fetch–decode–execute loop over the shared
    /// step.  Registers, program counter, clock, stall count and the
    /// operation counters live in locals for the whole burst and are
    /// written back once, on every exit including errors.  The stall
    /// draw is chosen here, once: the kernel is instantiated once with
    /// the stream and once with none.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_burst<T: Tracer>(
        &mut self,
        program: &Program,
        pc: &mut usize,
        mem: &mut BankedMemory,
        stats: &mut Stats,
        bound: u64,
        stalls: Option<Stalls<'_, &mut StallStream>>,
        tracer: &mut T,
    ) -> Result<BurstEnd, MachineError> {
        match stalls {
            Some(stalls) => {
                // The stream lives in a local for the burst, like the
                // registers, and is written back once.
                let mut local = Stalls {
                    law: stalls.law,
                    stream: stalls.stream.clone(),
                    limit: stalls.limit,
                };
                let end = self.burst(program, pc, mem, stats, bound, &mut local, tracer);
                *stalls.stream = local.stream;
                end
            }
            None => self.burst(program, pc, mem, stats, bound, &mut NoStalls, tracer),
        }
    }

    /// [`DataProcessor::run_burst`] with its stall draw fixed.
    #[allow(clippy::too_many_arguments)]
    fn burst<S: StallRoll, T: Tracer>(
        &mut self,
        program: &Program,
        pc: &mut usize,
        mem: &mut BankedMemory,
        stats: &mut Stats,
        bound: u64,
        stalls: &mut S,
        tracer: &mut T,
    ) -> Result<BurstEnd, MachineError> {
        let instrs = program.instrs();
        let lane = self.lane;
        let mut regs = self.regs;
        let mut ops = self.ops;
        let mut at = *pc;
        let start = stats.cycles;
        let mut cycle = start;
        let mut stalled = 0u64;
        let end = loop {
            if cycle >= bound {
                break Ok(BurstEnd::Bound);
            }
            if S::DRAWS {
                // Spend the fetch's run in one step, up to the bound; a
                // run that reaches past it holds the fetch back for the
                // next burst.  No branch asks whether the fetch stalls:
                // an empty run adds nothing.
                let fetch = stalls.fetch_at(cycle + 1);
                let until = (fetch - 1).min(bound);
                if tracer.enabled() {
                    for c in cycle + 1..=until {
                        tracer.record(c, EventKind::FaultInjected(FaultKind::Stall));
                        tracer.record(c, EventKind::Stall);
                    }
                }
                stalled += until - cycle;
                cycle = until;
                if fetch > bound {
                    stalls.hold(fetch);
                    break Ok(BurstEnd::Bound);
                }
            }
            let Some(&instr) = instrs.get(at) else {
                break Ok(BurstEnd::OffEnd);
            };
            match step::<T, true>(&mut regs, &mut ops, lane, instr, mem, cycle + 1, tracer) {
                Ok(Flow::Next) => at += 1,
                Ok(Flow::Jump(target)) => at = target,
                Ok(Flow::Halt) => {
                    cycle += 1;
                    break Ok(BurstEnd::Halt);
                }
                Ok(Flow::Fabric) => break Ok(BurstEnd::Fabric),
                Err(e) => {
                    cycle += 1;
                    break Err(e);
                }
            }
            cycle += 1;
        };
        self.regs = regs;
        self.ops = ops;
        *pc = at;
        stats.cycles = cycle;
        // Every charged cycle either stalled or issued an instruction.
        stats.instructions += cycle - start - stalled;
        stats.stalls += stalled;
        end
    }

    /// Execute one *local* instruction (everything except the DP–DP fabric
    /// instructions, which need machine-level context) through the same
    /// step the burst kernel runs.
    ///
    /// # Panics
    /// Panics if handed a fabric instruction (`Send`/`Recv`/`GetLane`),
    /// which machines must intercept first, or an instruction naming a
    /// register outside the register file.
    #[inline(always)]
    pub fn execute_local(
        &mut self,
        instr: Instr,
        mem: &mut BankedMemory,
    ) -> Result<LocalOutcome, MachineError> {
        self.execute_traced(instr, mem, 0, &mut NullTracer)
    }

    /// [`DataProcessor::execute_local`] plus event emission: records the
    /// instruction's `AluOp` / `MemRead` / `MemWrite` event at `cycle`
    /// when the tracer is enabled.  The caller records its `Issue`.
    #[inline(always)]
    pub fn execute_traced<T: Tracer>(
        &mut self,
        instr: Instr,
        mem: &mut BankedMemory,
        cycle: u64,
        tracer: &mut T,
    ) -> Result<LocalOutcome, MachineError> {
        match step::<T, false>(
            &mut self.regs,
            &mut self.ops,
            self.lane,
            instr,
            mem,
            cycle,
            tracer,
        )? {
            Flow::Next => Ok(LocalOutcome::Next),
            Flow::Jump(target) => Ok(LocalOutcome::Branch(target)),
            Flow::Halt => Ok(LocalOutcome::Halt),
            Flow::Fabric => unreachable!("fabric instructions are intercepted by the machine"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::mem::DataTopology;
    use skilltax_model::rng::XorShift64;

    fn mem() -> BankedMemory {
        BankedMemory::new(2, 16, DataTopology::PrivateBanks)
    }

    #[test]
    fn arithmetic_executes() {
        let mut dp = DataProcessor::new(0);
        let mut m = mem();
        dp.execute_local(Instr::MovI(0, 6), &mut m).unwrap();
        dp.execute_local(Instr::MovI(1, 7), &mut m).unwrap();
        dp.execute_local(Instr::Mul(2, 0, 1), &mut m).unwrap();
        assert_eq!(dp.reg(2), 42);
        dp.execute_local(Instr::Sub(3, 2, 1), &mut m).unwrap();
        assert_eq!(dp.reg(3), 35);
        dp.execute_local(Instr::Min(4, 0, 1), &mut m).unwrap();
        dp.execute_local(Instr::Max(5, 0, 1), &mut m).unwrap();
        assert_eq!((dp.reg(4), dp.reg(5)), (6, 7));
        assert_eq!(dp.counters().0, 4);
    }

    #[test]
    fn wrapping_arithmetic_never_panics() {
        let mut dp = DataProcessor::new(0);
        let mut m = mem();
        dp.set_reg(0, Word::MAX);
        dp.set_reg(1, 1);
        dp.execute_local(Instr::Add(2, 0, 1), &mut m).unwrap();
        assert_eq!(dp.reg(2), Word::MIN);
    }

    #[test]
    fn loads_and_stores_hit_the_lane_bank() {
        let mut dp = DataProcessor::new(1);
        let mut m = mem();
        dp.set_reg(0, 3); // address
        dp.set_reg(1, 99); // value
        dp.execute_local(Instr::Store(0, 1), &mut m).unwrap();
        assert_eq!(m.bank(1).contents()[3], 99);
        dp.execute_local(Instr::Load(2, 0), &mut m).unwrap();
        assert_eq!(dp.reg(2), 99);
        assert_eq!(dp.counters(), (0, 1, 1));
    }

    #[test]
    fn branches_report_outcomes() {
        let mut dp = DataProcessor::new(0);
        let mut m = mem();
        dp.set_reg(0, 1);
        dp.set_reg(1, 2);
        assert_eq!(
            dp.execute_local(Instr::Blt(0, 1, 9), &mut m).unwrap(),
            LocalOutcome::Branch(9)
        );
        assert_eq!(
            dp.execute_local(Instr::Beq(0, 1, 9), &mut m).unwrap(),
            LocalOutcome::Next
        );
        assert_eq!(
            dp.execute_local(Instr::Jmp(4), &mut m).unwrap(),
            LocalOutcome::Branch(4)
        );
        assert_eq!(
            dp.execute_local(Instr::Halt, &mut m).unwrap(),
            LocalOutcome::Halt
        );
    }

    #[test]
    fn lane_id_reads_back() {
        let mut dp = DataProcessor::new(7);
        let mut m = BankedMemory::new(8, 4, DataTopology::PrivateBanks);
        dp.execute_local(Instr::LaneId(5), &mut m).unwrap();
        assert_eq!(dp.reg(5), 7);
    }

    /// One burst replayed one instruction at a time through
    /// `execute_local`: the per-instruction loop the fused kernel
    /// replaced.  Returns the end (or error) with the processor, program
    /// counter and stats advanced exactly as `run_burst` must leave them.
    fn single_steps(
        dp: &mut DataProcessor,
        program: &Program,
        pc: &mut usize,
        mem: &mut BankedMemory,
        stats: &mut Stats,
        bound: u64,
        mut stalls: Option<(&StallLaw, &mut StallStream)>,
    ) -> Result<BurstEnd, MachineError> {
        loop {
            if stats.cycles >= bound {
                return Ok(BurstEnd::Bound);
            }
            if let Some((law, stream)) = stalls.as_mut() {
                let next = stats.cycles + 1;
                if stream.fetch_at(law, next, u64::MAX) > next {
                    stats.cycles += 1;
                    stats.stalls += 1;
                    continue;
                }
            }
            let Some(instr) = program.fetch(*pc) else {
                return Ok(BurstEnd::OffEnd);
            };
            if instr.uses_dp_dp() {
                return Ok(BurstEnd::Fabric);
            }
            stats.cycles += 1;
            stats.instructions += 1;
            match dp.execute_local(instr, mem)? {
                LocalOutcome::Next => *pc += 1,
                LocalOutcome::Branch(t) => *pc = t,
                LocalOutcome::Halt => return Ok(BurstEnd::Halt),
            }
        }
    }

    /// Local instructions, fabric instructions mid-program, addresses in
    /// and out of the 16-word bank, and branches anywhere.
    fn random_program(rng: &mut XorShift64) -> Program {
        let len = 2 + rng.below(12) as usize;
        let instrs = (0..len)
            .map(|_| {
                let r = |rng: &mut XorShift64| rng.below(5) as Reg;
                let (a, b, c) = (r(rng), r(rng), r(rng));
                let t = rng.below(len as u64) as usize;
                match rng.below(20) {
                    0 => Instr::Nop,
                    1 | 2 => Instr::MovI(a, rng.below(24) as Word - 4),
                    3 => Instr::Mov(a, b),
                    4 => Instr::Add(a, b, c),
                    5 => Instr::Sub(a, b, c),
                    6 => Instr::Mul(a, b, c),
                    7 => Instr::Min(a, b, c),
                    8 => Instr::Max(a, b, c),
                    9 | 10 => Instr::AddI(a, b, 1),
                    11 => Instr::Load(a, b),
                    12 => Instr::Store(a, b),
                    13 => Instr::LaneId(a),
                    14 => Instr::Beq(a, b, t),
                    15 => Instr::Bne(a, b, t),
                    16 => Instr::Blt(a, b, t),
                    17 => Instr::Jmp(t),
                    18 => Instr::Send(1, a),
                    _ => Instr::Halt,
                }
            })
            .collect();
        Program::new(instrs).unwrap()
    }

    #[test]
    fn bursts_match_single_steps_at_every_bound_and_resumption() {
        let mut rng = XorShift64::new(0xB0257);
        let mut ends = [0u32; 5];
        for case in 0..600u64 {
            let program = random_program(&mut rng);
            let lane = rng.below(2) as usize;
            let stalls = case % 2 == 1;
            // Bursts of one fixed length, run until the kernel stops or
            // the cycle budget is spent: every bound in one burst, and
            // resumption from a mid-program pc in the short ones.
            let chunk = [1, QUANTUM - 1, QUANTUM, QUANTUM + 1, 7][case as usize % 5];
            let plan = FaultPlan::seeded(case).stall_dps([0.3, 0.9][case as usize / 2 % 2]);
            let law = plan.stall_law().unwrap();
            let mut kstream = plan.stall_stream(lane, 0);
            let mut rstream = kstream.clone();
            let (mut k, mut r) = (DataProcessor::new(lane), DataProcessor::new(lane));
            let (mut kmem, mut rmem) = (mem(), mem());
            let (mut kpc, mut rpc) = (0usize, 0usize);
            let (mut ks, mut rs) = (Stats::default(), Stats::default());
            loop {
                let bound = ks.cycles + chunk;
                let got = k.run_burst(
                    &program,
                    &mut kpc,
                    &mut kmem,
                    &mut ks,
                    bound,
                    stalls.then_some(Stalls {
                        law: &law,
                        stream: &mut kstream,
                        limit: u64::MAX,
                    }),
                    &mut NullTracer,
                );
                let want = single_steps(
                    &mut r,
                    &program,
                    &mut rpc,
                    &mut rmem,
                    &mut rs,
                    bound,
                    stalls.then_some((&law, &mut rstream)),
                );
                let label = format!("case {case}: {program}");
                assert_eq!(got, want, "{label}");
                assert_eq!((kpc, ks), (rpc, rs), "{label}");
                assert_eq!((k.regs, k.counters()), (r.regs, r.counters()), "{label}");
                assert_eq!(kmem.bank(lane).contents(), rmem.bank(lane).contents());
                // The part of a run past the bound stays with the stream.
                assert_eq!(format!("{kstream:?}"), format!("{rstream:?}"), "{label}");
                let slot = match got {
                    Ok(BurstEnd::Bound) if ks.cycles < 3 * QUANTUM => continue,
                    Ok(BurstEnd::Bound) => 0,
                    Ok(BurstEnd::Halt) => 1,
                    Ok(BurstEnd::OffEnd) => 2,
                    Ok(BurstEnd::Fabric) => 3,
                    Err(_) => 4,
                };
                ends[slot] += 1;
                break;
            }
        }
        assert!(ends.iter().all(|&n| n > 0), "{ends:?}");
    }

    #[test]
    fn memory_errors_propagate() {
        let mut dp = DataProcessor::new(0);
        let mut m = mem();
        dp.set_reg(0, 1_000);
        assert!(dp.execute_local(Instr::Load(1, 0), &mut m).is_err());
    }
}
