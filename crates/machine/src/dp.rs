//! The data processor: a register file plus an ALU that executes the
//! non-fabric instructions against a banked memory.
//!
//! [`DataProcessor::run_burst`] is the one tight interpreter loop over
//! those instructions: the uni-processor runs on it alone, and the MIMD
//! machine runs every core on it when the cores cannot observe each
//! other (DESIGN.md §9, temporal decoupling).

use crate::error::MachineError;
use crate::exec::Stats;
use crate::fault::FaultPlan;
use crate::isa::{Instr, Reg, Word, NUM_REGS};
use crate::mem::BankedMemory;
use crate::program::Program;
use crate::telemetry::{EventKind, FaultKind, Tracer};

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

/// A data processor: registers, ALU, and its lane identity.
#[derive(Debug, Clone)]
pub struct DataProcessor {
    regs: [Word; NUM_REGS],
    lane: usize,
    alu_ops: u64,
    mem_reads: u64,
    mem_writes: u64,
}

impl DataProcessor {
    /// A zeroed processor with the given lane index.
    pub fn new(lane: usize) -> DataProcessor {
        DataProcessor {
            regs: [0; NUM_REGS],
            lane,
            alu_ops: 0,
            mem_reads: 0,
            mem_writes: 0,
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
        (self.alu_ops, self.mem_reads, self.mem_writes)
    }

    /// Zero the register file and operation counters, keeping the lane
    /// identity — a pooled machine reuses the processor across requests.
    pub fn reset(&mut self) {
        self.regs = [0; NUM_REGS];
        self.alu_ops = 0;
        self.mem_reads = 0;
        self.mem_writes = 0;
    }

    /// Run local instructions from `program[*pc]` until the cycle bound,
    /// a `Halt`, the end of the program, a fabric instruction or an error.
    ///
    /// `stats.cycles` is the processor's clock on entry; every executed
    /// instruction charges one cycle and one `stats.instructions`, and a
    /// stall that `faults` injects (the hashed `dp_stalled` query, asked
    /// right before each fetch) charges one cycle and one `stats.stalls`.
    /// Registers, program counter and clock live in locals for the whole
    /// burst and are written back on every exit, including errors.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_burst<T: Tracer>(
        &mut self,
        program: &Program,
        pc: &mut usize,
        mem: &mut BankedMemory,
        stats: &mut Stats,
        bound: u64,
        mut faults: Option<&mut FaultPlan>,
        tracer: &mut T,
    ) -> Result<BurstEnd, MachineError> {
        let instrs = program.instrs();
        let mut dp = self.clone();
        let mut at = *pc;
        let mut cycle = stats.cycles;
        let (mut issued, mut stalled) = (0u64, 0u64);
        let end = loop {
            if cycle >= bound {
                break Ok(BurstEnd::Bound);
            }
            if let Some(plan) = faults.as_deref_mut() {
                if plan.dp_stalled(cycle + 1, dp.lane) {
                    cycle += 1;
                    stalled += 1;
                    tracer.record(cycle, EventKind::FaultInjected(FaultKind::Stall));
                    tracer.record(cycle, EventKind::Stall);
                    continue;
                }
            }
            let Some(&instr) = instrs.get(at) else {
                break Ok(BurstEnd::OffEnd);
            };
            if instr.uses_dp_dp() {
                break Ok(BurstEnd::Fabric);
            }
            cycle += 1;
            issued += 1;
            tracer.record(cycle, EventKind::Issue);
            match dp.execute_traced(instr, mem, cycle, tracer) {
                Ok(LocalOutcome::Next) => at += 1,
                Ok(LocalOutcome::Branch(t)) => at = t,
                Ok(LocalOutcome::Halt) => break Ok(BurstEnd::Halt),
                Err(e) => break Err(e),
            }
        };
        *self = dp;
        *pc = at;
        stats.cycles = cycle;
        stats.instructions += issued;
        stats.stalls += stalled;
        end
    }

    /// Execute one *local* instruction (everything except the DP–DP fabric
    /// instructions, which need machine-level context).  This is the only
    /// definition of the local ISA semantics; it is inlined into
    /// [`DataProcessor::run_burst`].
    ///
    /// # Panics
    /// Panics if handed a fabric instruction (`Send`/`Recv`/`GetLane`);
    /// machines must intercept those first.
    #[inline(always)]
    pub fn execute_local(
        &mut self,
        instr: Instr,
        mem: &mut BankedMemory,
    ) -> Result<LocalOutcome, MachineError> {
        debug_assert!(
            !instr.uses_dp_dp(),
            "fabric instruction reached execute_local"
        );
        match instr {
            Instr::Nop => Ok(LocalOutcome::Next),
            Instr::Halt => Ok(LocalOutcome::Halt),
            Instr::MovI(rd, imm) => {
                self.set_reg(rd, imm);
                Ok(LocalOutcome::Next)
            }
            Instr::Mov(rd, rs) => {
                self.set_reg(rd, self.reg(rs));
                Ok(LocalOutcome::Next)
            }
            Instr::Add(rd, a, b) => self.alu(rd, self.reg(a).wrapping_add(self.reg(b))),
            Instr::Sub(rd, a, b) => self.alu(rd, self.reg(a).wrapping_sub(self.reg(b))),
            Instr::Mul(rd, a, b) => self.alu(rd, self.reg(a).wrapping_mul(self.reg(b))),
            Instr::Min(rd, a, b) => self.alu(rd, self.reg(a).min(self.reg(b))),
            Instr::Max(rd, a, b) => self.alu(rd, self.reg(a).max(self.reg(b))),
            Instr::AddI(rd, rs, imm) => self.alu(rd, self.reg(rs).wrapping_add(imm)),
            Instr::Load(rd, rs) => {
                let value = mem.read(self.lane, self.reg(rs))?;
                self.mem_reads += 1;
                self.set_reg(rd, value);
                Ok(LocalOutcome::Next)
            }
            Instr::Store(ra, rs) => {
                mem.write(self.lane, self.reg(ra), self.reg(rs))?;
                self.mem_writes += 1;
                Ok(LocalOutcome::Next)
            }
            Instr::LaneId(rd) => {
                self.set_reg(rd, self.lane as Word);
                Ok(LocalOutcome::Next)
            }
            Instr::Beq(a, b, t) => Ok(if self.reg(a) == self.reg(b) {
                LocalOutcome::Branch(t)
            } else {
                LocalOutcome::Next
            }),
            Instr::Bne(a, b, t) => Ok(if self.reg(a) != self.reg(b) {
                LocalOutcome::Branch(t)
            } else {
                LocalOutcome::Next
            }),
            Instr::Blt(a, b, t) => Ok(if self.reg(a) < self.reg(b) {
                LocalOutcome::Branch(t)
            } else {
                LocalOutcome::Next
            }),
            Instr::Jmp(t) => Ok(LocalOutcome::Branch(t)),
            Instr::Send(..) | Instr::Recv(..) | Instr::GetLane(..) => {
                unreachable!("fabric instructions are intercepted by the machine")
            }
        }
    }

    /// [`DataProcessor::execute_local`] plus event emission: diffs the
    /// internal counters across the call and records one `AluOp` /
    /// `MemRead` / `MemWrite` event per increment.  With a disabled
    /// tracer this is exactly `execute_local` (the diffing is skipped).
    #[inline(always)]
    pub fn execute_traced<T: Tracer>(
        &mut self,
        instr: Instr,
        mem: &mut BankedMemory,
        cycle: u64,
        tracer: &mut T,
    ) -> Result<LocalOutcome, MachineError> {
        if !tracer.enabled() {
            return self.execute_local(instr, mem);
        }
        let before = self.counters();
        let outcome = self.execute_local(instr, mem);
        let after = self.counters();
        tracer.record_many(cycle, EventKind::AluOp, after.0 - before.0);
        tracer.record_many(cycle, EventKind::MemRead, after.1 - before.1);
        tracer.record_many(cycle, EventKind::MemWrite, after.2 - before.2);
        outcome
    }

    fn alu(&mut self, rd: Reg, value: Word) -> Result<LocalOutcome, MachineError> {
        self.alu_ops += 1;
        self.set_reg(rd, value);
        Ok(LocalOutcome::Next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::DataTopology;

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

    #[test]
    fn memory_errors_propagate() {
        let mut dp = DataProcessor::new(0);
        let mut m = mem();
        dp.set_reg(0, 1_000);
        assert!(dp.execute_local(Instr::Load(1, 0), &mut m).is_err());
    }
}
