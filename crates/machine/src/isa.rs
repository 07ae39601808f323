//! A compact register ISA for the instruction-flow machines.
//!
//! The taxonomy does not prescribe an ISA; this one is the smallest set
//! that lets the executable machines demonstrate the paper's claims:
//! arithmetic, memory access, control flow, a lane-id query (so one SIMD
//! program can address per-lane data) and explicit inter-processor
//! transfers (which only exist when the DP–DP relation carries a switch).

use std::fmt;

/// Machine word.
pub type Word = i64;

/// Register index (each DP has [`NUM_REGS`] registers).
pub type Reg = u8;

/// Registers per data processor.
pub const NUM_REGS: usize = 16;

/// One instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Do nothing for a cycle.
    Nop,
    /// Stop the processor.
    Halt,
    /// `rd <- imm`.
    MovI(Reg, Word),
    /// `rd <- rs`.
    Mov(Reg, Reg),
    /// `rd <- rs1 + rs2`.
    Add(Reg, Reg, Reg),
    /// `rd <- rs1 - rs2`.
    Sub(Reg, Reg, Reg),
    /// `rd <- rs1 * rs2`.
    Mul(Reg, Reg, Reg),
    /// `rd <- min(rs1, rs2)`.
    Min(Reg, Reg, Reg),
    /// `rd <- max(rs1, rs2)`.
    Max(Reg, Reg, Reg),
    /// `rd <- rs + imm`.
    AddI(Reg, Reg, Word),
    /// `rd <- DM[rs]` (address in `rs`).
    Load(Reg, Reg),
    /// `DM[ra] <- rs` (address in `ra`, value in `rs`).
    Store(Reg, Reg),
    /// `rd <- lane index` (0 on scalar machines).
    LaneId(Reg),
    /// Branch to `target` if `rs1 == rs2`.
    Beq(Reg, Reg, usize),
    /// Branch to `target` if `rs1 != rs2`.
    Bne(Reg, Reg, usize),
    /// Branch to `target` if `rs1 < rs2`.
    Blt(Reg, Reg, usize),
    /// Unconditional jump.
    Jmp(usize),
    /// Send `rs` to processor `dest` over the DP–DP fabric.
    Send(usize, Reg),
    /// Receive into `rd` from processor `src` over the DP–DP fabric
    /// (stalls until a value is available).
    Recv(Reg, usize),
    /// `rd <- remote lane's register` — SIMD neighbourhood read: fetch
    /// register `rs` of the lane whose index is in register `lane_reg`.
    GetLane(Reg, Reg, Reg),
}

impl Instr {
    /// Is this a control-flow instruction (handled by the IP rather than
    /// the DP)?
    #[inline]
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::Beq(..) | Instr::Bne(..) | Instr::Blt(..) | Instr::Jmp(_) | Instr::Halt
        )
    }

    /// Does this instruction touch data memory?
    pub fn touches_memory(&self) -> bool {
        matches!(self, Instr::Load(..) | Instr::Store(..))
    }

    /// Does this instruction use the DP–DP fabric?
    pub fn uses_dp_dp(&self) -> bool {
        matches!(self, Instr::Send(..) | Instr::Recv(..) | Instr::GetLane(..))
    }

    /// The registers this instruction reads.
    pub fn reads(&self) -> Vec<Reg> {
        match *self {
            Instr::Nop | Instr::Halt | Instr::MovI(..) | Instr::LaneId(_) | Instr::Jmp(_) => {
                vec![]
            }
            Instr::Mov(_, rs) | Instr::AddI(_, rs, _) | Instr::Load(_, rs) => vec![rs],
            Instr::Add(_, a, b)
            | Instr::Sub(_, a, b)
            | Instr::Mul(_, a, b)
            | Instr::Min(_, a, b)
            | Instr::Max(_, a, b) => vec![a, b],
            Instr::Store(ra, rs) => vec![ra, rs],
            Instr::Beq(a, b, _) | Instr::Bne(a, b, _) | Instr::Blt(a, b, _) => vec![a, b],
            Instr::Send(_, rs) => vec![rs],
            Instr::Recv(..) => vec![],
            Instr::GetLane(_, lane, rs) => vec![lane, rs],
        }
    }

    /// The register this instruction writes, if any.
    pub fn writes(&self) -> Option<Reg> {
        match *self {
            Instr::MovI(rd, _)
            | Instr::Mov(rd, _)
            | Instr::Add(rd, ..)
            | Instr::Sub(rd, ..)
            | Instr::Mul(rd, ..)
            | Instr::Min(rd, ..)
            | Instr::Max(rd, ..)
            | Instr::AddI(rd, ..)
            | Instr::Load(rd, _)
            | Instr::LaneId(rd)
            | Instr::Recv(rd, _)
            | Instr::GetLane(rd, ..) => Some(rd),
            _ => None,
        }
    }

    /// Validate register indices against [`NUM_REGS`].
    pub fn registers_valid(&self) -> bool {
        let max = NUM_REGS as Reg;
        self.reads().iter().all(|r| *r < max) && self.writes().is_none_or(|r| r < max)
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
            Instr::MovI(rd, imm) => write!(f, "movi r{rd}, {imm}"),
            Instr::Mov(rd, rs) => write!(f, "mov r{rd}, r{rs}"),
            Instr::Add(rd, a, b) => write!(f, "add r{rd}, r{a}, r{b}"),
            Instr::Sub(rd, a, b) => write!(f, "sub r{rd}, r{a}, r{b}"),
            Instr::Mul(rd, a, b) => write!(f, "mul r{rd}, r{a}, r{b}"),
            Instr::Min(rd, a, b) => write!(f, "min r{rd}, r{a}, r{b}"),
            Instr::Max(rd, a, b) => write!(f, "max r{rd}, r{a}, r{b}"),
            Instr::AddI(rd, rs, imm) => write!(f, "addi r{rd}, r{rs}, {imm}"),
            Instr::Load(rd, rs) => write!(f, "load r{rd}, [r{rs}]"),
            Instr::Store(ra, rs) => write!(f, "store [r{ra}], r{rs}"),
            Instr::LaneId(rd) => write!(f, "laneid r{rd}"),
            Instr::Beq(a, b, t) => write!(f, "beq r{a}, r{b}, @{t}"),
            Instr::Bne(a, b, t) => write!(f, "bne r{a}, r{b}, @{t}"),
            Instr::Blt(a, b, t) => write!(f, "blt r{a}, r{b}, @{t}"),
            Instr::Jmp(t) => write!(f, "jmp @{t}"),
            Instr::Send(dest, rs) => write!(f, "send p{dest}, r{rs}"),
            Instr::Recv(rd, src) => write!(f, "recv r{rd}, p{src}"),
            Instr::GetLane(rd, lane, rs) => write!(f, "getlane r{rd}, [r{lane}].r{rs}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_classification() {
        assert!(Instr::Halt.is_control());
        assert!(Instr::Beq(0, 1, 5).is_control());
        assert!(!Instr::Add(0, 1, 2).is_control());
    }

    #[test]
    fn memory_and_fabric_classification() {
        assert!(Instr::Load(0, 1).touches_memory());
        assert!(Instr::Store(0, 1).touches_memory());
        assert!(!Instr::Mov(0, 1).touches_memory());
        assert!(Instr::Send(3, 0).uses_dp_dp());
        assert!(Instr::GetLane(0, 1, 2).uses_dp_dp());
        assert!(!Instr::Load(0, 1).uses_dp_dp());
    }

    #[test]
    fn read_write_sets() {
        let i = Instr::Add(3, 1, 2);
        assert_eq!(i.reads(), vec![1, 2]);
        assert_eq!(i.writes(), Some(3));
        assert_eq!(Instr::Store(4, 5).reads(), vec![4, 5]);
        assert_eq!(Instr::Store(4, 5).writes(), None);
        assert_eq!(Instr::Halt.reads(), vec![]);
    }

    #[test]
    fn register_validation() {
        assert!(Instr::Add(15, 0, 1).registers_valid());
        assert!(!Instr::Add(16, 0, 1).registers_valid());
        assert!(!Instr::Mov(0, 200).registers_valid());
    }

    #[test]
    fn display_is_assembly_like() {
        assert_eq!(Instr::Add(1, 2, 3).to_string(), "add r1, r2, r3");
        assert_eq!(Instr::Beq(0, 1, 9).to_string(), "beq r0, r1, @9");
        assert_eq!(Instr::GetLane(2, 3, 4).to_string(), "getlane r2, [r3].r4");
    }
}
