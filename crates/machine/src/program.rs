//! Programs and a small label-resolving assembler.

use std::collections::HashMap;
use std::fmt;

use crate::error::MachineError;
use crate::isa::{Instr, Reg, Word};

/// A validated program: instructions with resolved branch targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    instrs: Vec<Instr>,
}

impl Program {
    /// Wrap and validate a raw instruction list.
    pub fn new(instrs: Vec<Instr>) -> Result<Program, MachineError> {
        for (at, instr) in instrs.iter().enumerate() {
            if !instr.registers_valid() {
                return Err(MachineError::BadRegister {
                    at,
                    instr: instr.to_string(),
                });
            }
            let target = match *instr {
                Instr::Beq(_, _, t) | Instr::Bne(_, _, t) | Instr::Blt(_, _, t) | Instr::Jmp(t) => {
                    Some(t)
                }
                _ => None,
            };
            if let Some(t) = target {
                if t >= instrs.len() {
                    return Err(MachineError::BadBranchTarget {
                        at,
                        target: t,
                        len: instrs.len(),
                    });
                }
            }
        }
        Ok(Program { instrs })
    }

    /// The instructions.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Instruction at `pc`, if in range.
    #[inline]
    pub fn fetch(&self, pc: usize) -> Option<Instr> {
        self.instrs.get(pc).copied()
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Is the program empty?
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Does the program use the DP–DP fabric anywhere?
    pub fn uses_dp_dp(&self) -> bool {
        self.instrs.iter().any(Instr::uses_dp_dp)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, instr) in self.instrs.iter().enumerate() {
            writeln!(f, "{i:>4}: {instr}")?;
        }
        Ok(())
    }
}

/// Forward-reference-friendly program builder: branches name labels, and
/// `assemble` resolves them.
#[derive(Debug, Default)]
pub struct Assembler {
    instrs: Vec<PendingInstr>,
    labels: HashMap<String, usize>,
}

#[derive(Debug, Clone)]
enum PendingInstr {
    Ready(Instr),
    Branch {
        kind: BranchKind,
        a: Reg,
        b: Reg,
        label: String,
    },
    Jump {
        label: String,
    },
}

#[derive(Debug, Clone, Copy)]
enum BranchKind {
    Eq,
    Ne,
    Lt,
}

impl Assembler {
    /// Start an empty program.
    pub fn new() -> Self {
        Assembler::default()
    }

    /// Define a label at the current position.
    pub fn label(&mut self, name: impl Into<String>) -> Result<&mut Self, MachineError> {
        let name = name.into();
        if self
            .labels
            .insert(name.clone(), self.instrs.len())
            .is_some()
        {
            return Err(MachineError::DuplicateLabel { label: name });
        }
        Ok(self)
    }

    /// Append a non-branch instruction.
    pub fn emit(&mut self, instr: Instr) -> &mut Self {
        self.instrs.push(PendingInstr::Ready(instr));
        self
    }

    /// `beq a, b, label`.
    pub fn beq(&mut self, a: Reg, b: Reg, label: impl Into<String>) -> &mut Self {
        self.instrs.push(PendingInstr::Branch {
            kind: BranchKind::Eq,
            a,
            b,
            label: label.into(),
        });
        self
    }

    /// `bne a, b, label`.
    pub fn bne(&mut self, a: Reg, b: Reg, label: impl Into<String>) -> &mut Self {
        self.instrs.push(PendingInstr::Branch {
            kind: BranchKind::Ne,
            a,
            b,
            label: label.into(),
        });
        self
    }

    /// `blt a, b, label`.
    pub fn blt(&mut self, a: Reg, b: Reg, label: impl Into<String>) -> &mut Self {
        self.instrs.push(PendingInstr::Branch {
            kind: BranchKind::Lt,
            a,
            b,
            label: label.into(),
        });
        self
    }

    /// `jmp label`.
    pub fn jmp(&mut self, label: impl Into<String>) -> &mut Self {
        self.instrs.push(PendingInstr::Jump {
            label: label.into(),
        });
        self
    }

    /// Shorthand: `rd <- imm`.
    pub fn movi(&mut self, rd: Reg, imm: Word) -> &mut Self {
        self.emit(Instr::MovI(rd, imm))
    }

    /// Resolve labels and validate.
    pub fn assemble(&self) -> Result<Program, MachineError> {
        let resolve = |label: &str| -> Result<usize, MachineError> {
            self.labels
                .get(label)
                .copied()
                .ok_or_else(|| MachineError::UndefinedLabel {
                    label: label.to_owned(),
                })
        };
        let mut out = Vec::with_capacity(self.instrs.len());
        for pending in &self.instrs {
            out.push(match pending {
                PendingInstr::Ready(i) => *i,
                PendingInstr::Branch { kind, a, b, label } => {
                    let t = resolve(label)?;
                    match kind {
                        BranchKind::Eq => Instr::Beq(*a, *b, t),
                        BranchKind::Ne => Instr::Bne(*a, *b, t),
                        BranchKind::Lt => Instr::Blt(*a, *b, t),
                    }
                }
                PendingInstr::Jump { label } => Instr::Jmp(resolve(label)?),
            });
        }
        Program::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_program_assembles() {
        let mut asm = Assembler::new();
        asm.movi(0, 5)
            .movi(1, 7)
            .emit(Instr::Add(2, 0, 1))
            .emit(Instr::Halt);
        let prog = asm.assemble().unwrap();
        assert_eq!(prog.len(), 4);
        assert_eq!(prog.fetch(2), Some(Instr::Add(2, 0, 1)));
        assert_eq!(prog.fetch(99), None);
    }

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut asm = Assembler::new();
        asm.movi(0, 0).movi(1, 10);
        asm.label("loop").unwrap();
        asm.emit(Instr::AddI(0, 0, 1));
        asm.blt(0, 1, "loop");
        asm.jmp("end");
        asm.emit(Instr::Nop); // unreachable
        asm.label("end").unwrap();
        asm.emit(Instr::Halt);
        let prog = asm.assemble().unwrap();
        assert_eq!(prog.fetch(3), Some(Instr::Blt(0, 1, 2)));
        assert_eq!(prog.fetch(4), Some(Instr::Jmp(6)));
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut asm = Assembler::new();
        asm.jmp("nowhere");
        assert_eq!(
            asm.assemble(),
            Err(MachineError::UndefinedLabel {
                label: "nowhere".into()
            })
        );
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut asm = Assembler::new();
        asm.label("a").unwrap();
        assert!(asm.label("a").is_err());
    }

    #[test]
    fn register_validation_happens_at_program_construction() {
        let err = Program::new(vec![Instr::Add(99, 0, 1)]).unwrap_err();
        assert!(matches!(err, MachineError::BadRegister { at: 0, .. }));
    }

    #[test]
    fn branch_targets_validated() {
        let err = Program::new(vec![Instr::Jmp(7), Instr::Halt]).unwrap_err();
        assert!(matches!(
            err,
            MachineError::BadBranchTarget { target: 7, .. }
        ));
    }

    #[test]
    fn display_lists_numbered_instructions() {
        let prog = Program::new(vec![Instr::MovI(0, 1), Instr::Halt]).unwrap();
        let text = prog.to_string();
        assert!(text.contains("0: movi r0, 1"));
        assert!(text.contains("1: halt"));
    }

    #[test]
    fn dp_dp_usage_detection() {
        let with = Program::new(vec![Instr::Send(1, 0), Instr::Halt]).unwrap();
        let without = Program::new(vec![Instr::Add(0, 1, 2), Instr::Halt]).unwrap();
        assert!(with.uses_dp_dp());
        assert!(!without.uses_dp_dp());
    }
}
