//! The instruction-flow uni-processor (IUP): one IP, one DP, direct links —
//! the Von Neumann baseline every other machine is compared against.

use crate::cancel::{flag_trip, CancelToken, RunBudget};
use crate::dp::{BurstEnd, DataProcessor, QUANTUM};
use crate::error::MachineError;
use crate::exec::Stats;
use crate::isa::Word;
use crate::mem::{BankedMemory, DataTopology};
use crate::profile::Phase;
use crate::program::Program;
use crate::telemetry::{NullTracer, Tracer};

/// Default cycle budget before a run is declared livelocked.
pub const DEFAULT_CYCLE_LIMIT: u64 = 10_000_000;

/// A uni-processor machine.
#[derive(Debug)]
pub struct UniProcessor {
    dp: DataProcessor,
    mem: BankedMemory,
    cycle_limit: u64,
    cancel: CancelToken,
}

impl UniProcessor {
    /// A uni-processor with a single private memory bank of `mem_words`.
    pub fn new(mem_words: usize) -> UniProcessor {
        UniProcessor {
            dp: DataProcessor::new(0),
            mem: BankedMemory::new(1, mem_words, DataTopology::PrivateBanks),
            cycle_limit: DEFAULT_CYCLE_LIMIT,
            cancel: CancelToken::new(),
        }
    }

    /// Override the livelock guard.
    pub fn with_cycle_limit(mut self, limit: u64) -> UniProcessor {
        self.cycle_limit = limit;
        self
    }

    /// Install a cancellation token for subsequent runs.  A deadline
    /// stops the run after exactly that many cycles; the flag is polled
    /// once per quantum of cycles, so it stops the run promptly but at
    /// no promised cycle.
    pub fn with_cancel(mut self, cancel: CancelToken) -> UniProcessor {
        self.cancel = cancel;
        self
    }

    /// Install a cancellation token without consuming the machine (for
    /// pooled instances that are reset and reused between requests).
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Scrub architectural state — registers, counters, every memory
    /// word — without a single allocation, so a pooled instance can be
    /// reused across tenants at zero steady-state heap cost.
    ///
    /// The cancellation token is deliberately left in place (replacing
    /// it would allocate): cancellation is per-request state, so a pool
    /// that installed a request token must swap in a fresh one with
    /// [`UniProcessor::set_cancel`] before the next checkout.
    pub fn reset(&mut self) {
        self.dp.reset();
        self.mem.clear();
    }

    /// The data memory (for workload setup and result checks).
    pub fn memory_mut(&mut self) -> &mut BankedMemory {
        &mut self.mem
    }

    /// The data memory.
    pub fn memory(&self) -> &BankedMemory {
        &self.mem
    }

    /// Read a register after a run.
    pub fn reg(&self, r: u8) -> Word {
        self.dp.reg(r)
    }

    /// Run a program to completion; returns execution statistics.
    ///
    /// The uni-processor has no DP–DP fabric, so any `send`/`recv`/
    /// `getlane` instruction is a routing error — exactly the paper's point
    /// that an IUP "doesn't have enough DPs" to act as an array processor.
    pub fn run(&mut self, program: &Program) -> Result<Stats, MachineError> {
        self.run_traced(program, &mut NullTracer)
    }

    /// [`UniProcessor::run`] with observation hooks; with a [`NullTracer`]
    /// this monomorphises back to the plain run loop.
    pub fn run_traced<T: Tracer>(
        &mut self,
        program: &Program,
        tracer: &mut T,
    ) -> Result<Stats, MachineError> {
        let mut stats = Stats::default();
        let mut pc = 0usize;
        let base = self.dp.counters();
        let budget = RunBudget::resolve(self.cycle_limit, &self.cancel);
        tracer.span_enter(0, Phase::Run);
        tracer.span_enter(0, Phase::Decode);
        tracer.span_exit(0);
        tracer.span_enter(0, Phase::Slice);
        loop {
            if self.cancel.flag_raised() {
                return Err(flag_trip(stats.cycles, stats, tracer));
            }
            if stats.cycles >= budget.limit() {
                return Err(budget.trip(stats.cycles, stats, tracer));
            }
            let bound = budget.limit().min(stats.cycles.saturating_add(QUANTUM));
            match self.dp.run_burst(
                program,
                &mut pc,
                &mut self.mem,
                &mut stats,
                bound,
                None,
                tracer,
            )? {
                BurstEnd::Bound => {}
                // Running off the end is a clean stop.
                BurstEnd::Halt | BurstEnd::OffEnd => break,
                BurstEnd::Fabric => {
                    return Err(MachineError::RouteDenied {
                        from: 0,
                        to: 0,
                        reason: "a uni-processor has no DP-DP fabric".to_owned(),
                    })
                }
            }
        }
        tracer.span_exit(stats.cycles);
        tracer.span_exit(stats.cycles);
        let (alu, mr, mw) = self.dp.counters();
        stats.alu_ops = alu - base.0;
        stats.mem_reads = mr - base.1;
        stats.mem_writes = mw - base.2;
        if tracer.enabled() {
            tracer.sample("dp.alu_ops", stats.alu_ops);
            tracer.sample("dp.mem_ops", stats.mem_reads + stats.mem_writes);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instr;
    use crate::program::Assembler;

    /// Sum memory[0..8] into r2 and store at memory[15].
    fn sum_program() -> Program {
        let mut asm = Assembler::new();
        asm.movi(0, 0) // index
            .movi(1, 8) // limit
            .movi(2, 0); // accumulator
        asm.label("loop").unwrap();
        asm.emit(Instr::Load(3, 0))
            .emit(Instr::Add(2, 2, 3))
            .emit(Instr::AddI(0, 0, 1));
        asm.blt(0, 1, "loop");
        asm.movi(4, 15).emit(Instr::Store(4, 2)).emit(Instr::Halt);
        asm.assemble().unwrap()
    }

    #[test]
    fn runs_a_reduction() {
        let mut m = UniProcessor::new(16);
        m.memory_mut().bank_mut(0).load(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let stats = m.run(&sum_program()).unwrap();
        assert_eq!(m.memory().bank(0).contents()[15], 36);
        assert_eq!(m.reg(2), 36);
        assert!(stats.cycles > 8 * 4);
        assert_eq!(stats.mem_reads, 8);
        assert_eq!(stats.mem_writes, 1);
        assert_eq!(stats.ipc(), 1.0); // perfect scalar pipeline
    }

    #[test]
    fn falls_off_the_end_cleanly() {
        let mut m = UniProcessor::new(8);
        let prog = Program::new(vec![Instr::MovI(0, 1)]).unwrap();
        let stats = m.run(&prog).unwrap();
        assert_eq!(stats.instructions, 1);
        assert_eq!(m.reg(0), 1);
    }

    #[test]
    fn infinite_loop_trips_the_watchdog_with_partial_stats() {
        let mut m = UniProcessor::new(8).with_cycle_limit(1_000);
        let prog = Program::new(vec![Instr::Jmp(0)]).unwrap();
        match m.run(&prog) {
            Err(MachineError::WatchdogTimeout {
                limit: 1_000,
                partial,
            }) => {
                assert_eq!(partial.cycles, 1_000);
                assert_eq!(partial.instructions, 1_000);
            }
            other => panic!("expected WatchdogTimeout, got {other:?}"),
        }
    }

    #[test]
    fn fabric_instructions_are_route_denied() {
        let mut m = UniProcessor::new(8);
        let prog = Program::new(vec![Instr::Send(1, 0), Instr::Halt]).unwrap();
        assert!(matches!(
            m.run(&prog),
            Err(MachineError::RouteDenied { .. })
        ));
    }

    #[test]
    fn lane_id_is_zero_on_a_scalar_machine() {
        let mut m = UniProcessor::new(8);
        let prog = Program::new(vec![Instr::LaneId(0), Instr::Halt]).unwrap();
        m.run(&prog).unwrap();
        assert_eq!(m.reg(0), 0);
    }

    #[test]
    fn memory_violations_surface() {
        let mut m = UniProcessor::new(4);
        let prog = Program::new(vec![Instr::MovI(0, 100), Instr::Load(1, 0), Instr::Halt]).unwrap();
        assert!(matches!(
            m.run(&prog),
            Err(MachineError::MemoryOutOfBounds { .. })
        ));
    }
}
