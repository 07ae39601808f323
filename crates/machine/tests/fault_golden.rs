//! Golden fault-roll values: the stall schedule, flip schedule and
//! resilient-run outcomes of fixed seeded plans, pinned so any change to
//! the roll semantics (thresholds, draw order, hashing) fails here.
//! The stall decisions were recorded before the rolls moved from `f64`
//! comparisons to integer thresholds (DESIGN.md §7), which must keep
//! every decision bit-identical; the flip values and run outcomes say
//! when they were re-recorded.

use skilltax_machine::array::{ArrayMachine, ArraySubtype};
use skilltax_machine::multi::{MultiMachine, MultiSubtype};
use skilltax_machine::{Assembler, FaultPlan, Instr, Program, RunOutcome, Stats};

/// One FNV-1a step, folding a draw into a checksum.
fn fnv(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The first 256 stall decisions (a bitmask over `(cycle, dp)` in
/// cycle-major order), then the flips of the first 256 cycles: how many,
/// a checksum of their cycles and sites, and the plan's injection count.
fn rolls(plan: &mut FaultPlan) -> ([u64; 4], u64, u64, u64) {
    let mut stalls = [0u64; 4];
    for k in 0..256u64 {
        if plan.dp_stalled(k / 4 + 1, (k % 4) as usize) {
            stalls[(k / 64) as usize] |= 1 << (k % 64);
        }
    }
    let (mut fired, mut fold) = (0u64, 0xCBF2_9CE4_8422_2325u64);
    for flip in plan.bit_flips().take_while(|f| f.cycle <= 256) {
        fired += 1;
        fold = fnv(fold, flip.cycle);
        fold = fnv(fnv(fnv(fold, flip.bank), flip.addr), u64::from(flip.bit));
    }
    (stalls, fired, fold, plan.injected())
}

fn spin(iters: i64) -> Program {
    let mut asm = Assembler::new();
    asm.movi(0, 0).movi(1, iters);
    asm.label("loop").unwrap();
    asm.emit(Instr::AddI(0, 0, 1));
    asm.blt(0, 1, "loop");
    asm.emit(Instr::Halt);
    asm.assemble().unwrap()
}

/// Each lane loads, bumps and stores its own word six times, so
/// bit-flips reach the loaded values.
fn array_kernel() -> Program {
    let mut asm = Assembler::new();
    asm.emit(Instr::LaneId(0)).movi(2, 0).movi(3, 6);
    asm.label("loop").unwrap();
    asm.emit(Instr::Load(1, 0))
        .emit(Instr::Add(1, 1, 0))
        .emit(Instr::Store(0, 1))
        .emit(Instr::AddI(2, 2, 1));
    asm.blt(2, 3, "loop");
    asm.emit(Instr::Halt);
    asm.assemble().unwrap()
}

/// The flip values were re-recorded when bit flips moved from one roll
/// per cycle on the plan's stream to keyed gaps between flips (DESIGN.md
/// §7): the same law, different flips, and a schedule query injects
/// nothing, so the count is the stall decisions' alone.
#[test]
fn stall_and_flip_rolls_are_pinned() {
    let mut a = FaultPlan::seeded(0x5EED)
        .stall_dps(0.3)
        .flip_memory_bits(0.05);
    assert_eq!(
        rolls(&mut a),
        (
            [
                5_863_862_903_796_170_884,
                11_542_735_190_874_276_424,
                4_939_331_757_751_364_692,
                1_230_688_467_402_904_294
            ],
            16,
            2_626_664_306_638_501_731,
            78
        )
    );
    let mut b = FaultPlan::seeded(7).stall_dps(0.01).flip_memory_bits(0.7);
    assert_eq!(
        rolls(&mut b),
        ([0, 0, 128, 0], 195, 13_777_975_040_925_512_305, 1)
    );
}

/// Re-recorded when MIMD stalls moved from one hashed roll per core per
/// cycle to one stall run per fetch, drawn from each core's own stream
/// (DESIGN.md §7): the same stall law, different outcomes.
#[test]
fn multi_stall_storm_outcome_is_pinned() {
    let mut m = MultiMachine::new(MultiSubtype::from_index(1).unwrap(), 8, 16);
    let out = m
        .run_resilient(&vec![spin(40); 8], FaultPlan::seeded(3).stall_dps(0.3))
        .unwrap();
    assert_eq!(
        out,
        RunOutcome {
            stats: Stats {
                cycles: 129,
                instructions: 664,
                alu_ops: 320,
                mem_reads: 0,
                mem_writes: 0,
                messages: 0,
                stalls: 273,
            },
            faults_injected: 273,
            retries: 0,
            degraded: false,
        }
    );
}

/// Re-recorded when the array's lockstep stalls moved from one hashed
/// roll per lane per cycle to one geometric stall run per broadcast
/// (DESIGN.md §7): the same stall probabilities, different outcomes.
/// Re-recorded again when bit flips moved to keyed gaps: the same stall
/// runs and `Stats`, different flips (faults and memory).
#[test]
fn array_flip_storm_outcome_is_pinned() {
    let mut m = ArrayMachine::new(ArraySubtype::III, 8, 8);
    let plan = FaultPlan::seeded(11).stall_dps(0.2).flip_memory_bits(0.3);
    let out = m.run_resilient(&array_kernel(), plan).unwrap();
    assert_eq!(
        out,
        RunOutcome {
            stats: Stats {
                cycles: 233,
                instructions: 223,
                alu_ops: 96,
                mem_reads: 48,
                mem_writes: 48,
                messages: 0,
                stalls: 199,
            },
            faults_injected: 263,
            retries: 0,
            degraded: false,
        }
    );
    let mut memory = 0xCBF2_9CE4_8422_2325u64;
    for bank in 0..8 {
        for &w in m.memory().bank(bank).contents() {
            memory = fnv(memory, w as u64);
        }
    }
    assert_eq!(memory, 0x81fe_e72d_b6ec_f92d);
}
