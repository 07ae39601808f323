//! Differential tests for temporal decoupling (DESIGN.md §9): an untraced
//! interaction-free MIMD run advances its cores one quantum at a time, core
//! by core, yet must report exactly what the dense per-cycle loop reports —
//! the same `Stats`, the same errors (including embedded partial stats),
//! the same fault counts, and on success the same memory and registers.
//! Runs that are not interaction-free must fall back and still agree.
//!
//! The uni-processor runs on the same burst kernel; its tests pin the
//! outcomes of the per-instruction loop it replaced.

use std::fmt::Debug;

use skilltax_machine::multi::{MultiMachine, MultiSubtype};
use skilltax_machine::uniprocessor::UniProcessor;
use skilltax_machine::workload::run_mimd_stagger_multi_traced;
use skilltax_machine::{
    Assembler, CancelToken, FaultPlan, Instr, MachineError, NullTracer, Program, Stats, Telemetry,
    Word,
};
use skilltax_model::rng::XorShift64;

/// The run-loop quantum of the machine crate (its private `QUANTUM`).
/// Limits and deadlines are probed on both sides of its multiples.
const Q: u64 = 1024;

/// Words per memory bank in these tests.
const BANK: usize = 16;

/// A program whose prefix takes exactly `cycles` cycles (`cycles >= 5`)
/// and leaves r9 = -1 (an address every bank rejects) and r2 = 0; `tail`
/// starts on cycle `cycles + 1`.
fn after(cycles: u64, tail: &[Instr]) -> Program {
    assert!(cycles >= 5);
    let mut asm = Assembler::new();
    asm.movi(9, -1);
    let mut left = cycles - 1;
    if left % 2 == 1 {
        asm.emit(Instr::Nop);
        left -= 1;
    }
    asm.movi(0, 0).movi(1, ((left - 2) / 2) as Word);
    asm.label("loop").unwrap();
    asm.emit(Instr::AddI(0, 0, 1));
    asm.blt(0, 1, "loop");
    for &instr in tail {
        asm.emit(instr);
    }
    asm.assemble().unwrap()
}

/// Halts on exactly cycle `cycle`.
fn halt_at(cycle: u64) -> Program {
    after(cycle - 1, &[Instr::Halt])
}

/// Stores its loop count to address 0, then halts on cycle `cycle`.
fn store_then_halt_at(cycle: u64) -> Program {
    after(cycle - 2, &[Instr::Store(2, 0), Instr::Halt])
}

/// Fails with an out-of-bounds load on exactly cycle `cycle`.
fn fail_at(cycle: u64) -> Program {
    after(cycle - 1, &[Instr::Load(3, 9)])
}

/// Never halts.
fn forever() -> Program {
    Program::new(vec![Instr::Jmp(0)]).unwrap()
}

fn imp(code: u8, cores: usize) -> MultiMachine {
    MultiMachine::new(MultiSubtype::from_code(code).unwrap(), cores, BANK)
}

/// Run `run` on a default machine (which decouples when it can) and on a
/// dense-reference twin built the same way, then compare the outcomes
/// by their `Debug` form and, on success, every bank and register.
fn assert_matches_dense<T: Debug>(
    label: &str,
    build: impl Fn() -> MultiMachine,
    run: impl Fn(&mut MultiMachine) -> Result<T, MachineError>,
) {
    let mut decoupled = build();
    let mut dense = build().with_dense_reference(true);
    let got = run(&mut decoupled);
    let want = run(&mut dense);
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "{label}: outcomes diverged"
    );
    if got.is_err() {
        return; // architectural state after an error is unspecified
    }
    for bank in 0..dense.memory().bank_count() {
        assert_eq!(
            decoupled.memory().bank(bank).contents(),
            dense.memory().bank(bank).contents(),
            "{label}: bank {bank} diverged"
        );
    }
    for core in 0..dense.core_count() {
        for r in 0..16 {
            assert_eq!(
                decoupled.core_reg(core, r),
                dense.core_reg(core, r),
                "{label}: core {core} r{r} diverged"
            );
        }
    }
}

// -------------------------------------------------------------------------
// Eligible runs
// -------------------------------------------------------------------------

#[test]
fn spin_and_stagger_runs_match_dense_from_2_to_256_cores() {
    for cores in [2usize, 3, 16, 64, 256] {
        assert_matches_dense(
            &format!("simd spin {cores}"),
            || imp(0, cores),
            |m| m.run_simd(&halt_at(2 * Q + 7)),
        );
        // Staggered lengths straddling quantum boundaries, with a few
        // cores running off the end instead of halting.
        let programs: Vec<Program> = (0..cores)
            .map(|c| match c % 5 {
                0 => store_then_halt_at(Q + 1 + c as u64),
                1 => halt_at(6 + c as u64),
                2 => after(Q - 1, &[]),
                3 => store_then_halt_at(3 * Q),
                _ => halt_at(Q),
            })
            .collect();
        assert_matches_dense(
            &format!("stagger {cores}"),
            || imp(0, cores),
            |m| m.run(&programs),
        );
        let event = run_mimd_stagger_multi_traced(cores, 1_500, false, &mut NullTracer).unwrap();
        let dense = run_mimd_stagger_multi_traced(cores, 1_500, true, &mut NullTracer).unwrap();
        assert_eq!(event, dense, "stagger workload {cores}");
    }
}

#[test]
fn watchdog_and_deadline_partial_stats_match_dense_around_the_quantum() {
    for limit in [Q - 1, Q, Q + 1, 2 * Q + 1] {
        let scenarios: [(&str, Vec<Program>); 5] = [
            (
                "all early",
                vec![halt_at(9), halt_at(limit - 1), halt_at(7)],
            ),
            (
                "one at the limit",
                vec![halt_at(9), halt_at(limit), halt_at(8)],
            ),
            ("every core at the limit", vec![halt_at(limit); 3]),
            (
                "one past the limit",
                vec![halt_at(limit + 1), halt_at(6), halt_at(limit)],
            ),
            (
                "one never halts",
                vec![halt_at(10), forever(), store_then_halt_at(12)],
            ),
        ];
        for (name, programs) in &scenarios {
            assert_matches_dense(
                &format!("watchdog {limit} {name}"),
                || imp(0, programs.len()).with_cycle_limit(limit),
                |m| m.run(programs),
            );
            assert_matches_dense(
                &format!("deadline {limit} {name}"),
                || imp(0, programs.len()).with_cancel(CancelToken::new().with_deadline(limit)),
                |m| m.run(programs),
            );
        }
    }
}

#[test]
fn memory_errors_report_the_earliest_cycle_then_the_lowest_core() {
    let cases: [(&str, Vec<Program>); 6] = [
        (
            "several cores in one quantum",
            vec![
                fail_at(300),
                halt_at(900),
                fail_at(120),
                fail_at(120),
                fail_at(500),
            ],
        ),
        (
            "a later core fails earlier",
            vec![fail_at(700), halt_at(40), halt_at(Q + 3), fail_at(650)],
        ),
        (
            "same cycle, lower core wins",
            vec![halt_at(6), fail_at(Q), fail_at(Q), forever()],
        ),
        (
            "on both sides of a quantum boundary",
            vec![fail_at(Q + 1), fail_at(Q), halt_at(2 * Q)],
        ),
        (
            "in a later quantum",
            vec![forever(), fail_at(2 * Q + 1), fail_at(3 * Q - 1)],
        ),
        (
            "after the failing core halted others",
            vec![halt_at(30), halt_at(31), fail_at(32)],
        ),
    ];
    for (name, programs) in &cases {
        assert_matches_dense(name, || imp(0, programs.len()), |m| m.run(programs));
        // An error past the budget loses to the watchdog.
        assert_matches_dense(
            &format!("{name} under a tight budget"),
            || imp(0, programs.len()).with_cycle_limit(400),
            |m| m.run(programs),
        );
    }
}

#[test]
fn hashed_stall_plans_match_dense_through_run_resilient() {
    let programs: Vec<Program> = (0..8u64)
        .map(|c| match c % 4 {
            0 => store_then_halt_at(200 + 150 * c),
            1 => halt_at(Q + c),
            2 => fail_at(2 * Q + 40 * c),
            _ => after(600, &[Instr::Store(2, 0)]),
        })
        .collect();
    for seed in 0..6u64 {
        for rate in [0.05, 0.3, 0.9] {
            let plan = || FaultPlan::seeded(seed).stall_dps(rate);
            assert_matches_dense(
                &format!("stalls seed {seed} rate {rate}"),
                || imp(0, programs.len()),
                |m| m.run_resilient(&programs, plan()),
            );
            let healthy: Vec<Program> = programs
                .iter()
                .map(|p| {
                    if p.instrs().contains(&Instr::Load(3, 9)) {
                        halt_at(50)
                    } else {
                        p.clone()
                    }
                })
                .collect();
            assert_matches_dense(
                &format!("healthy stalls seed {seed} rate {rate}"),
                || imp(0, healthy.len()),
                |m| m.run_resilient(&healthy, plan()),
            );
            assert_matches_dense(
                &format!("stalls seed {seed} rate {rate} watchdog"),
                || imp(0, healthy.len()).with_cycle_limit(Q + 1),
                |m| m.run_resilient(&healthy, plan()),
            );
        }
    }
}

#[test]
fn degraded_replays_match_dense_on_an_ip_dp_crossbar_subtype() {
    // IMP-IX (0b1000) and IMP-XIII (0b1100): a dead DP's program replays
    // on a spare lane; every phase is interaction-free.
    for code in [0b1000u8, 0b1100] {
        for dead in 0..4usize {
            let programs: Vec<Program> = (0..4u64)
                .map(|c| store_then_halt_at(20 + 300 * c))
                .collect();
            for plan in [
                FaultPlan::seeded(3).fail_dp(dead),
                FaultPlan::seeded(4).fail_dp(dead).stall_dps(0.25),
                FaultPlan::seeded(5).fail_dp(dead).fail_dp((dead + 2) % 4),
            ] {
                assert_matches_dense(
                    &format!("degraded code {code:#06b} dead {dead} {plan:?}"),
                    || imp(code, 4),
                    |m| m.run_resilient(&programs, plan.clone()),
                );
            }
        }
    }
}

#[test]
fn random_local_programs_match_dense() {
    let mut rng = XorShift64::new(0x5EED);
    for case in 0..300 {
        let cores = 2 + rng.below(6) as usize;
        let programs: Vec<Program> = (0..cores).map(|_| random_program(&mut rng)).collect();
        let limit = [50, Q - 1, Q + 1, 3 * Q][case % 4];
        let stalls = case % 3 == 0;
        assert_matches_dense(
            &format!("random case {case}"),
            || imp(0, cores).with_cycle_limit(limit),
            |m| {
                if stalls {
                    m.run_resilient(&programs, FaultPlan::seeded(case as u64).stall_dps(0.2))
                        .map(|o| (o.stats, o.faults_injected))
                } else {
                    m.run(&programs).map(|s| (s, 0))
                }
            },
        );
    }
}

/// Local instructions only: arithmetic, lane ids, loads and stores that
/// sometimes leave the bank, and branches that may loop forever.
fn random_program(rng: &mut XorShift64) -> Program {
    let len = 4 + rng.below(10) as usize;
    let reg = |rng: &mut XorShift64| rng.below(6) as u8;
    let instrs: Vec<Instr> = (0..len)
        .map(|_| {
            let (a, b, c) = (reg(rng), reg(rng), reg(rng));
            let target = rng.below(len as u64) as usize;
            match rng.below(13) {
                0 => Instr::MovI(a, rng.below(20) as Word - 2),
                1 => Instr::AddI(a, b, rng.below(5) as Word - 1),
                2 => Instr::Add(a, b, c),
                3 => Instr::Sub(a, b, c),
                4 => Instr::Mul(a, b, c),
                5 => Instr::Min(a, b, c),
                6 => Instr::Max(a, b, c),
                7 => Instr::Load(a, b),
                8 => Instr::Store(a, b),
                9 => Instr::Blt(a, b, target),
                10 => Instr::Bne(a, b, target),
                11 => Instr::LaneId(a),
                _ => Instr::Halt,
            }
        })
        .collect();
    Program::new(instrs).unwrap()
}

// -------------------------------------------------------------------------
// Fall-back runs: cores that can observe each other
// -------------------------------------------------------------------------

#[test]
fn shared_memory_runs_fall_back_and_match_dense() {
    // IMP-III (0b0010, DP-DM crossbar): core 1 spins until core 0's store
    // lands, so only a cycle-interleaved run gets the timing right.
    let mut asm = Assembler::new();
    asm.movi(0, (BANK + 3) as Word).movi(2, 0);
    asm.label("spin").unwrap();
    asm.emit(Instr::Load(1, 0));
    asm.beq(1, 2, "spin");
    asm.emit(Instr::Halt);
    let consumer = asm.assemble().unwrap();
    let mut asm = Assembler::new();
    asm.movi(0, (BANK + 3) as Word).movi(1, 77);
    let producer_prefix = asm.assemble().unwrap();
    let mut producer = after(600, &[]).instrs().to_vec();
    producer.extend(producer_prefix.instrs());
    producer.extend([Instr::Store(0, 1), Instr::Halt]);
    let programs = vec![Program::new(producer).unwrap(), consumer];
    assert_matches_dense("shared crossbar", || imp(0b0010, 2), |m| m.run(&programs));
}

#[test]
fn fabric_programs_fall_back_and_match_dense() {
    // IMP-II (0b0001): a real message between two staggered cores.
    let mut sender = after(Q + 5, &[]).instrs().to_vec();
    sender.extend([Instr::MovI(4, 42), Instr::Send(1, 4), Instr::Halt]);
    let receiver = Program::new(vec![Instr::Recv(5, 0), Instr::Halt]).unwrap();
    let programs = vec![Program::new(sender).unwrap(), receiver, halt_at(9)];
    assert_matches_dense("send/recv", || imp(0b0001, 3), |m| m.run(&programs));
    // IMP-I: a send is a route error on a fabric-less machine, racing a
    // memory error on another core.
    let mut sender = after(80, &[]).instrs().to_vec();
    sender.extend([Instr::Send(1, 4), Instr::Halt]);
    let programs = vec![fail_at(120), Program::new(sender).unwrap(), fail_at(81)];
    assert_matches_dense("route denied", || imp(0, 3), |m| m.run(&programs));
    // A fabric instruction that is never reached still forces the
    // interleaved loop, which must agree too.
    let mut dormant = halt_at(30).instrs().to_vec();
    dormant.push(Instr::Recv(5, 0));
    let programs = vec![Program::new(dormant).unwrap(), store_then_halt_at(Q)];
    assert_matches_dense("unreachable recv", || imp(0, 2), |m| m.run(&programs));
}

#[test]
fn two_memory_cores_on_one_lane_fall_back_and_match_dense() {
    // IMP-IX: IP 0 is rebound onto lane 1, so IPs 0 and 1 share bank 1.
    // IP 1 polls address 3 until IP 0's store lands.
    let mut asm = Assembler::new();
    asm.movi(0, 3).movi(2, 0);
    asm.label("poll").unwrap();
    asm.emit(Instr::Load(1, 0));
    asm.beq(1, 2, "poll");
    asm.emit(Instr::Halt);
    let poller = asm.assemble().unwrap();
    let mut writer = after(300, &[]).instrs().to_vec();
    writer.extend([
        Instr::MovI(6, 3),
        Instr::MovI(7, 5),
        Instr::Store(6, 7),
        Instr::Halt,
    ]);
    let programs = vec![Program::new(writer).unwrap(), poller, halt_at(12)];
    assert_matches_dense(
        "shared lane",
        || {
            let mut m = imp(0b1000, 3);
            m.rebind(0, 1).unwrap();
            m
        },
        |m| m.run(&programs),
    );
}

// -------------------------------------------------------------------------
// Uni-processor on the burst kernel
// -------------------------------------------------------------------------

fn uni() -> UniProcessor {
    UniProcessor::new(64)
}

#[test]
fn uni_running_off_the_end_charges_no_cycle() {
    let one = Program::new(vec![Instr::MovI(0, 1)]).unwrap();
    let stats = uni().run(&one).unwrap();
    assert_eq!((stats.cycles, stats.instructions), (1, 1));
    for cycles in [5, Q - 1, Q, Q + 1, 2 * Q + 1] {
        let stats = uni().run(&after(cycles, &[])).unwrap();
        assert_eq!(stats.cycles, cycles);
        assert_eq!(stats.instructions, cycles);
    }
}

#[test]
fn uni_halt_watchdog_deadline_and_memory_outcomes_are_unchanged() {
    for c in [6, Q - 1, Q, Q + 1, 2 * Q + 1] {
        let stats = uni().run(&halt_at(c)).unwrap();
        assert_eq!((stats.cycles, stats.instructions), (c, c));
        assert_eq!(stats.stalls, 0);
        match uni().run(&fail_at(c)) {
            Err(MachineError::MemoryOutOfBounds {
                processor: 0,
                address: -1,
                size: 64,
            }) => {}
            other => panic!("fail_at({c}): {other:?}"),
        }
    }
    for limit in [Q - 1, Q, Q + 1, 2 * Q + 1] {
        let partial = Stats {
            cycles: limit,
            instructions: limit,
            ..Stats::default()
        };
        assert_eq!(
            uni().with_cycle_limit(limit).run(&forever()),
            Err(MachineError::WatchdogTimeout { limit, partial })
        );
        let deadline = CancelToken::new().with_deadline(limit);
        assert_eq!(
            uni().with_cancel(deadline).run(&forever()),
            Err(MachineError::Cancelled {
                at_cycle: limit,
                partial
            })
        );
        // A program that halts exactly on its last budgeted cycle wins.
        assert!(uni().with_cycle_limit(limit).run(&halt_at(limit)).is_ok());
        assert!(uni()
            .with_cycle_limit(limit)
            .run(&halt_at(limit + 1))
            .is_err());
    }
    let fabric = Program::new(vec![Instr::Send(1, 0), Instr::Halt]).unwrap();
    assert!(matches!(
        uni().run(&fabric),
        Err(MachineError::RouteDenied { from: 0, to: 0, .. })
    ));
}

#[test]
fn uni_traced_event_class_totals_are_unchanged() {
    // 2Q + 1 cycles: a delay loop, one store and a halt.
    let program = store_then_halt_at(2 * Q + 1);
    let mut t = Telemetry::new();
    let stats = uni().run_traced(&program, &mut t).unwrap();
    assert_eq!(stats, uni().run(&program).unwrap());
    stats.reconcile(&t.trace).unwrap();
    let iterations = Q - 2;
    assert_eq!(stats.cycles, 2 * Q + 1);
    assert_eq!(stats.instructions, 2 * Q + 1);
    assert_eq!(stats.alu_ops, iterations);
    assert_eq!((stats.mem_reads, stats.mem_writes), (0, 1));
    let counts = t.trace.class_counts();
    let count = |label: &str| counts.iter().find(|(l, _)| l == label).unwrap().1;
    assert_eq!(count("issue"), 2 * Q + 1);
    assert_eq!(count("stall"), 0);
}
