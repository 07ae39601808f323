//! Differential tests for cooperative cancellation (DESIGN.md §9/§11):
//! a [`CancelToken`] deadline composes with the watchdog budget at every
//! run loop — firing *before* the budget yields `Cancelled`, firing
//! *after* leaves the watchdog in charge, and a tie goes to the
//! cancellation — with partial [`Stats`] that are bit-identical across
//! the dense reference and the event-driven scheduler.  The asynchronous
//! flag stops promptly with the same typed error, though its stop cycle
//! is not replayable.

use skilltax_machine::array::{ArrayMachine, ArraySubtype};
use skilltax_machine::dataflow::{graph::library, DataflowMachine, DataflowSubtype, Placement};
use skilltax_machine::interconnect::FabricTopology;
use skilltax_machine::multi::{MultiMachine, MultiSubtype};
use skilltax_machine::spatial::SpatialMachine;
use skilltax_machine::uniprocessor::UniProcessor;
use skilltax_machine::universal::fabric::{Bitstream, CellConfig, LutFabric, Source};
use skilltax_machine::universal::lut::{tables, LutCell};
use skilltax_machine::vliw::{Bundle, VliwMachine, VliwProgram};
use skilltax_machine::{
    Assembler, CancelToken, Instr, MachineError, Program, Stats, Telemetry, Word,
};

/// Count to `iters` and halt (no memory traffic).
fn spin_program(iters: Word) -> Program {
    let mut asm = Assembler::new();
    asm.movi(0, 0).movi(1, iters);
    asm.label("loop").unwrap();
    asm.emit(Instr::AddI(0, 0, 1));
    asm.blt(0, 1, "loop");
    asm.emit(Instr::Halt);
    asm.assemble().unwrap()
}

fn expect_cancelled(result: Result<Stats, MachineError>, at: u64) -> Stats {
    match result {
        Err(MachineError::Cancelled { at_cycle, partial }) => {
            assert_eq!(at_cycle, at, "cancelled at the wrong cycle");
            assert_eq!(partial.cycles, at, "partial stats disagree with the stop");
            partial
        }
        other => panic!("expected Cancelled at {at}, got {other:?}"),
    }
}

// -------------------------------------------------------------------------
// Deadline x watchdog composition, identical across schedulers (IMP)
// -------------------------------------------------------------------------

#[test]
fn multi_deadline_before_at_after_budget_identity() {
    // (deadline, the error that owns the stop, the stop cycle).
    let cases = [
        (30u64, true, 30u64), // before the budget: cancellation
        (60, true, 60),       // at the budget: cancellation wins the tie
        (100, false, 60),     // after the budget: plain watchdog
    ];
    for (deadline, cancels, stop) in cases {
        let run = |dense: bool, t: &mut Telemetry| {
            let mut m = MultiMachine::new(MultiSubtype::from_index(1).unwrap(), 4, 4)
                .with_cycle_limit(60)
                .with_dense_reference(dense)
                .with_cancel(CancelToken::new().with_deadline(deadline));
            m.run_traced(&vec![spin_program(10_000); 4], t)
        };
        let mut base_telemetry = Telemetry::new();
        let base = run(true, &mut base_telemetry);
        match &base {
            Err(MachineError::Cancelled { at_cycle, partial }) => {
                assert!(cancels, "deadline {deadline}: unexpected cancellation");
                assert_eq!((*at_cycle, partial.cycles), (stop, stop));
            }
            Err(MachineError::WatchdogTimeout { limit, partial }) => {
                assert!(!cancels, "deadline {deadline}: watchdog beat the deadline");
                assert_eq!((*limit, partial.cycles), (stop, stop));
            }
            other => panic!("deadline {deadline}: expected a typed stop, got {other:?}"),
        }
        let mut telemetry = Telemetry::new();
        let outcome = run(false, &mut telemetry);
        assert_eq!(
            format!("{base:?}"),
            format!("{outcome:?}"),
            "deadline {deadline}: outcomes diverged"
        );
        assert_eq!(
            base_telemetry.trace.class_counts(),
            telemetry.trace.class_counts(),
            "deadline {deadline}: event-class totals diverged"
        );
    }
}

// -------------------------------------------------------------------------
// Uni-processor (IUP)
// -------------------------------------------------------------------------

#[test]
fn uni_deadline_composes_with_the_watchdog() {
    let run = |deadline: u64| {
        let mut m = UniProcessor::new(4)
            .with_cycle_limit(40)
            .with_cancel(CancelToken::new().with_deadline(deadline));
        m.run(&spin_program(10_000))
    };
    expect_cancelled(run(15), 15);
    assert!(matches!(
        run(80),
        Err(MachineError::WatchdogTimeout {
            limit: 40,
            partial: Stats { cycles: 40, .. }
        })
    ));
}

#[test]
fn uni_pre_raised_flag_cancels_before_the_first_cycle() {
    let token = CancelToken::new();
    token.cancel();
    let mut m = UniProcessor::new(4).with_cancel(token);
    expect_cancelled(m.run(&spin_program(10_000)), 0);
}

#[test]
fn flag_raised_from_another_thread_stops_a_running_machine() {
    let token = CancelToken::new();
    let remote = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(10));
        remote.cancel();
    });
    // An infinite loop bounded only by a budget far beyond the test's
    // patience: only the flag can stop it this side of the timeout.
    let mut asm = Assembler::new();
    asm.label("loop").unwrap();
    asm.emit(Instr::AddI(0, 0, 1));
    asm.jmp("loop");
    asm.emit(Instr::Halt);
    let mut m = UniProcessor::new(4)
        .with_cycle_limit(u64::MAX)
        .with_cancel(token);
    let result = m.run(&asm.assemble().unwrap());
    canceller.join().unwrap();
    match result {
        Err(MachineError::Cancelled { at_cycle, partial }) => {
            assert_eq!(partial.cycles, at_cycle);
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn uni_reset_and_fresh_token_support_pool_reuse() {
    let mut m = UniProcessor::new(4).with_cancel(CancelToken::new().with_deadline(5));
    expect_cancelled(m.run(&spin_program(10_000)), 5);
    // `reset` scrubs state without touching the (request-scoped) token;
    // the pool swaps in a fresh one before the next tenant.
    m.reset();
    m.set_cancel(CancelToken::new());
    let stats = m.run(&spin_program(10)).unwrap();
    assert!(stats.cycles > 5, "reset machine still carries the deadline");
    assert_eq!(m.reg(0), 10, "reset failed to scrub the register file");
}

// -------------------------------------------------------------------------
// Array (IAP), dense vs masked path
// -------------------------------------------------------------------------

#[test]
fn array_deadline_identical_on_both_paths() {
    let run = |dense: bool| {
        let mut m = ArrayMachine::new(ArraySubtype::I, 4, 4)
            .with_cycle_limit(50)
            .with_dense_reference(dense)
            .with_cancel(CancelToken::new().with_deadline(20));
        m.run(&spin_program(10_000))
    };
    let base = run(true);
    expect_cancelled(run(false), 20);
    assert_eq!(format!("{base:?}"), format!("{:?}", run(false)));
}

// -------------------------------------------------------------------------
// Spatial (ISP), dense vs active-set loops
// -------------------------------------------------------------------------

#[test]
fn spatial_deadline_identical_on_both_schedulers() {
    let run = |dense: bool, t: &mut Telemetry| {
        let mut m = SpatialMachine::new(
            MultiSubtype::from_index(1).unwrap(),
            FabricTopology::Crossbar,
            4,
            4,
        )
        .unwrap()
        .with_cycle_limit(60)
        .with_dense_reference(dense)
        .with_cancel(CancelToken::new().with_deadline(20));
        m.run_traced(&vec![spin_program(10_000); 4], t)
    };
    let mut base_telemetry = Telemetry::new();
    let base = run(true, &mut base_telemetry);
    match &base {
        Err(MachineError::Cancelled {
            at_cycle: 20,
            partial,
        }) => assert_eq!(partial.cycles, 20),
        other => panic!("expected Cancelled at 20, got {other:?}"),
    }
    let mut telemetry = Telemetry::new();
    let outcome = run(false, &mut telemetry);
    assert_eq!(format!("{base:?}"), format!("{outcome:?}"));
    assert_eq!(
        base_telemetry.trace.class_counts(),
        telemetry.trace.class_counts()
    );
}

// -------------------------------------------------------------------------
// Dataflow (DUP), dense vs event firing loops
// -------------------------------------------------------------------------

#[test]
fn dataflow_deadline_identical_on_both_schedulers() {
    let graph = library::tree_sum(64);
    let inputs: Vec<Word> = (0..64).collect();
    let run = |dense: bool| {
        let machine = DataflowMachine::new(DataflowSubtype::Uni, 1)
            .unwrap()
            .with_dense_reference(dense)
            .with_cancel(CancelToken::new().with_deadline(10));
        machine.run(&graph, &inputs, &Placement::RoundRobin)
    };
    for dense in [true, false] {
        match run(dense) {
            Err(MachineError::Cancelled {
                at_cycle: 10,
                partial,
            }) => {
                assert_eq!(partial.cycles, 10, "dense={dense}");
            }
            other => panic!("dense={dense}: expected Cancelled at 10, got {other:?}"),
        }
    }
    assert_eq!(format!("{:?}", run(true)), format!("{:?}", run(false)));
}

// -------------------------------------------------------------------------
// Universal fabric (USP), incremental and dense clock edges
// -------------------------------------------------------------------------

/// Two disconnected toggle flip-flops, and a predicate that never holds
/// keeps the fabric clocking until something trips.
fn two_region_togglers() -> Bitstream {
    let toggler = |_: usize| CellConfig {
        lut: LutCell::new(2, tables::XOR2.to_vec()).unwrap(),
        inputs: vec![Source::Cell(0), Source::Primary(0)],
        registered: true,
    };
    let mut cells: Vec<CellConfig> = (0..2).map(toggler).collect();
    cells[1].inputs[0] = Source::Cell(1);
    Bitstream {
        outputs: vec![Source::Cell(0), Source::Cell(1)],
        cells,
    }
}

#[test]
fn fabric_deadline_identical_on_both_clock_paths() {
    let fabric = LutFabric::new(4, 2, 1);
    let run = |dense: bool| {
        let mut f = fabric
            .configure(&two_region_togglers())
            .unwrap()
            .with_dense_reference(dense)
            .with_cancel(CancelToken::new().with_deadline(10));
        f.run_until(&[true], 32, |_| false)
    };
    for dense in [false, true] {
        match run(dense) {
            Err(MachineError::Cancelled {
                at_cycle: 10,
                partial,
            }) => {
                assert_eq!(partial.cycles, 10, "dense={dense}");
            }
            other => panic!("dense={dense}: expected Cancelled at 10, got {other:?}"),
        }
    }
    assert_eq!(format!("{:?}", run(false)), format!("{:?}", run(true)));
}

// -------------------------------------------------------------------------
// VLIW (IAP issue-style variant)
// -------------------------------------------------------------------------

#[test]
fn vliw_deadline_cancels_an_infinite_sequencer_loop() {
    let bundles = vec![Bundle {
        slots: vec![Some(Instr::AddI(0, 0, 1)), None],
        control: Some(Instr::Jmp(0)),
    }];
    let program = VliwProgram::new(bundles, 2).unwrap();
    let mut m = VliwMachine::new(ArraySubtype::I, 2, 4)
        .with_cycle_limit(1_000)
        .with_cancel(CancelToken::new().with_deadline(12));
    expect_cancelled(m.run(&program), 12);
}
