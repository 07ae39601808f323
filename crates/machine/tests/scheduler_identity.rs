//! Differential tests for the event-driven schedulers (DESIGN.md §9):
//! every machine family must produce exactly the same [`Stats`] and the
//! same per-event-class totals whether it runs its event-driven loop or
//! the dense per-cycle reference (`with_dense_reference(true)`), on
//! success paths *and* on error paths — deadlock, watchdog timeouts with
//! partial stats, and retry exhaustion.

use skilltax_machine::array::{ArrayMachine, ArraySubtype};
use skilltax_machine::dataflow::graph::library::tree_sum;
use skilltax_machine::dataflow::{DataflowMachine, DataflowSubtype, Placement};
use skilltax_machine::interconnect::FabricTopology;
use skilltax_machine::multi::{MultiMachine, MultiSubtype};
use skilltax_machine::spatial::SpatialMachine;
use skilltax_machine::universal::{
    program_counter, Bitstream, CellConfig, LutCell, LutFabric, Source,
};
use skilltax_machine::workload::{
    run_backoff_storm_multi_traced, run_mimd_stagger_multi_traced, run_reduce_dataflow_with,
    run_stagger_spatial_traced,
};
use skilltax_machine::{
    Assembler, CancelToken, FaultPlan, Instr, LinkOutage, MachineError, NullTracer, Phase,
    Profiled, Program, Stats, Telemetry, Word,
};

/// Run a closure once per scheduler and assert identical outcomes: equal
/// [`Stats`] on success, equal errors (including embedded partial stats)
/// on failure, and equal event-class totals either way.
fn assert_twin<F>(label: &str, mut run: F)
where
    F: FnMut(bool, &mut Telemetry) -> Result<Stats, MachineError>,
{
    let mut event_telemetry = Telemetry::new();
    let mut dense_telemetry = Telemetry::new();
    let event = run(false, &mut event_telemetry);
    let dense = run(true, &mut dense_telemetry);
    match (&event, &dense) {
        (Ok(e), Ok(d)) => assert_eq!(e, d, "{label}: stats diverged"),
        _ => assert_eq!(
            format!("{event:?}"),
            format!("{dense:?}"),
            "{label}: outcomes diverged"
        ),
    }
    assert_eq!(
        event_telemetry.trace.class_counts(),
        dense_telemetry.trace.class_counts(),
        "{label}: event-class totals diverged"
    );
}

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

// -------------------------------------------------------------------------
// Multi-processor (IMP)
// -------------------------------------------------------------------------

#[test]
fn multi_stagger_identity_across_sizes() {
    for cores in [4usize, 16, 64] {
        assert_twin(&format!("multi stagger {cores}"), |dense, t| {
            run_mimd_stagger_multi_traced(cores, 200, dense, t).map(|r| r.stats)
        });
    }
}

#[test]
fn multi_stagger_outputs_identical() {
    let event = run_mimd_stagger_multi_traced(16, 120, false, &mut NullTracer).unwrap();
    let dense = run_mimd_stagger_multi_traced(16, 120, true, &mut NullTracer).unwrap();
    assert_eq!(event, dense);
}

#[test]
fn multi_simd_identity() {
    assert_twin("multi simd", |dense, t| {
        let mut m = MultiMachine::new(MultiSubtype::from_index(1).unwrap(), 8, 4)
            .with_dense_reference(dense);
        m.run_simd_traced(&spin_program(32), t)
    });
}

#[test]
fn multi_blocked_receive_and_wake_identity() {
    // Even cores spin then send; odd cores block on the receive from the
    // start, so the event scheduler parks and later wakes them.
    let pair_programs = |n: usize| -> Vec<Program> {
        (0..n)
            .map(|i| {
                let peer = i ^ 1;
                let mut asm = Assembler::new();
                if i % 2 == 0 {
                    asm.movi(0, 9).movi(1, 0);
                    asm.label("spin").unwrap();
                    asm.emit(Instr::AddI(1, 1, 1));
                    asm.blt(1, 0, "spin");
                    asm.movi(2, i as Word);
                    asm.emit(Instr::Send(peer, 2)).emit(Instr::Halt);
                } else {
                    asm.emit(Instr::Recv(2, peer)).emit(Instr::Halt);
                }
                asm.assemble().unwrap()
            })
            .collect()
    };
    for cores in [2usize, 8] {
        assert_twin(&format!("blocked recv {cores}"), |dense, t| {
            let mut m = MultiMachine::new(MultiSubtype::from_index(2).unwrap(), cores, 4)
                .with_dense_reference(dense);
            m.run_traced(&pair_programs(cores), t)
        });
    }
}

#[test]
fn multi_deadlock_identity() {
    assert_twin("mutual recv deadlock", |dense, t| {
        let mut m = MultiMachine::new(MultiSubtype::from_index(2).unwrap(), 2, 4)
            .with_dense_reference(dense);
        let programs: Vec<Program> = (0..2)
            .map(|i| {
                let mut asm = Assembler::new();
                asm.emit(Instr::Recv(1, 1 - i)).emit(Instr::Halt);
                asm.assemble().unwrap()
            })
            .collect();
        m.run_traced(&programs, t)
    });
}

#[test]
fn multi_watchdog_identity_with_partial_stats() {
    // All cores still running at the limit.
    assert_twin("watchdog all running", |dense, t| {
        let mut m = MultiMachine::new(MultiSubtype::from_index(1).unwrap(), 4, 4)
            .with_cycle_limit(100)
            .with_dense_reference(dense);
        m.run_traced(&vec![spin_program(10_000); 4], t)
    });
    // One core still running, one parked on a receive that never comes:
    // the blocked core's stall backlog must be settled through the limit.
    assert_twin("watchdog with blocked waiter", |dense, t| {
        let mut m = MultiMachine::new(MultiSubtype::from_index(2).unwrap(), 2, 4)
            .with_cycle_limit(64)
            .with_dense_reference(dense);
        let mut recv = Assembler::new();
        recv.emit(Instr::Recv(2, 0)).emit(Instr::Halt);
        m.run_traced(&[spin_program(10_000), recv.assemble().unwrap()], t)
    });
}

#[test]
fn multi_backoff_storm_identity() {
    // The sender's exponential backoff sleeps across the outage; the
    // event scheduler warps between attempts.
    assert_twin("backoff storm", |dense, t| {
        run_backoff_storm_multi_traced(3_000, 60, dense, t).map(|r| r.stats)
    });
    // A permanent outage exhausts the retry budget: error path.
    assert_twin("retry exhausted", |dense, t| {
        run_backoff_storm_multi_traced(u64::MAX, 5, dense, t).map(|r| r.stats)
    });
}

/// Six IMP-X cores (DP–DP and IP–DP crossbars): for the `storm`,
/// messages between staggered spinners and a receiver that blocks for
/// most of the run; with `deadlock`, core 5 never sends, so core 4's
/// receive never returns; with `local`, no messages, so an untraced run
/// takes the decoupled path, and each core bumps a word of its bank.
/// With `failing`, a core's load leaves its bank on cycle 26.
fn stall_storm_programs(shape: &str) -> Vec<Program> {
    let spin_then = |iters: Word, tail: &[Instr]| {
        let mut asm = Assembler::new();
        asm.movi(0, 0).movi(1, iters);
        asm.label("loop").unwrap();
        asm.emit(Instr::AddI(0, 0, 1));
        asm.blt(0, 1, "loop");
        for &instr in tail {
            asm.emit(instr);
        }
        asm.emit(Instr::Halt);
        asm.assemble().unwrap()
    };
    let third = if shape.contains("failing") {
        spin_then(12, &[Instr::MovI(2, -1), Instr::Load(3, 2)])
    } else {
        spin_then(25, &[])
    };
    if shape.starts_with("local") {
        let bump = |i: Word| [Instr::MovI(2, i % 4), Instr::Load(3, 2), Instr::Store(2, 0)];
        let mut programs: Vec<Program> = (0..6).map(|i| spin_then(9 * i, &bump(i))).collect();
        programs[3] = third;
        return programs;
    }
    let last: &[Instr] = if shape == "deadlock" {
        &[]
    } else {
        &[Instr::MovI(2, 11), Instr::Send(4, 2)]
    };
    vec![
        spin_then(15, &[Instr::MovI(2, 7), Instr::Send(1, 2)]),
        spin_then(
            1,
            &[
                Instr::Recv(3, 0),
                Instr::Recv(4, 2),
                Instr::MovI(2, 0),
                Instr::Store(2, 4),
            ],
        ),
        spin_then(2, &[Instr::MovI(2, 9), Instr::Send(1, 2)]),
        third,
        spin_then(1, &[Instr::Recv(5, 5), Instr::Store(0, 5)]),
        spin_then(40, last),
    ]
}

#[test]
fn multi_stall_runs_identity_with_messages_backoff_and_a_dead_dp() {
    // Stall runs put cores to sleep in the event scheduler until their
    // fetch; the dense loop spends them a cycle at a time.  Bit flips
    // land on their own cycles whichever cycles a scheduler visits: on
    // warps, on every exit, and between decoupled quanta.  Mixed with
    // link-outage backoff, blocked receives, a dead DP whose program
    // replays on a spare, memory errors while others sleep, a deadlock,
    // a deadline, and budgets that cut a run (rate 1 never fetches
    // again) or trip between flips, the dense loop, the event scheduler
    // and (untraced, without messages) the decoupled path must report
    // the same outcome — faults injected included — the same memory,
    // and the same event-class totals.
    let outage = |until| LinkOutage {
        from: 0,
        to: 1,
        from_cycle: 0,
        until_cycle: until,
    };
    // Completed, degraded, watchdog, deadlock, cancelled, other errors.
    let mut seen = [0u32; 6];
    let (mut cut, mut mid_gap, mut warped_flips) = (0, 0, 0);
    for seed in 0..6u64 {
        let plans = [
            FaultPlan::seeded(seed).stall_dps(0.3),
            FaultPlan::seeded(seed).stall_dps(0.7).fail_link(outage(40)),
            FaultPlan::seeded(seed).stall_dps(0.5).fail_dp(3),
            FaultPlan::seeded(seed).stall_dps(0.2).fail_dp(4),
            FaultPlan::seeded(seed).stall_dps(0.9).fail_link(outage(8)),
            FaultPlan::seeded(seed).stall_dps(1.0),
            FaultPlan::seeded(seed).fail_link(outage(30)),
            FaultPlan::seeded(seed).flip_memory_bits(0.05),
            FaultPlan::seeded(seed).stall_dps(0.3).flip_memory_bits(0.2),
            FaultPlan::seeded(seed)
                .stall_dps(0.9)
                .flip_memory_bits(0.5)
                .fail_link(outage(20)),
            FaultPlan::seeded(seed)
                .stall_dps(0.5)
                .flip_memory_bits(1.0)
                .fail_dp(2),
        ];
        for plan in plans {
            for (limit, deadline) in [(100_000, None), (150, None), (61, None), (500, Some(47))] {
                for shape in ["storm", "failing", "deadlock", "local", "local failing"] {
                    let label =
                        format!("seed {seed} limit {limit} deadline {deadline:?} {shape} {plan:?}");
                    let machine = |dense: bool| {
                        let cancel = deadline
                            .map_or_else(CancelToken::new, |d| CancelToken::new().with_deadline(d));
                        MultiMachine::new(MultiSubtype::from_code(0b1001).unwrap(), 6, 4)
                            .with_cycle_limit(limit)
                            .with_dense_reference(dense)
                            .with_cancel(cancel)
                    };
                    let programs = stall_storm_programs(shape);
                    let mut event_m = machine(false);
                    let mut event_t = Profiled::new(Telemetry::new());
                    let event = event_m.run_resilient_traced(&programs, plan.clone(), &mut event_t);
                    let mut dense_m = machine(true);
                    let mut dense_t = Telemetry::new();
                    let dense = dense_m.run_resilient_traced(&programs, plan.clone(), &mut dense_t);
                    assert_eq!(format!("{event:?}"), format!("{dense:?}"), "{label}");
                    let memory = |m: &MultiMachine| format!("{:?}", m.memory());
                    assert_eq!(memory(&event_m), memory(&dense_m), "{label}");
                    assert_eq!(
                        event_t.inner.trace.class_counts(),
                        dense_t.trace.class_counts(),
                        "{label}: event-class totals diverged"
                    );
                    // Untraced, the event scheduler runs without hooks, and
                    // without messages it hands the run to the decoupled
                    // path, whose memory after an error is unspecified.
                    let mut untraced_m = machine(false);
                    let untraced = untraced_m.run_resilient(&programs, plan.clone());
                    assert_eq!(format!("{untraced:?}"), format!("{dense:?}"), "{label}");
                    let slot = match &dense {
                        Ok(outcome) => usize::from(outcome.degraded),
                        Err(MachineError::WatchdogTimeout { partial, .. }) => {
                            cut += u64::from(partial.stalls > 0);
                            2
                        }
                        Err(MachineError::Deadlock { .. }) => 3,
                        Err(MachineError::Cancelled { .. }) => 4,
                        Err(_) => 5,
                    };
                    seen[slot] += 1;
                    if slot != 3 && slot != 5 {
                        assert_eq!(memory(&untraced_m), memory(&dense_m), "{label}");
                    }
                    if plan.failed_dps().is_empty() {
                        let flips: Vec<u64> =
                            plan.bit_flips().take(4_096).map(|f| f.cycle).collect();
                        // A budget stopped the run between two flips.
                        if let Err(
                            MachineError::WatchdogTimeout { partial, .. }
                            | MachineError::Cancelled { partial, .. },
                        ) = &dense
                        {
                            mid_gap += u64::from(flips.binary_search(&partial.cycles).is_err());
                        }
                        // Flips the event scheduler landed on warped-over
                        // cycles.
                        let warps = event_t
                            .profile
                            .spans()
                            .iter()
                            .filter(|s| s.phase == Phase::Warp);
                        warped_flips += warps
                            .map(|w| flips.iter().filter(|&&c| w.start < c && c <= w.end).count())
                            .sum::<usize>();
                    }
                }
            }
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    assert!(cut > 0, "no budget cut a stall run");
    assert!(mid_gap > 0, "no budget tripped between flips");
    assert!(warped_flips > 0, "no flip landed inside a warp");
}

// -------------------------------------------------------------------------
// Spatial (ISP)
// -------------------------------------------------------------------------

#[test]
fn spatial_stagger_identity_across_sizes() {
    for cores in [4usize, 16, 48] {
        assert_twin(&format!("spatial stagger {cores}"), |dense, t| {
            run_stagger_spatial_traced(cores, 300, dense, t).map(|r| r.stats)
        });
    }
}

#[test]
fn spatial_fused_groups_identity() {
    assert_twin("spatial fused pairs", |dense, t| {
        let mut m = SpatialMachine::new(
            MultiSubtype::from_index(1).unwrap(),
            FabricTopology::Crossbar,
            4,
            4,
        )
        .unwrap()
        .with_dense_reference(dense);
        m.fuse(0, 1).unwrap();
        m.fuse(2, 3).unwrap();
        let programs = vec![
            spin_program(10),
            spin_program(1), // follower: ignored
            spin_program(40),
            spin_program(1), // follower: ignored
        ];
        m.run_traced(&programs, t)
    });
}

#[test]
fn spatial_watchdog_identity() {
    assert_twin("spatial watchdog", |dense, t| {
        let mut m = SpatialMachine::new(
            MultiSubtype::from_index(1).unwrap(),
            FabricTopology::Crossbar,
            4,
            4,
        )
        .unwrap()
        .with_cycle_limit(30)
        .with_dense_reference(dense);
        m.run_traced(&vec![spin_program(1_000); 4], t)
    });
}

// -------------------------------------------------------------------------
// Array (IAP)
// -------------------------------------------------------------------------

/// The lane-local vector-add kernel over bank layout `[a, b, c, _]`.
fn array_kernel() -> Program {
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

fn loaded_array(subtype: ArraySubtype, lanes: usize, dense: bool) -> ArrayMachine {
    let mut m = ArrayMachine::new(subtype, lanes, 4).with_dense_reference(dense);
    for lane in 0..lanes {
        m.memory_mut().bank_mut(lane).load(&[lane as Word, 7, 0, 0]);
    }
    m
}

#[test]
fn array_broadcast_identity() {
    for lanes in [4usize, 16, 64] {
        assert_twin(&format!("array vector add {lanes}"), |dense, t| {
            let mut m = loaded_array(ArraySubtype::I, lanes, dense);
            m.run_traced(&array_kernel(), t)
        });
    }
}

#[test]
fn array_masked_and_stalled_runs_identical() {
    // A dead lane shrinks the live set; a stall plan draws one stall run
    // per broadcast; bit flips roll once per cycle.  The dense reference
    // steps the lanes one by one over the alive mask and must take the
    // same runs and the same flip stream as the hoisted kernel.
    let plans = [
        (
            "failed lane",
            ArraySubtype::III,
            FaultPlan::seeded(3).fail_dp(2),
        ),
        (
            "stall runs",
            ArraySubtype::I,
            FaultPlan::seeded(4).stall_dps(0.3),
        ),
        (
            "stall runs, flips and a failed lane",
            ArraySubtype::III,
            FaultPlan::seeded(5)
                .fail_dp(6)
                .stall_dps(0.2)
                .flip_memory_bits(0.3),
        ),
        (
            "stall storm",
            ArraySubtype::I,
            FaultPlan::seeded(6).stall_dps(1.0),
        ),
    ];
    for (label, subtype, plan) in plans {
        let run = |dense: bool| {
            let mut m = loaded_array(subtype, 8, dense).with_cycle_limit(5_000);
            m.run_resilient(&array_kernel(), plan.clone())
        };
        assert_eq!(
            format!("{:?}", run(false)),
            format!("{:?}", run(true)),
            "{label}: outcomes diverged"
        );
    }
}

#[test]
fn array_watchdog_identity() {
    assert_twin("array watchdog", |dense, t| {
        let mut m = ArrayMachine::new(ArraySubtype::I, 4, 4)
            .with_cycle_limit(25)
            .with_dense_reference(dense);
        m.run_traced(&spin_program(1_000), t)
    });
}

// -------------------------------------------------------------------------
// Dataflow (DUP / DMP)
// -------------------------------------------------------------------------

#[test]
fn dataflow_reduce_identity_across_shapes() {
    let cases = [
        (DataflowSubtype::Uni, 1usize, 32usize),
        (DataflowSubtype::III, 4, 64),
        (DataflowSubtype::IV, 2, 64),
        (DataflowSubtype::IV, 8, 256),
    ];
    for (subtype, dps, n) in cases {
        let data: Vec<Word> = (0..n as Word).collect();
        assert_twin(
            &format!("dataflow reduce {subtype:?}/{dps}dp/{n}"),
            |dense, t| run_reduce_dataflow_with(subtype, dps, &data, dense, t).map(|r| r.stats),
        );
    }
}

#[test]
fn dataflow_outputs_identical() {
    let data: Vec<Word> = (0..100).collect();
    let event =
        run_reduce_dataflow_with(DataflowSubtype::IV, 8, &data, false, &mut NullTracer).unwrap();
    let dense =
        run_reduce_dataflow_with(DataflowSubtype::IV, 8, &data, true, &mut NullTracer).unwrap();
    assert_eq!(event, dense);
}

#[test]
fn dataflow_watchdog_identity_with_partial_stats() {
    assert_twin("dataflow watchdog", |dense, t| {
        let m = DataflowMachine::new(DataflowSubtype::IV, 2)
            .unwrap()
            .with_cycle_limit(16)
            .with_dense_reference(dense);
        let g = tree_sum(64);
        let inputs: Vec<Word> = (0..64).collect();
        m.run_traced(&g, &inputs, &Placement::RoundRobin, t)
            .map(|r| r.stats)
    });
}

// -------------------------------------------------------------------------
// Universal fabric (USP)
// -------------------------------------------------------------------------

#[test]
fn fabric_incremental_step_matches_dense_over_many_edges() {
    let fabric = LutFabric::new(256, 4, 32);
    let bitstream = program_counter(&fabric, 8).unwrap();
    let mut incremental = fabric.configure(&bitstream).unwrap();
    let mut dense = fabric
        .configure(&bitstream)
        .unwrap()
        .with_dense_reference(true);
    // Alternate between free-running and branching inputs so the input
    // cache is invalidated mid-stream.
    let no_branch = vec![false; 9];
    let mut branch = vec![false; 9];
    branch[0] = true;
    branch[3] = true;
    for edge in 0..300 {
        let inputs = if (edge / 10) % 3 == 2 {
            &branch
        } else {
            &no_branch
        };
        let a = incremental.step(inputs).unwrap();
        let b = dense.step(inputs).unwrap();
        assert_eq!(a, b, "outputs diverged at edge {edge}");
        assert_eq!(
            incremental.state(),
            dense.state(),
            "FF state diverged at edge {edge}"
        );
    }
    incremental.reset();
    dense.reset();
    assert_eq!(
        incremental.step(&no_branch).unwrap(),
        dense.step(&no_branch).unwrap()
    );
}

#[test]
fn fabric_toggle_flip_flop_identity() {
    let xor2 = LutCell::new(2, vec![false, true, true, false]).unwrap();
    let bitstream = Bitstream {
        cells: vec![CellConfig {
            lut: xor2,
            inputs: vec![Source::Cell(0), Source::Primary(0)],
            registered: true,
        }],
        outputs: vec![Source::Cell(0)],
    };
    let fabric = LutFabric::new(4, 2, 1);
    let mut incremental = fabric.configure(&bitstream).unwrap();
    let mut dense = fabric
        .configure(&bitstream)
        .unwrap()
        .with_dense_reference(true);
    for edge in 0..40 {
        let enable = [edge % 3 != 0];
        assert_eq!(
            incremental.step(&enable).unwrap(),
            dense.step(&enable).unwrap(),
            "outputs diverged at edge {edge}"
        );
        assert_eq!(incremental.state(), dense.state());
    }
}

#[test]
fn fabric_run_until_identity() {
    let fabric = LutFabric::new(256, 4, 32);
    let bitstream = program_counter(&fabric, 8).unwrap();
    let no_branch = vec![false; 9];
    let value_of = |out: &[bool]| {
        out.iter()
            .enumerate()
            .fold(0usize, |acc, (i, &b)| acc | (usize::from(b) << i))
    };
    assert_twin("fabric pc run_until", |dense, t| {
        let mut pc = fabric
            .configure(&bitstream)
            .unwrap()
            .with_dense_reference(dense);
        pc.run_until_traced(&no_branch, 1_000, |out| value_of(out) == 50, t)
            .map(|(_, stats)| stats)
    });
    assert_twin("fabric watchdog", |dense, t| {
        let mut pc = fabric
            .configure(&bitstream)
            .unwrap()
            .with_dense_reference(dense);
        pc.run_until_traced(&no_branch, 32, |_| false, t)
            .map(|(_, stats)| stats)
    });
}
