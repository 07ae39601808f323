//! The span profiler's correctness contract, asserted end to end (the
//! profiling mirror of `tests/telemetry.rs`): for every machine family,
//! under dense and event-driven scheduling, the hierarchical
//! phase spans recorded by a [`SpanProfile`] are strictly nested,
//! monotonically stamped, and their **leaf** cycle extents sum exactly to
//! the run's [`Stats`] cycle total — on clean runs, on faulty resilient
//! runs, and on watchdog-tripped partial runs.

use skilltax_machine::array::{ArrayMachine, ArraySubtype};
use skilltax_machine::dataflow::graph::library::tree_sum;
use skilltax_machine::dataflow::{DataflowMachine, DataflowSubtype, Placement};
use skilltax_machine::fault::{FaultPlan, LinkOutage};
use skilltax_machine::interconnect::FabricTopology;
use skilltax_machine::multi::{MultiMachine, MultiSubtype};
use skilltax_machine::profile::{Phase, Profiled, SpanProfile};
use skilltax_machine::spatial::SpatialMachine;
use skilltax_machine::telemetry::Telemetry;
use skilltax_machine::uniprocessor::UniProcessor;
use skilltax_machine::workload::{run_backoff_storm_multi_traced, run_fabric_counters_traced};
use skilltax_machine::{Assembler, Instr, MachineError, Program, Word};

/// Count to `iters` and halt.
fn spin_program(iters: Word) -> Program {
    let mut asm = Assembler::new();
    asm.movi(0, 0).movi(1, iters);
    asm.label("loop").unwrap();
    asm.emit(Instr::AddI(0, 0, 1));
    asm.blt(0, 1, "loop");
    asm.emit(Instr::Halt);
    asm.assemble().unwrap()
}

/// Per-lane SIMD program with DP–DP lane exchanges.
fn lane_exchange_program() -> Program {
    let mut asm = Assembler::new();
    asm.emit(Instr::LaneId(0))
        .movi(1, 100)
        .emit(Instr::Add(1, 1, 0))
        .movi(3, 0)
        .emit(Instr::GetLane(6, 3, 1))
        .emit(Instr::Halt);
    asm.assemble().unwrap()
}

/// Assert the full span contract against a run's cycle total:
/// every span closed, strict nesting (children inside parents, stamps
/// monotone), and leaf extents tiling `[0, cycles]` exactly.
fn assert_profile_reconciles(profile: &SpanProfile, cycles: u64, label: &str) {
    assert_eq!(profile.open_spans(), 0, "{label}: spans left open");
    let spans = profile.spans();
    assert!(!spans.is_empty(), "{label}: no spans recorded");
    for (i, s) in spans.iter().enumerate() {
        assert!(s.end >= s.start, "{label}: span {i} ends before it starts");
        if let Some(p) = s.parent {
            assert!(p < i, "{label}: span {i} parents forward");
            assert!(
                spans[p].start <= s.start && s.end <= spans[p].end,
                "{label}: span {i} ({:?}) escapes its parent ({:?})",
                s.phase,
                spans[p].phase
            );
            assert_eq!(s.depth, spans[p].depth + 1, "{label}: depth mismatch");
        } else {
            assert_eq!(s.depth, 0, "{label}: parentless span below root depth");
        }
    }
    // Leaves are disjoint and stamped monotonically in record order.
    let leaves: Vec<_> = spans.iter().filter(|s| !s.has_children).collect();
    for pair in leaves.windows(2) {
        assert!(
            pair[0].end <= pair[1].start,
            "{label}: leaf spans overlap: {:?} then {:?}",
            pair[0],
            pair[1]
        );
    }
    assert_eq!(
        profile.leaf_cycle_total(),
        cycles,
        "{label}: leaf extents do not tile the run"
    );
}

#[test]
fn uniprocessor_profile_reconciles_with_stats() {
    let mut m = UniProcessor::new(8);
    let mut p = SpanProfile::new();
    let stats = m.run_traced(&spin_program(16), &mut p).unwrap();
    p.seal();
    assert_profile_reconciles(&p, stats.cycles, "uniprocessor");
    let phases: Vec<Phase> = p.spans().iter().map(|s| s.phase).collect();
    assert_eq!(phases, vec![Phase::Run, Phase::Decode, Phase::Slice]);
}

#[test]
fn array_profile_reconciles_with_a_lanes_leaf() {
    let mut m = ArrayMachine::new(ArraySubtype::II, 4, 4);
    let mut p = SpanProfile::new();
    let stats = m.run_traced(&lane_exchange_program(), &mut p).unwrap();
    p.seal();
    assert_profile_reconciles(&p, stats.cycles, "array");
    assert!(
        p.spans().iter().any(|s| s.phase == Phase::Lanes),
        "array runs profile their SIMD broadcast loop as a Lanes span"
    );
    // The lane exchange delivered three messages, marked as instants.
    let delivered = p
        .mark_counts()
        .iter()
        .find(|(ph, _)| *ph == Phase::Delivery);
    assert!(
        delivered.is_none(),
        "array getlane is not a mailbox delivery"
    );
}

#[test]
fn multi_profile_reconciles_under_both_schedulers() {
    let programs: Vec<Program> = (0..8).map(|i| spin_program(20 + 15 * i as Word)).collect();
    for (label, dense) in [("multi dense", true), ("multi event", false)] {
        let mut m = MultiMachine::new(MultiSubtype::from_index(1).unwrap(), 8, 4)
            .with_dense_reference(dense);
        let mut p = SpanProfile::new();
        let stats = m.run_traced(&programs, &mut p).unwrap();
        p.seal();
        assert_profile_reconciles(&p, stats.cycles, label);
    }
}

#[test]
fn multi_backoff_warp_spans_still_tile_the_run() {
    // A transient link outage puts the sender into exponential backoff:
    // the event scheduler time-warps over the sleep, which must surface
    // as Warp leaf spans that keep the tiling exact.
    let mut p = SpanProfile::new();
    let run = run_backoff_storm_multi_traced(3_000, 60, false, &mut p).unwrap();
    p.seal();
    assert_profile_reconciles(&p, run.stats.cycles, "event");
    let warped: u64 = p
        .spans()
        .iter()
        .filter(|s| s.phase == Phase::Warp)
        .map(|s| s.extent())
        .sum();
    assert!(warped > 0, "backoff sleep should warp");
}

#[test]
fn spatial_profile_reconciles_under_both_schedulers() {
    for (label, dense) in [("spatial dense", true), ("spatial event", false)] {
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
            spin_program(1),
            spin_program(40),
            spin_program(1),
        ];
        let mut p = SpanProfile::new();
        let stats = m.run_traced(&programs, &mut p).unwrap();
        p.seal();
        assert_profile_reconciles(&p, stats.cycles, label);
    }
}

#[test]
fn dataflow_profile_reconciles_dense_and_event() {
    let g = tree_sum(8);
    let inputs: Vec<i64> = (1..=8).collect();
    for (label, dense) in [("dataflow dense", true), ("dataflow event", false)] {
        let m = DataflowMachine::new(DataflowSubtype::IV, 4)
            .unwrap()
            .with_dense_reference(dense);
        let mut p = SpanProfile::new();
        let run = m
            .run_traced(&g, &inputs, &Placement::RoundRobin, &mut p)
            .unwrap();
        assert_eq!(run.outputs, vec![36]);
        p.seal();
        assert_profile_reconciles(&p, run.stats.cycles, label);
    }
}

#[test]
fn fabric_profile_reconciles() {
    let mut p = SpanProfile::new();
    let run = run_fabric_counters_traced(3, 64, &mut p).unwrap();
    p.seal();
    assert_profile_reconciles(&p, run.stats.cycles, "fabric");
}

#[test]
fn resilient_run_profiles_as_one_monotone_multi_root_timeline() {
    // IMP-X: a transient link outage plus a dead DP.  The main phase and
    // each degradation replay open their own root span; re-basing must
    // concatenate them so leaf extents still sum to the *accumulated*
    // cycle total, and the remap shows up as a Degrade mark.
    let subtype = MultiSubtype::from_code(0b1001).unwrap();
    let mut m = MultiMachine::new(subtype, 3, 8);
    let mut programs = {
        let mut sender = Assembler::new();
        sender.movi(0, 42).emit(Instr::Send(1, 0)).emit(Instr::Halt);
        let mut receiver = Assembler::new();
        receiver
            .emit(Instr::Recv(5, 0))
            .movi(6, 0)
            .emit(Instr::Store(6, 5))
            .emit(Instr::Halt);
        vec![sender.assemble().unwrap(), receiver.assemble().unwrap()]
    };
    programs.push(spin_program(4));
    let plan = FaultPlan::seeded(11)
        .fail_link(LinkOutage {
            from: 0,
            to: 1,
            from_cycle: 0,
            until_cycle: 6,
        })
        .fail_dp(2);
    let mut t = Profiled::new(Telemetry::new());
    let outcome = m.run_resilient_traced(&programs, plan, &mut t).unwrap();
    assert!(outcome.degraded && outcome.retries > 0);
    t.profile.seal();
    assert_profile_reconciles(&t.profile, outcome.stats.cycles, "resilient");
    let roots = t
        .profile
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .count();
    assert_eq!(roots, 2, "main phase plus one replay phase");
    assert!(t
        .profile
        .mark_counts()
        .iter()
        .any(|(ph, n)| *ph == Phase::Degrade && *n == 1));
    assert!(t
        .profile
        .mark_counts()
        .iter()
        .any(|(ph, _)| *ph == Phase::Retry));
    // The composed tracer still fed the event channel: telemetry
    // reconciles as before, off the same run.
    outcome.stats.reconcile(&t.inner.trace).unwrap();
}

#[test]
fn watchdog_partial_run_seals_at_the_high_water() {
    let mut m = UniProcessor::new(8).with_cycle_limit(50);
    let mut p = SpanProfile::new();
    let err = m.run_traced(&spin_program(10_000), &mut p).unwrap_err();
    assert!(matches!(err, MachineError::WatchdogTimeout { .. }));
    // The early return skipped the loop's own span exits; sealing closes
    // the open Run/Slice spans at the last stamped cycle — the budget.
    assert!(p.open_spans() > 0, "early return leaves spans open");
    p.seal();
    assert_profile_reconciles(&p, 50, "watchdog partial");
}
