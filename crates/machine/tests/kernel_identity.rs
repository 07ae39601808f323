//! Differential tests for the local-instruction kernel (DESIGN.md §9): the
//! burst kernel that runs the uni-processor and every temporally decoupled
//! MIMD core must do exactly what stepping the same program one
//! instruction at a time through [`DataProcessor::execute_local`] does —
//! the same registers, memory, clock, `Stats`, operation counters, end
//! kind and error, at every cycle bound and under sampled stall runs.
//!
//! The array's lockstep kernel, which decodes each broadcast once and
//! runs the opcode over every live lane, must likewise match a reference
//! that steps the lanes one by one — fault-free, with bit flips only, and
//! with the sampled stall runs spent one cycle at a time.
//!
//! The reference below is the per-instruction loop the kernel replaced:
//! before each fetch it spends the fetch's stall run from the core's
//! stall stream one cycle at a time, a fabric instruction or the end of
//! the program stops it without a charge, and every executed instruction
//! (a `Halt` and one whose memory access fails included) costs one cycle
//! and one issue.

use skilltax_machine::array::{ArrayMachine, ArraySubtype};
use skilltax_machine::dp::{DataProcessor, LocalOutcome};
use skilltax_machine::mem::{BankedMemory, DataTopology};
use skilltax_machine::multi::{MultiMachine, MultiSubtype};
use skilltax_machine::uniprocessor::UniProcessor;
use skilltax_machine::{
    EventKind, FaultKind, FaultPlan, Instr, LinkOutage, MachineError, NullTracer, Program,
    RunOutcome, Stats, Telemetry, Tracer, Word,
};
use skilltax_model::rng::XorShift64;

/// The run-loop quantum of the machine crate (its private `QUANTUM`).
const Q: u64 = 1024;

/// Words per memory bank in these tests.
const BANK: usize = 16;

/// Cycle limits every program is run under; `u64::MAX` is unbounded and
/// is only used on programs the reference sees finish.
const LIMITS: [u64; 5] = [1, Q - 1, Q, Q + 1, u64::MAX];

/// How the reference run stopped.
#[derive(Debug, Clone, PartialEq)]
enum Stop {
    /// The cycle limit was reached.
    Bound,
    Halt,
    /// The program counter left the program (no cycle charged).
    OffEnd,
    /// The next instruction needs the DP–DP fabric (no cycle charged).
    Fabric,
    Error(MachineError),
}

/// One processor stepped one instruction at a time.
struct Reference {
    dp: DataProcessor,
    mem: BankedMemory,
    pc: usize,
    cycle: u64,
    instructions: u64,
    stalls: u64,
    end: Stop,
    taken: u64,
    untaken: u64,
}

impl Reference {
    /// Run `program` on lane `lane` of `mem` until `limit`, recording
    /// every event into `tracer` in the kernel's order.
    fn run<T: Tracer>(
        program: &Program,
        lane: usize,
        mem: BankedMemory,
        limit: u64,
        plan: Option<FaultPlan>,
        tracer: &mut T,
    ) -> Reference {
        // Core `lane` drives data processor `lane`: no rebinding here.
        let law = plan.as_ref().and_then(FaultPlan::stall_law);
        let mut stream = plan.map(|p| p.stall_stream(lane, lane));
        let mut r = Reference {
            dp: DataProcessor::new(lane),
            mem,
            pc: 0,
            cycle: 0,
            instructions: 0,
            stalls: 0,
            end: Stop::Bound,
            taken: 0,
            untaken: 0,
        };
        r.end = loop {
            if r.cycle >= limit {
                break Stop::Bound;
            }
            if let (Some(law), Some(stream)) = (&law, stream.as_mut()) {
                if stream.fetch_at(law, r.cycle + 1, limit) > r.cycle + 1 {
                    r.cycle += 1;
                    r.stalls += 1;
                    tracer.record(r.cycle, EventKind::FaultInjected(FaultKind::Stall));
                    tracer.record(r.cycle, EventKind::Stall);
                    continue;
                }
            }
            let Some(instr) = program.fetch(r.pc) else {
                break Stop::OffEnd;
            };
            if instr.uses_dp_dp() {
                break Stop::Fabric;
            }
            r.cycle += 1;
            r.instructions += 1;
            tracer.record(r.cycle, EventKind::Issue);
            let conditional = matches!(instr, Instr::Beq(..) | Instr::Bne(..) | Instr::Blt(..));
            match r.dp.execute_traced(instr, &mut r.mem, r.cycle, tracer) {
                Ok(LocalOutcome::Next) => {
                    r.untaken += u64::from(conditional);
                    r.pc += 1;
                }
                Ok(LocalOutcome::Branch(t)) => {
                    r.taken += u64::from(conditional);
                    r.pc = t;
                }
                Ok(LocalOutcome::Halt) => break Stop::Halt,
                Err(e) => break Stop::Error(e),
            }
        };
        r
    }

    /// The clock and issue/stall counts, as partial stats carry them.
    fn partial(&self) -> Stats {
        Stats {
            cycles: self.cycle,
            instructions: self.instructions,
            stalls: self.stalls,
            ..Stats::default()
        }
    }

    /// The full statistics of a finished run.
    fn stats(&self) -> Stats {
        let (alu_ops, mem_reads, mem_writes) = self.dp.counters();
        Stats {
            alu_ops,
            mem_reads,
            mem_writes,
            ..self.partial()
        }
    }

    fn regs(&self) -> Vec<Word> {
        (0..16).map(|r| self.dp.reg(r)).collect()
    }
}

/// What the uni-processor must report for a reference run.
fn uni_expectation(r: &Reference, limit: u64) -> Result<Stats, MachineError> {
    match &r.end {
        Stop::Halt | Stop::OffEnd => Ok(r.stats()),
        Stop::Bound => Err(MachineError::WatchdogTimeout {
            limit,
            partial: r.partial(),
        }),
        Stop::Fabric => Err(MachineError::RouteDenied {
            from: 0,
            to: 0,
            reason: "a uni-processor has no DP-DP fabric".to_owned(),
        }),
        Stop::Error(e) => Err(e.clone()),
    }
}

/// What a MIMD run of independent cores must report, given one reference
/// run per core: the earliest `(cycle, core)` error, else the watchdog
/// with the summed issue and stall counts, else the summed statistics
/// with the clock at the latest finish (a core that runs off its program
/// spends the cycle on which it finds the end).
fn multi_expectation(cores: &[Reference], limit: u64) -> Result<Stats, MachineError> {
    let first_error = cores
        .iter()
        .filter_map(|r| match &r.end {
            Stop::Error(e) => Some((r.cycle, e)),
            _ => None,
        })
        .min_by_key(|&(cycle, _)| cycle);
    if let Some((_, e)) = first_error {
        return Err(e.clone());
    }
    let sum = |f: fn(&Reference) -> Stats| {
        cores.iter().map(f).fold(Stats::default(), |a, b| Stats {
            cycles: a.cycles.max(b.cycles),
            instructions: a.instructions + b.instructions,
            alu_ops: a.alu_ops + b.alu_ops,
            mem_reads: a.mem_reads + b.mem_reads,
            mem_writes: a.mem_writes + b.mem_writes,
            messages: 0,
            stalls: a.stalls + b.stalls,
        })
    };
    if cores.iter().any(|r| r.end == Stop::Bound) {
        return Err(MachineError::WatchdogTimeout {
            limit,
            partial: Stats {
                cycles: limit,
                ..sum(Reference::partial)
            },
        });
    }
    Ok(sum(|r| Stats {
        cycles: r.cycle + u64::from(r.end == Stop::OffEnd),
        ..r.stats()
    }))
}

/// Which ends, branch directions and stalls a batch of cases reached.
#[derive(Default)]
struct Coverage {
    ends: [u64; 5],
    taken: u64,
    untaken: u64,
    stalls: u64,
    unbounded: u64,
}

impl Coverage {
    fn add(&mut self, r: &Reference) {
        let slot = match r.end {
            Stop::Bound => 0,
            Stop::Halt => 1,
            Stop::OffEnd => 2,
            Stop::Fabric => 3,
            Stop::Error(_) => 4,
        };
        self.ends[slot] += 1;
        self.taken += r.taken;
        self.untaken += r.untaken;
        self.stalls += r.stalls;
    }

    fn assert_complete(&self, fabric: bool) {
        for (slot, &n) in self.ends.iter().enumerate() {
            // Slot 3 (fabric) is only reachable when the generator ends
            // programs on a fabric instruction.
            assert!(
                n > 0 || (slot == 3 && !fabric),
                "end kind {slot} never reached: {:?}",
                self.ends
            );
        }
        assert!(self.taken > 0 && self.untaken > 0);
        assert!(self.unbounded > 0, "no case ran unbounded");
    }
}

/// A counted delay loop of `iterations` on r14/r15 (which the random body
/// never names), so programs cross quantum boundaries mid-run.
fn delay(iterations: u64) -> Vec<Instr> {
    vec![
        Instr::MovI(14, 0),
        Instr::MovI(15, iterations as Word),
        Instr::AddI(14, 14, 1),
        Instr::Blt(14, 15, 2),
    ]
}

/// A random local program: every opcode, loads and stores whose
/// addresses (immediates from -4 to 35, sums and products of them) land
/// both in and out of range, branches both ways, and an ending that
/// halts, runs off the end or — when `fabric` — stops on a `send` or
/// `getlane`.
fn random_program(rng: &mut XorShift64, fabric: bool) -> Program {
    let mut instrs = if rng.chance(0.5) {
        delay(rng.below(2 * Q))
    } else {
        Vec::new()
    };
    let base = instrs.len();
    let len = 3 + rng.below(12) as usize;
    // 0: halt, 1: run off the end, 2: send, 3: getlane.
    let ending = rng.below(if fabric { 4 } else { 2 });
    let targets = len as u64 + u64::from(ending != 1);
    let reg = |rng: &mut XorShift64| rng.below(6) as u8;
    for _ in 0..len {
        let (a, b, c) = (reg(rng), reg(rng), reg(rng));
        let target = base + rng.below(targets) as usize;
        instrs.push(match rng.below(17) {
            0 => Instr::Nop,
            1 => Instr::MovI(a, rng.below(40) as Word - 4),
            2 => Instr::Mov(a, b),
            3 => Instr::Add(a, b, c),
            4 => Instr::Sub(a, b, c),
            5 => Instr::Mul(a, b, c),
            6 => Instr::Min(a, b, c),
            7 => Instr::Max(a, b, c),
            8 => Instr::AddI(a, b, rng.below(5) as Word - 1),
            9 => Instr::Load(a, b),
            10 => Instr::Store(a, b),
            11 => Instr::LaneId(a),
            12 => Instr::Beq(a, b, target),
            13 => Instr::Bne(a, b, target),
            14 => Instr::Blt(a, b, target),
            15 => Instr::Jmp(target),
            _ => Instr::Halt,
        });
    }
    match ending {
        0 => instrs.push(Instr::Halt),
        1 => {}
        2 => instrs.push(Instr::Send(1, reg(rng))),
        _ => instrs.push(Instr::GetLane(reg(rng), reg(rng), reg(rng))),
    }
    Program::new(instrs).expect("random programs are valid")
}

/// The limits a program is run under: the finite ones always, unbounded
/// only when the reference sees the program finish within `4Q` cycles.
fn limits_for(finishes: bool) -> impl Iterator<Item = u64> {
    LIMITS
        .into_iter()
        .filter(move |&l| l != u64::MAX || finishes)
}

fn finishes(program: &Program, lane: usize, mem: &BankedMemory, plan: Option<FaultPlan>) -> bool {
    let r = Reference::run(program, lane, mem.clone(), 4 * Q, plan, &mut NullTracer);
    r.end != Stop::Bound
}

#[test]
fn uni_runs_match_single_steps_at_every_bound() {
    let mut rng = XorShift64::new(0x4B45_524E);
    let mut coverage = Coverage::default();
    for case in 0..400 {
        let program = random_program(&mut rng, true);
        let mem = BankedMemory::new(1, BANK, DataTopology::PrivateBanks);
        let done = finishes(&program, 0, &mem, None);
        for limit in limits_for(done) {
            let mut events = Telemetry::new();
            let want = Reference::run(&program, 0, mem.clone(), limit, None, &mut events);
            coverage.add(&want);
            coverage.unbounded += u64::from(limit == u64::MAX);
            let label = format!("case {case} limit {limit}: {program}");
            let mut m = UniProcessor::new(BANK).with_cycle_limit(limit);
            assert_eq!(m.run(&program), uni_expectation(&want, limit), "{label}");
            let regs: Vec<Word> = (0..16).map(|r| m.reg(r)).collect();
            assert_eq!(regs, want.regs(), "{label}: registers");
            assert_eq!(
                m.memory().bank(0).contents(),
                want.mem.bank(0).contents(),
                "{label}: memory"
            );
            // The traced kernel records exactly the reference's events
            // (the run loop adds its own watchdog event on top).
            let mut traced = UniProcessor::new(BANK).with_cycle_limit(limit);
            let mut got = Telemetry::new();
            let outcome = traced.run_traced(&program, &mut got);
            assert_eq!(outcome, uni_expectation(&want, limit), "{label}: traced");
            let strip = |t: &Telemetry| -> Vec<(u64, EventKind)> {
                t.trace
                    .events()
                    .filter(|e| !matches!(e.kind, EventKind::Watchdog))
                    .map(|e| (e.cycle, e.kind))
                    .collect()
            };
            assert_eq!(strip(&got), strip(&events), "{label}: events");
        }
    }
    coverage.assert_complete(true);
}

/// Run `programs` (one per core) on a fresh `code` machine and check the
/// result, and on success every core's registers and the banks, against
/// one reference run per core.
fn check_multi(
    label: &str,
    code: u8,
    programs: &[Program],
    limit: u64,
    plan: Option<FaultPlan>,
    coverage: &mut Coverage,
) {
    let cores = programs.len();
    let build = || {
        MultiMachine::new(MultiSubtype::from_code(code).unwrap(), cores, BANK)
            .with_cycle_limit(limit)
    };
    let topology = build().memory().topology();
    let refs: Vec<Reference> = programs
        .iter()
        .enumerate()
        .map(|(lane, p)| {
            let mem = BankedMemory::new(cores, BANK, topology);
            Reference::run(p, lane, mem, limit, plan.clone(), &mut NullTracer)
        })
        .collect();
    refs.iter().for_each(|r| coverage.add(r));
    let want = multi_expectation(&refs, limit);
    let mut m = build();
    match plan {
        Some(plan) => {
            let stalls = refs.iter().map(|r| r.stalls).sum();
            let want = want.clone().map(|stats| RunOutcome {
                faults_injected: stalls,
                ..RunOutcome::clean(stats)
            });
            assert_eq!(m.run_resilient(programs, plan), want, "{label}");
        }
        None => assert_eq!(m.run(programs), want, "{label}"),
    }
    if want.is_err() {
        return; // architectural state after an error is unspecified
    }
    for (core, r) in refs.iter().enumerate() {
        let regs: Vec<Word> = (0..16).map(|reg| m.core_reg(core, reg)).collect();
        assert_eq!(regs, r.regs(), "{label}: core {core} registers");
    }
    for bank in 0..cores {
        // Private banks: core i's reference owns bank i.  Shared banks:
        // only core 0 touches memory.
        let owner = if topology == DataTopology::PrivateBanks {
            bank
        } else {
            0
        };
        assert_eq!(
            m.memory().bank(bank).contents(),
            refs[owner].mem.bank(bank).contents(),
            "{label}: bank {bank}"
        );
    }
}

#[test]
fn decoupled_multi_runs_match_single_steps_with_and_without_stalls() {
    let mut rng = XorShift64::new(0xDEC0_0C1E);
    let mut coverage = Coverage::default();
    for case in 0..150u64 {
        let cores = 2 + rng.below(2) as usize;
        let programs: Vec<Program> = (0..cores)
            .map(|_| random_program(&mut rng, false))
            .collect();
        let plans = [None, Some(FaultPlan::seeded(case).stall_dps(0.25))];
        for plan in plans {
            let done = programs.iter().enumerate().all(|(lane, p)| {
                let mem = BankedMemory::new(cores, BANK, DataTopology::PrivateBanks);
                finishes(p, lane, &mem, plan.clone())
            });
            for limit in limits_for(done) {
                coverage.unbounded += u64::from(limit == u64::MAX);
                let label = format!("case {case} limit {limit} stalls {}", plan.is_some());
                check_multi(&label, 0, &programs, limit, plan.clone(), &mut coverage);
            }
        }
    }
    coverage.assert_complete(false);
    assert!(coverage.stalls > 0);
}

#[test]
fn rate_zero_plans_run_like_no_plan() {
    // A plan without a stall rate (here a link outage nothing sends over)
    // runs the kernel instance without stall draws: every outcome equals
    // the fault-free run's, with no fault injected.
    let mut rng = XorShift64::new(0x2E50);
    let mut coverage = Coverage::default();
    for case in 0..60u64 {
        let cores = 2 + rng.below(2) as usize;
        let programs: Vec<Program> = (0..cores)
            .map(|_| random_program(&mut rng, false))
            .collect();
        let plan = FaultPlan::seeded(case)
            .stall_dps(0.0)
            .fail_link(LinkOutage {
                from: 0,
                to: 1,
                from_cycle: 0,
                until_cycle: u64::MAX,
            });
        for limit in [Q - 1, Q + 1, 4 * Q] {
            let label = format!("rate-0 case {case} limit {limit}");
            check_multi(&label, 0, &programs, limit, None, &mut coverage);
            check_multi(
                &label,
                0,
                &programs,
                limit,
                Some(plan.clone()),
                &mut coverage,
            );
        }
    }
    assert!(coverage.ends[0] > 0 && coverage.ends[1] + coverage.ends[2] > 0);
    assert_eq!(coverage.stalls, 0);
}

/// Fails with an out-of-bounds load on exactly cycle `cycle` (>= 6).
fn fail_at(cycle: u64) -> Program {
    let before = cycle - 1;
    let pad = (before - 3) % 2;
    let mut instrs = delay((before - 3 - pad) / 2);
    instrs.push(Instr::MovI(9, -1));
    if pad == 1 {
        instrs.push(Instr::Nop);
    }
    instrs.push(Instr::Load(3, 9));
    Program::new(instrs).unwrap()
}

#[test]
fn failures_on_neighbouring_cycles_report_the_earliest() {
    // Which core's error a decoupled run returns depends on the cycle each
    // failing instruction is charged, so this pins that charge.
    let mut coverage = Coverage::default();
    for c in [6, Q - 1, Q, Q + 1, 2 * Q + 3] {
        for gap in 0..3 {
            for late in 0..2 {
                let mut programs = vec![fail_at(c), fail_at(c)];
                programs[late] = fail_at(c + gap);
                for plan in [None, Some(FaultPlan::seeded(c + gap).stall_dps(0.1))] {
                    let label = format!("fail at {c} gap {gap} late core {late}");
                    check_multi(&label, 0, &programs, 4 * Q, plan, &mut coverage);
                }
            }
        }
    }
    assert_eq!(coverage.ends[4], 5 * 3 * 2 * 2 * 2);
}

#[test]
fn shared_bank_runs_match_single_steps() {
    // IMP-III (DP-DM crossbar): one global address space, so in-range
    // addresses run past the first bank.  Core 1 only halts, so core 0's
    // memory traffic is the only traffic.
    let mut rng = XorShift64::new(0x5AED);
    let mut coverage = Coverage::default();
    let idle = Program::new(vec![Instr::Halt]).unwrap();
    for case in 0..150u64 {
        let mut instrs = vec![Instr::MovI(5, 2 * BANK as Word - 1 - rng.below(4) as Word)];
        instrs.extend(
            random_program(&mut rng, false)
                .instrs()
                .iter()
                .map(|&i| match i {
                    Instr::Beq(a, b, t) => Instr::Beq(a, b, t + 1),
                    Instr::Bne(a, b, t) => Instr::Bne(a, b, t + 1),
                    Instr::Blt(a, b, t) => Instr::Blt(a, b, t + 1),
                    Instr::Jmp(t) => Instr::Jmp(t + 1),
                    other => other,
                }),
        );
        let programs = vec![Program::new(instrs).unwrap(), idle.clone()];
        let plan = (case % 2 == 1).then(|| FaultPlan::seeded(case).stall_dps(0.25));
        let done = programs.iter().enumerate().all(|(lane, p)| {
            let mem = BankedMemory::new(2, BANK, DataTopology::SharedCrossbar);
            finishes(p, lane, &mem, plan.clone())
        });
        for limit in limits_for(done) {
            coverage.unbounded += u64::from(limit == u64::MAX);
            let label = format!("shared case {case} limit {limit}");
            check_multi(
                &label,
                0b0010,
                &programs,
                limit,
                plan.clone(),
                &mut coverage,
            );
        }
    }
    coverage.assert_complete(false);
}

// -------------------------------------------------------------------------
// Array (IAP): the opcode-hoisted lockstep kernel
// -------------------------------------------------------------------------

/// One array run stepped lane by lane: the IP fetches, waits out the
/// broadcast's stall run one cycle at a time, issues, and executes every
/// local instruction on each lane in turn through `execute_traced`
/// (control flow on lane 0).  On every cycle, stalled or issuing, the
/// plan's keyed flip due on that cycle, if any, lands first.  Returns the
/// outcome, each lane's registers, the memory and the faults injected.
fn array_reference<T: Tracer>(
    subtype: ArraySubtype,
    lanes: usize,
    program: &Program,
    limit: u64,
    mut plan: Option<FaultPlan>,
    tracer: &mut T,
) -> (Result<Stats, MachineError>, Vec<Vec<Word>>, Vec<Word>, u64) {
    let mut dps: Vec<DataProcessor> = (0..lanes).map(DataProcessor::new).collect();
    let mut mem = BankedMemory::new(lanes, BANK, subtype.data_topology());
    let runs = plan.as_ref().map(|p| p.stall_runs(lanes));
    let mut flips = plan.as_ref().map(|p| p.bit_flips().peekable());
    let mut flipped = 0;
    let mut stats = Stats::default();
    let (mut pc, mut k) = (0usize, 0u64);
    let result = 'run: loop {
        if stats.cycles >= limit {
            tracer.record(stats.cycles, EventKind::Watchdog);
            break Err(MachineError::WatchdogTimeout {
                limit,
                partial: stats,
            });
        }
        let Some(instr) = program.fetch(pc) else {
            break Ok(());
        };
        let mut run = runs.map_or(0, |r| r.run(k));
        k += 1;
        loop {
            stats.cycles += 1;
            if let Some(flip) = flips
                .as_mut()
                .and_then(|f| f.next_if(|f| f.cycle == stats.cycles))
            {
                let bank = (flip.bank % lanes as u64) as usize;
                let addr = (flip.addr % BANK as u64) as usize;
                let old = mem.bank(bank).contents()[addr];
                mem.bank_mut(bank).write(addr, old ^ (1 << flip.bit));
                flipped += 1;
                tracer.record(stats.cycles, EventKind::FaultInjected(FaultKind::BitFlip));
            }
            if run == 0 {
                break;
            }
            run -= 1;
            stats.stalls += 1;
            plan.as_mut().unwrap().charge_stalls(1);
            tracer.record(stats.cycles, EventKind::Stall);
            if stats.cycles >= limit {
                tracer.record(stats.cycles, EventKind::Watchdog);
                break 'run Err(MachineError::WatchdogTimeout {
                    limit,
                    partial: stats,
                });
            }
        }
        if instr.is_control() {
            stats.instructions += 1;
            tracer.record(stats.cycles, EventKind::Issue);
            match dps[0].execute_traced(instr, &mut mem, stats.cycles, tracer) {
                Ok(LocalOutcome::Next) => pc += 1,
                Ok(LocalOutcome::Branch(t)) => pc = t,
                Ok(LocalOutcome::Halt) => break Ok(()),
                Err(e) => break Err(e),
            }
            continue;
        }
        for dp in &mut dps {
            if let Err(e) = dp.execute_traced(instr, &mut mem, stats.cycles, tracer) {
                break 'run Err(e);
            }
        }
        stats.instructions += lanes as u64;
        for _ in 0..lanes {
            tracer.record(stats.cycles, EventKind::Issue);
        }
        pc += 1;
    };
    let result = result.map(|()| {
        for dp in &dps {
            let (alu, reads, writes) = dp.counters();
            stats.alu_ops += alu;
            stats.mem_reads += reads;
            stats.mem_writes += writes;
        }
        stats
    });
    let regs = dps
        .iter()
        .map(|dp| (0..16).map(|r| dp.reg(r)).collect())
        .collect();
    let words = (0..lanes)
        .flat_map(|b| mem.bank(b).contents().to_vec())
        .collect();
    (
        result,
        regs,
        words,
        plan.map_or(0, |p| p.injected()) + flipped,
    )
}

/// Registers and memory of an array machine after a run.
fn array_state(m: &ArrayMachine, lanes: usize) -> (Vec<Vec<Word>>, Vec<Word>) {
    let regs = (0..lanes)
        .map(|lane| (0..16).map(|r| m.lane_reg(lane, r)).collect())
        .collect();
    let words = (0..lanes)
        .flat_map(|b| m.memory().bank(b).contents().to_vec())
        .collect();
    (regs, words)
}

#[test]
fn array_runs_match_lane_by_lane_steps() {
    let mut rng = XorShift64::new(0xA77A);
    let (mut ok, mut errors, mut watchdogs, mut stalled) = (0u32, 0u32, 0u32, 0u64);
    for case in 0..240u64 {
        let program = random_program(&mut rng, false);
        let subtype = [ArraySubtype::I, ArraySubtype::III][case as usize % 2];
        let lanes = [3, 4][(case / 2) as usize % 2];
        // Fault-free, bit flips only, and stall runs with bit flips (one
        // in four of those stalls every broadcast forever).
        let plan = match case % 3 {
            0 => None,
            1 => Some(FaultPlan::seeded(case).flip_memory_bits(0.3)),
            _ => Some(
                FaultPlan::seeded(case)
                    .stall_dps(if case % 4 == 0 { 1.0 } else { 0.3 })
                    .flip_memory_bits(0.05),
            ),
        };
        let (done, ..) = array_reference(
            subtype,
            lanes,
            &program,
            4 * Q,
            plan.as_ref().map(|p| p.clone().fork()),
            &mut NullTracer,
        );
        let finished = !matches!(done, Err(MachineError::WatchdogTimeout { .. }));
        for limit in limits_for(finished) {
            let label = format!("array case {case} limit {limit}: {program}");
            let fresh = || ArrayMachine::new(subtype, lanes, BANK).with_cycle_limit(limit);
            let mut machine = fresh();
            let mut want_t = Telemetry::new();
            let (want, regs, words, _) = match &plan {
                None => {
                    let mut got_t = Telemetry::new();
                    let got = machine.run_traced(&program, &mut got_t);
                    let want = array_reference(subtype, lanes, &program, limit, None, &mut want_t);
                    assert_eq!(
                        got_t.trace.class_counts(),
                        want_t.trace.class_counts(),
                        "{label}"
                    );
                    assert_eq!(format!("{got:?}"), format!("{:?}", want.0), "{label}");
                    want
                }
                Some(plan) => {
                    let got = machine.run_resilient(&program, plan.clone());
                    let want = array_reference(
                        subtype,
                        lanes,
                        &program,
                        limit,
                        Some(plan.clone().fork()),
                        &mut want_t,
                    );
                    if let Ok(outcome) = &got {
                        assert_eq!(outcome.faults_injected, want.3, "{label}");
                    }
                    assert_eq!(
                        format!("{:?}", got.map(|o| o.stats)),
                        format!("{:?}", want.0),
                        "{label}"
                    );
                    want
                }
            };
            assert_eq!(array_state(&machine, lanes), (regs, words), "{label}");
            match want {
                Ok(stats) => {
                    ok += 1;
                    stalled += stats.stalls;
                }
                Err(MachineError::WatchdogTimeout { partial, .. }) => {
                    watchdogs += 1;
                    stalled += partial.stalls;
                }
                Err(_) => errors += 1,
            }
            // The dense reference (`execute_traced` lane by lane inside
            // the machine) takes the same runs.
            let mut dense = fresh().with_dense_reference(true);
            let twin = match &plan {
                None => format!("{:?}", dense.run(&program)),
                Some(plan) => format!("{:?}", dense.run_resilient(&program, plan.clone())),
            };
            let mut default = fresh();
            let run = match &plan {
                None => format!("{:?}", default.run(&program)),
                Some(plan) => format!("{:?}", default.run_resilient(&program, plan.clone())),
            };
            assert_eq!(twin, run, "{label}: dense reference diverged");
        }
    }
    assert!(ok > 0 && errors > 0 && watchdogs > 0 && stalled > 0);
}

#[test]
fn every_opcode_is_generated() {
    let mut rng = XorShift64::new(0x4B45_524E);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..400 {
        for instr in random_program(&mut rng, true).instrs() {
            seen.insert(std::mem::discriminant(instr));
        }
    }
    // 17 local opcodes plus the two trailing fabric ones (`recv` is the
    // one fabric instruction the generator leaves out).
    assert_eq!(seen.len(), 19);
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn execute_local_panics_on_an_unvalidated_register() {
    let mut dp = DataProcessor::new(0);
    let mut mem = BankedMemory::new(1, BANK, DataTopology::PrivateBanks);
    let _ = dp.execute_local(Instr::Add(16, 0, 1), &mut mem);
}

// -------------------------------------------------------------------------
// Golden event sequences
// -------------------------------------------------------------------------

/// Render a traced uni run as `cycle:label` tokens plus its result.
fn render(program: &[Instr], limit: u64) -> String {
    let program = Program::new(program.to_vec()).unwrap();
    let mut m = UniProcessor::new(8).with_cycle_limit(limit);
    let mut t = Telemetry::new();
    let result = m.run_traced(&program, &mut t);
    let events: Vec<String> = t
        .trace
        .events()
        .map(|e| format!("{}:{}", e.cycle, e.kind.class().label()))
        .collect();
    format!("{} => {result:?}", events.join(" "))
}

#[test]
fn uni_telemetry_event_sequences_are_pinned() {
    // A two-element reduction: loads, ALU work, a loop and a store.
    let reduction = [
        Instr::MovI(0, 0),
        Instr::MovI(1, 2),
        Instr::MovI(2, 0),
        Instr::Load(3, 0),
        Instr::Add(2, 2, 3),
        Instr::AddI(0, 0, 1),
        Instr::Blt(0, 1, 3),
        Instr::Store(1, 2),
        Instr::Halt,
    ];
    assert_eq!(
        render(&reduction, 100),
        GOLDEN_REDUCTION,
        "reduction trace changed"
    );
    // Every non-memory opcode once, then running off the end.
    let straight = [
        Instr::Nop,
        Instr::MovI(0, 6),
        Instr::Mov(1, 0),
        Instr::Mul(2, 0, 1),
        Instr::Sub(3, 2, 0),
        Instr::Min(4, 3, 1),
        Instr::Max(5, 3, 1),
        Instr::LaneId(6),
        Instr::Beq(0, 1, 10),
        Instr::Nop,
        Instr::Bne(0, 1, 12),
        Instr::Jmp(12),
        Instr::Store(6, 5),
    ];
    assert_eq!(
        render(&straight, 100),
        GOLDEN_STRAIGHT,
        "straight-line trace changed"
    );
    // A store, a failing load; then the same loop tripping the watchdog.
    let failing = [
        Instr::MovI(0, 3),
        Instr::Store(0, 0),
        Instr::MovI(1, 8),
        Instr::Load(2, 1),
    ];
    let spinning = [Instr::MovI(0, 1), Instr::AddI(0, 0, 1), Instr::Jmp(1)];
    assert_eq!(
        format!("{} | {}", render(&failing, 100), render(&spinning, 5)),
        GOLDEN_FAILING,
        "failing/watchdog trace changed"
    );
}

// Recorded from the per-instruction loop the fused kernel replaced.

const GOLDEN_REDUCTION: &str = concat!(
    "1:issue 2:issue 3:issue 4:issue 4:mem.read 5:issue 5:alu 6:issue 6:alu ",
    "7:issue 8:issue 8:mem.read 9:issue 9:alu 10:issue 10:alu 11:issue ",
    "12:issue 12:mem.write 13:issue => Ok(Stats { cycles: 13, instructions: 13, ",
    "alu_ops: 4, mem_reads: 2, mem_writes: 1, messages: 0, stalls: 0 })",
);

const GOLDEN_STRAIGHT: &str = concat!(
    "1:issue 2:issue 3:issue 4:issue 4:alu 5:issue 5:alu 6:issue 6:alu ",
    "7:issue 7:alu 8:issue 9:issue 10:issue 11:issue 12:issue 12:mem.write => ",
    "Ok(Stats { cycles: 12, instructions: 12, alu_ops: 4, mem_reads: 0, ",
    "mem_writes: 1, messages: 0, stalls: 0 })",
);

const GOLDEN_FAILING: &str = concat!(
    "1:issue 2:issue 2:mem.write 3:issue 4:issue => Err(MemoryOutOfBounds { ",
    "processor: 0, address: 8, size: 8 }) | 1:issue 2:issue 2:alu 3:issue ",
    "4:issue 4:alu 5:issue 5:watchdog => Err(WatchdogTimeout { limit: 5, ",
    "partial: Stats { cycles: 5, instructions: 5, alu_ops: 0, mem_reads: 0, ",
    "mem_writes: 0, messages: 0, stalls: 0 } })",
);
