//! Workloads: the programs the flexibility claims are tested with.
//!
//! Each workload has a plain-Rust reference implementation and compilers
//! for the machine families that can run it.  Where a family *cannot* run
//! a workload, the compiler returns the taxonomy-level reason as a typed
//! error — e.g. an array processor asked to run `n` different programs
//! fails with the paper's own argument ("IAP-I cannot execute 'n'
//! different programs at the same time").

use crate::array::{ArrayMachine, ArraySubtype};
use crate::dataflow::{graph::library, DataflowMachine, DataflowSubtype, Placement};
use crate::error::MachineError;
use crate::exec::Stats;
use crate::fault::{FaultPlan, LinkOutage};
use crate::interconnect::FabricTopology;
use crate::isa::{Instr, Word};
use crate::multi::{MultiMachine, MultiSubtype};
use crate::program::{Assembler, Program};
use crate::spatial::SpatialMachine;
use crate::telemetry::{NullTracer, Tracer};
use crate::uniprocessor::UniProcessor;
use crate::universal::{Bitstream, CellConfig, LutCell, LutFabric, Source};

/// Outputs plus statistics from one workload run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadResult {
    /// Output values (workload-defined order).
    pub outputs: Vec<Word>,
    /// Execution statistics.
    pub stats: Stats,
}

// ---------------------------------------------------------------------------
// Vector addition: c[i] = a[i] + b[i].
// ---------------------------------------------------------------------------

/// Reference vector addition.
pub fn vector_add_reference(a: &[Word], b: &[Word]) -> Vec<Word> {
    a.iter().zip(b).map(|(x, y)| x.wrapping_add(*y)).collect()
}

/// The per-lane SIMD kernel used by array machines and SIMD-emulating
/// multiprocessors (bank layout: `[a, b, c]` at addresses 0, 1, 2).
fn vector_add_kernel() -> Program {
    let mut asm = Assembler::new();
    asm.movi(0, 0)
        .movi(1, 1)
        .movi(2, 2)
        .emit(Instr::Load(3, 0))
        .emit(Instr::Load(4, 1))
        .emit(Instr::Add(5, 3, 4))
        .emit(Instr::Store(2, 5))
        .emit(Instr::Halt);
    asm.assemble().expect("vector-add kernel is well formed")
}

/// Vector addition on a uni-processor: a sequential loop.  Memory layout:
/// `a` at 0.., `b` at n.., `c` at 2n...
pub fn run_vector_add_uni(a: &[Word], b: &[Word]) -> Result<WorkloadResult, MachineError> {
    run_vector_add_uni_traced(a, b, &mut NullTracer)
}

/// [`run_vector_add_uni`] with observation hooks — the counter-capture
/// entry point the continuous-performance collector records through.
pub fn run_vector_add_uni_traced<T: Tracer>(
    a: &[Word],
    b: &[Word],
    tracer: &mut T,
) -> Result<WorkloadResult, MachineError> {
    let n = a.len();
    if b.len() != n {
        return Err(MachineError::config("vector lengths differ"));
    }
    let mut machine = UniProcessor::new(3 * n + 1);
    {
        let bank = machine.memory_mut().bank_mut(0);
        for (i, &v) in a.iter().enumerate() {
            bank.write(i, v);
        }
        for (i, &v) in b.iter().enumerate() {
            bank.write(n + i, v);
        }
    }
    let mut asm = Assembler::new();
    asm.movi(0, 0) // i
        .movi(1, n as Word);
    asm.label("loop").unwrap();
    asm.emit(Instr::Load(2, 0)) // a[i]
        .emit(Instr::AddI(3, 0, n as Word))
        .emit(Instr::Load(4, 3)) // b[i]
        .emit(Instr::Add(5, 2, 4))
        .emit(Instr::AddI(6, 0, 2 * n as Word))
        .emit(Instr::Store(6, 5))
        .emit(Instr::AddI(0, 0, 1));
    asm.blt(0, 1, "loop");
    asm.emit(Instr::Halt);
    let stats = machine.run_traced(&asm.assemble()?, tracer)?;
    let outputs = machine.memory().bank(0).contents()[2 * n..3 * n].to_vec();
    Ok(WorkloadResult { outputs, stats })
}

/// Vector addition on an array machine: one lane per element.
pub fn run_vector_add_array(
    subtype: ArraySubtype,
    a: &[Word],
    b: &[Word],
) -> Result<WorkloadResult, MachineError> {
    run_vector_add_array_traced(subtype, a, b, &mut NullTracer)
}

/// [`run_vector_add_array`] with observation hooks — the counter-capture
/// entry point the continuous-performance collector records through.
pub fn run_vector_add_array_traced<T: Tracer>(
    subtype: ArraySubtype,
    a: &[Word],
    b: &[Word],
    tracer: &mut T,
) -> Result<WorkloadResult, MachineError> {
    let n = a.len();
    if b.len() != n || n == 0 {
        return Err(MachineError::config("vector lengths differ or empty"));
    }
    let mut machine = ArrayMachine::new(subtype, n, 4);
    for (lane, (&x, &y)) in a.iter().zip(b).enumerate() {
        machine.memory_mut().bank_mut(lane).load(&[x, y, 0, 0]);
    }
    // On shared-crossbar sub-types the same layout works because global
    // bank addressing coincides with lane-local offsets only for the
    // private case; compile a lane-relative program instead.
    let program = match subtype.data_topology() {
        crate::mem::DataTopology::PrivateBanks => vector_add_kernel(),
        crate::mem::DataTopology::SharedCrossbar => {
            let mut asm = Assembler::new();
            asm.emit(Instr::LaneId(7))
                .movi(6, 4)
                .emit(Instr::Mul(7, 7, 6)) // lane * bank_size
                .emit(Instr::Mov(0, 7))
                .emit(Instr::AddI(1, 7, 1))
                .emit(Instr::AddI(2, 7, 2))
                .emit(Instr::Load(3, 0))
                .emit(Instr::Load(4, 1))
                .emit(Instr::Add(5, 3, 4))
                .emit(Instr::Store(2, 5))
                .emit(Instr::Halt);
            asm.assemble()?
        }
    };
    let stats = machine.run_traced(&program, tracer)?;
    let outputs = (0..n)
        .map(|lane| machine.memory().bank(lane).contents()[2])
        .collect();
    Ok(WorkloadResult { outputs, stats })
}

/// Vector addition on a multi-processor in SIMD-emulation mode (the
/// morphing claim: any IMP acts as an array processor).
pub fn run_vector_add_multi(
    subtype: MultiSubtype,
    a: &[Word],
    b: &[Word],
) -> Result<WorkloadResult, MachineError> {
    run_vector_add_multi_traced(subtype, a, b, &mut NullTracer)
}

/// [`run_vector_add_multi`] with observation hooks — the counter-capture
/// entry point the continuous-performance collector records through.
pub fn run_vector_add_multi_traced<T: Tracer>(
    subtype: MultiSubtype,
    a: &[Word],
    b: &[Word],
    tracer: &mut T,
) -> Result<WorkloadResult, MachineError> {
    let n = a.len();
    if b.len() != n || n < 2 {
        return Err(MachineError::config("need at least two elements"));
    }
    let mut machine = MultiMachine::new(subtype, n, 4);
    for (lane, (&x, &y)) in a.iter().zip(b).enumerate() {
        machine.memory_mut().bank_mut(lane).load(&[x, y, 0, 0]);
    }
    if subtype.dp_dm_crossbar() {
        // Shared memory: compile lane-relative addressing.
        let mut asm = Assembler::new();
        asm.emit(Instr::LaneId(7))
            .movi(6, 4)
            .emit(Instr::Mul(7, 7, 6))
            .emit(Instr::Mov(0, 7))
            .emit(Instr::AddI(1, 7, 1))
            .emit(Instr::AddI(2, 7, 2))
            .emit(Instr::Load(3, 0))
            .emit(Instr::Load(4, 1))
            .emit(Instr::Add(5, 3, 4))
            .emit(Instr::Store(2, 5))
            .emit(Instr::Halt);
        let stats = machine.run_simd_traced(&asm.assemble()?, tracer)?;
        let outputs = (0..n)
            .map(|lane| machine.memory().bank(lane).contents()[2])
            .collect();
        return Ok(WorkloadResult { outputs, stats });
    }
    let stats = machine.run_simd_traced(&vector_add_kernel(), tracer)?;
    let outputs = (0..n)
        .map(|lane| machine.memory().bank(lane).contents()[2])
        .collect();
    Ok(WorkloadResult { outputs, stats })
}

// ---------------------------------------------------------------------------
// MIMD mix: core i runs a *different* program over its private slice.
// ---------------------------------------------------------------------------

/// The per-core operation of the MIMD mix (cycles through sum, product,
/// maximum).
fn mimd_op(core: usize, slice: &[Word]) -> Word {
    match core % 3 {
        0 => slice.iter().fold(0, |acc, &v| acc.wrapping_add(v)),
        1 => slice.iter().fold(1, |acc, &v| acc.wrapping_mul(v)),
        _ => slice.iter().copied().max().unwrap_or(Word::MIN),
    }
}

/// Reference MIMD mix.
pub fn mimd_mix_reference(slices: &[Vec<Word>]) -> Vec<Word> {
    slices
        .iter()
        .enumerate()
        .map(|(i, s)| mimd_op(i, s))
        .collect()
}

/// The per-core MIMD-mix program.  `base` is the core's address offset:
/// 0 with private banks (lane-local addressing), `core * bank_size` when
/// the DP–DM relation is a shared crossbar (global addressing).
fn mimd_program(core: usize, len: usize, base: Word) -> Result<Program, MachineError> {
    let mut asm = Assembler::new();
    let out_addr = base + len as Word; // result stored after the slice
    match core % 3 {
        0 | 1 => {
            let (init, op): (Word, fn(u8, u8, u8) -> Instr) = if core.is_multiple_of(3) {
                (0, |d, a, b| Instr::Add(d, a, b))
            } else {
                (1, |d, a, b| Instr::Mul(d, a, b))
            };
            asm.movi(0, base).movi(1, base + len as Word).movi(2, init);
            asm.label("loop").unwrap();
            asm.emit(Instr::Load(3, 0))
                .emit(op(2, 2, 3))
                .emit(Instr::AddI(0, 0, 1));
            asm.blt(0, 1, "loop");
            asm.movi(4, out_addr)
                .emit(Instr::Store(4, 2))
                .emit(Instr::Halt);
        }
        _ => {
            asm.movi(0, base)
                .movi(1, base + len as Word)
                .movi(2, Word::MIN);
            asm.label("loop").unwrap();
            asm.emit(Instr::Load(3, 0))
                .emit(Instr::Max(2, 2, 3))
                .emit(Instr::AddI(0, 0, 1));
            asm.blt(0, 1, "loop");
            asm.movi(4, out_addr)
                .emit(Instr::Store(4, 2))
                .emit(Instr::Halt);
        }
    }
    asm.assemble()
}

/// MIMD mix on a multi-processor: the capability an array machine lacks.
pub fn run_mimd_mix_multi(
    subtype: MultiSubtype,
    slices: &[Vec<Word>],
) -> Result<WorkloadResult, MachineError> {
    run_mimd_mix_multi_traced(subtype, slices, &mut NullTracer)
}

/// [`run_mimd_mix_multi`] with observation hooks — the counter-capture
/// entry point the continuous-performance collector records through.
pub fn run_mimd_mix_multi_traced<T: Tracer>(
    subtype: MultiSubtype,
    slices: &[Vec<Word>],
    tracer: &mut T,
) -> Result<WorkloadResult, MachineError> {
    let cores = slices.len();
    if cores < 2 {
        return Err(MachineError::config("need at least two slices"));
    }
    let len = slices[0].len();
    if slices.iter().any(|s| s.len() != len) || len == 0 {
        return Err(MachineError::config(
            "slices must be equal-length and non-empty",
        ));
    }
    let mut machine = MultiMachine::new(subtype, cores, len + 1);
    for (core, slice) in slices.iter().enumerate() {
        machine.memory_mut().bank_mut(core).load(slice);
    }
    let bank_size = (len + 1) as Word;
    let programs: Result<Vec<Program>, MachineError> = (0..cores)
        .map(|c| {
            let base = if subtype.dp_dm_crossbar() {
                c as Word * bank_size
            } else {
                0
            };
            mimd_program(c, len, base)
        })
        .collect();
    let stats = machine.run_traced(&programs?, tracer)?;
    let outputs = (0..cores)
        .map(|c| machine.memory().bank(c).contents()[len])
        .collect();
    Ok(WorkloadResult { outputs, stats })
}

/// MIMD mix "on" an array machine: always a typed refusal — a single
/// instruction processor cannot issue `n` different instruction streams.
pub fn run_mimd_mix_array(
    subtype: ArraySubtype,
    slices: &[Vec<Word>],
) -> Result<WorkloadResult, MachineError> {
    let distinct = slices.len().min(3); // programs cycle with period 3
    if distinct <= 1 {
        // One program only: that is just SIMD, which the array does run.
        let flat: Vec<Vec<Word>> = slices.to_vec();
        let reference = mimd_mix_reference(&flat);
        // Single-op mixes degenerate to a reduction; run it as SIMD by
        // reusing the multi-style kernel is out of scope here — report the
        // reference directly as this branch only exists for completeness.
        return Ok(WorkloadResult {
            outputs: reference,
            stats: Stats::default(),
        });
    }
    Err(MachineError::unsupported(
        format!("{} array machine", subtype.class_name()),
        format!(
            "the workload needs {distinct} different programs at the same time, \
             but an array processor has a single instruction processor \
             broadcasting one stream (cf. Section III-B: IAP cannot execute \
             'n' different programs)"
        ),
    ))
}

// ---------------------------------------------------------------------------
// Reduction: sum of a data vector.
// ---------------------------------------------------------------------------

/// Reference sum.
pub fn reduce_sum_reference(data: &[Word]) -> Word {
    data.iter().fold(0, |acc, &v| acc.wrapping_add(v))
}

/// The placement policy that fits a data-flow sub-type's switches:
/// everything-crossbar machines spread freely; private-bank machines pin
/// I/O to its bank (islands); shared-memory-only machines serialise on
/// one DP (no cross-DP edges allowed); DMP-I gets islands and will be
/// refused by the engine when the graph genuinely needs what it lacks.
fn dataflow_placement(subtype: DataflowSubtype) -> Placement {
    match (subtype.dp_dp_crossbar(), subtype.dp_dm_crossbar()) {
        (true, true) => Placement::RoundRobin,
        (true, false) => Placement::Islands,
        (false, true) => Placement::AllOnOne,
        (false, false) => Placement::Islands,
    }
}

/// Reduction on a data-flow machine via a balanced tree graph.
pub fn run_reduce_dataflow(
    subtype: DataflowSubtype,
    n_dps: usize,
    data: &[Word],
) -> Result<WorkloadResult, MachineError> {
    run_reduce_dataflow_traced(subtype, n_dps, data, &mut NullTracer)
}

/// [`run_reduce_dataflow`] with observation hooks — the counter-capture
/// entry point the continuous-performance collector records through.
pub fn run_reduce_dataflow_traced<T: Tracer>(
    subtype: DataflowSubtype,
    n_dps: usize,
    data: &[Word],
    tracer: &mut T,
) -> Result<WorkloadResult, MachineError> {
    run_reduce_dataflow_with(subtype, n_dps, data, false, tracer)
}

/// [`run_reduce_dataflow_traced`] with an explicit scheduler choice:
/// `dense` forces the per-cycle reference firing loop (the benchmark
/// twin of the event-driven default).
pub fn run_reduce_dataflow_with<T: Tracer>(
    subtype: DataflowSubtype,
    n_dps: usize,
    data: &[Word],
    dense: bool,
    tracer: &mut T,
) -> Result<WorkloadResult, MachineError> {
    let padded = data.len().next_power_of_two().max(2);
    let mut inputs = data.to_vec();
    inputs.resize(padded, 0);
    let graph = library::tree_sum(padded);
    let machine = DataflowMachine::new(subtype, n_dps)?.with_dense_reference(dense);
    let placement = if subtype == DataflowSubtype::Uni {
        Placement::RoundRobin
    } else {
        dataflow_placement(subtype)
    };
    let run = machine.run_traced(&graph, &inputs, &placement, tracer)?;
    Ok(WorkloadResult {
        outputs: run.outputs,
        stats: run.stats,
    })
}

/// Reduction on a uni-processor.
pub fn run_reduce_uni(data: &[Word]) -> Result<WorkloadResult, MachineError> {
    let n = data.len();
    let mut machine = UniProcessor::new(n + 1);
    machine.memory_mut().bank_mut(0).load(data);
    let mut asm = Assembler::new();
    asm.movi(0, 0).movi(1, n as Word).movi(2, 0);
    asm.label("loop").unwrap();
    asm.emit(Instr::Load(3, 0))
        .emit(Instr::Add(2, 2, 3))
        .emit(Instr::AddI(0, 0, 1));
    asm.blt(0, 1, "loop");
    asm.movi(4, n as Word)
        .emit(Instr::Store(4, 2))
        .emit(Instr::Halt);
    let stats = machine.run(&asm.assemble()?)?;
    Ok(WorkloadResult {
        outputs: vec![machine.memory().bank(0).contents()[n]],
        stats,
    })
}

// ---------------------------------------------------------------------------
// FIR filter: y[j] = sum_k taps[k] * x[j + k].
// ---------------------------------------------------------------------------

/// Reference sliding FIR (valid positions only).
pub fn fir_reference(taps: &[Word], signal: &[Word]) -> Vec<Word> {
    if signal.len() < taps.len() {
        return Vec::new();
    }
    (0..=signal.len() - taps.len())
        .map(|j| {
            taps.iter().enumerate().fold(0, |acc: Word, (k, &t)| {
                acc.wrapping_add(t.wrapping_mul(signal[j + k]))
            })
        })
        .collect()
}

/// Sliding FIR on a data-flow machine: one graph evaluation per output
/// position (stats accumulate).
pub fn run_fir_dataflow(
    subtype: DataflowSubtype,
    n_dps: usize,
    taps: &[Word],
    signal: &[Word],
) -> Result<WorkloadResult, MachineError> {
    if taps.is_empty() || signal.len() < taps.len() {
        return Err(MachineError::config("signal shorter than the filter"));
    }
    let graph = library::fir(taps);
    let machine = DataflowMachine::new(subtype, n_dps)?;
    let placement = if subtype == DataflowSubtype::Uni {
        Placement::RoundRobin
    } else {
        dataflow_placement(subtype)
    };
    let mut outputs = Vec::new();
    let mut stats = Stats::default();
    for j in 0..=signal.len() - taps.len() {
        let window = &signal[j..j + taps.len()];
        let run = machine.run(&graph, window, &placement)?;
        outputs.push(run.outputs[0]);
        stats = stats.accumulate_sequential(run.stats);
    }
    Ok(WorkloadResult { outputs, stats })
}

/// Sliding FIR on a SIMD array: lane `j` computes output position `j`,
/// which means every lane must read the *overlapping* window
/// `signal[j..j+k]` — only possible when DP–DM is a crossbar (IAP-III /
/// IAP-IV).  On private-bank sub-types the overlap is unreachable and the
/// run fails with a typed error: the concrete content of the IAP-I→IAP-III
/// flexibility step.
pub fn run_fir_array(
    subtype: ArraySubtype,
    taps: &[Word],
    signal: &[Word],
) -> Result<WorkloadResult, MachineError> {
    if taps.is_empty() || signal.len() < taps.len() {
        return Err(MachineError::config("signal shorter than the filter"));
    }
    let k = taps.len();
    let out_count = signal.len() - k + 1;
    if out_count < 1 {
        return Err(MachineError::config("no output positions"));
    }
    if subtype.data_topology() == crate::mem::DataTopology::PrivateBanks {
        return Err(MachineError::unsupported(
            format!("{} array machine", subtype.class_name()),
            "a sliding FIR needs every lane to read an overlapping signal \
             window from its neighbours' banks, but DP-DM is a direct switch \
             (private banks); IAP-III/IAP-IV run this workload",
        ));
    }
    // Shared-crossbar layout: bank 0.. hold the global array
    // [taps..., signal...]; each lane gathers its window.
    let lanes = out_count;
    let total_words = k + signal.len();
    let bank_words = total_words.div_ceil(lanes).max(2);
    let mut machine = ArrayMachine::new(subtype, lanes, bank_words);
    {
        // Fill global memory through lane 0's crossbar view.
        let mem = machine.memory_mut();
        for (i, &t) in taps.iter().enumerate() {
            mem.write(0, i as Word, t)?;
        }
        for (i, &x) in signal.iter().enumerate() {
            mem.write(0, (k + i) as Word, x)?;
        }
    }
    let mut asm = Assembler::new();
    asm.emit(Instr::LaneId(0)) // j
        .movi(1, 0) // tap index
        .movi(2, k as Word)
        .movi(3, 0); // acc
    asm.label("tap").unwrap();
    asm.emit(Instr::Load(4, 1)) // taps[t]
        .emit(Instr::Add(5, 0, 1)) // j + t
        .emit(Instr::AddI(5, 5, k as Word))
        .emit(Instr::Load(6, 5)) // signal[j + t]
        .emit(Instr::Mul(7, 4, 6))
        .emit(Instr::Add(3, 3, 7))
        .emit(Instr::AddI(1, 1, 1));
    asm.blt(1, 2, "tap");
    asm.emit(Instr::Halt);
    let stats = machine.run(&asm.assemble()?)?;
    let outputs = (0..out_count)
        .map(|lane| machine.lane_reg(lane, 3))
        .collect();
    Ok(WorkloadResult { outputs, stats })
}

/// Sliding FIR on a uni-processor (nested loop).
pub fn run_fir_uni(taps: &[Word], signal: &[Word]) -> Result<WorkloadResult, MachineError> {
    if taps.is_empty() || signal.len() < taps.len() {
        return Err(MachineError::config("signal shorter than the filter"));
    }
    let k = taps.len();
    let n = signal.len();
    let out_count = n - k + 1;
    // Layout: taps at 0..k, signal at k..k+n, outputs at k+n...
    let mut machine = UniProcessor::new(k + n + out_count);
    {
        let bank = machine.memory_mut().bank_mut(0);
        for (i, &t) in taps.iter().enumerate() {
            bank.write(i, t);
        }
        for (i, &x) in signal.iter().enumerate() {
            bank.write(k + i, x);
        }
    }
    let mut asm = Assembler::new();
    asm.movi(0, 0) // j
        .movi(1, out_count as Word);
    asm.label("outer").unwrap();
    asm.movi(2, 0) // k index
        .movi(3, k as Word)
        .movi(4, 0); // acc
    asm.label("inner").unwrap();
    asm.emit(Instr::Load(5, 2)) // taps[k]
        .emit(Instr::Add(6, 0, 2))
        .emit(Instr::AddI(6, 6, k as Word))
        .emit(Instr::Load(7, 6)) // signal[j + k]
        .emit(Instr::Mul(8, 5, 7))
        .emit(Instr::Add(4, 4, 8))
        .emit(Instr::AddI(2, 2, 1));
    asm.blt(2, 3, "inner");
    asm.emit(Instr::AddI(9, 0, (k + n) as Word))
        .emit(Instr::Store(9, 4))
        .emit(Instr::AddI(0, 0, 1));
    asm.blt(0, 1, "outer");
    asm.emit(Instr::Halt);
    let stats = machine.run(&asm.assemble()?)?;
    let outputs = machine.memory().bank(0).contents()[k + n..].to_vec();
    Ok(WorkloadResult { outputs, stats })
}

// ---------------------------------------------------------------------------
// Matrix multiply: C = A * B (square, row-major).
// ---------------------------------------------------------------------------

/// Reference square matrix multiply (row-major `dim x dim`).
pub fn matmul_reference(a: &[Word], b: &[Word], dim: usize) -> Vec<Word> {
    let mut c = vec![0; dim * dim];
    for i in 0..dim {
        for j in 0..dim {
            let mut acc: Word = 0;
            for k in 0..dim {
                acc = acc.wrapping_add(a[i * dim + k].wrapping_mul(b[k * dim + j]));
            }
            c[i * dim + j] = acc;
        }
    }
    c
}

/// Matrix multiply on a uni-processor: the classic triple loop.
/// Layout: A at 0.., B at d², C at 2d².
pub fn run_matmul_uni(a: &[Word], b: &[Word], dim: usize) -> Result<WorkloadResult, MachineError> {
    let d2 = dim * dim;
    if a.len() != d2 || b.len() != d2 || dim == 0 {
        return Err(MachineError::config("matrices must be dim x dim"));
    }
    let mut machine = UniProcessor::new(3 * d2);
    {
        let bank = machine.memory_mut().bank_mut(0);
        for (i, &v) in a.iter().enumerate() {
            bank.write(i, v);
        }
        for (i, &v) in b.iter().enumerate() {
            bank.write(d2 + i, v);
        }
    }
    let d = dim as Word;
    let mut asm = Assembler::new();
    asm.movi(0, 0).movi(1, d); // i, dim
    asm.label("i").unwrap();
    asm.movi(2, 0); // j
    asm.label("j").unwrap();
    asm.movi(3, 0).movi(4, 0); // k, acc
    asm.label("k").unwrap();
    // a[i*d + k]
    asm.emit(Instr::Mul(5, 0, 1))
        .emit(Instr::Add(5, 5, 3))
        .emit(Instr::Load(6, 5))
        // b[k*d + j]
        .emit(Instr::Mul(7, 3, 1))
        .emit(Instr::Add(7, 7, 2))
        .emit(Instr::AddI(7, 7, d2 as Word))
        .emit(Instr::Load(8, 7))
        .emit(Instr::Mul(9, 6, 8))
        .emit(Instr::Add(4, 4, 9))
        .emit(Instr::AddI(3, 3, 1));
    asm.blt(3, 1, "k");
    // c[i*d + j] = acc
    asm.emit(Instr::Mul(10, 0, 1))
        .emit(Instr::Add(10, 10, 2))
        .emit(Instr::AddI(10, 10, 2 * d2 as Word))
        .emit(Instr::Store(10, 4))
        .emit(Instr::AddI(2, 2, 1));
    asm.blt(2, 1, "j");
    asm.emit(Instr::AddI(0, 0, 1));
    asm.blt(0, 1, "i");
    asm.emit(Instr::Halt);
    let stats = machine.run(&asm.assemble()?)?;
    let outputs = machine.memory().bank(0).contents()[2 * d2..3 * d2].to_vec();
    Ok(WorkloadResult { outputs, stats })
}

/// Matrix multiply on an array machine: lane `i` computes row `i` of C.
/// Every lane reads all of B, so the DP–DM relation must be a crossbar
/// (IAP-III / IAP-IV); private-bank arrays refuse.
pub fn run_matmul_array(
    subtype: ArraySubtype,
    a: &[Word],
    b: &[Word],
    dim: usize,
) -> Result<WorkloadResult, MachineError> {
    let d2 = dim * dim;
    if a.len() != d2 || b.len() != d2 || dim == 0 {
        return Err(MachineError::config("matrices must be dim x dim"));
    }
    if subtype.data_topology() == crate::mem::DataTopology::PrivateBanks {
        return Err(MachineError::unsupported(
            format!("{} array machine", subtype.class_name()),
            "every lane must read the whole of B, which lives across all \
             banks; the DP-DM relation must be a crossbar (IAP-III/IAP-IV)",
        ));
    }
    // Global layout as in the uni-processor case, spread over `dim` banks.
    let bank_words = (3 * d2).div_ceil(dim).max(2);
    let mut machine = ArrayMachine::new(subtype, dim, bank_words);
    for (i, &v) in a.iter().enumerate() {
        machine.memory_mut().write(0, i as Word, v)?;
    }
    for (i, &v) in b.iter().enumerate() {
        machine.memory_mut().write(0, (d2 + i) as Word, v)?;
    }
    let d = dim as Word;
    let mut asm = Assembler::new();
    asm.emit(Instr::LaneId(0)) // i = lane
        .movi(1, d)
        .movi(2, 0); // j
    asm.label("j").unwrap();
    asm.movi(3, 0).movi(4, 0); // k, acc
    asm.label("k").unwrap();
    asm.emit(Instr::Mul(5, 0, 1))
        .emit(Instr::Add(5, 5, 3))
        .emit(Instr::Load(6, 5)) // a[i*d + k]
        .emit(Instr::Mul(7, 3, 1))
        .emit(Instr::Add(7, 7, 2))
        .emit(Instr::AddI(7, 7, d2 as Word))
        .emit(Instr::Load(8, 7)) // b[k*d + j]
        .emit(Instr::Mul(9, 6, 8))
        .emit(Instr::Add(4, 4, 9))
        .emit(Instr::AddI(3, 3, 1));
    asm.blt(3, 1, "k");
    asm.emit(Instr::Mul(10, 0, 1))
        .emit(Instr::Add(10, 10, 2))
        .emit(Instr::AddI(10, 10, 2 * d2 as Word))
        .emit(Instr::Store(10, 4))
        .emit(Instr::AddI(2, 2, 1));
    asm.blt(2, 1, "j");
    asm.emit(Instr::Halt);
    let stats = machine.run(&asm.assemble()?)?;
    let mut outputs = Vec::with_capacity(d2);
    for idx in 0..d2 {
        outputs.push(machine.memory_mut().read(0, (2 * d2 + idx) as Word)?);
    }
    Ok(WorkloadResult { outputs, stats })
}

// ---------------------------------------------------------------------------
// Staggered-halt workloads: a few long-running cores among many short ones.
//
// These are the scheduler stress shapes: the dense per-cycle loop keeps
// visiting every halted core until the last one finishes, while the
// event-driven scheduler's active set shrinks as cores halt.  Both produce
// identical outputs and counters; only wall time differs.
// ---------------------------------------------------------------------------

/// A count-to-`iters` loop that stores the final count at address 0.
fn count_loop_program(iters: Word) -> Result<Program, MachineError> {
    let mut asm = Assembler::new();
    asm.movi(0, 0).movi(1, iters);
    asm.label("loop").unwrap();
    asm.emit(Instr::AddI(0, 0, 1));
    asm.blt(0, 1, "loop");
    asm.movi(2, 0).emit(Instr::Store(2, 0)).emit(Instr::Halt);
    asm.assemble()
}

/// Staggered MIMD on an IMP-I multi-processor: every 32nd core counts to
/// `long_iters`, the rest count to 8 and halt early.  Outputs are the
/// per-core final counts.
pub fn run_mimd_stagger_multi_traced<T: Tracer>(
    cores: usize,
    long_iters: Word,
    dense: bool,
    tracer: &mut T,
) -> Result<WorkloadResult, MachineError> {
    if cores < 2 {
        return Err(MachineError::config("need at least two cores"));
    }
    let mut machine =
        MultiMachine::new(MultiSubtype::from_index(1)?, cores, 4).with_dense_reference(dense);
    let programs: Result<Vec<Program>, MachineError> = (0..cores)
        .map(|c| count_loop_program(if c.is_multiple_of(32) { long_iters } else { 8 }))
        .collect();
    let stats = machine.run_traced(&programs?, tracer)?;
    let outputs = (0..cores)
        .map(|c| machine.memory().bank(c).contents()[0])
        .collect();
    Ok(WorkloadResult { outputs, stats })
}

/// Staggered compute on an unfused spatial machine (every core leads its
/// own group): every 16th core counts to `long_iters`, the rest to 8.
pub fn run_stagger_spatial_traced<T: Tracer>(
    cores: usize,
    long_iters: Word,
    dense: bool,
    tracer: &mut T,
) -> Result<WorkloadResult, MachineError> {
    let mut machine = SpatialMachine::new(
        MultiSubtype::from_index(1)?,
        FabricTopology::Crossbar,
        cores,
        4,
    )?
    .with_dense_reference(dense);
    let programs: Result<Vec<Program>, MachineError> = (0..cores)
        .map(|c| count_loop_program(if c.is_multiple_of(16) { long_iters } else { 8 }))
        .collect();
    let stats = machine.run_traced(&programs?, tracer)?;
    let outputs = (0..cores).map(|c| machine.core_reg(c, 0)).collect();
    Ok(WorkloadResult { outputs, stats })
}

/// A two-core send/recv pair across a link that is down until
/// `outage_until`: the sender backs off exponentially and the receiver
/// blocks, so almost every cycle of the outage window is dead time.  The
/// event-driven scheduler warps across the backoff gaps; the dense loop
/// walks them cycle by cycle.  The output is the receiver's delivered
/// value (42).
pub fn run_backoff_storm_multi_traced<T: Tracer>(
    outage_until: u64,
    max_retries: u32,
    dense: bool,
    tracer: &mut T,
) -> Result<WorkloadResult, MachineError> {
    let mut machine =
        MultiMachine::new(MultiSubtype::from_index(2)?, 2, 4).with_dense_reference(dense);
    let mut sender = Assembler::new();
    sender.movi(0, 42).emit(Instr::Send(1, 0)).emit(Instr::Halt);
    let mut receiver = Assembler::new();
    receiver.emit(Instr::Recv(5, 0)).emit(Instr::Halt);
    let programs = vec![sender.assemble()?, receiver.assemble()?];
    let plan = FaultPlan::seeded(0)
        .fail_link(LinkOutage {
            from: 0,
            to: 1,
            from_cycle: 0,
            until_cycle: outage_until,
        })
        .with_max_retries(max_retries);
    let outcome = machine.run_resilient_traced(&programs, plan, tracer)?;
    Ok(WorkloadResult {
        outputs: vec![machine.core_reg(1, 5)],
        stats: outcome.stats,
    })
}

/// A backward message ring on an IMP-II machine: every core `i >= 1`
/// sends `100 + i` to core `i - 1`, and every core `i < n - 1` receives
/// from core `i + 1`.  Outputs are each core's received value (`0` for
/// the last core, which only sends).
pub fn run_ring_shift_multi_traced<T: Tracer>(
    cores: usize,
    tracer: &mut T,
) -> Result<WorkloadResult, MachineError> {
    if cores < 2 {
        return Err(MachineError::config("need at least two cores"));
    }
    let mut machine = MultiMachine::new(MultiSubtype::from_index(2)?, cores, 4);
    let programs: Result<Vec<Program>, MachineError> = (0..cores)
        .map(|i| {
            let mut asm = Assembler::new();
            if i + 1 == cores {
                asm.movi(0, 100 + i as Word).emit(Instr::Send(i - 1, 0));
            } else if i == 0 {
                asm.emit(Instr::Recv(5, 1));
            } else {
                asm.movi(0, 100 + i as Word)
                    .emit(Instr::Send(i - 1, 0))
                    .emit(Instr::Recv(5, i + 1));
            }
            asm.emit(Instr::Halt);
            asm.assemble()
        })
        .collect();
    let stats = machine.run_traced(&programs?, tracer)?;
    let outputs = (0..cores).map(|c| machine.core_reg(c, 5)).collect();
    Ok(WorkloadResult { outputs, stats })
}

/// Independent delay chains on the USP fabric: region `r` is a chain of
/// `r + 1` registered buffer cells seeded from the constant `One`, so
/// its output goes (and stays) high after `r + 1` clock edges.  The run
/// finishes when every region's output is high — after `regions` edges.
/// Outputs are the final region outputs as 0/1 words.
pub fn run_fabric_counters_traced<T: Tracer>(
    regions: usize,
    limit: u64,
    tracer: &mut T,
) -> Result<WorkloadResult, MachineError> {
    if regions < 2 {
        return Err(MachineError::config("need at least two fabric regions"));
    }
    let buffer = LutCell::new(1, vec![false, true])?;
    let mut cells = Vec::new();
    let mut outputs = Vec::with_capacity(regions);
    for r in 0..regions {
        for j in 0..=r {
            cells.push(CellConfig {
                lut: buffer.clone(),
                inputs: vec![if j == 0 {
                    Source::One
                } else {
                    Source::Cell(cells.len() - 1)
                }],
                registered: true,
            });
        }
        outputs.push(Source::Cell(cells.len() - 1));
    }
    let n_cells = cells.len();
    let bitstream = Bitstream { cells, outputs };
    let mut fabric = LutFabric::new(n_cells, 2, 0).configure(&bitstream)?;
    let (out, stats) = fabric.run_until_traced(&[], limit, |o| o.iter().all(|&b| b), tracer)?;
    Ok(WorkloadResult {
        outputs: out.into_iter().map(Word::from).collect(),
        stats,
    })
}

// ---------------------------------------------------------------------------
// Swarm workloads: N instances of the same architecture, run one after
// another on one machine that `reset` scrubs between instances.
// ---------------------------------------------------------------------------

/// The swarm spin kernel: count to a per-instance bound read from memory
/// address 0 — a parameter sweep where the parameter rides in a data
/// lane, so all instances share one program and diverge only in data.
fn swarm_spin_program() -> Program {
    let mut asm = Assembler::new();
    asm.movi(0, 0).movi(2, 0).emit(Instr::Load(1, 2));
    asm.label("loop").unwrap();
    asm.emit(Instr::AddI(0, 0, 1));
    asm.blt(0, 1, "loop");
    asm.emit(Instr::Halt);
    asm.assemble().expect("swarm spin kernel is well formed")
}

/// The per-instance spin bound for instance `i` of a swarm around
/// `base_iters` (a deterministic spread, so instances genuinely diverge).
fn swarm_spin_bound(base_iters: Word, i: usize) -> Word {
    base_iters + (i % 17) as Word
}

/// A parameter sweep of `instances` uni-processors, each counting to its
/// own bound around `base_iters`.  Returns the sequentially accumulated
/// [`Stats`] over all instances.
pub fn run_spin_swarm_uni(instances: usize, base_iters: Word) -> Result<Stats, MachineError> {
    run_spin_swarm_uni_traced(instances, base_iters, &mut NullTracer)
}

/// [`run_spin_swarm_uni`] with observation hooks — the counter-capture
/// entry point the continuous-performance collector records through.
pub fn run_spin_swarm_uni_traced<T: Tracer>(
    instances: usize,
    base_iters: Word,
    tracer: &mut T,
) -> Result<Stats, MachineError> {
    if instances == 0 {
        return Err(MachineError::config("a swarm needs at least one instance"));
    }
    let program = swarm_spin_program();
    let mut total = Stats::default();
    for i in 0..instances {
        let mut machine = UniProcessor::new(2);
        machine
            .memory_mut()
            .bank_mut(0)
            .load(&[swarm_spin_bound(base_iters, i)]);
        total = total.accumulate_sequential(machine.run_traced(&program, tracer)?);
    }
    Ok(total)
}

/// Per-instance input element for instance `i`, lane `lane` of the
/// vector-add swarm (deterministic, distinct across the swarm).
fn swarm_vector_inputs(i: usize, lane: usize) -> (Word, Word) {
    ((i * 31 + lane * 7) as Word, (i * 13 + lane * 3 + 1) as Word)
}

/// A swarm of `instances` array machines (each `lanes`×4-word banks)
/// running the vector-add kernel over per-instance data, one after
/// another on one reset machine.  Outputs are verified against the
/// reference before returning the accumulated [`Stats`].
pub fn run_vector_add_swarm_array(
    subtype: ArraySubtype,
    instances: usize,
    lanes: usize,
) -> Result<Stats, MachineError> {
    run_vector_add_swarm_array_traced(subtype, instances, lanes, &mut NullTracer)
}

/// [`run_vector_add_swarm_array`] with observation hooks — the
/// counter-capture entry point the continuous-performance collector
/// records through.
pub fn run_vector_add_swarm_array_traced<T: Tracer>(
    subtype: ArraySubtype,
    instances: usize,
    lanes: usize,
    tracer: &mut T,
) -> Result<Stats, MachineError> {
    if instances == 0 || lanes == 0 {
        return Err(MachineError::config("a swarm needs instances and lanes"));
    }
    // The same program selection as `run_vector_add_array_traced`:
    // private banks take lane-local addressing, shared crossbars compile
    // lane-relative global addressing (bank size 4).
    let program = match subtype.data_topology() {
        crate::mem::DataTopology::PrivateBanks => vector_add_kernel(),
        crate::mem::DataTopology::SharedCrossbar => {
            let mut asm = Assembler::new();
            asm.emit(Instr::LaneId(7))
                .movi(6, 4)
                .emit(Instr::Mul(7, 7, 6))
                .emit(Instr::Mov(0, 7))
                .emit(Instr::AddI(1, 7, 1))
                .emit(Instr::AddI(2, 7, 2))
                .emit(Instr::Load(3, 0))
                .emit(Instr::Load(4, 1))
                .emit(Instr::Add(5, 3, 4))
                .emit(Instr::Store(2, 5))
                .emit(Instr::Halt);
            asm.assemble()?
        }
    };
    let mut total = Stats::default();
    let mut machine = ArrayMachine::new(subtype, lanes, 4);
    for i in 0..instances {
        machine.reset();
        for lane in 0..lanes {
            let (x, y) = swarm_vector_inputs(i, lane);
            machine.memory_mut().bank_mut(lane).load(&[x, y, 0, 0]);
        }
        total = total.accumulate_sequential(machine.run_traced(&program, tracer)?);
        for lane in 0..lanes {
            let (x, y) = swarm_vector_inputs(i, lane);
            let got = machine.memory().bank(lane).contents()[2];
            if got != x.wrapping_add(y) {
                return Err(MachineError::config(format!(
                    "swarm instance {i} lane {lane}: got {got}, want {}",
                    x.wrapping_add(y)
                )));
            }
        }
    }
    Ok(total)
}

/// A Monte-Carlo transient-fault study: one run per seed of the
/// lane-store kernel under its own [`FaultPlan`] with the given stall
/// and bit-flip rates, on one array machine that
/// [`ArrayMachine::reset`] scrubs between seeds.  Per-seed outcomes in
/// seed order.
pub fn run_fault_monte_carlo_array(
    subtype: ArraySubtype,
    lanes: usize,
    seeds: &[u64],
    stall_rate: f64,
    flip_rate: f64,
) -> Vec<Result<crate::fault::RunOutcome, MachineError>> {
    let mut asm = Assembler::new();
    asm.emit(Instr::LaneId(0))
        .movi(1, 100)
        .emit(Instr::Add(1, 1, 0))
        .emit(Instr::Store(0, 1))
        .emit(Instr::Halt);
    let program = asm.assemble().expect("monte-carlo kernel is well formed");
    let mut machine = ArrayMachine::new(subtype, lanes, lanes.max(4)).with_cycle_limit(100_000);
    seeds
        .iter()
        .map(|&seed| {
            machine.reset();
            let plan = FaultPlan::seeded(seed)
                .stall_dps(stall_rate)
                .flip_memory_bits(flip_rate);
            machine.run_resilient(&program, plan)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_add_agrees_across_machine_families() {
        let a: Vec<Word> = (0..8).collect();
        let b: Vec<Word> = (100..108).collect();
        let reference = vector_add_reference(&a, &b);
        assert_eq!(run_vector_add_uni(&a, &b).unwrap().outputs, reference);
        for subtype in ArraySubtype::ALL {
            assert_eq!(
                run_vector_add_array(subtype, &a, &b).unwrap().outputs,
                reference,
                "{subtype:?}"
            );
        }
        for idx in [1u8, 4, 16] {
            assert_eq!(
                run_vector_add_multi(MultiSubtype::from_index(idx).unwrap(), &a, &b)
                    .unwrap()
                    .outputs,
                reference,
                "IMP index {idx}"
            );
        }
    }

    #[test]
    fn parallel_machines_use_fewer_cycles_than_the_uniprocessor() {
        let a: Vec<Word> = (0..16).collect();
        let b: Vec<Word> = (0..16).rev().collect();
        let uni = run_vector_add_uni(&a, &b).unwrap();
        let array = run_vector_add_array(ArraySubtype::I, &a, &b).unwrap();
        assert!(
            array.stats.cycles * 4 < uni.stats.cycles,
            "array {} vs uni {}",
            array.stats.cycles,
            uni.stats.cycles
        );
    }

    #[test]
    fn mimd_mix_runs_on_multi_but_not_on_array() {
        let slices: Vec<Vec<Word>> = vec![
            vec![1, 2, 3, 4],
            vec![1, 2, 3, 4],
            vec![9, 1, 5, 3],
            vec![2, 2, 2, 2],
        ];
        let reference = mimd_mix_reference(&slices);
        assert_eq!(reference, vec![10, 24, 9, 8]); // sum, product, max, sum
        let got = run_mimd_mix_multi(MultiSubtype::from_index(1).unwrap(), &slices).unwrap();
        assert_eq!(got.outputs, reference);
        // The array machine refuses with the paper's argument.
        let err = run_mimd_mix_array(ArraySubtype::IV, &slices).unwrap_err();
        match err {
            MachineError::WorkloadUnsupported { reason, .. } => {
                assert!(reason.contains("single instruction processor"), "{reason}")
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn reductions_agree_between_dup_dmp_and_iup() {
        let data: Vec<Word> = (1..=13).collect();
        let reference = reduce_sum_reference(&data);
        assert_eq!(reference, 91);
        assert_eq!(run_reduce_uni(&data).unwrap().outputs, vec![91]);
        assert_eq!(
            run_reduce_dataflow(DataflowSubtype::Uni, 1, &data)
                .unwrap()
                .outputs,
            vec![91]
        );
        assert_eq!(
            run_reduce_dataflow(DataflowSubtype::IV, 4, &data)
                .unwrap()
                .outputs,
            vec![91]
        );
    }

    #[test]
    fn fir_agrees_between_uni_and_dataflow() {
        let taps: Vec<Word> = vec![1, -2, 3];
        let signal: Vec<Word> = vec![4, 1, 0, -1, 2, 5];
        let reference = fir_reference(&taps, &signal);
        assert_eq!(run_fir_uni(&taps, &signal).unwrap().outputs, reference);
        assert_eq!(
            run_fir_dataflow(DataflowSubtype::IV, 4, &taps, &signal)
                .unwrap()
                .outputs,
            reference
        );
    }

    #[test]
    fn matmul_agrees_between_uni_and_shared_memory_arrays() {
        let dim = 4usize;
        let a: Vec<Word> = (0..(dim * dim) as Word).collect();
        let b: Vec<Word> = (0..(dim * dim) as Word).map(|v| 2 - v % 5).collect();
        let reference = matmul_reference(&a, &b, dim);
        let uni = run_matmul_uni(&a, &b, dim).unwrap();
        assert_eq!(uni.outputs, reference);
        for subtype in [ArraySubtype::III, ArraySubtype::IV] {
            let run = run_matmul_array(subtype, &a, &b, dim).unwrap();
            assert_eq!(run.outputs, reference, "{subtype:?}");
            assert!(
                run.stats.cycles * 2 < uni.stats.cycles,
                "row-parallel {} vs scalar {}",
                run.stats.cycles,
                uni.stats.cycles
            );
        }
        for subtype in [ArraySubtype::I, ArraySubtype::II] {
            assert!(matches!(
                run_matmul_array(subtype, &a, &b, dim),
                Err(MachineError::WorkloadUnsupported { .. })
            ));
        }
    }

    #[test]
    fn matmul_shape_validation() {
        assert!(run_matmul_uni(&[1, 2, 3], &[1, 2, 3], 2).is_err());
        assert!(run_matmul_uni(&[], &[], 0).is_err());
        assert!(run_matmul_array(ArraySubtype::IV, &[1], &[1, 2], 1).is_err());
    }

    #[test]
    fn fir_on_the_array_needs_the_memory_crossbar() {
        let taps: Vec<Word> = vec![2, -1, 3];
        let signal: Vec<Word> = vec![1, 4, -2, 0, 5, 3, -1, 2];
        let reference = fir_reference(&taps, &signal);
        // IAP-III and IAP-IV (shared crossbar): run and agree.
        for subtype in [ArraySubtype::III, ArraySubtype::IV] {
            let run = run_fir_array(subtype, &taps, &signal).unwrap();
            assert_eq!(run.outputs, reference, "{subtype:?}");
        }
        // IAP-I and IAP-II (private banks): typed refusal.
        for subtype in [ArraySubtype::I, ArraySubtype::II] {
            assert!(matches!(
                run_fir_array(subtype, &taps, &signal),
                Err(MachineError::WorkloadUnsupported { .. })
            ));
        }
    }

    #[test]
    fn stagger_runners_count_to_their_targets() {
        for dense in [false, true] {
            let multi = run_mimd_stagger_multi_traced(8, 40, dense, &mut NullTracer).unwrap();
            let expected: Vec<Word> = (0..8).map(|c| if c == 0 { 40 } else { 8 }).collect();
            assert_eq!(multi.outputs, expected, "dense={dense}");
            let spatial = run_stagger_spatial_traced(4, 25, dense, &mut NullTracer).unwrap();
            assert_eq!(spatial.outputs, vec![25, 8, 8, 8], "dense={dense}");
        }
    }

    #[test]
    fn backoff_storm_delivers_after_the_outage() {
        for dense in [false, true] {
            let run = run_backoff_storm_multi_traced(500, 40, dense, &mut NullTracer).unwrap();
            assert_eq!(run.outputs, vec![42], "dense={dense}");
            assert!(run.stats.cycles > 500, "dense={dense}: {:?}", run.stats);
        }
    }

    #[test]
    fn degenerate_shapes_are_config_errors() {
        assert!(run_vector_add_uni(&[1], &[1, 2]).is_err());
        assert!(run_vector_add_multi(MultiSubtype::from_index(1).unwrap(), &[1], &[1]).is_err());
        assert!(run_fir_uni(&[1, 2, 3], &[1]).is_err());
        assert!(
            run_mimd_mix_multi(MultiSubtype::from_index(1).unwrap(), &[vec![1], vec![1, 2]])
                .is_err()
        );
    }
}
