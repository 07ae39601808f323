//! Fleet-scale structure-of-arrays batch execution (DESIGN.md §14).
//!
//! The shard runner (§10) scales **one big machine** across threads; this
//! module is the complementary axis: **thousands of small machine
//! instances** of the *same* architecture advancing in lockstep, the
//! workload class of parameter sweeps and Monte-Carlo fault studies.
//!
//! Instead of `Vec<Machine>` (one decode, one scheduler pass and one
//! fault hook *per instance per cycle*), fleet state is laid out as
//! structure-of-arrays: one `Vec<Word>` lane per register column and per
//! memory word, indexed `[column * n + instance]`.  While every active
//! instance sits at the same program counter — the common case for
//! data-independent control flow — one fetch+decode drives a tight,
//! vectorizable loop over all instances.  When control flow diverges
//! (data-dependent branches, per-instance stalls), instances are
//! regrouped into pc-cohorts and each cohort keeps the amortized path;
//! the **divergence mask** is the shrinking active list plus the
//! per-instance result slots that retire instances on halt, watchdog,
//! deadline or typed error.
//!
//! The hard contract carried from the scheduler/shard identity work
//! (§9/§10): per-instance [`Stats`], telemetry class totals, and error
//! values are **bit-identical** to running the `n` instances
//! sequentially on the dense reference machines
//! ([`crate::uniprocessor::UniProcessor`], [`crate::array::ArrayMachine`]),
//! for clean runs, watchdog/deadline trips, memory/routing errors, and
//! transient fault plans alike.  `tests/fleet_identity.rs` pins this
//! differentially; the `*/fleet` bench twins gate the counters hard.
//!
//! Fleet×thread composition: instances are independent, so a fleet
//! splits into contiguous instance ranges, one sub-fleet per worker
//! thread ([`run_uni_fleet_chunked`]), honouring `SKILLTAX_FLEET_THREADS`
//! (default: the shared `SKILLTAX_THREADS` resolution).  This composes
//! with `with_shards` rather than replacing it: a sweep of *big*
//! machines shards each machine across threads, a fleet of *small*
//! machines chunks instances across threads.

use std::ops::Range;

use crate::array::ArraySubtype;
use crate::cancel::{flag_trip, CancelToken, RunBudget};
use crate::error::MachineError;
use crate::exec::Stats;
use crate::fault::FaultPlan;
use crate::isa::{Instr, Word, NUM_REGS};
use crate::mem::DataTopology;
use crate::program::Program;
use crate::telemetry::{EventKind, FaultKind, NullTracer, Tracer};
use crate::uniprocessor::DEFAULT_CYCLE_LIMIT;

/// Per-instance result of a fleet run: the same values a sequential run
/// of that instance on the dense machine would produce.
pub type InstanceResult = Result<Stats, MachineError>;

/// Which batched per-opcode kernels sweep the unit-stride column runs.
///
/// Both selections are **bit-identical** in per-instance [`Stats`],
/// telemetry class totals and error values — the ISA is exact integer
/// arithmetic, so only elements-per-step differs.  [`Default`] picks
/// `Wide` when the crate is built with `--features simd` and `Scalar`
/// otherwise, so callers never need feature gates of their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKernels {
    /// Plain unit-stride loops (the auto-vectorizer's job).
    Scalar,
    /// Explicit wide kernels: an 8-wide manual unroll on the portable
    /// path, `std::arch` SSE2/AVX2 behind runtime detection on x86_64.
    /// Compiled only under `--features simd`; without the feature this
    /// selection degrades to `Scalar`.
    Wide,
}

impl Default for LaneKernels {
    fn default() -> LaneKernels {
        if cfg!(feature = "simd") {
            LaneKernels::Wide
        } else {
            LaneKernels::Scalar
        }
    }
}

/// How a swarm workload executes its `n` instances — the twin switch
/// the §14 identity suite and the `*/fleet` bench twins compare across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetExec {
    /// `n` independent runs on the dense reference machines — the
    /// semantics oracle.
    Sequential,
    /// One structure-of-arrays fleet with the given lane kernels.
    Fleet(LaneKernels),
}

impl FleetExec {
    /// The fleet path with the build's default kernel selection.
    pub fn fleet() -> FleetExec {
        FleetExec::Fleet(LaneKernels::default())
    }
}

/// Maximal consecutive ranges of a sorted index list — the range-run
/// classification that turns a dense active list into a handful of
/// unit-stride kernel calls instead of a per-index gather.
struct Runs<'a> {
    idx: &'a [usize],
}

impl Iterator for Runs<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        let &first = self.idx.first()?;
        let mut len = 1;
        while len < self.idx.len() && self.idx[len] == first + len {
            len += 1;
        }
        self.idx = &self.idx[len..];
        Some(first..first + len)
    }
}

/// Iterate `idx` (ascending, as the executors maintain their active
/// lists) as maximal `start..end` runs.
fn runs(idx: &[usize]) -> Runs<'_> {
    Runs { idx }
}

/// Batched per-opcode kernels over unit-stride column runs.
///
/// A kernel call covers one contiguous run `lo..hi` of the instance
/// axis within flat column storage: destination base `bd`, source bases
/// `ba`/`bb`.  Column bases are multiples of the instance count, so two
/// columns are either the *same* slice or fully disjoint — and every op
/// is elementwise, which makes load-before-store within a block safe
/// under that aliasing.
pub(crate) mod kernel {
    use super::{LaneKernels, Word};

    /// The three-register ALU ops with batched kernels.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum BinOp {
        /// `wrapping_add`
        Add,
        /// `wrapping_sub`
        Sub,
        /// `wrapping_mul`
        Mul,
        /// `Ord::min`
        Min,
        /// `Ord::max`
        Max,
    }

    impl BinOp {
        #[inline(always)]
        pub(crate) fn apply(self, x: Word, y: Word) -> Word {
            match self {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
            }
        }
    }

    /// `regs[bd+i] = op(regs[ba+i], regs[bb+i])` for `i` in `run`.
    #[inline]
    pub(crate) fn binop(
        kernels: LaneKernels,
        regs: &mut [Word],
        bd: usize,
        ba: usize,
        bb: usize,
        run: std::ops::Range<usize>,
        op: BinOp,
    ) {
        match kernels {
            LaneKernels::Scalar => binop_scalar(regs, bd, ba, bb, run, op),
            LaneKernels::Wide => wide::binop(regs, bd, ba, bb, run, op),
        }
    }

    /// `regs[bd+i] = regs[bs+i].wrapping_add(imm)` for `i` in `run`.
    #[inline]
    pub(crate) fn addi(
        kernels: LaneKernels,
        regs: &mut [Word],
        bd: usize,
        bs: usize,
        run: std::ops::Range<usize>,
        imm: Word,
    ) {
        match kernels {
            LaneKernels::Scalar => addi_scalar(regs, bd, bs, run, imm),
            LaneKernels::Wide => wide::addi(regs, bd, bs, run, imm),
        }
    }

    fn binop_scalar(
        regs: &mut [Word],
        bd: usize,
        ba: usize,
        bb: usize,
        run: std::ops::Range<usize>,
        op: BinOp,
    ) {
        for i in run {
            regs[bd + i] = op.apply(regs[ba + i], regs[bb + i]);
        }
    }

    fn addi_scalar(
        regs: &mut [Word],
        bd: usize,
        bs: usize,
        run: std::ops::Range<usize>,
        imm: Word,
    ) {
        for i in run {
            regs[bd + i] = regs[bs + i].wrapping_add(imm);
        }
    }

    /// Without `--features simd` the `Wide` selection degrades to the
    /// scalar loops, keeping the public API feature-free.
    #[cfg(not(feature = "simd"))]
    mod wide {
        use super::{BinOp, Word};

        #[inline]
        pub(super) fn binop(
            regs: &mut [Word],
            bd: usize,
            ba: usize,
            bb: usize,
            run: std::ops::Range<usize>,
            op: BinOp,
        ) {
            super::binop_scalar(regs, bd, ba, bb, run, op);
        }

        #[inline]
        pub(super) fn addi(
            regs: &mut [Word],
            bd: usize,
            bs: usize,
            run: std::ops::Range<usize>,
            imm: Word,
        ) {
            super::addi_scalar(regs, bd, bs, run, imm);
        }
    }

    /// Explicit wide kernels (`--features simd`): an 8-wide manual
    /// unroll everywhere, plus `std::arch` SSE2/AVX2 behind runtime CPU
    /// detection on x86_64 for the ops packed 64-bit lanes can express
    /// (add/sub; min/max via compare+blend on AVX2).  `Mul` keeps the
    /// unroll — there is no packed 64-bit multiply below AVX-512.
    ///
    /// Safety contract for the scoped `allow(unsafe_code)` (the crate
    /// is otherwise `deny(unsafe_code)`): every unsafe block is an
    /// intrinsics body guarded by `is_x86_feature_detected!`, and each
    /// raw-pointer kernel asserts `base + hi <= regs.len()` for all of
    /// its columns before touching memory.
    #[cfg(feature = "simd")]
    #[allow(unsafe_code)]
    mod wide {
        use super::{BinOp, Word};

        /// Portable block width: two AVX2 vectors' worth of i64 lanes.
        const W: usize = 8;

        #[inline]
        pub(super) fn binop(
            regs: &mut [Word],
            bd: usize,
            ba: usize,
            bb: usize,
            run: std::ops::Range<usize>,
            op: BinOp,
        ) {
            #[cfg(target_arch = "x86_64")]
            {
                let packed = matches!(op, BinOp::Add | BinOp::Sub | BinOp::Min | BinOp::Max);
                if packed && run.len() >= 4 {
                    if std::arch::is_x86_feature_detected!("avx2") {
                        // SAFETY: AVX2 confirmed at runtime; bounds
                        // asserted inside the kernel.
                        unsafe { binop_avx2(regs, bd, ba, bb, run, op) };
                        return;
                    }
                    if matches!(op, BinOp::Add | BinOp::Sub)
                        && std::arch::is_x86_feature_detected!("sse2")
                    {
                        // SAFETY: SSE2 confirmed at runtime; bounds
                        // asserted inside the kernel.
                        unsafe { binop_sse2(regs, bd, ba, bb, run, op) };
                        return;
                    }
                }
            }
            binop_unrolled(regs, bd, ba, bb, run, op);
        }

        #[inline]
        pub(super) fn addi(
            regs: &mut [Word],
            bd: usize,
            bs: usize,
            run: std::ops::Range<usize>,
            imm: Word,
        ) {
            #[cfg(target_arch = "x86_64")]
            {
                if run.len() >= 4 {
                    if std::arch::is_x86_feature_detected!("avx2") {
                        // SAFETY: AVX2 confirmed at runtime; bounds
                        // asserted inside the kernel.
                        unsafe { addi_avx2(regs, bd, bs, run, imm) };
                        return;
                    }
                    if std::arch::is_x86_feature_detected!("sse2") {
                        // SAFETY: SSE2 confirmed at runtime; bounds
                        // asserted inside the kernel.
                        unsafe { addi_sse2(regs, bd, bs, run, imm) };
                        return;
                    }
                }
            }
            addi_unrolled(regs, bd, bs, run, imm);
        }

        /// 8-wide manual unroll.  Source blocks are copied to locals
        /// before the destination block is stored, so identical columns
        /// (`bd == ba`/`bd == bb`) behave exactly like the scalar loop.
        fn binop_unrolled(
            regs: &mut [Word],
            bd: usize,
            ba: usize,
            bb: usize,
            run: std::ops::Range<usize>,
            op: BinOp,
        ) {
            let (lo, hi) = (run.start, run.end);
            let mut i = lo;
            while i + W <= hi {
                let mut xa = [0 as Word; W];
                let mut xb = [0 as Word; W];
                xa.copy_from_slice(&regs[ba + i..ba + i + W]);
                xb.copy_from_slice(&regs[bb + i..bb + i + W]);
                let mut out = [0 as Word; W];
                for k in 0..W {
                    out[k] = op.apply(xa[k], xb[k]);
                }
                regs[bd + i..bd + i + W].copy_from_slice(&out);
                i += W;
            }
            for j in i..hi {
                regs[bd + j] = op.apply(regs[ba + j], regs[bb + j]);
            }
        }

        fn addi_unrolled(
            regs: &mut [Word],
            bd: usize,
            bs: usize,
            run: std::ops::Range<usize>,
            imm: Word,
        ) {
            let (lo, hi) = (run.start, run.end);
            let mut i = lo;
            while i + W <= hi {
                let mut xs = [0 as Word; W];
                xs.copy_from_slice(&regs[bs + i..bs + i + W]);
                let mut out = [0 as Word; W];
                for k in 0..W {
                    out[k] = xs[k].wrapping_add(imm);
                }
                regs[bd + i..bd + i + W].copy_from_slice(&out);
                i += W;
            }
            for j in i..hi {
                regs[bd + j] = regs[bs + j].wrapping_add(imm);
            }
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn binop_avx2(
            regs: &mut [Word],
            bd: usize,
            ba: usize,
            bb: usize,
            run: std::ops::Range<usize>,
            op: BinOp,
        ) {
            use std::arch::x86_64::*;
            let (lo, hi) = (run.start, run.end);
            assert!(bd + hi <= regs.len() && ba + hi <= regs.len() && bb + hi <= regs.len());
            let p = regs.as_mut_ptr();
            let mut i = lo;
            while i + 4 <= hi {
                // SAFETY: in-bounds by the assert above; unaligned
                // load/store intrinsics carry no alignment requirement,
                // and loads complete before the store so identical
                // columns alias harmlessly.
                unsafe {
                    let va = _mm256_loadu_si256(p.add(ba + i).cast::<__m256i>());
                    let vb = _mm256_loadu_si256(p.add(bb + i).cast::<__m256i>());
                    let vr = match op {
                        BinOp::Add => _mm256_add_epi64(va, vb),
                        BinOp::Sub => _mm256_sub_epi64(va, vb),
                        BinOp::Min => {
                            let gt = _mm256_cmpgt_epi64(va, vb);
                            _mm256_blendv_epi8(va, vb, gt)
                        }
                        BinOp::Max => {
                            let gt = _mm256_cmpgt_epi64(va, vb);
                            _mm256_blendv_epi8(vb, va, gt)
                        }
                        BinOp::Mul => unreachable!("mul has no packed i64 form below AVX-512"),
                    };
                    _mm256_storeu_si256(p.add(bd + i).cast::<__m256i>(), vr);
                }
                i += 4;
            }
            for j in i..hi {
                regs[bd + j] = op.apply(regs[ba + j], regs[bb + j]);
            }
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "sse2")]
        unsafe fn binop_sse2(
            regs: &mut [Word],
            bd: usize,
            ba: usize,
            bb: usize,
            run: std::ops::Range<usize>,
            op: BinOp,
        ) {
            use std::arch::x86_64::*;
            let (lo, hi) = (run.start, run.end);
            assert!(bd + hi <= regs.len() && ba + hi <= regs.len() && bb + hi <= regs.len());
            let p = regs.as_mut_ptr();
            let mut i = lo;
            while i + 2 <= hi {
                // SAFETY: in-bounds by the assert above (see
                // `binop_avx2` for the aliasing argument).
                unsafe {
                    let va = _mm_loadu_si128(p.add(ba + i).cast::<__m128i>());
                    let vb = _mm_loadu_si128(p.add(bb + i).cast::<__m128i>());
                    let vr = match op {
                        BinOp::Add => _mm_add_epi64(va, vb),
                        BinOp::Sub => _mm_sub_epi64(va, vb),
                        _ => unreachable!("only add/sub take the sse2 path"),
                    };
                    _mm_storeu_si128(p.add(bd + i).cast::<__m128i>(), vr);
                }
                i += 2;
            }
            for j in i..hi {
                regs[bd + j] = op.apply(regs[ba + j], regs[bb + j]);
            }
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn addi_avx2(
            regs: &mut [Word],
            bd: usize,
            bs: usize,
            run: std::ops::Range<usize>,
            imm: Word,
        ) {
            use std::arch::x86_64::*;
            let (lo, hi) = (run.start, run.end);
            assert!(bd + hi <= regs.len() && bs + hi <= regs.len());
            let p = regs.as_mut_ptr();
            let vimm = _mm256_set1_epi64x(imm);
            let mut i = lo;
            while i + 4 <= hi {
                // SAFETY: in-bounds by the assert above (see
                // `binop_avx2` for the aliasing argument).
                unsafe {
                    let vs = _mm256_loadu_si256(p.add(bs + i).cast::<__m256i>());
                    _mm256_storeu_si256(
                        p.add(bd + i).cast::<__m256i>(),
                        _mm256_add_epi64(vs, vimm),
                    );
                }
                i += 4;
            }
            for j in i..hi {
                regs[bd + j] = regs[bs + j].wrapping_add(imm);
            }
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "sse2")]
        unsafe fn addi_sse2(
            regs: &mut [Word],
            bd: usize,
            bs: usize,
            run: std::ops::Range<usize>,
            imm: Word,
        ) {
            use std::arch::x86_64::*;
            let (lo, hi) = (run.start, run.end);
            assert!(bd + hi <= regs.len() && bs + hi <= regs.len());
            let p = regs.as_mut_ptr();
            let vimm = _mm_set1_epi64x(imm);
            let mut i = lo;
            while i + 2 <= hi {
                // SAFETY: in-bounds by the assert above (see
                // `binop_avx2` for the aliasing argument).
                unsafe {
                    let vs = _mm_loadu_si128(p.add(bs + i).cast::<__m128i>());
                    _mm_storeu_si128(p.add(bd + i).cast::<__m128i>(), _mm_add_epi64(vs, vimm));
                }
                i += 2;
            }
            for j in i..hi {
                regs[bd + j] = regs[bs + j].wrapping_add(imm);
            }
        }
    }
}

/// Worker-thread count for fleet chunking: `SKILLTAX_FLEET_THREADS` if
/// set to a positive value, else the shared [`crate::configured_threads`]
/// resolution (`SKILLTAX_THREADS` / `available_parallelism`).
pub fn fleet_threads() -> usize {
    match std::env::var("SKILLTAX_FLEET_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n > 0 => n,
        _ => crate::shard::configured_threads(),
    }
}

/// Minimum instances per worker chunk before a fleet fans out
/// (`SKILLTAX_FLEET_MIN_PER_THREAD`, default 32): tiny fleets stay
/// single-threaded so thread spawn cost never dominates the run.
pub fn fleet_min_per_thread() -> usize {
    match std::env::var("SKILLTAX_FLEET_MIN_PER_THREAD")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n > 0 => n,
        _ => 32,
    }
}

/// Split `n` instances into at most `threads` contiguous ranges of at
/// least `min_per_chunk` instances each (the last range takes the
/// remainder).  Deterministic: depends only on the arguments.
pub fn chunk_ranges(n: usize, threads: usize, min_per_chunk: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let max_chunks = (n / min_per_chunk.max(1)).max(1);
    let k = threads.max(1).min(max_chunks);
    let base = n / k;
    let rem = n % k;
    let mut ranges = Vec::with_capacity(k);
    let mut start = 0;
    for c in 0..k {
        let len = base + usize::from(c < rem);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Per-instance run state shared by the fleet executors: the divergence
/// mask's backing store.  `results[i]` doubles as the retirement flag —
/// an instance leaves the active list the step its slot is written.
struct LaneState {
    pc: Vec<usize>,
    cycles: Vec<u64>,
    instructions: Vec<u64>,
    messages: Vec<u64>,
    stalls: Vec<u64>,
    /// Per-(lane, instance) ALU counter, `[lane * n + i]` (uni: one lane).
    alu: Vec<u64>,
    mem_reads: Vec<u64>,
    mem_writes: Vec<u64>,
    results: Vec<Option<InstanceResult>>,
}

impl LaneState {
    fn new(n: usize, lanes: usize) -> LaneState {
        LaneState {
            pc: vec![0; n],
            cycles: vec![0; n],
            instructions: vec![0; n],
            messages: vec![0; n],
            stalls: vec![0; n],
            alu: vec![0; lanes * n],
            mem_reads: vec![0; lanes * n],
            mem_writes: vec![0; lanes * n],
            results: (0..n).map(|_| None).collect(),
        }
    }

    /// Partial stats exactly as the sequential loops carry them into a
    /// watchdog/cancel error: cycles, instructions, messages and stalls
    /// are live; the ALU/memory counters are only folded in on success.
    fn partial(&self, i: usize) -> Stats {
        Stats {
            cycles: self.cycles[i],
            instructions: self.instructions[i],
            messages: self.messages[i],
            stalls: self.stalls[i],
            ..Stats::default()
        }
    }

    /// Full stats for a cleanly finished instance (`lanes` counter rows).
    fn finish(&self, i: usize, n: usize, lanes: usize) -> Stats {
        let mut stats = self.partial(i);
        for l in 0..lanes {
            stats.alu_ops += self.alu[l * n + i];
            stats.mem_reads += self.mem_reads[l * n + i];
            stats.mem_writes += self.mem_writes[l * n + i];
        }
        stats
    }

    /// Retire every active instance with the asynchronous-flag error,
    /// mirroring the flag poll of the sequential loops.
    fn flag_all<T: Tracer>(&mut self, active: &[usize], tracer: &mut T) {
        for &i in active {
            let partial = self.partial(i);
            self.results[i] = Some(Err(flag_trip(self.cycles[i], partial, tracer)));
        }
    }

    /// Regroup `active` into pc-cohorts (stable, ascending instances
    /// within a cohort), run `step` on each, then rebuild the active
    /// list in ascending instance order.  The cohorts partition an
    /// already-ascending list, so the rebuild is one linear `retain`
    /// over the retirement slots — no O(n log n) re-sort per
    /// divergence step.
    fn step_cohorts(
        &mut self,
        active: &mut Vec<usize>,
        mut step: impl FnMut(&mut Self, &mut Vec<usize>),
    ) {
        let mut cohorts: Vec<(usize, Vec<usize>)> = Vec::new();
        for &i in active.iter() {
            match cohorts.iter_mut().find(|(p, _)| *p == self.pc[i]) {
                Some((_, group)) => group.push(i),
                None => cohorts.push((self.pc[i], vec![i])),
            }
        }
        for (_, mut group) in cohorts {
            step(self, &mut group);
        }
        active.retain(|&i| self.results[i].is_none());
    }
}

// ---------------------------------------------------------------------------
// Uni-processor fleet
// ---------------------------------------------------------------------------

/// A fleet of `n` lockstep [`crate::uniprocessor::UniProcessor`]
/// instances in structure-of-arrays layout: register column `r` lives at
/// `regs[r * n ..]`, memory word `a` at `mem[a * n ..]`, so a uniform-pc
/// step touches contiguous lanes.
pub struct UniFleet {
    n: usize,
    mem_words: usize,
    cycle_limit: u64,
    cancel: CancelToken,
    kernels: LaneKernels,
    regs: Vec<Word>,
    mem: Vec<Word>,
}

impl std::fmt::Debug for UniFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UniFleet")
            .field("instances", &self.n)
            .field("mem_words", &self.mem_words)
            .finish()
    }
}

impl UniFleet {
    /// A fleet of `n` zeroed uni-processors, each with `mem_words` of
    /// private data memory.
    pub fn new(n: usize, mem_words: usize) -> UniFleet {
        assert!(n >= 1, "a fleet needs at least one instance");
        UniFleet {
            n,
            mem_words,
            cycle_limit: DEFAULT_CYCLE_LIMIT,
            cancel: CancelToken::new(),
            kernels: LaneKernels::default(),
            regs: vec![0; NUM_REGS * n],
            mem: vec![0; mem_words * n],
        }
    }

    /// Select the batched lane-kernel flavour (default:
    /// [`LaneKernels::default`] for this build).  Results are
    /// bit-identical across selections; only throughput differs.
    pub fn with_kernels(mut self, kernels: LaneKernels) -> UniFleet {
        self.kernels = kernels;
        self
    }

    /// Override the livelock guard (applied per instance, exactly like
    /// the sequential machine's watchdog).
    pub fn with_cycle_limit(mut self, limit: u64) -> UniFleet {
        self.cycle_limit = limit;
        self
    }

    /// Install a cancellation token: the deadline stops every instance
    /// deterministically at its own cycle count; the flag stops the
    /// whole fleet promptly.
    pub fn with_cancel(mut self, cancel: CancelToken) -> UniFleet {
        self.cancel = cancel;
        self
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.n
    }

    /// A fleet is never empty (the constructor asserts `n >= 1`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Words of data memory per instance.
    pub fn mem_words(&self) -> usize {
        self.mem_words
    }

    /// Instance `i`'s register `r` (for workload setup / result checks).
    pub fn reg(&self, i: usize, r: u8) -> Word {
        self.regs[usize::from(r) * self.n + i]
    }

    /// Write instance `i`'s register `r`.
    pub fn set_reg(&mut self, i: usize, r: u8, value: Word) {
        self.regs[usize::from(r) * self.n + i] = value;
    }

    /// Instance `i`'s memory word at `addr`.
    pub fn mem_word(&self, i: usize, addr: usize) -> Word {
        self.mem[addr * self.n + i]
    }

    /// Write instance `i`'s memory word at `addr`.
    pub fn write_mem(&mut self, i: usize, addr: usize, value: Word) {
        self.mem[addr * self.n + i] = value;
    }

    /// Load a prefix of instance `i`'s memory (strided column writes —
    /// setup cost, off the run loop).
    pub fn load_mem(&mut self, i: usize, data: &[Word]) {
        for (addr, &v) in data.iter().enumerate().take(self.mem_words) {
            self.mem[addr * self.n + i] = v;
        }
    }

    /// Run `program` on every instance; per-instance results in instance
    /// order, each bit-identical to a sequential
    /// [`crate::uniprocessor::UniProcessor::run`] of that instance.
    pub fn run(&mut self, program: &Program) -> Vec<InstanceResult> {
        self.run_traced(program, &mut NullTracer)
    }

    /// [`UniFleet::run`] with observation hooks.  Events carry each
    /// instance's own cycle stamp; class totals equal the sum of the `n`
    /// sequential traced runs.  (Fleet runs do not emit phase spans —
    /// profile a single instance on the dense machine instead.)
    pub fn run_traced<T: Tracer>(
        &mut self,
        program: &Program,
        tracer: &mut T,
    ) -> Vec<InstanceResult> {
        let n = self.n;
        let budget = RunBudget::resolve(self.cycle_limit, &self.cancel);
        let mut st = LaneState::new(n, 1);
        let mut active: Vec<usize> = (0..n).collect();
        let mut exec: Vec<usize> = Vec::with_capacity(n);
        while !active.is_empty() {
            if self.cancel.flag_raised() {
                st.flag_all(&active, tracer);
                break;
            }
            let pc0 = st.pc[active[0]];
            if active.iter().all(|&i| st.pc[i] == pc0) {
                self.lockstep_step(program, &budget, &mut active, &mut exec, &mut st, tracer);
            } else {
                let (fleet, budget) = (&mut *self, &budget);
                st.step_cohorts(&mut active, |st, group| {
                    let mut exec = Vec::with_capacity(group.len());
                    fleet.lockstep_step(program, budget, group, &mut exec, st, tracer);
                });
            }
        }
        st.results
            .into_iter()
            .map(|r| r.expect("every instance retires"))
            .collect()
    }

    /// One lockstep step for a pc-uniform `group`: per instance, the
    /// exact sequential iteration order — flag (hoisted to the caller),
    /// budget, fetch, cycle increment, fabric check, issue, execute.
    fn lockstep_step<T: Tracer>(
        &mut self,
        program: &Program,
        budget: &RunBudget,
        group: &mut Vec<usize>,
        exec: &mut Vec<usize>,
        st: &mut LaneState,
        tracer: &mut T,
    ) {
        let n = self.n;
        let pc0 = st.pc[group[0]];
        let fetched = program.fetch(pc0);
        let enabled = tracer.enabled();
        exec.clear();
        for &i in group.iter() {
            if st.cycles[i] >= budget.limit() {
                let partial = st.partial(i);
                st.results[i] = Some(Err(budget.trip(st.cycles[i], partial, tracer)));
                continue;
            }
            let Some(instr) = fetched else {
                // Running off the end is a clean stop.
                let stats = st.finish(i, n, 1);
                if enabled {
                    tracer.sample("dp.alu_ops", stats.alu_ops);
                    tracer.sample("dp.mem_ops", stats.mem_reads + stats.mem_writes);
                }
                st.results[i] = Some(Ok(stats));
                continue;
            };
            st.cycles[i] += 1;
            if instr.uses_dp_dp() {
                st.results[i] = Some(Err(MachineError::RouteDenied {
                    from: 0,
                    to: 0,
                    reason: "a uni-processor has no DP-DP fabric".to_owned(),
                }));
                continue;
            }
            st.instructions[i] += 1;
            if enabled {
                tracer.record(st.cycles[i], EventKind::Issue);
            }
            exec.push(i);
        }
        if let Some(instr) = fetched {
            self.execute(instr, pc0, exec, st, enabled, tracer);
        }
        group.retain(|&i| st.results[i].is_none());
    }

    /// The decoded-once lane loops, batched per opcode: `exec` is
    /// classified into maximal consecutive instance runs (one run when
    /// the active list is dense), and each opcode sweeps its column
    /// slices with a unit-stride [`kernel`] call per run instead of an
    /// index gather.
    fn execute<T: Tracer>(
        &mut self,
        instr: Instr,
        pc0: usize,
        exec: &[usize],
        st: &mut LaneState,
        enabled: bool,
        tracer: &mut T,
    ) {
        let n = self.n;
        let kernels = self.kernels;
        let col = |r: u8| usize::from(r) * n;
        let next = pc0 + 1;
        macro_rules! alu_runs {
            ($body:expr) => {{
                #[allow(clippy::redundant_closure_call)]
                for run in runs(exec) {
                    $body(run.clone());
                    for i in run.clone() {
                        st.alu[i] += 1;
                        if enabled {
                            tracer.record(st.cycles[i], EventKind::AluOp);
                        }
                    }
                    st.pc[run].fill(next);
                }
            }};
        }
        match instr {
            Instr::Nop => {
                for run in runs(exec) {
                    st.pc[run].fill(next);
                }
            }
            Instr::Halt => {
                for &i in exec {
                    let stats = st.finish(i, n, 1);
                    if enabled {
                        tracer.sample("dp.alu_ops", stats.alu_ops);
                        tracer.sample("dp.mem_ops", stats.mem_reads + stats.mem_writes);
                    }
                    st.results[i] = Some(Ok(stats));
                }
            }
            Instr::MovI(rd, imm) => {
                let bd = col(rd);
                for run in runs(exec) {
                    self.regs[bd + run.start..bd + run.end].fill(imm);
                    st.pc[run].fill(next);
                }
            }
            Instr::Mov(rd, rs) => {
                let (bd, bs) = (col(rd), col(rs));
                for run in runs(exec) {
                    self.regs
                        .copy_within(bs + run.start..bs + run.end, bd + run.start);
                    st.pc[run].fill(next);
                }
            }
            Instr::Add(rd, a, b) => {
                let (bd, ba, bb) = (col(rd), col(a), col(b));
                alu_runs!(|run| kernel::binop(
                    kernels,
                    &mut self.regs,
                    bd,
                    ba,
                    bb,
                    run,
                    kernel::BinOp::Add
                ));
            }
            Instr::Sub(rd, a, b) => {
                let (bd, ba, bb) = (col(rd), col(a), col(b));
                alu_runs!(|run| kernel::binop(
                    kernels,
                    &mut self.regs,
                    bd,
                    ba,
                    bb,
                    run,
                    kernel::BinOp::Sub
                ));
            }
            Instr::Mul(rd, a, b) => {
                let (bd, ba, bb) = (col(rd), col(a), col(b));
                alu_runs!(|run| kernel::binop(
                    kernels,
                    &mut self.regs,
                    bd,
                    ba,
                    bb,
                    run,
                    kernel::BinOp::Mul
                ));
            }
            Instr::Min(rd, a, b) => {
                let (bd, ba, bb) = (col(rd), col(a), col(b));
                alu_runs!(|run| kernel::binop(
                    kernels,
                    &mut self.regs,
                    bd,
                    ba,
                    bb,
                    run,
                    kernel::BinOp::Min
                ));
            }
            Instr::Max(rd, a, b) => {
                let (bd, ba, bb) = (col(rd), col(a), col(b));
                alu_runs!(|run| kernel::binop(
                    kernels,
                    &mut self.regs,
                    bd,
                    ba,
                    bb,
                    run,
                    kernel::BinOp::Max
                ));
            }
            Instr::AddI(rd, rs, imm) => {
                let (bd, bs) = (col(rd), col(rs));
                alu_runs!(|run| kernel::addi(kernels, &mut self.regs, bd, bs, run, imm));
            }
            Instr::Load(rd, rs) => {
                let (bd, bs) = (col(rd), col(rs));
                for &i in exec {
                    let address = self.regs[bs + i];
                    if address < 0 || address as usize >= self.mem_words {
                        st.results[i] = Some(Err(MachineError::MemoryOutOfBounds {
                            processor: 0,
                            address,
                            size: self.mem_words,
                        }));
                        continue;
                    }
                    self.regs[bd + i] = self.mem[address as usize * n + i];
                    st.mem_reads[i] += 1;
                    if enabled {
                        tracer.record(st.cycles[i], EventKind::MemRead);
                    }
                    st.pc[i] = next;
                }
            }
            Instr::Store(ra, rs) => {
                let (ba, bs) = (col(ra), col(rs));
                for &i in exec {
                    let address = self.regs[ba + i];
                    if address < 0 || address as usize >= self.mem_words {
                        st.results[i] = Some(Err(MachineError::MemoryOutOfBounds {
                            processor: 0,
                            address,
                            size: self.mem_words,
                        }));
                        continue;
                    }
                    self.mem[address as usize * n + i] = self.regs[bs + i];
                    st.mem_writes[i] += 1;
                    if enabled {
                        tracer.record(st.cycles[i], EventKind::MemWrite);
                    }
                    st.pc[i] = next;
                }
            }
            Instr::LaneId(rd) => {
                let bd = col(rd);
                for run in runs(exec) {
                    self.regs[bd + run.start..bd + run.end].fill(0);
                    st.pc[run].fill(next);
                }
            }
            Instr::Beq(a, b, t) => {
                let (ba, bb) = (col(a), col(b));
                for &i in exec {
                    st.pc[i] = if self.regs[ba + i] == self.regs[bb + i] {
                        t
                    } else {
                        next
                    };
                }
            }
            Instr::Bne(a, b, t) => {
                let (ba, bb) = (col(a), col(b));
                for &i in exec {
                    st.pc[i] = if self.regs[ba + i] != self.regs[bb + i] {
                        t
                    } else {
                        next
                    };
                }
            }
            Instr::Blt(a, b, t) => {
                let (ba, bb) = (col(a), col(b));
                for &i in exec {
                    st.pc[i] = if self.regs[ba + i] < self.regs[bb + i] {
                        t
                    } else {
                        next
                    };
                }
            }
            Instr::Jmp(t) => {
                for run in runs(exec) {
                    st.pc[run].fill(t);
                }
            }
            Instr::Send(..) | Instr::Recv(..) | Instr::GetLane(..) => {
                unreachable!("fabric instructions are intercepted before execute")
            }
        }
    }
}

/// One worker chunk of a fleet run: its instance range, the sub-fleet
/// (for post-run register/memory inspection) and the per-instance
/// results for that range.
#[derive(Debug)]
pub struct FleetChunk {
    /// Global instance range this chunk covered.
    pub range: Range<usize>,
    /// The sub-fleet, post-run (instance `range.start + k` is local `k`).
    pub fleet: UniFleet,
    /// Per-instance results, local order.
    pub results: Vec<InstanceResult>,
}

/// Run `n` uni-processor instances of `program` as contiguous sub-fleet
/// chunks across worker threads (`threads == 0` resolves via
/// [`fleet_threads`]).  `init(global_index, fleet, local_index)` seeds
/// each instance before its chunk runs.  Instances are independent, so
/// the chunked run is deterministic and bit-identical to one big fleet —
/// the fleet×thread analog of `with_shards`.
#[allow(clippy::too_many_arguments)]
pub fn run_uni_fleet_chunked<I>(
    n: usize,
    mem_words: usize,
    cycle_limit: u64,
    cancel: &CancelToken,
    program: &Program,
    kernels: LaneKernels,
    init: I,
    threads: usize,
) -> Vec<FleetChunk>
where
    I: Fn(usize, &mut UniFleet, usize) + Sync,
{
    let threads = if threads == 0 {
        fleet_threads()
    } else {
        threads
    };
    let ranges = chunk_ranges(n, threads, fleet_min_per_thread());
    let workers = ranges.len();
    crate::sweep::parallel_map_with(
        ranges,
        |range| {
            let mut fleet = UniFleet::new(range.len(), mem_words)
                .with_cycle_limit(cycle_limit)
                .with_cancel(cancel.clone())
                .with_kernels(kernels);
            for local in 0..range.len() {
                init(range.start + local, &mut fleet, local);
            }
            let results = fleet.run(program);
            FleetChunk {
                range: range.clone(),
                fleet,
                results,
            }
        },
        workers,
    )
}

/// Flatten chunked results back into one per-instance vector in global
/// instance order.
pub fn chunked_results(chunks: Vec<FleetChunk>) -> Vec<InstanceResult> {
    chunks.into_iter().flat_map(|c| c.results).collect()
}

// ---------------------------------------------------------------------------
// Array-machine fleet
// ---------------------------------------------------------------------------

/// A fleet of `n` lockstep [`crate::array::ArrayMachine`] instances
/// (same sub-type, lane count and bank size) in structure-of-arrays
/// layout: lane `l`'s register `r` lives at
/// `regs[(l * NUM_REGS + r) * n ..]`, global memory word `g` at
/// `mem[g * n ..]`.
pub struct ArrayFleet {
    subtype: ArraySubtype,
    lanes: usize,
    bank_words: usize,
    n: usize,
    cycle_limit: u64,
    cancel: CancelToken,
    kernels: LaneKernels,
    regs: Vec<Word>,
    mem: Vec<Word>,
}

impl std::fmt::Debug for ArrayFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArrayFleet")
            .field("subtype", &self.subtype.class_name())
            .field("lanes", &self.lanes)
            .field("instances", &self.n)
            .finish()
    }
}

impl ArrayFleet {
    /// A fleet of `n` zeroed `lanes`-lane array machines with
    /// `bank_words` words per memory bank.
    pub fn new(subtype: ArraySubtype, lanes: usize, bank_words: usize, n: usize) -> ArrayFleet {
        assert!(n >= 1, "a fleet needs at least one instance");
        assert!(lanes >= 1, "an array machine needs at least one lane");
        assert!(bank_words >= 1, "banks need at least one word");
        ArrayFleet {
            subtype,
            lanes,
            bank_words,
            n,
            cycle_limit: DEFAULT_CYCLE_LIMIT,
            cancel: CancelToken::new(),
            kernels: LaneKernels::default(),
            regs: vec![0; lanes * NUM_REGS * n],
            mem: vec![0; lanes * bank_words * n],
        }
    }

    /// Select the batched lane-kernel flavour (default:
    /// [`LaneKernels::default`] for this build).  Results are
    /// bit-identical across selections; only throughput differs.
    pub fn with_kernels(mut self, kernels: LaneKernels) -> ArrayFleet {
        self.kernels = kernels;
        self
    }

    /// Override the livelock guard (per instance).
    pub fn with_cycle_limit(mut self, limit: u64) -> ArrayFleet {
        self.cycle_limit = limit;
        self
    }

    /// Install a cancellation token (deadline deterministic per
    /// instance, flag prompt for the whole fleet).
    pub fn with_cancel(mut self, cancel: CancelToken) -> ArrayFleet {
        self.cancel = cancel;
        self
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.n
    }

    /// A fleet is never empty (the constructor asserts `n >= 1`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Lanes per instance.
    pub fn lane_count(&self) -> usize {
        self.lanes
    }

    /// Instance `i`, lane `l`, register `r`.
    pub fn lane_reg(&self, i: usize, l: usize, r: u8) -> Word {
        self.regs[(l * NUM_REGS + usize::from(r)) * self.n + i]
    }

    /// Instance `i`'s memory word at global address `g`
    /// (`bank * bank_words + offset`).
    pub fn mem_word(&self, i: usize, g: usize) -> Word {
        self.mem[g * self.n + i]
    }

    /// Load a prefix of instance `i`'s bank `bank`.
    pub fn load_bank(&mut self, i: usize, bank: usize, data: &[Word]) {
        for (offset, &v) in data.iter().enumerate().take(self.bank_words) {
            self.mem[(bank * self.bank_words + offset) * self.n + i] = v;
        }
    }

    /// Run `program` on every instance; per-instance results in instance
    /// order, bit-identical to sequential
    /// [`crate::array::ArrayMachine::run`] runs.
    pub fn run(&mut self, program: &Program) -> Vec<InstanceResult> {
        self.run_traced(program, &mut NullTracer)
    }

    /// [`ArrayFleet::run`] with observation hooks (see
    /// [`UniFleet::run_traced`] for the event-total contract).
    pub fn run_traced<T: Tracer>(
        &mut self,
        program: &Program,
        tracer: &mut T,
    ) -> Vec<InstanceResult> {
        self.run_inner(program, None, tracer)
            .into_iter()
            .map(|r| r.map(|o| o.stats))
            .collect()
    }

    /// Monte-Carlo entry point: run every instance under its own
    /// transient-fault plan (stalls, memory bit-flips), one plan per
    /// instance.  Results are bit-identical to sequential
    /// [`crate::array::ArrayMachine::run_resilient`] runs with the same
    /// plans.  Plans with permanently failed DPs are rejected per
    /// instance: private-bank sub-types with the same
    /// [`MachineError::DegradationImpossible`] the sequential machine
    /// raises, shared-crossbar sub-types with a typed
    /// `WorkloadUnsupported` (the degraded-replay path is inherently
    /// per-instance — use `run_resilient` for those studies).
    pub fn run_faulted(
        &mut self,
        program: &Program,
        plans: Vec<FaultPlan>,
    ) -> Vec<Result<crate::fault::RunOutcome, MachineError>> {
        self.run_faulted_traced(program, plans, &mut NullTracer)
    }

    /// [`ArrayFleet::run_faulted`] with observation hooks.
    pub fn run_faulted_traced<T: Tracer>(
        &mut self,
        program: &Program,
        mut plans: Vec<FaultPlan>,
        tracer: &mut T,
    ) -> Vec<Result<crate::fault::RunOutcome, MachineError>> {
        assert_eq!(plans.len(), self.n, "one fault plan per instance");
        // Mirror `run_resilient`: reject permanent failures up front,
        // then fork each plan so the run consumes a decorrelated stream
        // with a fresh injection counter.
        let mut rejected: Vec<Option<MachineError>> = (0..self.n).map(|_| None).collect();
        let mut forks: Vec<FaultPlan> = Vec::with_capacity(self.n);
        for (i, plan) in plans.iter_mut().enumerate() {
            if !plan.failed_dps().is_empty() {
                rejected[i] = Some(match self.subtype.data_topology() {
                    DataTopology::PrivateBanks => MachineError::DegradationImpossible {
                        machine: format!("{} array machine", self.subtype.class_name()),
                        reason: "DP-DM is a direct switch: a failed lane's private bank is \
                                 unreachable from any substitute DP"
                            .to_owned(),
                    },
                    DataTopology::SharedCrossbar => MachineError::unsupported(
                        format!("{} array fleet", self.subtype.class_name()),
                        "degraded replay of failed DPs is per-instance work; \
                         run run_resilient on a sequential machine",
                    ),
                });
            }
            forks.push(plan.fork());
        }
        let results = self.run_inner(program, Some(&mut forks), tracer);
        results
            .into_iter()
            .zip(rejected)
            .map(|(result, rejection)| match rejection {
                Some(e) => Err(e),
                None => result,
            })
            .collect()
    }

    fn run_inner<T: Tracer>(
        &mut self,
        program: &Program,
        mut plans: Option<&mut Vec<FaultPlan>>,
        tracer: &mut T,
    ) -> Vec<Result<crate::fault::RunOutcome, MachineError>> {
        let n = self.n;
        let budget = RunBudget::resolve(self.cycle_limit, &self.cancel);
        let mut st = LaneState::new(n, self.lanes);
        let mut active: Vec<usize> = (0..n).collect();
        // Instances whose plan was rejected never start.
        let mut exec: Vec<usize> = Vec::with_capacity(n);
        let mut snapshot: Vec<Word> = Vec::with_capacity(self.lanes);
        while !active.is_empty() {
            if self.cancel.flag_raised() {
                st.flag_all(&active, tracer);
                break;
            }
            let pc0 = st.pc[active[0]];
            if active.iter().all(|&i| st.pc[i] == pc0) {
                self.array_step(
                    program,
                    &budget,
                    &mut active,
                    &mut exec,
                    &mut snapshot,
                    &mut st,
                    plans.as_deref_mut(),
                    tracer,
                );
            } else {
                let (fleet, budget) = (&mut *self, &budget);
                let plans = &mut plans;
                let snapshot = &mut snapshot;
                st.step_cohorts(&mut active, |st, group| {
                    let mut exec = Vec::with_capacity(group.len());
                    fleet.array_step(
                        program,
                        budget,
                        group,
                        &mut exec,
                        snapshot,
                        st,
                        plans.as_deref_mut(),
                        tracer,
                    );
                });
            }
        }
        st.results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let faults_injected = plans.as_ref().map_or(0, |p| p[i].injected());
                r.expect("every instance retires")
                    .map(|stats| crate::fault::RunOutcome {
                        stats,
                        faults_injected,
                        retries: 0,
                        degraded: false,
                    })
            })
            .collect()
    }

    /// One lockstep step for a pc-uniform group of array instances.
    #[allow(clippy::too_many_arguments)]
    fn array_step<T: Tracer>(
        &mut self,
        program: &Program,
        budget: &RunBudget,
        group: &mut Vec<usize>,
        exec: &mut Vec<usize>,
        snapshot: &mut Vec<Word>,
        st: &mut LaneState,
        mut plans: Option<&mut Vec<FaultPlan>>,
        tracer: &mut T,
    ) {
        let n = self.n;
        let lanes = self.lanes;
        let live = lanes as u64;
        let pc0 = st.pc[group[0]];
        let fetched = program.fetch(pc0);
        let enabled = tracer.enabled();
        exec.clear();
        for &i in group.iter() {
            if st.cycles[i] >= budget.limit() {
                let partial = st.partial(i);
                st.results[i] = Some(Err(budget.trip(st.cycles[i], partial, tracer)));
                continue;
            }
            let Some(_) = fetched else {
                let stats = st.finish(i, n, lanes);
                if enabled {
                    for l in 0..lanes {
                        tracer.sample("dp.alu_ops", st.alu[l * n + i]);
                        tracer.sample(
                            "dp.mem_ops",
                            st.mem_reads[l * n + i] + st.mem_writes[l * n + i],
                        );
                    }
                }
                st.results[i] = Some(Ok(stats));
                continue;
            };
            st.cycles[i] += 1;
            let mut stalled = false;
            if let Some(plans) = plans.as_deref_mut() {
                let plan = &mut plans[i];
                // Mirror `FaultPlan::maybe_flip_memory` against the SoA
                // memory: same draws, same geometry reduction, same
                // trace event.
                if let Some((bank_raw, addr_raw, bit)) = plan.memory_bit_flip() {
                    let bank = (bank_raw % lanes as u64) as usize;
                    let addr = (addr_raw % self.bank_words as u64) as usize;
                    let g = bank * self.bank_words + addr;
                    self.mem[g * n + i] ^= 1 << bit;
                    tracer.record(st.cycles[i], EventKind::FaultInjected(FaultKind::BitFlip));
                }
                // Lockstep SIMD: one stalled lane holds back the whole
                // broadcast.  Ascending short-circuit order matches the
                // sequential live-lane scan (injection counts depend on
                // it).
                stalled = (0..lanes).any(|l| plan.dp_stalled(st.cycles[i], l));
                if stalled {
                    st.stalls[i] += 1;
                    tracer.record(st.cycles[i], EventKind::Stall);
                }
            }
            if !stalled {
                exec.push(i);
            }
        }
        if let Some(instr) = fetched {
            if !exec.is_empty() {
                self.array_execute(instr, pc0, exec, snapshot, st, live, enabled, tracer);
            }
        }
        group.retain(|&i| st.results[i].is_none());
    }

    /// Global-word address resolution mirroring
    /// `BankedMemory::resolve` for this machine's geometry (same typed
    /// error values).
    fn resolve(&self, lane: usize, address: Word) -> Result<usize, MachineError> {
        if address < 0 {
            return Err(MachineError::MemoryOutOfBounds {
                processor: lane,
                address,
                size: self.lanes * self.bank_words,
            });
        }
        let addr = address as usize;
        match self.subtype.data_topology() {
            DataTopology::PrivateBanks => {
                if addr >= self.bank_words {
                    return Err(MachineError::MemoryOutOfBounds {
                        processor: lane,
                        address,
                        size: self.bank_words,
                    });
                }
                Ok(lane * self.bank_words + addr)
            }
            DataTopology::SharedCrossbar => {
                if addr / self.bank_words >= self.lanes {
                    return Err(MachineError::MemoryOutOfBounds {
                        processor: lane,
                        address,
                        size: self.lanes * self.bank_words,
                    });
                }
                Ok(addr)
            }
        }
    }

    /// The decoded-once broadcast: lanes outer, instances inner, so each
    /// `(lane, register)` column is walked contiguously.
    #[allow(clippy::too_many_arguments)]
    fn array_execute<T: Tracer>(
        &mut self,
        instr: Instr,
        pc0: usize,
        exec: &[usize],
        snapshot: &mut Vec<Word>,
        st: &mut LaneState,
        live: u64,
        enabled: bool,
        tracer: &mut T,
    ) {
        let n = self.n;
        let lanes = self.lanes;
        let col = |l: usize, r: u8| (l * NUM_REGS + usize::from(r)) * n;
        let next = pc0 + 1;
        match instr {
            Instr::Send(..) | Instr::Recv(..) => {
                for &i in exec {
                    st.results[i] = Some(Err(MachineError::unsupported(
                        format!("{} array machine", self.subtype.class_name()),
                        "array lanes have no independent control to exchange \
                         asynchronous messages; use getlane",
                    )));
                }
            }
            Instr::GetLane(rd, lane_reg, rs) => {
                let fabric = self.subtype.lane_fabric();
                for &i in exec {
                    // SIMD semantics: every lane reads the
                    // *pre-instruction* value of its source lane.
                    snapshot.clear();
                    for l in 0..lanes {
                        snapshot.push(self.regs[col(l, rs) + i]);
                    }
                    let mut failed = false;
                    for l in 0..lanes {
                        let src = self.regs[col(l, lane_reg) + i];
                        if src < 0 || src as usize >= lanes {
                            st.results[i] = Some(Err(MachineError::RouteDenied {
                                from: l,
                                to: src.max(0) as usize,
                                reason: format!("source lane {src} out of range"),
                            }));
                            failed = true;
                            break;
                        }
                        let src = src as usize;
                        if src != l {
                            if let Err(e) = fabric.route(src, l, lanes) {
                                st.results[i] = Some(Err(e));
                                failed = true;
                                break;
                            }
                            st.messages[i] += 1;
                            if enabled {
                                tracer
                                    .record(st.cycles[i], EventKind::Message { from: src, to: l });
                                tracer.record(st.cycles[i], EventKind::CrossbarTraversal);
                            }
                        }
                        self.regs[col(l, rd) + i] = snapshot[src];
                    }
                    if failed {
                        continue;
                    }
                    st.instructions[i] += live;
                    if enabled {
                        tracer.record_many(st.cycles[i], EventKind::Issue, live);
                    }
                    st.pc[i] = next;
                }
            }
            _ if instr.is_control() => {
                // The IP resolves control flow against the control lane
                // (lane 0 — every lane is alive in a fleet run).
                for &i in exec {
                    st.instructions[i] += 1;
                    if enabled {
                        tracer.record(st.cycles[i], EventKind::Issue);
                    }
                    match instr {
                        Instr::Halt => {
                            let stats = st.finish(i, n, lanes);
                            if enabled {
                                for l in 0..lanes {
                                    tracer.sample("dp.alu_ops", st.alu[l * n + i]);
                                    tracer.sample(
                                        "dp.mem_ops",
                                        st.mem_reads[l * n + i] + st.mem_writes[l * n + i],
                                    );
                                }
                            }
                            st.results[i] = Some(Ok(stats));
                        }
                        Instr::Jmp(t) => st.pc[i] = t,
                        Instr::Beq(a, b, t) => {
                            st.pc[i] = if self.regs[col(0, a) + i] == self.regs[col(0, b) + i] {
                                t
                            } else {
                                next
                            };
                        }
                        Instr::Bne(a, b, t) => {
                            st.pc[i] = if self.regs[col(0, a) + i] != self.regs[col(0, b) + i] {
                                t
                            } else {
                                next
                            };
                        }
                        Instr::Blt(a, b, t) => {
                            st.pc[i] = if self.regs[col(0, a) + i] < self.regs[col(0, b) + i] {
                                t
                            } else {
                                next
                            };
                        }
                        _ => unreachable!("is_control covers halt, jumps and branches"),
                    }
                }
            }
            _ => {
                // Broadcast a local instruction to every lane.  Lanes
                // ascend per instance, so an instance that faults on
                // lane `l` keeps lanes `< l` applied and skips the rest
                // — the sequential `?` propagation, SoA-shaped.
                match instr {
                    Instr::Nop => {}
                    Instr::MovI(rd, imm) => {
                        for l in 0..lanes {
                            let bd = col(l, rd);
                            for run in runs(exec) {
                                self.regs[bd + run.start..bd + run.end].fill(imm);
                            }
                        }
                    }
                    Instr::Mov(rd, rs) => {
                        for l in 0..lanes {
                            let (bd, bs) = (col(l, rd), col(l, rs));
                            for run in runs(exec) {
                                self.regs
                                    .copy_within(bs + run.start..bs + run.end, bd + run.start);
                            }
                        }
                    }
                    Instr::Add(rd, a, b) => {
                        self.lane_alu(exec, st, enabled, tracer, rd, a, b, kernel::BinOp::Add)
                    }
                    Instr::Sub(rd, a, b) => {
                        self.lane_alu(exec, st, enabled, tracer, rd, a, b, kernel::BinOp::Sub)
                    }
                    Instr::Mul(rd, a, b) => {
                        self.lane_alu(exec, st, enabled, tracer, rd, a, b, kernel::BinOp::Mul)
                    }
                    Instr::Min(rd, a, b) => {
                        self.lane_alu(exec, st, enabled, tracer, rd, a, b, kernel::BinOp::Min)
                    }
                    Instr::Max(rd, a, b) => {
                        self.lane_alu(exec, st, enabled, tracer, rd, a, b, kernel::BinOp::Max)
                    }
                    Instr::AddI(rd, rs, imm) => {
                        let kernels = self.kernels;
                        for l in 0..lanes {
                            let (bd, bs) = (col(l, rd), col(l, rs));
                            let ac = l * n;
                            for run in runs(exec) {
                                kernel::addi(kernels, &mut self.regs, bd, bs, run.clone(), imm);
                                for i in run {
                                    st.alu[ac + i] += 1;
                                    if enabled {
                                        tracer.record(st.cycles[i], EventKind::AluOp);
                                    }
                                }
                            }
                        }
                    }
                    Instr::LaneId(rd) => {
                        for l in 0..lanes {
                            let bd = col(l, rd);
                            for run in runs(exec) {
                                self.regs[bd + run.start..bd + run.end].fill(l as Word);
                            }
                        }
                    }
                    Instr::Load(rd, rs) => {
                        for l in 0..lanes {
                            let (bd, bs) = (col(l, rd), col(l, rs));
                            let rc = l * n;
                            for &i in exec {
                                if st.results[i].is_some() {
                                    continue;
                                }
                                let address = self.regs[bs + i];
                                match self.resolve(l, address) {
                                    Ok(g) => {
                                        self.regs[bd + i] = self.mem[g * n + i];
                                        st.mem_reads[rc + i] += 1;
                                        if enabled {
                                            tracer.record(st.cycles[i], EventKind::MemRead);
                                        }
                                    }
                                    Err(e) => st.results[i] = Some(Err(e)),
                                }
                            }
                        }
                    }
                    Instr::Store(ra, rs) => {
                        for l in 0..lanes {
                            let (ba, bs) = (col(l, ra), col(l, rs));
                            let wc = l * n;
                            for &i in exec {
                                if st.results[i].is_some() {
                                    continue;
                                }
                                let address = self.regs[ba + i];
                                match self.resolve(l, address) {
                                    Ok(g) => {
                                        self.mem[g * n + i] = self.regs[bs + i];
                                        st.mem_writes[wc + i] += 1;
                                        if enabled {
                                            tracer.record(st.cycles[i], EventKind::MemWrite);
                                        }
                                    }
                                    Err(e) => st.results[i] = Some(Err(e)),
                                }
                            }
                        }
                    }
                    _ => unreachable!("control and fabric instructions handled above"),
                }
                for &i in exec {
                    if st.results[i].is_none() {
                        st.instructions[i] += live;
                        if enabled {
                            tracer.record_many(st.cycles[i], EventKind::Issue, live);
                        }
                        st.pc[i] = next;
                    }
                }
            }
        }
    }

    /// A three-register ALU broadcast over every lane column, swept as
    /// unit-stride kernel runs.
    #[allow(clippy::too_many_arguments)]
    fn lane_alu<T: Tracer>(
        &mut self,
        exec: &[usize],
        st: &mut LaneState,
        enabled: bool,
        tracer: &mut T,
        rd: u8,
        a: u8,
        b: u8,
        op: kernel::BinOp,
    ) {
        let n = self.n;
        let kernels = self.kernels;
        for l in 0..self.lanes {
            let base = l * NUM_REGS * n;
            let (bd, ba, bb) = (
                base + usize::from(rd) * n,
                base + usize::from(a) * n,
                base + usize::from(b) * n,
            );
            let ac = l * n;
            for run in runs(exec) {
                kernel::binop(kernels, &mut self.regs, bd, ba, bb, run.clone(), op);
                for i in run {
                    st.alu[ac + i] += 1;
                    if enabled {
                        tracer.record(st.cycles[i], EventKind::AluOp);
                    }
                }
            }
        }
    }
}

/// One worker chunk of a faulted array-fleet run: its instance range,
/// the sub-fleet (for post-run register/memory inspection) and the
/// per-instance fault-run outcomes for that range.
#[derive(Debug)]
pub struct ArrayFleetChunk {
    /// Global instance range this chunk covered.
    pub range: Range<usize>,
    /// The sub-fleet, post-run (instance `range.start + k` is local `k`).
    pub fleet: ArrayFleet,
    /// Per-instance fault-run outcomes, local order.
    pub outcomes: Vec<Result<crate::fault::RunOutcome, MachineError>>,
}

/// Run `n` faulted array-machine instances as contiguous sub-fleet
/// chunks across worker threads — the [`run_uni_fleet_chunked`] analog
/// for the Monte-Carlo axis.  `threads == 0` resolves via
/// [`fleet_threads`] (with the same `SKILLTAX_FLEET_THREADS` /
/// `SKILLTAX_FLEET_MIN_PER_THREAD` knobs); `init(global, fleet, local)`
/// seeds instance state before the chunk runs and `plan_for(global)`
/// supplies each instance's [`FaultPlan`].  Instances are independent,
/// so chunked ≡ one fleet ≡ `n` sequential
/// [`crate::array::ArrayMachine::run_resilient`] runs, bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn run_array_fleet_chunked<I, P>(
    subtype: ArraySubtype,
    lanes: usize,
    bank_words: usize,
    n: usize,
    cycle_limit: u64,
    cancel: &CancelToken,
    program: &Program,
    kernels: LaneKernels,
    init: I,
    plan_for: P,
    threads: usize,
) -> Vec<ArrayFleetChunk>
where
    I: Fn(usize, &mut ArrayFleet, usize) + Sync,
    P: Fn(usize) -> FaultPlan + Sync,
{
    let threads = if threads == 0 {
        fleet_threads()
    } else {
        threads
    };
    let ranges = chunk_ranges(n, threads, fleet_min_per_thread());
    let workers = ranges.len();
    crate::sweep::parallel_map_with(
        ranges,
        |range| {
            let mut fleet = ArrayFleet::new(subtype, lanes, bank_words, range.len())
                .with_cycle_limit(cycle_limit)
                .with_cancel(cancel.clone())
                .with_kernels(kernels);
            for local in 0..range.len() {
                init(range.start + local, &mut fleet, local);
            }
            let plans = range.clone().map(&plan_for).collect();
            let outcomes = fleet.run_faulted(program, plans);
            ArrayFleetChunk {
                range: range.clone(),
                fleet,
                outcomes,
            }
        },
        workers,
    )
}

/// Flatten chunked Monte-Carlo outcomes back into one per-instance
/// vector in global instance order.
pub fn array_chunked_outcomes(
    chunks: Vec<ArrayFleetChunk>,
) -> Vec<Result<crate::fault::RunOutcome, MachineError>> {
    chunks.into_iter().flat_map(|c| c.outcomes).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Assembler;
    use crate::uniprocessor::UniProcessor;

    fn spin(iters: Word) -> Program {
        let mut asm = Assembler::new();
        asm.movi(0, 0).movi(1, iters);
        asm.label("loop").unwrap();
        asm.emit(Instr::AddI(0, 0, 1));
        asm.blt(0, 1, "loop");
        asm.emit(Instr::Halt);
        asm.assemble().unwrap()
    }

    #[test]
    fn uni_fleet_matches_sequential_spin() {
        let prog = spin(37);
        let mut fleet = UniFleet::new(8, 4);
        let results = fleet.run(&prog);
        let mut seq = UniProcessor::new(4);
        let expected = seq.run(&prog).unwrap();
        for r in results {
            assert_eq!(r.unwrap(), expected);
        }
    }

    #[test]
    fn divergent_branches_regroup_into_cohorts() {
        // Each instance spins for its own bound, read from memory —
        // control flow diverges and re-converges at halt.
        let mut asm = Assembler::new();
        asm.movi(0, 0).movi(2, 0).emit(Instr::Load(1, 2));
        asm.label("loop").unwrap();
        asm.emit(Instr::AddI(0, 0, 1));
        asm.blt(0, 1, "loop");
        asm.emit(Instr::Halt);
        let prog = asm.assemble().unwrap();
        let bounds: Vec<Word> = vec![1, 9, 4, 30, 2, 17];
        let mut fleet = UniFleet::new(bounds.len(), 4);
        for (i, &b) in bounds.iter().enumerate() {
            fleet.write_mem(i, 0, b);
        }
        let results = fleet.run(&prog);
        for (i, &b) in bounds.iter().enumerate() {
            let mut m = UniProcessor::new(4);
            m.memory_mut().bank_mut(0).load(&[b]);
            let expected = m.run(&prog).unwrap();
            assert_eq!(results[i].as_ref().unwrap(), &expected, "instance {i}");
            assert_eq!(fleet.reg(i, 0), b, "instance {i} final counter");
        }
    }

    #[test]
    fn watchdog_and_memory_errors_match_sequential() {
        let mut asm = Assembler::new();
        asm.emit(Instr::Jmp(0));
        let forever = asm.assemble().unwrap();
        let mut fleet = UniFleet::new(3, 4).with_cycle_limit(100);
        for r in fleet.run(&forever) {
            match r {
                Err(MachineError::WatchdogTimeout {
                    limit: 100,
                    partial,
                }) => {
                    assert_eq!(partial.cycles, 100);
                }
                other => panic!("expected watchdog, got {other:?}"),
            }
        }
        let mut asm = Assembler::new();
        asm.movi(0, 99).emit(Instr::Load(1, 0)).emit(Instr::Halt);
        let oob = asm.assemble().unwrap();
        let mut fleet = UniFleet::new(2, 4);
        let mut seq = UniProcessor::new(4);
        let expected = seq.run(&oob).unwrap_err();
        for r in fleet.run(&oob) {
            assert_eq!(r.unwrap_err(), expected);
        }
    }

    #[test]
    fn runs_classify_sorted_indices() {
        let idx = [0usize, 1, 2, 5, 6, 9];
        let got: Vec<_> = runs(&idx).collect();
        assert_eq!(got, vec![0..3, 5..7, 9..10]);
        assert!(runs(&[]).next().is_none());
        let dense: Vec<usize> = (0..33).collect();
        assert_eq!(runs(&dense).collect::<Vec<_>>(), vec![0..33]);
        let sparse = [4usize, 8, 12];
        assert_eq!(runs(&sparse).collect::<Vec<_>>(), vec![4..5, 8..9, 12..13]);
    }

    #[test]
    fn wide_kernels_match_scalar_kernels() {
        use super::kernel::{self, BinOp};
        let n = 37usize;
        let seed = |k: usize| (k as Word).wrapping_mul(-0x61c8_8647) ^ ((k as Word) << 3);
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Min, BinOp::Max] {
            // Disjoint columns plus every aliasing shape (dst==a,
            // dst==b, all equal): the wide path must match scalar on
            // each, including the sub-block run tail.
            for (bd, ba, bb) in [(0, n, 2 * n), (0, 0, n), (n, n, n), (2 * n, 0, 2 * n)] {
                let mut scalar: Vec<Word> = (0..3 * n).map(seed).collect();
                let mut wide = scalar.clone();
                kernel::binop(LaneKernels::Scalar, &mut scalar, bd, ba, bb, 1..n - 2, op);
                kernel::binop(LaneKernels::Wide, &mut wide, bd, ba, bb, 1..n - 2, op);
                assert_eq!(scalar, wide, "{op:?} bd={bd} ba={ba} bb={bb}");
            }
        }
        let mut scalar: Vec<Word> = (0..2 * n).map(seed).collect();
        let mut wide = scalar.clone();
        kernel::addi(LaneKernels::Scalar, &mut scalar, n, 0, 0..n, -7);
        kernel::addi(LaneKernels::Wide, &mut wide, n, 0, 0..n, -7);
        assert_eq!(scalar, wide);
        kernel::addi(LaneKernels::Scalar, &mut scalar, 0, 0, 3..n, 11);
        kernel::addi(LaneKernels::Wide, &mut wide, 0, 0, 3..n, 11);
        assert_eq!(scalar, wide, "aliased dst==src addi");
    }

    #[test]
    fn scalar_and_wide_fleets_agree() {
        let prog = spin(29);
        let run = |kernels: LaneKernels| {
            let mut fleet = UniFleet::new(24, 2).with_kernels(kernels);
            fleet.run(&prog)
        };
        let scalar = run(LaneKernels::Scalar);
        let wide = run(LaneKernels::Wide);
        for (a, b) in scalar.iter().zip(&wide) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for (n, threads, min) in [(100, 4, 1), (7, 16, 2), (64, 3, 32), (1, 8, 32), (5, 2, 8)] {
            let ranges = chunk_ranges(n, threads, min);
            let mut covered = 0;
            let mut expect_start = 0;
            for r in &ranges {
                assert_eq!(r.start, expect_start);
                expect_start = r.end;
                covered += r.len();
            }
            assert_eq!(covered, n, "n={n} threads={threads} min={min}");
            assert!(ranges.len() <= threads.max(1));
        }
        assert!(chunk_ranges(0, 4, 1).is_empty());
    }

    #[test]
    fn chunked_run_matches_single_fleet() {
        let prog = spin(19);
        let chunks = run_uni_fleet_chunked(
            70,
            4,
            DEFAULT_CYCLE_LIMIT,
            &CancelToken::new(),
            &prog,
            LaneKernels::default(),
            |_, _, _| {},
            4,
        );
        let chunked = chunked_results(chunks);
        let mut fleet = UniFleet::new(70, 4);
        let whole = fleet.run(&prog);
        assert_eq!(chunked.len(), whole.len());
        for (a, b) in chunked.iter().zip(&whole) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn array_fleet_matches_sequential_vector_add() {
        use crate::array::ArrayMachine;
        let mut asm = Assembler::new();
        asm.movi(0, 0)
            .movi(1, 1)
            .movi(2, 2)
            .emit(Instr::Load(3, 0))
            .emit(Instr::Load(4, 1))
            .emit(Instr::Add(5, 3, 4))
            .emit(Instr::Store(2, 5))
            .emit(Instr::Halt);
        let prog = asm.assemble().unwrap();
        let mut fleet = ArrayFleet::new(ArraySubtype::I, 4, 4, 6);
        for i in 0..6 {
            for lane in 0..4 {
                fleet.load_bank(i, lane, &[(i * 10 + lane) as Word, 3, 0, 0]);
            }
        }
        let results = fleet.run(&prog);
        for (i, result) in results.iter().enumerate() {
            let mut m = ArrayMachine::new(ArraySubtype::I, 4, 4);
            for lane in 0..4 {
                m.memory_mut()
                    .bank_mut(lane)
                    .load(&[(i * 10 + lane) as Word, 3, 0, 0]);
            }
            let expected = m.run(&prog).unwrap();
            assert_eq!(result.as_ref().unwrap(), &expected, "instance {i}");
            for lane in 0..4 {
                assert_eq!(
                    fleet.mem_word(i, lane * 4 + 2),
                    (i * 10 + lane) as Word + 3,
                    "instance {i} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn faulted_array_fleet_matches_run_resilient() {
        use crate::array::ArrayMachine;
        let mut asm = Assembler::new();
        asm.emit(Instr::LaneId(0))
            .movi(1, 100)
            .emit(Instr::Add(1, 1, 0))
            .emit(Instr::Store(0, 1))
            .emit(Instr::Halt);
        let prog = asm.assemble().unwrap();
        let seeds = [3u64, 11, 42, 77];
        let plans: Vec<FaultPlan> = seeds
            .iter()
            .map(|&s| FaultPlan::seeded(s).stall_dps(0.3).flip_memory_bits(0.05))
            .collect();
        let mut fleet =
            ArrayFleet::new(ArraySubtype::III, 4, 4, seeds.len()).with_cycle_limit(10_000);
        let outcomes = fleet.run_faulted(&prog, plans.clone());
        for (i, &seed) in seeds.iter().enumerate() {
            let mut m = ArrayMachine::new(ArraySubtype::III, 4, 4).with_cycle_limit(10_000);
            let expected = m
                .run_resilient(
                    &prog,
                    FaultPlan::seeded(seed)
                        .stall_dps(0.3)
                        .flip_memory_bits(0.05),
                )
                .unwrap();
            assert_eq!(outcomes[i].as_ref().unwrap(), &expected, "seed {seed}");
        }
    }
}
