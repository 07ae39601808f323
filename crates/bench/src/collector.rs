//! The continuous-performance collector: a registered suite covering
//! every engine family, each benchmark paired with deterministic
//! counters.
//!
//! Every suite entry is one closure run two ways:
//!
//! * **traced** once with a [`Telemetry`] tracer — the run's total
//!   cycles and per-event-class totals (plus domain work counters for
//!   the non-machine engines) become the benchmark's *deterministic
//!   counters*.  The engines are deterministic, so these are
//!   byte-identical across runs and machines, and the regression gate
//!   ([`crate::compare`]) gates **hard** on them;
//! * **untraced** under the [`Harness`] for wall-clock timing — noisy,
//!   machine-local, summarised robustly ([`crate::stats`]) and gated
//!   **soft** against the measured noise floor.
//!
//! [`collect`] runs the whole suite and returns the artifact
//! ([`crate::artifact`]) that `bench_collect` writes to
//! `BENCH_<label>.json`.

use std::collections::BTreeMap;
use std::time::Duration;

use skilltax_catalog::full_survey;
use skilltax_estimate::{estimate_area, estimate_config_bits, CostParams};
use skilltax_machine::array::ArraySubtype;
use skilltax_machine::dataflow::DataflowSubtype;
use skilltax_machine::interconnect::FabricTopology;
use skilltax_machine::multi::{MultiMachine, MultiSubtype};
use skilltax_machine::profile::{NullProfiler, Phase, SpanProfile};
use skilltax_machine::spatial::SpatialMachine;
use skilltax_machine::telemetry::{EventKind, Telemetry, Tracer};
use skilltax_machine::universal::{program_counter, LutFabric};
use skilltax_machine::workload::{
    run_backoff_storm_multi_traced, run_fabric_counters_traced, run_fault_monte_carlo_array,
    run_mimd_mix_multi_traced, run_mimd_stagger_multi_traced, run_reduce_dataflow_traced,
    run_reduce_dataflow_with, run_ring_shift_multi_traced, run_spin_swarm_uni_traced,
    run_stagger_spatial_traced, run_vector_add_array_traced, run_vector_add_multi_traced,
    run_vector_add_swarm_array_traced, run_vector_add_uni_traced,
};
use skilltax_machine::{Assembler, CancelToken, FaultPlan, Instr, Program, Stats, Word};
use skilltax_service::admission::{DrrQueue, QueuedJob};
use skilltax_service::{
    run_chaos, serve, ChaosConfig, Engine, EngineConfig, HttpConfig, HttpServer, JobKind,
    JobOutcome, JobRequest, QuotaConfig, Service, ServiceConfig,
};
use skilltax_taxonomy::{classify, flexibility_of_spec, Taxonomy};

use crate::artifact::{Artifact, BenchRecord, CollectionMode, EnvMeta, SCHEMA_VERSION};
use crate::microbench::{
    env_batch_target, env_batches, Harness, DEFAULT_BATCHES, DEFAULT_BATCH_TARGET,
};

/// The tracer a suite closure is handed: off for timing, on for counter
/// capture.  A concrete enum (not a trait object) so the machine run
/// loops stay monomorphised.
#[derive(Debug, Default)]
pub enum BenchTracer {
    /// Timing mode: behave like a `NullTracer`.
    #[default]
    Off,
    /// Counter-capture mode.
    On(Telemetry),
}

impl BenchTracer {
    /// The captured telemetry, if this tracer was on.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        match self {
            BenchTracer::Off => None,
            BenchTracer::On(t) => Some(t),
        }
    }
}

impl Tracer for BenchTracer {
    fn enabled(&self) -> bool {
        matches!(self, BenchTracer::On(_))
    }

    fn record(&mut self, cycle: u64, kind: EventKind) {
        if let BenchTracer::On(t) = self {
            t.record(cycle, kind);
        }
    }

    fn record_many(&mut self, cycle: u64, kind: EventKind, n: u64) {
        if let BenchTracer::On(t) = self {
            t.record_many(cycle, kind, n);
        }
    }

    fn counter(&mut self, name: &str, delta: u64) {
        if let BenchTracer::On(t) = self {
            t.counter(name, delta);
        }
    }

    fn sample(&mut self, name: &str, value: u64) {
        if let BenchTracer::On(t) = self {
            t.sample(name, value);
        }
    }
}

/// Forks the tracer hooks the way [`skilltax_machine::Profiled`] does,
/// but over a borrowed suite tracer: counters and events keep flowing to
/// the [`BenchTracer`], span hooks go to `profiler`.  The run loops
/// monomorphise over the pair, so with a [`NullProfiler`] every span
/// hook is a deleted no-op and the loop is the baseline loop — which is
/// what the `/nullprofiler` overhead twin exists to demonstrate.
struct SpanFork<'a, P> {
    inner: &'a mut BenchTracer,
    profiler: P,
}

impl<P: Tracer> Tracer for SpanFork<'_, P> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, cycle: u64, kind: EventKind) {
        self.inner.record(cycle, kind);
        self.profiler.record(cycle, kind);
    }

    fn record_many(&mut self, cycle: u64, kind: EventKind, n: u64) {
        self.inner.record_many(cycle, kind, n);
        self.profiler.record_many(cycle, kind, n);
    }

    fn counter(&mut self, name: &str, delta: u64) {
        self.inner.counter(name, delta);
    }

    fn sample(&mut self, name: &str, value: u64) {
        self.inner.sample(name, value);
    }

    fn span_enter(&mut self, cycle: u64, phase: Phase) {
        self.profiler.span_enter(cycle, phase);
    }

    fn span_exit(&mut self, cycle: u64) {
        self.profiler.span_exit(cycle);
    }

    fn span_mark(&mut self, cycle: u64, phase: Phase) {
        self.profiler.span_mark(cycle, phase);
    }
}

/// The boxed workload a suite entry runs, traced or untraced.
type BenchFn = Box<dyn Fn(&mut BenchTracer) -> BTreeMap<String, u64>>;

/// One registered suite entry: a name, its group, and the closure run
/// both traced (counters) and untraced (timing).
pub struct SuiteBench {
    name: &'static str,
    group: &'static str,
    run: BenchFn,
}

impl SuiteBench {
    fn new(
        name: &'static str,
        group: &'static str,
        run: impl Fn(&mut BenchTracer) -> BTreeMap<String, u64> + 'static,
    ) -> SuiteBench {
        SuiteBench {
            name,
            group,
            run: Box::new(run),
        }
    }

    /// Stable benchmark name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Suite group (engine family).
    pub fn group(&self) -> &'static str {
        self.group
    }

    /// One traced run: the benchmark's deterministic counters.
    pub fn capture_counters(&self) -> BTreeMap<String, u64> {
        let mut tracer = BenchTracer::On(Telemetry::new());
        let mut counters = (self.run)(&mut tracer);
        if let Some(telemetry) = tracer.telemetry() {
            for (label, count) in telemetry.trace.class_counts() {
                counters.insert(format!("event.{label}"), count);
            }
        }
        counters
    }
}

/// Counters shared by every machine-family benchmark: total cycles (the
/// event-class totals are appended by [`SuiteBench::capture_counters`]).
fn stats_counters(stats: &Stats) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    m.insert("cycles".to_owned(), stats.cycles);
    m.insert("instructions".to_owned(), stats.instructions);
    m
}

/// [`stats_counters`] plus the stall cycles and injected faults of a
/// fault-injected run.
fn fault_counters(stats: &Stats, faults_injected: u64) -> BTreeMap<String, u64> {
    let mut m = stats_counters(stats);
    m.insert("work.stalls".to_owned(), stats.stalls);
    m.insert("work.faults_injected".to_owned(), faults_injected);
    m
}

/// Domain counters for text-rendering benchmarks: output size plus a
/// byte-sum checksum (both exact and platform-independent).
fn text_counters(rendered: &str) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    m.insert("work.bytes".to_owned(), rendered.len() as u64);
    m.insert(
        "work.checksum".to_owned(),
        rendered.bytes().map(u64::from).sum(),
    );
    m
}

/// `x` in exact thousandths — the deterministic integer form of an `f64`
/// model output (identical FP op order ⇒ identical value everywhere).
fn milli(x: f64) -> u64 {
    (x * 1000.0).round() as u64
}

fn vectors(n: usize) -> (Vec<Word>, Vec<Word>) {
    ((0..n as Word).collect(), (0..n as Word).rev().collect())
}

/// `mem[0] = 2 + 3` with a load back — the spatial per-core program.
fn scalar_program() -> Program {
    let mut asm = Assembler::new();
    asm.movi(0, 2)
        .movi(1, 3)
        .emit(Instr::Add(2, 0, 1))
        .movi(3, 0)
        .emit(Instr::Store(3, 2))
        .emit(Instr::Load(4, 3))
        .emit(Instr::Halt);
    asm.assemble().expect("scalar program is well formed")
}

/// The registered suite: every engine family behind the paper's tables
/// and figures, in stable order.
pub fn suite() -> Vec<SuiteBench> {
    let mut benches = Vec::new();

    // --- taxonomy: classification and flexibility (Tables I-III) -----
    benches.push(SuiteBench::new(
        "taxonomy/classify_templates",
        "taxonomy",
        |_| {
            let specs: Vec<_> = Taxonomy::extended()
                .implementable()
                .map(|c| c.template_spec())
                .collect();
            let mut classified = 0u64;
            for spec in &specs {
                classify(spec).expect("template specs classify");
                classified += 1;
            }
            let mut m = BTreeMap::new();
            m.insert("work.classified".to_owned(), classified);
            m
        },
    ));
    benches.push(SuiteBench::new(
        "taxonomy/flexibility_survey",
        "taxonomy",
        |_| {
            let survey = full_survey();
            let flex_sum: u64 = survey
                .iter()
                .map(|e| u64::from(flexibility_of_spec(&e.spec)))
                .sum();
            let mut m = BTreeMap::new();
            m.insert("work.entries".to_owned(), survey.len() as u64);
            m.insert("work.flexibility_sum".to_owned(), flex_sum);
            m
        },
    ));

    // --- estimate: Eq 1 / Eq 2 sweeps --------------------------------
    benches.push(SuiteBench::new(
        "estimate/area_eq1_survey",
        "estimate",
        |_| {
            let survey = full_survey();
            let params = CostParams::default();
            let area_sum: f64 = survey
                .iter()
                .map(|e| estimate_area(&e.spec, &params).total())
                .sum();
            let mut m = BTreeMap::new();
            m.insert("work.entries".to_owned(), survey.len() as u64);
            m.insert("work.area_sum_milli".to_owned(), milli(area_sum));
            m
        },
    ));
    benches.push(SuiteBench::new(
        "estimate/config_bits_eq2_sweep",
        "estimate",
        |_| {
            let spec = skilltax_model::dsl::parse_row(
                "IMP-XVI-template",
                "n | n | none | nxn | nxn | nxn | nxn",
            )
            .expect("template row parses");
            let mut bits_sum = 0u64;
            let mut area_sum = 0.0f64;
            for n in [4u32, 16, 64, 256] {
                let params = CostParams::default().with_n(n);
                bits_sum += estimate_config_bits(&spec, &params).total();
                area_sum += estimate_area(&spec, &params).total();
            }
            let mut m = BTreeMap::new();
            m.insert("work.config_bits_sum".to_owned(), bits_sum);
            m.insert("work.area_sum_milli".to_owned(), milli(area_sum));
            m
        },
    ));

    // --- machine run loops: one per family ---------------------------
    benches.push(SuiteBench::new(
        "machine/vector_add/uni/64",
        "machine.uni",
        |tracer| {
            let (a, b) = vectors(64);
            let run = run_vector_add_uni_traced(&a, &b, tracer).expect("IUP runs vector add");
            stats_counters(&run.stats)
        },
    ));
    benches.push(SuiteBench::new(
        "machine/vector_add/array-I/64",
        "machine.array",
        |tracer| {
            let (a, b) = vectors(64);
            let run = run_vector_add_array_traced(ArraySubtype::I, &a, &b, tracer)
                .expect("IAP-I runs vector add");
            stats_counters(&run.stats)
        },
    ));
    benches.push(SuiteBench::new(
        "machine/vector_add/multi-simd/8",
        "machine.multi",
        |tracer| {
            let (a, b) = vectors(8);
            let subtype = MultiSubtype::from_index(1).expect("IMP-I exists");
            let run =
                run_vector_add_multi_traced(subtype, &a, &b, tracer).expect("IMP emulates SIMD");
            stats_counters(&run.stats)
        },
    ));
    benches.push(SuiteBench::new(
        "machine/mimd_mix/multi/8x16",
        "machine.multi",
        |tracer| {
            let slices: Vec<Vec<Word>> = (0..8).map(|i| (i..i + 16).collect()).collect();
            let subtype = MultiSubtype::from_index(1).expect("IMP-I exists");
            let run =
                run_mimd_mix_multi_traced(subtype, &slices, tracer).expect("IMP runs MIMD mix");
            stats_counters(&run.stats)
        },
    ));
    benches.push(SuiteBench::new(
        "machine/spatial/fused_pair/4",
        "machine.spatial",
        |tracer| {
            let mut machine = SpatialMachine::new(
                MultiSubtype::from_code(0).expect("code 0 is ISP-I"),
                FabricTopology::Crossbar,
                4,
                8,
            )
            .expect("spatial machine builds");
            machine.fuse(0, 1).expect("crossbar IP-IP fuses");
            let programs: Vec<Program> = (0..4).map(|_| scalar_program()).collect();
            let stats = machine
                .run_traced(&programs, tracer)
                .expect("fused groups run");
            stats_counters(&stats)
        },
    ));
    benches.push(SuiteBench::new(
        "machine/dataflow/reduce/4dp/64",
        "machine.dataflow",
        |tracer| {
            let data: Vec<Word> = (0..64).collect();
            let run = run_reduce_dataflow_traced(DataflowSubtype::IV, 4, &data, tracer)
                .expect("DMP-IV reduces");
            stats_counters(&run.stats)
        },
    ));
    benches.push(SuiteBench::new(
        "machine/fabric/program_counter/8bit",
        "machine.fabric",
        |tracer| {
            let fabric = LutFabric::new(256, 4, 32);
            let bitstream = program_counter(&fabric, 8).expect("8-bit PC maps");
            let mut pc = fabric.configure(&bitstream).expect("bitstream configures");
            let no_branch = vec![false; 9];
            let (_, stats) = pc
                .run_until_traced(
                    &no_branch,
                    1_000,
                    |out| {
                        out.iter()
                            .enumerate()
                            .fold(0usize, |acc, (i, &b)| acc | (usize::from(b) << i))
                            == 50
                    },
                    tracer,
                )
                .expect("PC reaches 50 inside the budget");
            stats_counters(&stats)
        },
    ));

    // --- event-driven scheduler vs dense reference twins -------------
    //
    // Each workload below appears twice: the default event-driven
    // scheduler and its `/dense` twin forcing the per-cycle reference
    // loop.  Deterministic counters are identical by construction
    // (enforced by the scheduler-identity suite); only wall time
    // differs, which is exactly what EXPERIMENTS.md X7 records.
    benches.push(SuiteBench::new(
        "machine/mimd_stagger/multi/256",
        "machine.multi",
        |tracer| {
            let run = run_mimd_stagger_multi_traced(256, 4096, false, tracer)
                .expect("staggered MIMD runs");
            stats_counters(&run.stats)
        },
    ));
    benches.push(SuiteBench::new(
        "machine/mimd_stagger/multi/256/dense",
        "machine.multi",
        |tracer| {
            let run = run_mimd_stagger_multi_traced(256, 4096, true, tracer)
                .expect("staggered MIMD runs");
            stats_counters(&run.stats)
        },
    ));
    benches.push(SuiteBench::new(
        "machine/spatial_stagger/64",
        "machine.spatial",
        |tracer| {
            let run =
                run_stagger_spatial_traced(64, 4096, false, tracer).expect("staggered ISP runs");
            stats_counters(&run.stats)
        },
    ));
    benches.push(SuiteBench::new(
        "machine/spatial_stagger/64/dense",
        "machine.spatial",
        |tracer| {
            let run =
                run_stagger_spatial_traced(64, 4096, true, tracer).expect("staggered ISP runs");
            stats_counters(&run.stats)
        },
    ));
    benches.push(SuiteBench::new(
        "machine/dataflow/reduce/8dp/2048",
        "machine.dataflow",
        |tracer| {
            let data: Vec<Word> = (0..2048).collect();
            let run = run_reduce_dataflow_with(DataflowSubtype::IV, 8, &data, false, tracer)
                .expect("DMP-IV reduces");
            stats_counters(&run.stats)
        },
    ));
    benches.push(SuiteBench::new(
        "machine/dataflow/reduce/8dp/2048/dense",
        "machine.dataflow",
        |tracer| {
            let data: Vec<Word> = (0..2048).collect();
            let run = run_reduce_dataflow_with(DataflowSubtype::IV, 8, &data, true, tracer)
                .expect("DMP-IV reduces");
            stats_counters(&run.stats)
        },
    ));
    benches.push(SuiteBench::new(
        "machine/backoff_storm/multi/60k",
        "machine.multi",
        |tracer| {
            let run = run_backoff_storm_multi_traced(60_000, 80, false, tracer)
                .expect("the storm delivers");
            stats_counters(&run.stats)
        },
    ));
    benches.push(SuiteBench::new(
        "machine/backoff_storm/multi/60k/dense",
        "machine.multi",
        |tracer| {
            let run = run_backoff_storm_multi_traced(60_000, 80, true, tracer)
                .expect("the storm delivers");
            stats_counters(&run.stats)
        },
    ));

    // --- seeded fault rolls ------------------------------------------
    //
    // Per-cycle stall and bit-flip rolls, the two the link-outage storm
    // above never draws.  Their counters pin the roll semantics: a
    // changed threshold or draw order moves the stall and fault counts.
    benches.push(SuiteBench::new(
        "machine/stall_storm/multi/32",
        "machine.multi",
        |tracer| {
            let mut asm = Assembler::new();
            asm.movi(0, 0).movi(1, 200);
            asm.label("loop").expect("fresh label");
            asm.emit(Instr::AddI(0, 0, 1));
            asm.blt(0, 1, "loop");
            asm.emit(Instr::Halt);
            let spin = asm.assemble().expect("spin program is well formed");
            let mut machine =
                MultiMachine::new(MultiSubtype::from_index(1).expect("IMP-I"), 32, 16);
            let run = machine
                .run_resilient_traced(&vec![spin; 32], FaultPlan::seeded(1).stall_dps(0.3), tracer)
                .expect("a stall storm completes");
            fault_counters(&run.stats, run.faults_injected)
        },
    ));
    benches.push(SuiteBench::new(
        "machine/fault_sweep/array-III/16x64",
        "machine.array",
        |_| {
            let seeds: Vec<u64> = (1..=64).collect();
            let (mut total, mut faults) = (Stats::default(), 0);
            for run in run_fault_monte_carlo_array(ArraySubtype::III, 16, &seeds, 0.2, 0.05) {
                let run = run.expect("every seed completes");
                total = total.accumulate_sequential(run.stats);
                faults += run.faults_injected;
            }
            fault_counters(&total, faults)
        },
    ));

    // --- message ring and fabric regions -----------------------------
    benches.push(SuiteBench::new(
        "machine/ring_shift/multi/64",
        "machine.multi",
        |tracer| {
            let run = run_ring_shift_multi_traced(64, tracer).expect("the ring delivers");
            stats_counters(&run.stats)
        },
    ));
    benches.push(SuiteBench::new(
        "machine/fabric_counters/12",
        "machine.fabric",
        |tracer| {
            let run = run_fabric_counters_traced(12, 1_000, tracer).expect("the chains go high");
            stats_counters(&run.stats)
        },
    ));

    // --- span-profiler overhead twins --------------------------------
    //
    // `/nullprofiler` forks the span hooks into a [`NullProfiler`] —
    // all no-ops the monomorphiser deletes, so this is the compiled
    // proof that a disabled profiler costs nothing: its wall time must
    // sit in the baseline's noise floor.  `/profiled` forks into a live
    // [`SpanProfile`], pricing the enabled profiler.  Both twins'
    // deterministic counters are gated hard identical to the baseline
    // entry (profiling observes a run, it never perturbs one).
    benches.push(SuiteBench::new(
        "machine/mimd_stagger/multi/256/nullprofiler",
        "machine.multi",
        |tracer| {
            let mut fork = SpanFork {
                inner: tracer,
                profiler: NullProfiler,
            };
            let run = run_mimd_stagger_multi_traced(256, 4096, false, &mut fork)
                .expect("staggered MIMD runs");
            stats_counters(&run.stats)
        },
    ));
    benches.push(SuiteBench::new(
        "machine/mimd_stagger/multi/256/profiled",
        "machine.multi",
        |tracer| {
            let mut fork = SpanFork {
                inner: tracer,
                profiler: SpanProfile::new(),
            };
            let run = run_mimd_stagger_multi_traced(256, 4096, false, &mut fork)
                .expect("staggered MIMD runs");
            fork.profiler.seal();
            assert_eq!(
                fork.profiler.leaf_cycle_total(),
                run.stats.cycles,
                "profiled twin leaves must tile the run"
            );
            stats_counters(&run.stats)
        },
    ));

    // --- swarms: N instances run one after another ------------------
    benches.push(SuiteBench::new(
        "machine/spin_swarm/uni/96",
        "machine.uni",
        |tracer| {
            let stats = run_spin_swarm_uni_traced(96, 150, tracer).expect("the swarm spins");
            stats_counters(&stats)
        },
    ));
    benches.push(SuiteBench::new(
        "machine/vector_add_swarm/array-I/64x4",
        "machine.array",
        |tracer| {
            let stats = run_vector_add_swarm_array_traced(ArraySubtype::I, 64, 4, tracer)
                .expect("the swarm adds");
            stats_counters(&stats)
        },
    ));

    // --- report rendering --------------------------------------------
    benches.push(SuiteBench::new("report/table3_render", "report", |_| {
        text_counters(&crate::artifacts::table3())
    }));
    benches.push(SuiteBench::new("report/fig7_render", "report", |_| {
        text_counters(&crate::artifacts::fig7_ascii())
    }));

    // --- job service -------------------------------------------------
    //
    // The multi-tenant service layer.  Its deterministic counters come
    // from the same cycle-exact engines as the machine entries plus the
    // chaos harness's scripted admission clock, so they are gated hard
    // like everything else; wall time here is the service overhead
    // (queueing, dispatch, pooling) around the simulation itself.
    benches.push(SuiteBench::new(
        "service/admission/drr/1k",
        "service",
        |_| {
            let mut queue = DrrQueue::new(1024, 4);
            let tenants = ["a", "b", "c", "d"];
            for i in 0..1024u64 {
                let tenant = tenants[(i % 4) as usize];
                let cost = 1 + i % 7;
                queue
                    .push(tenant, QueuedJob { payload: i, cost })
                    .expect("under capacity");
            }
            let mut pops = 0u64;
            let mut order_checksum = 0u64;
            while let Some(job) = queue.pop() {
                pops += 1;
                // FNV-style fold kept in 32 bits so the counter survives
                // the JSON round-trip exactly.
                order_checksum = (order_checksum
                    .wrapping_mul(0x0100_01B3)
                    .wrapping_add(job.payload))
                    & 0xFFFF_FFFF;
            }
            let mut m = BTreeMap::new();
            m.insert("work.pops".to_owned(), pops);
            m.insert("work.order_checksum".to_owned(), order_checksum);
            m
        },
    ));
    {
        let engine = std::sync::Arc::new(Engine::new(EngineConfig::default()));
        engine.pool().prewarm(1);
        benches.push(SuiteBench::new(
            "service/pooled_request/uni/400",
            "service",
            move |_| {
                let request = JobRequest {
                    tenant: "bench".to_owned(),
                    kind: JobKind::Simulate {
                        cores: 1,
                        iters: 400,
                        fault_seed: None,
                    },
                    deadline_cycles: None,
                };
                let outcome = engine.execute(&request, &CancelToken::new());
                let stats = match &outcome {
                    JobOutcome::Completed {
                        stats: Some(stats), ..
                    } => stats,
                    other => panic!("warm pooled request completes: {other:?}"),
                };
                stats_counters(stats)
            },
        ));
    }
    benches.push(SuiteBench::new(
        "service/chaos/soak/3rounds",
        "service",
        |_| {
            let report = run_chaos(&ChaosConfig {
                rounds: 3,
                workers: 2,
                queue_capacity: 8,
                ..ChaosConfig::default()
            });
            assert!(report.passed(), "the bench soak holds its invariants");
            let mut m = BTreeMap::new();
            m.insert("work.submitted".to_owned(), report.submitted);
            m.insert("work.admitted".to_owned(), report.admitted);
            m.insert("work.peak_depth".to_owned(), report.peak_depth as u64);
            m.insert(
                "work.rejections".to_owned(),
                report.rejections.values().sum(),
            );
            for (label, count) in &report.outcomes {
                m.insert(format!("work.outcome.{label}"), *count);
            }
            m
        },
    ));
    {
        // Started on first use, so a filtered collection spawns nothing.
        let served = std::cell::OnceCell::new();
        benches.push(SuiteBench::new(
            "service/http/roundtrip/64",
            "service",
            move |_| {
                let (service, server) = served.get_or_init(start_http_service);
                let before = service.metrics();
                for _ in 0..64 {
                    let response =
                        post_job(server.local_addr(), "tenant=bench&kind=simulate&iters=50");
                    assert!(response.contains("\"outcome\":\"completed\""), "{response}");
                }
                // Sequential requests each find a free slot and an empty
                // queue, so every job runs on its connection thread.
                let after = service.metrics();
                let mut m = BTreeMap::new();
                m.insert(
                    "work.caller_runs".to_owned(),
                    after.caller_runs - before.caller_runs,
                );
                m.insert(
                    "work.worker_runs".to_owned(),
                    after.worker_runs - before.worker_runs,
                );
                m
            },
        ));
    }

    benches
}

/// A service behind its HTTP front end on an ephemeral loopback port,
/// with a quota that never refuses the suite's repeated batches.
fn start_http_service() -> (std::sync::Arc<Service>, HttpServer) {
    let service = std::sync::Arc::new(Service::start(ServiceConfig {
        quota: QuotaConfig {
            capacity: 1 << 40,
            refill_num: 1 << 20,
            refill_den: 1,
        },
        ..ServiceConfig::default()
    }));
    let server = serve(
        std::sync::Arc::clone(&service),
        HttpConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..HttpConfig::default()
        },
    )
    .expect("bind a loopback port");
    (service, server)
}

/// One `POST /jobs` on a fresh connection; the whole response.
fn post_job(addr: std::net::SocketAddr, body: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to the service");
    let request = format!(
        "POST /jobs HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .expect("send the request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read the response");
    response
}

/// Batch depth for a mode, with the `SKILLTAX_BENCH_*` environment
/// variables taking precedence (the documented quick defaults keep the
/// CI smoke step in the seconds range).
pub fn depth_for(mode: CollectionMode) -> (usize, Duration) {
    let default_batches = match mode {
        CollectionMode::Full => DEFAULT_BATCHES,
        CollectionMode::Quick => 3,
        CollectionMode::DeterministicOnly => 2,
    };
    let default_target = match mode {
        CollectionMode::Full => DEFAULT_BATCH_TARGET,
        CollectionMode::Quick => Duration::from_millis(2),
        CollectionMode::DeterministicOnly => Duration::from_millis(1),
    };
    (
        env_batches().unwrap_or(default_batches),
        env_batch_target().unwrap_or(default_target),
    )
}

/// Run the full suite: one traced run per benchmark for the
/// deterministic counters, then the timing batches, returning the
/// artifact to write.
pub fn collect(label: &str, mode: CollectionMode) -> Artifact {
    collect_filtered(label, mode, None)
}

/// [`collect`] restricted to suite entries whose name contains `filter`
/// (case-sensitive substring; `None` runs everything).
pub fn collect_filtered(label: &str, mode: CollectionMode, filter: Option<&str>) -> Artifact {
    let (batches, batch_target) = depth_for(mode);
    let mut harness = Harness::new()
        .with_batches(batches)
        .with_batch_target(batch_target);
    let mut records = Vec::new();
    for bench in suite()
        .into_iter()
        .filter(|b| filter.is_none_or(|f| b.name().contains(f)))
    {
        let counters = bench.capture_counters();
        let measurement = harness.bench(bench.name(), || {
            let mut off = BenchTracer::Off;
            (bench.run)(&mut off)
        });
        records.push(BenchRecord {
            name: bench.name().to_owned(),
            group: bench.group().to_owned(),
            iters_per_batch: measurement.iters_per_batch,
            wall_ns: measurement.robust(),
            counters,
        });
    }
    Artifact {
        schema_version: SCHEMA_VERSION,
        label: label.to_owned(),
        mode,
        env: EnvMeta::current(batches as u64, batch_target.as_millis() as u64),
        benchmarks: records,
    }
}

/// The deterministic half only — every benchmark's counters from one
/// traced run each, with no timing batches (used by tests and tooling
/// that only care about the hard-gated facts).
pub fn collect_counters() -> Vec<(String, BTreeMap<String, u64>)> {
    suite()
        .iter()
        .map(|b| (b.name().to_owned(), b.capture_counters()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_every_engine_family() {
        let groups: std::collections::BTreeSet<&str> = suite().iter().map(|b| b.group()).collect();
        for family in [
            "taxonomy",
            "estimate",
            "machine.uni",
            "machine.array",
            "machine.multi",
            "machine.spatial",
            "machine.dataflow",
            "machine.fabric",
            "report",
            "service",
        ] {
            assert!(groups.contains(family), "suite is missing {family}");
        }
    }

    #[test]
    fn suite_names_are_unique() {
        let mut names: Vec<&str> = suite().iter().map(|b| b.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn deterministic_counters_are_identical_across_runs() {
        assert_eq!(collect_counters(), collect_counters());
    }

    #[test]
    fn scheduler_twins_report_identical_counters() {
        let suite = suite();
        let find = |name: &str| {
            suite
                .iter()
                .find(|b| b.name() == name)
                .expect("registered")
                .capture_counters()
        };
        for base in [
            "machine/mimd_stagger/multi/256",
            "machine/spatial_stagger/64",
            "machine/dataflow/reduce/8dp/2048",
            "machine/backoff_storm/multi/60k",
        ] {
            assert_eq!(find(base), find(&format!("{base}/dense")), "{base}");
        }
    }

    #[test]
    fn profiler_twins_report_identical_counters() {
        let suite = suite();
        let find = |name: &str| {
            suite
                .iter()
                .find(|b| b.name() == name)
                .expect("registered")
                .capture_counters()
        };
        let baseline = find("machine/mimd_stagger/multi/256");
        assert_eq!(
            baseline,
            find("machine/mimd_stagger/multi/256/nullprofiler"),
            "a disabled profiler must not change a single counter"
        );
        assert_eq!(
            baseline,
            find("machine/mimd_stagger/multi/256/profiled"),
            "an enabled profiler observes the run, it never perturbs it"
        );
    }

    #[test]
    fn filtered_collection_restricts_the_suite() {
        let artifact = collect_filtered(
            "test",
            CollectionMode::DeterministicOnly,
            Some("vector_add"),
        );
        assert!(!artifact.benchmarks.is_empty());
        assert!(artifact
            .benchmarks
            .iter()
            .all(|b| b.name.contains("vector_add")));
    }

    #[test]
    fn machine_benchmarks_capture_cycles_and_event_classes() {
        let counters = suite()
            .iter()
            .find(|b| b.name() == "machine/vector_add/uni/64")
            .expect("registered")
            .capture_counters();
        assert!(counters["cycles"] > 0);
        assert!(counters["event.issue"] > 0);
        assert!(counters.contains_key("event.stall"));
    }
}
