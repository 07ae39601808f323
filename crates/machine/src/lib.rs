//! # skilltax-machine
//!
//! Executable cycle-level machines for every implementable class family of
//! the extended Skillicorn taxonomy — the substrate that turns the paper's
//! flexibility *claims* into observable behaviour:
//!
//! * [`uniprocessor`] — IUP, the Von Neumann baseline;
//! * [`mod@array`] — IAP-I..IV SIMD arrays (sub-types differ in DP–DM and
//!   DP–DP switches, observable as memory/exchange capabilities);
//! * [`multi`] — IMP-I..XVI MIMD machines (each crossbar bit is a runtime
//!   capability: shared memory, message passing, shared program store,
//!   IP→DP rebinding);
//! * [`spatial`] — ISP machines whose IPs fuse into bigger IPs;
//! * [`dataflow`] — DUP / DMP-I..IV token-firing engines;
//! * [`universal`] — the USP LUT fabric that implements either paradigm;
//! * [`workload`] — cross-family workloads with reference results;
//! * [`morph`] — the emulation partial order, validated by running it;
//! * [`sweep`] — parallel parameter sweeps for the benchmark harness;
//! * [`fault`] — deterministic fault injection and graceful degradation,
//!   which turns the flexibility ordering into a resilience experiment;
//! * [`cancel`] — cooperative cancellation (deadline cycles and
//!   asynchronous flags) composed with the watchdog budgets, so a
//!   long-running service can stop compute mid-slice with partial stats;
//! * [`telemetry`] — cycle-level tracing and metrics, zero-cost when
//!   disabled, threaded through every run loop;
//! * [`profile`] — hierarchical phase spans (decode / slice / warp /
//!   lanes …) layered on the same tracer hooks: zero-cost when disabled,
//!   leaf extents reconcile exactly with `Stats` cycle totals.
//!
//! ```
//! use skilltax_machine::array::{ArrayMachine, ArraySubtype};
//! use skilltax_machine::workload::{run_vector_add_array, vector_add_reference};
//!
//! let a = vec![1, 2, 3, 4];
//! let b = vec![10, 20, 30, 40];
//! let run = run_vector_add_array(ArraySubtype::I, &a, &b).unwrap();
//! assert_eq!(run.outputs, vector_add_reference(&a, &b));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod array;
pub mod cancel;
pub mod dataflow;
pub mod dp;
pub mod energy;
pub mod error;
pub mod exec;
pub mod fault;
pub mod interconnect;
pub mod isa;
pub mod mem;
pub mod morph;
pub mod multi;
pub mod noc;
pub mod profile;
pub mod program;
pub mod reconfig;
pub mod spatial;
pub mod sweep;
pub mod telemetry;
pub mod uniprocessor;
pub mod universal;
pub mod vliw;
pub mod workload;

pub use cancel::CancelToken;
pub use error::MachineError;
pub use exec::Stats;
pub use fault::{FaultPlan, LinkOutage, ResilienceRow, RunOutcome};
pub use isa::{Instr, Reg, Word};
pub use profile::{Mark, NullProfiler, Phase, Profiled, Span, SpanProfile};
pub use program::{Assembler, Program};
pub use sweep::configured_threads;
pub use telemetry::{
    EventClass, EventKind, EventTrace, FaultKind, Histogram, MetricsRegistry, NullTracer,
    Telemetry, TraceEvent, Tracer,
};
