//! skilltax-service: a multi-tenant simulation job service over the
//! taxonomy, estimate and machine crates.
//!
//! The service accepts classify / estimate / simulate / sweep jobs on a
//! bounded worker pool with four robustness layers (DESIGN.md §11):
//!
//! * **Admission control** ([`admission`], [`quota`]) — a bounded job
//!   queue with typed [`proto::Rejection`]s and retry-after hints,
//!   per-tenant token buckets, and deficit-round-robin dispatch so no
//!   tenant starves another.
//! * **Deadlines and cancellation** — every run loop in the machine
//!   crate polls a [`skilltax_machine::CancelToken`]; deadline stops are
//!   deterministic and return partial statistics.
//! * **Bounded memory** ([`pool`]) — machine instances are reset and
//!   reused, making the steady-state request path allocation-free.
//! * **Retry and degradation** ([`engine`]) — transient fault storms are
//!   retried under the machine crate's bounded backoff, with
//!   `run_resilient` degradation as the fallback tier.
//!
//! The [`http`] module is a hand-rolled HTTP/1.1 front end over
//! `std::net` (connection timeouts, header/body caps, slow-loris safe),
//! [`perf`] defines the pluggable read-only `GET /perf/*` query surface
//! the bench crate's history store mounts behind it, and [`chaos`] is
//! the deterministic soak harness that proves the invariants hold under
//! a hostile tenant mix.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod chaos;
pub mod engine;
pub mod http;
pub mod perf;
pub mod pool;
pub mod proto;
pub mod quota;
pub mod service;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use engine::{Engine, EngineConfig, RunCapture};
pub use http::{prometheus_text, serve, serve_with_perf, HttpConfig, HttpServer};
pub use perf::{PerfError, PerfSource};
pub use pool::UniPool;
pub use proto::{JobKind, JobOutcome, JobRequest, Rejection, RequestLimits};
pub use quota::{QuotaConfig, QuotaLedger};
pub use service::{JobTicket, JobTrace, Service, ServiceConfig, ServiceMetrics, TraceSpan};
