//! # tossa-server — a fault-isolated compile service
//!
//! A long-running service over the checked out-of-SSA pipeline: clients
//! stream LAI functions in (newline-delimited JSON frames over stdin or
//! a TCP socket), the service schedules them function-granularly onto a
//! worker pool, and one [`report::JobReport`] streams back per job with
//! the allocated code and its explain/trace artifact.
//!
//! The point of the crate is the **robustness envelope** around the
//! pipeline, not the pipeline itself (that lives in `tossa-core` /
//! `tossa-bench`):
//!
//! * **Panic containment** — every job attempt runs inside
//!   `catch_unwind`; a pass bug takes down one attempt, never a worker,
//!   never the process ([`service`]).
//! * **Resource budgets** — interpreter fuel bounds CPU, each
//!   attempt's own wall clock decides whether it overran its deadline,
//!   and a metering global allocator charges per-attempt allocation
//!   events ([`budget`]).
//! * **Degradation ladder** — checked pipeline → verified naive
//!   out-of-SSA fallback → structured reject, one rung at a time, every
//!   transition recorded with its cause ([`ladder`]).
//! * **Retry and quarantine** — transient failures (contained panics,
//!   blown deadlines, busted allocation budgets) retry with exponential
//!   backoff; jobs that keep failing are quarantined as poison.
//! * **Backpressure** — a bounded admission queue sheds load with
//!   structured reports instead of growing without bound ([`queue`]).
//! * **Service-level chaos** — the soak gate drives the whole loop
//!   under deterministic fault injection: the pipeline corruption
//!   classes plus worker panics, deadline blowouts, and malformed
//!   frames ([`chaos`]).
//! * **Live telemetry** — one store of everything the service counts
//!   (job-outcome counters, queue gauges, latency/fuel/allocation
//!   histograms), answerable over the wire as a `stats` control frame
//!   or a Prometheus exposition ([`metrics`]), plus a flight recorder
//!   ring of recent job lifecycle events dumped on quarantine or
//!   soak-gate failure ([`flight`]).
//!
//! Unlike the library crates (whose unwrap audit is warn-only), this
//! crate sits entirely on the untrusted path and compiles with
//! `clippy::unwrap_used` / `expect_used` / `panic` at **deny**.

#![warn(missing_docs)]

pub mod budget;
pub mod chaos;
pub mod flight;
pub mod ladder;
pub mod metrics;
pub mod proto;
pub mod queue;
pub mod report;
pub mod service;

pub use budget::{AllocMeter, Budget, ServiceAlloc};
pub use chaos::{site_seed, ChaosConfig, Fault, ServiceFault};
pub use flight::{FlightEvent, FlightRecorder, FLIGHT_STAGES};
pub use ladder::{steps_are_contiguous, Ladder, LadderStep, Rung};
pub use metrics::{JobCounter, JobCounterSet, ServiceMetrics};
pub use proto::{job_from_json, parse_frame, parse_line, Control, Frame, FrameError, JobRequest};
pub use queue::{BoundedQueue, PushOutcome};
pub use report::{JobOutcome, JobReport, SoakSummary};
pub use service::{run_batch, CompileService, Job, ServiceConfig};

/// Locks `m`, taking the guard from a poisoned lock too: a panic the
/// service contains in one thread must not wedge the others.
pub(crate) fn lock_ignoring_poison<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}
