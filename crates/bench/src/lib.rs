//! # tossa-bench — workloads and the experiment harness
//!
//! Everything needed to regenerate the paper's evaluation (§5):
//!
//! * [`suites`] — the five benchmark populations (substitutes for
//!   `VALcc1`/`VALcc2`/`example1-8`/`LAI Large`/`SPECint`; see
//!   DESIGN.md §3);
//! * [`metrics`] — move counts and the `5^depth` weighted counts;
//! * [`runner`] — the Table-1 pass sequence, written once
//!   ([`runner::run_stages`]), and its executor (parallel over suites)
//!   with end-to-end interpreter verification;
//! * [`checked`] — the checked pipeline mode: the same sequence observed
//!   with per-pass invariant verification plus differential execution,
//!   graceful degradation to the naive translation, and the
//!   per-function error report;
//! * [`reduce`] — delta-debugging reducer for failing fuzz cases;
//! * [`tables`] — renderers for Tables 1–6, from the trajectory's cells;
//! * [`trajectory`] — the machine-readable trajectory emitter behind
//!   `BENCH_pr10.json` (deterministic cells only; timing lives in the
//!   repository benchmark, `benchmark/`).
//!
//! Regenerate every table with:
//!
//! ```bash
//! cargo run -p tossa-bench --release --bin tables -- all
//! ```
//!
//! Emit the trajectory (and, with `--trace DIR`, the JSONL +
//! Chrome-trace observability artifacts) with:
//!
//! ```bash
//! cargo run -p tossa-bench --release --bin perf -- --out BENCH_new.json --trace traces/
//! ```

#![warn(missing_docs)]

pub mod checked;
pub mod metrics;
pub mod reduce;
pub mod runner;
pub mod suites;
pub mod tables;
pub mod trajectory;
