//! # tossa-benchmark — the repository benchmark
//!
//! Measures the out-of-SSA compiler end to end from outside: each
//! workload's seeded population is compiled in-process on one thread
//! (calling the public functions of `tossa_bench`, `tossa_ssa`,
//! `tossa_baselines`, `tossa_core`, `tossa_regalloc` and `tossa_ir`) and
//! sent through the real `serve` binary over TCP, every output is checked
//! against the interpreter, and the metrics named in `BENCHMARK.json` are
//! printed with their units. See `benchmark/README.md`.

#![warn(missing_docs)]

pub mod batch;
pub mod calib;
pub mod compare;
pub mod hist;
pub mod layers;
pub mod loadgen;
pub mod report;
pub mod run;
pub mod service;
pub mod stats;
pub mod trace;
pub mod workload;
