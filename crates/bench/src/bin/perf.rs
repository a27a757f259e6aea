//! Emits the machine-readable trajectory: the full suite × experiment
//! matrix with move counts, weighted counts, allocation statistics and
//! per-cell trace counters. The document is deterministic — two runs at
//! one `--spec` write the same bytes — and every function of every cell
//! is allocated and verified. At the default scale it is the checked-in
//! `BENCH_pr10.json`, byte for byte; a change that moves a cell on
//! purpose rewrites that file with `perf --out BENCH_pr10.json`.
//!
//! Usage: `perf --out FILE [--spec N] [--trace [DIR]]`
//!
//! * `--out FILE` — where to write the trajectory (required, so a bare
//!   run never overwrites the checked-in baseline);
//! * `--spec N`   — scale of the SPECint-like synthetic population
//!   (default 40);
//! * `--trace [DIR]` — additionally run the focus suites (kernels +
//!   vocoder) under per-function trace capture and write
//!   `DIR/trace.jsonl` (one `tossa-trace/1` line per function ×
//!   experiment), `DIR/trace_chrome.json` (Chrome `trace_event`, open
//!   in `about:tracing`/Perfetto), and print the counter summary.
//!   `DIR` defaults to the current directory.
//!
//! Any other argument, or a `--spec` that is not a number, prints the
//! usage line and exits 2 before anything runs.

use tossa_bench::runner::run_suite_each_traced;
use tossa_bench::suites::{all_suites, spec_arg, Suite};
use tossa_bench::trajectory::measure;
use tossa_core::coalesce::CoalesceOptions;
use tossa_core::Experiment;
use tossa_trace::{chrome_trace, jsonl_record, summary_table, TraceData};

const FOCUS_SUITES: [&str; 3] = ["VALcc1", "VALcc2", "LAI Large"];

const USAGE: &str = "usage: perf --out FILE [--spec N] [--trace [DIR]]";

/// The command line: the `--out` path, the `--spec` scale, and the
/// `--trace` directory when tracing.
fn parse(args: &[String]) -> Result<(String, usize, Option<String>), String> {
    let mut out = None;
    let mut trace = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().cloned(),
            "--spec" => {
                it.next(); // checked by `spec_arg`
            }
            "--trace" => {
                let dir = it.next_if(|v| !v.starts_with("--"));
                trace = Some(dir.map_or_else(|| ".".to_string(), String::clone));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let out = out.ok_or("--out FILE is required")?;
    Ok((out, spec_arg(args)?, trace))
}

/// Runs the focus suites under per-function trace capture and writes
/// the JSONL stream plus the Chrome trace into `dir`.
fn run_traced(dir: &str, suites: &[Suite]) {
    let opts = CoalesceOptions::default();
    let mut labelled: Vec<(String, TraceData)> = Vec::new();
    let mut jsonl = String::new();
    let mut total = TraceData::default();
    for suite in suites.iter().filter(|s| FOCUS_SUITES.contains(&s.name)) {
        for &exp in Experiment::all() {
            for (k, (_, trace)) in run_suite_each_traced(suite, exp, &opts, true)
                .into_iter()
                .enumerate()
            {
                let func = &suite.functions[k].func.name;
                jsonl.push_str(&jsonl_record(func, &exp.to_string(), &trace));
                jsonl.push('\n');
                total.merge(&trace);
                labelled.push((format!("{func}@{exp}"), trace));
            }
        }
    }
    let jsonl_path = format!("{dir}/trace.jsonl");
    std::fs::write(&jsonl_path, &jsonl).unwrap_or_else(|e| panic!("writing {jsonl_path}: {e}"));
    let chrome_path = format!("{dir}/trace_chrome.json");
    let chrome = chrome_trace(&labelled);
    tossa_trace::validate_json(&chrome).expect("chrome trace is well-formed JSON");
    std::fs::write(&chrome_path, &chrome).unwrap_or_else(|e| panic!("writing {chrome_path}: {e}"));
    eprintln!("trace summary (focus suites, all experiments):");
    eprint!("{}", summary_table(&total));
    eprintln!("wrote {jsonl_path} and {chrome_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (out, spec_scale, trace) = parse(&args).unwrap_or_else(|e| {
        eprintln!("perf: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let suites = all_suites(spec_scale);
    let t = measure(&suites);
    std::fs::write(&out, t.to_json()).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!(
        "wrote {out}: {} suites x {} experiments, every function allocated and verified",
        t.suite_shapes.len(),
        Experiment::all().len()
    );
    if let Some(dir) = trace {
        run_traced(&dir, &suites);
    }
}
