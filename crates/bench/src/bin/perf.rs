//! Emits the machine-readable perf trajectory (`BENCH_pr<N>.json`): the
//! full suite × experiment matrix with move counts, weighted counts,
//! per-stage pipeline timings, per-cell trace counters, and end-to-end
//! wall clocks.
//!
//! Usage: `perf --out FILE [--serial] [--compare] [--no-verify]
//! [--no-counters] [--no-alloc] [--no-throughput] [--throughput-ms MS]
//! [--spec N] [--trace [DIR]]`
//!
//! * `--out FILE` — where to write the trajectory (required, so a bare
//!   run never overwrites a checked-in `BENCH_*.json` baseline);
//! * `--serial`   — run on one thread (the JSON records the mode);
//! * `--compare`  — run serial then parallel, print the speedup, and
//!   write the parallel trajectory;
//! * `--no-verify` — skip the interpreter equivalence check (timings
//!   then measure translation alone);
//! * `--no-counters` — skip the traced counter pass (cells then carry
//!   no `"counters"` object);
//! * `--no-alloc` — skip the register-allocation post-pass (cells then
//!   carry no `"alloc"` object and `alloc_ns` stays 0);
//! * `--no-throughput` — skip the sustained functions/sec measurement
//!   (the JSON then carries no top-level `"throughput"` object);
//! * `--throughput-ms MS` — length of the throughput window (default
//!   1000 ms; timing-class, advisory in `bench-diff`);
//! * `--spec N`   — scale of the SPECint-like synthetic population;
//! * `--trace [DIR]` — additionally run the focus suites (kernels +
//!   vocoder) under per-function trace capture and write
//!   `DIR/trace.jsonl` (one `tossa-trace/1` line per function ×
//!   experiment), `DIR/trace_chrome.json` (Chrome `trace_event`, open
//!   in `about:tracing`/Perfetto), and print the counter summary.
//!   `DIR` defaults to the current directory. Timing cells are always
//!   measured untraced.

use tossa_bench::runner::run_suite_each_traced;
use tossa_bench::suites::all_suites;
use tossa_bench::trajectory::{measure, measure_throughput, Trajectory};
use tossa_core::coalesce::CoalesceOptions;
use tossa_core::Experiment;
use tossa_trace::{chrome_trace, jsonl_record, summary_table, TraceData};

const FOCUS_SUITES: [&str; 3] = ["VALcc1", "VALcc2", "LAI Large"];

const USAGE: &str = "usage: perf --out FILE [--serial] [--compare] [--no-verify] \
[--no-counters] [--no-alloc] [--no-throughput] [--throughput-ms MS] [--spec N] [--trace [DIR]]";

fn unix_time() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

fn summarize(t: &Trajectory) {
    eprintln!(
        "{} mode, {} threads: full matrix in {:.3} s",
        t.mode,
        t.threads,
        t.end_to_end_wall_ns as f64 / 1e9
    );
    for (name, nfns, ninsts) in &t.suite_shapes {
        let suite_ns: u64 = t
            .cells
            .iter()
            .filter(|c| &c.suite == name)
            .map(|c| c.wall_ns)
            .sum();
        eprintln!(
            "  {name:<12} {nfns:>4} fns {ninsts:>7} insts  {:>9.3} ms over {} experiments",
            suite_ns as f64 / 1e6,
            t.cells.iter().filter(|c| &c.suite == name).count()
        );
    }
}

/// Runs the focus suites under per-function trace capture and writes
/// the JSONL stream plus the Chrome trace into `dir`.
fn run_traced(dir: &str, spec_scale: usize, verify: bool) {
    let opts = CoalesceOptions::default();
    let suites = all_suites(spec_scale);
    let mut labelled: Vec<(String, TraceData)> = Vec::new();
    let mut jsonl = String::new();
    let mut total = TraceData::default();
    for suite in suites.iter().filter(|s| FOCUS_SUITES.contains(&s.name)) {
        for &exp in Experiment::all() {
            for (k, (_, trace)) in run_suite_each_traced(suite, exp, &opts, verify)
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
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|p| args.get(p + 1))
            .cloned()
    };
    let Some(out) = value("--out") else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let verify = !flag("--no-verify");
    let counters = !flag("--no-counters");
    let alloc = !flag("--no-alloc");
    let spec_scale = value("--spec").and_then(|v| v.parse().ok()).unwrap_or(40);

    let throughput_ms: u64 = value("--throughput-ms")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);

    let suites = all_suites(spec_scale);
    let mut trajectory = if flag("--compare") {
        let serial = measure(&suites, verify, true, false, alloc);
        summarize(&serial);
        let parallel = measure(&suites, verify, false, counters, alloc);
        summarize(&parallel);
        let s = serial.wall_ns_for(&FOCUS_SUITES) as f64;
        let p = parallel.wall_ns_for(&FOCUS_SUITES) as f64;
        eprintln!(
            "speedup (kernels + vocoder suites): {:.2}x  (serial {:.3} ms -> parallel {:.3} ms)",
            s / p,
            s / 1e6,
            p / 1e6
        );
        eprintln!(
            "speedup (end to end, all suites):   {:.2}x",
            serial.end_to_end_wall_ns as f64 / parallel.end_to_end_wall_ns as f64
        );
        parallel
    } else {
        let t = measure(&suites, verify, flag("--serial"), counters, alloc);
        summarize(&t);
        t
    };

    if !flag("--no-throughput") {
        let tp = measure_throughput(
            &suites,
            Experiment::LphiAbiC,
            throughput_ms,
            flag("--serial"),
        );
        eprintln!(
            "throughput: {:.1} functions/s sustained ({} fns in {:.3} s on {} threads, {})",
            tp.functions_per_sec(),
            tp.functions,
            tp.wall_ns as f64 / 1e9,
            tp.threads,
            tp.experiment
        );
        if let (Some(p50), Some(p90), Some(p99)) =
            (tp.latency_p50_ns, tp.latency_p90_ns, tp.latency_p99_ns)
        {
            eprintln!(
                "  compile latency p50/p90/p99: {:.3}/{:.3}/{:.3} ms",
                p50 as f64 / 1e6,
                p90 as f64 / 1e6,
                p99 as f64 / 1e6
            );
        }
        trajectory.throughput = Some(tp);
    }

    let json = trajectory.to_json(unix_time());
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("wrote {out}");

    if flag("--trace") {
        // `--trace` may carry an output directory; any other flag (or
        // nothing) after it means the current directory.
        let dir = value("--trace")
            .filter(|v| !v.starts_with("--"))
            .unwrap_or_else(|| ".".into());
        run_traced(&dir, spec_scale, verify);
    }
}
