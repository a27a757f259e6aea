//! Differential fuzzer for the checked pipeline.
//!
//! Generates a seeded random population, runs every (or one) experiment
//! in checked mode — per-pass structural verification plus differential
//! execution against the source — and prints the per-function error
//! report. Failing cases are shrunk with the delta-debugging reducer
//! before printing.
//!
//! Usage: `fuzz [--functions N] [--seed S] [--experiment NAME] [--chaos CLASS] [--fuel F] [--alloc] [--no-reduce]`
//!
//! * `--functions N` — population size (default 200);
//! * `--seed S`      — base seed (default 1; equal seeds, equal runs);
//! * `--experiment NAME` — one experiment (default: all ten);
//! * `--chaos CLASS` — inject a corruption class (`drop-phi-arg`,
//!   `double-def`, `undefined-use`, `merge-webs`, `reorder-copy`, or the
//!   allocation classes `assign-overlap`, `clobber-pin`, `drop-reload`,
//!   `drop-split-copy`, `assign-in-hole`, which imply `--alloc`) to
//!   validate the safety net: the run then
//!   *expects* degradations and fails if the fallback misbehaves;
//! * `--alloc`       — run the checked register-allocation stage after
//!   the pipeline (allocation verifier + post-allocation differential);
//! * `--fuel F`      — interpreter step budget (default 5,000,000);
//! * `--no-reduce`   — print failing cases unreduced;
//! * `--trace [DIR]` — capture per-function traces (verifier spans,
//!   chaos/fallback events, counters) and write `DIR/fuzz_trace.jsonl`
//!   (`tossa-trace/1` lines) plus `DIR/fuzz_trace_chrome.json` (Chrome
//!   `trace_event`); prints the aggregated counter summary. `DIR`
//!   defaults to the current directory.
//!
//! `--experiment` takes a key (`CAbi`) or a label no other experiment
//! shares (`Sphi+C`), in any case; `C`, the label of both `CNoAbi` and
//! `CAbi`, is refused.
//!
//! Exit status: 0 when expectations hold (clean without `--chaos`,
//! gracefully degraded with it), 1 otherwise. An unknown argument, a
//! value flag without its value, a non-numeric `--functions`, `--seed`
//! or `--fuel`, or an unknown experiment or chaos class prints the usage
//! line and exits 2 before anything runs.

use tossa_bench::checked::{
    fuzz_suite, run_checked, run_suite_checked, run_suite_checked_traced, CheckedOptions,
};
use tossa_bench::reduce::reduce;
use tossa_bench::suites::BenchFunction;
use tossa_core::chaos::{AllocCorruption, Catcher, Corruption};
use tossa_core::coalesce::CoalesceOptions;
use tossa_core::Experiment;

const USAGE: &str = "usage: fuzz [--functions N] [--seed S] [--experiment NAME] [--chaos CLASS] \
[--fuel F] [--alloc] [--no-reduce] [--trace [DIR]]";

/// A fuzzable corruption class: a pipeline-pass fault or an
/// allocation fault (the latter implies the allocation stage).
#[derive(Clone, Copy, Debug)]
enum ChaosClass {
    Pass(Corruption),
    Alloc(AllocCorruption),
}

fn parse_chaos(s: &str) -> Option<ChaosClass> {
    match s {
        "drop-phi-arg" => Some(ChaosClass::Pass(Corruption::DropPhiArg)),
        "double-def" => Some(ChaosClass::Pass(Corruption::DoubleDef)),
        "undefined-use" => Some(ChaosClass::Pass(Corruption::UndefinedUse)),
        "merge-webs" => Some(ChaosClass::Pass(Corruption::MergeInterferingWebs)),
        "reorder-copy" => Some(ChaosClass::Pass(Corruption::ReorderParallelCopy)),
        "assign-overlap" => Some(ChaosClass::Alloc(
            AllocCorruption::AssignOverlappingInterval,
        )),
        "clobber-pin" => Some(ChaosClass::Alloc(AllocCorruption::ClobberPinnedResource)),
        "drop-reload" => Some(ChaosClass::Alloc(AllocCorruption::DropReload)),
        "drop-split-copy" => Some(ChaosClass::Alloc(AllocCorruption::DropSplitCopy)),
        "assign-in-hole" => Some(ChaosClass::Alloc(AllocCorruption::AssignInHole)),
        _ => None,
    }
}

/// A parsed command line.
struct Args {
    functions: usize,
    seed: u64,
    fuel: u64,
    experiments: Vec<Experiment>,
    chaos: Option<ChaosClass>,
    alloc: bool,
    no_reduce: bool,
    /// The `--trace` directory, when tracing.
    trace: Option<String>,
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} wants a number, got {v:?}"))
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        functions: 200,
        seed: 1,
        fuel: 5_000_000,
        experiments: Experiment::all().to_vec(),
        chaos: None,
        alloc: false,
        no_reduce: false,
        trace: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} wants a value"));
        match flag.as_str() {
            "--functions" => a.functions = number(flag, value()?)?,
            "--seed" => a.seed = number(flag, value()?)?,
            "--fuel" => a.fuel = number(flag, value()?)?,
            "--experiment" => a.experiments = vec![Experiment::from_name(value()?)?],
            "--chaos" => {
                let v = value()?;
                let class = parse_chaos(v).ok_or_else(|| format!("unknown chaos class {v:?}"))?;
                a.chaos = Some(class);
            }
            "--alloc" => a.alloc = true,
            "--no-reduce" => a.no_reduce = true,
            "--trace" => {
                let dir = it.next_if(|v| !v.starts_with("--"));
                a.trace = Some(dir.map_or_else(|| ".".to_string(), String::clone));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = parse(&args).unwrap_or_else(|e| {
        eprintln!("fuzz: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let (chaos, alloc_chaos) = match a.chaos {
        None => (None, None),
        Some(ChaosClass::Pass(c)) => (Some(c), None),
        Some(ChaosClass::Alloc(c)) => (None, Some(c)),
    };

    let suite = fuzz_suite(a.functions, a.seed);
    let opts = CoalesceOptions::default();
    let copts = CheckedOptions {
        fuel: a.fuel,
        chaos,
        chaos_seed: a.seed,
        alloc: a.alloc || alloc_chaos.is_some(),
        alloc_chaos,
    };

    let tracing = a.trace.is_some();
    let mut jsonl = String::new();
    let mut labelled: Vec<(String, tossa_trace::TraceData)> = Vec::new();
    let mut trace_total = tossa_trace::TraceData::default();

    let mut ok = true;
    for &exp in &a.experiments {
        let report = if tracing {
            let (report, traces) = run_suite_checked_traced(&suite, exp, &opts, &copts);
            for (bf, trace) in suite.functions.iter().zip(traces) {
                let func = &bf.func.name;
                jsonl.push_str(&tossa_trace::jsonl_record(func, &exp.to_string(), &trace));
                jsonl.push('\n');
                trace_total.merge(&trace);
                labelled.push((format!("{func}@{exp}"), trace));
            }
            report
        } else {
            run_suite_checked(&suite, exp, &opts, &copts)
        };
        print!("{report}");
        match a.chaos {
            None => {
                // A degradation without injected faults is a real bug:
                // shrink and print each failing case.
                if !report.is_clean() {
                    ok = false;
                    for r in &report.failures {
                        let bf = suite
                            .functions
                            .iter()
                            .find(|bf| bf.func.name == r.function)
                            .expect("report names a suite function");
                        if a.no_reduce {
                            println!("--- failing case {} ---\n{}", r.function, bf.func);
                            continue;
                        }
                        let failing = |f: &tossa_ir::Function| {
                            let cand = BenchFunction {
                                func: f.clone(),
                                inputs: bf.inputs.clone(),
                            };
                            run_checked(&cand, exp, &opts, &copts).error.is_some()
                        };
                        let (small, stats) = reduce(&bf.func, &failing);
                        println!(
                            "--- failing case {} reduced {} -> {} insts ---\n{small}",
                            r.function, stats.initial_size, stats.final_size
                        );
                    }
                }
            }
            Some(c) => {
                // With injected faults the expectation inverts: every
                // verifier-caught class that actually landed must degrade
                // its function, and every fallback must be semantically
                // correct. (The differential class may be neutral on the
                // sampled inputs, so a clean injection is not a miss; the
                // allocation classes are all verifier-caught.)
                let verifier_caught = match c {
                    ChaosClass::Pass(p) => p.caught_by() != Catcher::Differential,
                    ChaosClass::Alloc(_) => true,
                };
                if report.injected == 0 {
                    eprintln!("{exp}: {c:?} found no injection site in this population");
                } else if verifier_caught && report.failures.len() < report.injected {
                    eprintln!(
                        "{exp}: {c:?} injected into {} functions but only {} caught",
                        report.injected,
                        report.failures.len()
                    );
                    ok = false;
                }
                for r in &report.failures {
                    if let Some(e) = &r.fallback_error {
                        eprintln!("{exp}: {c:?} broke the fallback on {}: {e}", r.function);
                        ok = false;
                    }
                }
            }
        }
    }
    if let Some(trace_dir) = &a.trace {
        let jsonl_path = format!("{trace_dir}/fuzz_trace.jsonl");
        std::fs::write(&jsonl_path, &jsonl).unwrap_or_else(|e| panic!("writing {jsonl_path}: {e}"));
        let chrome_path = format!("{trace_dir}/fuzz_trace_chrome.json");
        let chrome = tossa_trace::chrome_trace(&labelled);
        tossa_trace::validate_json(&chrome).expect("chrome trace is well-formed JSON");
        std::fs::write(&chrome_path, &chrome)
            .unwrap_or_else(|e| panic!("writing {chrome_path}: {e}"));
        eprintln!("trace summary ({} experiments):", a.experiments.len());
        eprint!("{}", tossa_trace::summary_table(&trace_total));
        eprintln!("wrote {jsonl_path} and {chrome_path}");
    }
    std::process::exit(if ok { 0 } else { 1 });
}
