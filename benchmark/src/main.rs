//! `tossa-benchmark` — run the repository benchmark.
//!
//! ```text
//! tossa-benchmark [run] [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1]
//!                 [--quick] [--serve PATH] [--out DIR]
//! tossa-benchmark repeat --runs N [same flags as run]
//! tossa-benchmark compare PARENT.json... -- CHANGE.json...
//! ```
//!
//! `run` prints every metric with its unit, writes
//! `<out>/<workload>-<seed>.json`, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. Run it from the
//! repository root (`benchmark/run.sh` does, after building).

use std::process::ExitCode;
use std::time::Duration;
use tossa_benchmark::batch::{self, BatchPlan};
use tossa_benchmark::compare::{compare_report, repeat_report};
use tossa_benchmark::report::{BenchSpec, RunResult};
use tossa_benchmark::run::{run, RunPlan};
use tossa_benchmark::workload::{by_name, Workload, WORKLOADS};

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let k = self.0.iter().position(|a| a == name)?;
        self.0.get(k + 1).map(String::as_str)
    }

    fn num(&self, name: &str) -> Result<Option<u64>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{name} wants a number, got {v:?}"))
            })
            .transpose()
    }
}

fn default_serve() -> String {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    format!("{target}/release/serve")
}

fn workloads(args: &Args) -> Result<Vec<Workload>, String> {
    match args.value("--workload").unwrap_or("all") {
        "all" => Ok(WORKLOADS.to_vec()),
        name => by_name(name)
            .map(|w| vec![w])
            .ok_or_else(|| format!("unknown workload {name:?}")),
    }
}

fn plans(args: &Args, spec: &BenchSpec) -> Result<Vec<RunPlan>, String> {
    let quick = args.flag("--quick");
    let seconds = match args.num("--seconds")? {
        Some(s) => s as f64,
        None if quick => 4.0,
        None => spec.run_seconds as f64,
    };
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace wants 0 or 1, got {v:?}")),
    };
    let serve = args
        .value("--serve")
        .map_or_else(default_serve, str::to_string);
    if !std::path::Path::new(&serve).is_file() {
        return Err(format!(
            "no serve binary at {serve} (build the workspace first)"
        ));
    }
    let out_dir = args
        .value("--out")
        .unwrap_or("benchmark/target/results")
        .to_string();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
    let seed = args.num("--seed")?.unwrap_or(1);
    Ok(workloads(args)?
        .into_iter()
        .map(|workload| RunPlan {
            workload,
            seed,
            seconds,
            trace,
            quick,
            serve: serve.clone(),
            out_dir: out_dir.clone(),
        })
        .collect())
}

fn run_one(spec: &BenchSpec, plan: &RunPlan) -> Result<RunResult, String> {
    let res = run(spec, plan);
    let path = format!("{}/{}-{}.json", plan.out_dir, plan.workload.name, plan.seed);
    std::fs::write(&path, res.to_json() + "\n").map_err(|e| format!("{path}: {e}"))?;
    println!("workload {} seed {}:", res.workload, res.seed);
    for m in &res.metrics {
        println!("  {:<30} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for m in &res.extra {
        eprintln!(
            "  ({}) {:<36} {:>14.4} {}",
            res.workload, m.name, m.value, m.unit
        );
    }
    for n in &res.notes {
        eprintln!("  note: {n}");
    }
    Ok(res)
}

fn cmd_run(args: &Args, spec: &BenchSpec) -> Result<(), String> {
    for plan in plans(args, spec)? {
        let res = run_one(spec, &plan)?;
        println!("{}", res.summary_line());
    }
    Ok(())
}

fn cmd_repeat(args: &Args, spec: &BenchSpec) -> Result<(), String> {
    let runs = args.num("--runs")?.ok_or("repeat needs --runs N")?;
    let base = plans(args, spec)?;
    let mut results = Vec::new();
    for r in 0..runs {
        for plan in &base {
            let plan = RunPlan {
                seed: plan.seed.wrapping_add(r),
                ..plan.clone()
            };
            results.push(run_one(spec, &plan)?);
        }
    }
    let table = repeat_report(spec, &results);
    print!("{table}");
    let out = base
        .first()
        .map_or("benchmark/target/results", |p| p.out_dir.as_str());
    std::fs::write(format!("{out}/repeat.txt"), &table).map_err(|e| e.to_string())
}

fn cmd_compare(args: &Args, spec: &BenchSpec) -> Result<bool, String> {
    // Positional file names (skipping the `--serve PATH` run.sh appends).
    let mut files: Vec<&str> = Vec::new();
    let mut rest = args.0.iter().skip(1);
    while let Some(a) = rest.next() {
        if a == "--serve" {
            rest.next();
        } else {
            files.push(a);
        }
    }
    let split = files
        .iter()
        .position(|a| *a == "--")
        .ok_or("compare wants PARENT.json... -- CHANGE.json...")?;
    let load = |paths: &[&str]| -> Result<Vec<RunResult>, String> {
        paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                RunResult::from_json(text.trim()).map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let (table, regressed) =
        compare_report(spec, &load(&files[..split])?, &load(&files[split + 1..])?);
    print!("{table}");
    Ok(regressed)
}

fn cmd_batch(args: &Args) -> Result<(), String> {
    let name = args.value("--workload").ok_or("batch needs --workload")?;
    let plan = BatchPlan {
        workload: by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: args.num("--seed")?.unwrap_or(1),
        quick: args.flag("--quick"),
        budget: Duration::from_millis(args.num("--budget-ms")?.unwrap_or(1000)),
        traced: args.num("--traced-ms")?.map(Duration::from_millis),
        trace_path: args.value("--trace-path").map(str::to_string),
    };
    println!("{}", batch::run(&plan).to_json());
    Ok(())
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let command = args.0.first().map(String::as_str).unwrap_or("run");
    let result = match command {
        "batch" => cmd_batch(&args).map(|()| false),
        _ => BenchSpec::load("BENCHMARK.json").and_then(|spec| match command {
            "repeat" => cmd_repeat(&args, &spec).map(|()| false),
            "compare" => cmd_compare(&args, &spec),
            "run" => cmd_run(&args, &spec).map(|()| false),
            _ if command.starts_with("--") => cmd_run(&args, &spec).map(|()| false),
            other => Err(format!("unknown command {other:?}")),
        }),
    };
    match result {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(e) => {
            eprintln!("tossa-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
