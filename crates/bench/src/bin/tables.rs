//! Regenerates the paper's tables.
//!
//! Usage: `tables [table1|table2|table3|table4|table5|table6|all] [--no-verify] [--spec N]`
//! `       [--spill-everywhere] [--write-baseline FILE] [--gate FILE]`
//!
//! The last three apply to `table6` only:
//!
//! * `--spill-everywhere` — run the allocator with the PR 4
//!   spill-everywhere policy instead of the cost-driven default (the
//!   ablation column, and the policy the checked-in gate baseline was
//!   generated with);
//! * `--write-baseline FILE` — write the per-suite spill+move totals as
//!   a `tossa-table6-baseline/1` document instead of the rendered table;
//! * `--gate FILE` — recompute the totals and fail (exit 1) if any
//!   suite × experiment cell exceeds the checked-in baseline. The
//!   baseline records its `--spec` scale and the gate refuses a
//!   mismatched comparison.

use tossa_bench::suites::{all_suites, spec_arg};
use tossa_bench::tables;
use tossa_regalloc::{AllocOptions, SpillPolicy};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = {
        let mut which = None;
        let mut skip = false;
        for a in &args {
            if skip {
                skip = false;
                continue;
            }
            if matches!(a.as_str(), "--spec" | "--write-baseline" | "--gate") {
                skip = true;
                continue;
            }
            if a.starts_with("--") {
                continue;
            }
            which = Some(a.clone());
            break;
        }
        which.unwrap_or_else(|| "all".into())
    };
    let verify = !args.iter().any(|a| a == "--no-verify");
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|p| args.get(p + 1))
            .cloned()
    };
    let spec_scale = spec_arg(&args).unwrap_or_else(|e| {
        eprintln!("tables: {e}");
        std::process::exit(2);
    });
    let alloc_opts = AllocOptions {
        spill_policy: if args.iter().any(|a| a == "--spill-everywhere") {
            SpillPolicy::Everywhere
        } else {
            SpillPolicy::CostDriven
        },
        ..Default::default()
    };
    let write_baseline = value("--write-baseline");
    let gate = value("--gate");

    let suites = all_suites(spec_scale);
    eprintln!(
        "suites: {}",
        suites
            .iter()
            .map(|s| format!(
                "{} ({} fns, {} insts)",
                s.name,
                s.functions.len(),
                s.num_insts()
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    match which.as_str() {
        "table1" => print!("{}", tables::table1()),
        "table2" => print!("{}", tables::table2(&suites, verify)),
        "table3" => print!("{}", tables::table3(&suites, verify)),
        "table4" => print!("{}", tables::table4(&suites, verify)),
        "table5" => print!("{}", tables::table5(&suites, verify)),
        "table6" if write_baseline.is_some() || gate.is_some() => {
            let totals = tables::table6_totals(&suites, verify, &alloc_opts);
            if let Some(path) = write_baseline {
                let policy = match alloc_opts.spill_policy {
                    SpillPolicy::Everywhere => "spill-everywhere (PR4)",
                    SpillPolicy::CostDriven => "cost-driven",
                };
                let doc = tables::table6_baseline_json(spec_scale, policy, &totals);
                std::fs::write(&path, &doc).unwrap_or_else(|e| panic!("writing {path}: {e}"));
                eprintln!("wrote {path}");
            }
            if let Some(path) = gate {
                let baseline = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("reading {path}: {e}"));
                match tables::table6_gate(&baseline, spec_scale, &totals) {
                    Ok(report) => {
                        println!("table6 spill-regression gate vs {path}: clean");
                        print!("{report}");
                    }
                    Err(failures) => {
                        eprintln!("table6 spill-regression gate vs {path}: FAILED");
                        for f in &failures {
                            eprintln!("  {f}");
                        }
                        std::process::exit(1);
                    }
                }
            }
        }
        "table6" => print!("{}", tables::table6(&suites, verify)),
        "all" => {
            println!("{}", tables::table1());
            println!("{}", tables::table2(&suites, verify));
            println!("{}", tables::table3(&suites, verify));
            println!("{}", tables::table4(&suites, verify));
            println!("{}", tables::table5(&suites, verify));
            println!("{}", tables::table6(&suites, verify));
        }
        other => {
            eprintln!("unknown table `{other}`; use table1..table6 or all");
            std::process::exit(2);
        }
    }
}
