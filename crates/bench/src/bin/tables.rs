//! Regenerates the paper's tables.
//!
//! Usage: `tables [table1|table2|table3|table4|table5|table6|all] [--spec N]`
//!
//! Every table but Table 1 renders from the trajectory `perf` writes:
//! each function of each cell translated, allocated and verified. The
//! default, `tables all` at `--spec 40`, prints the checked-in
//! `tables_output.txt` byte for byte (`tests/baseline.rs` compares the
//! two). Any other argument, or a `--spec` that is not a number, prints
//! the usage line and exits 2 before anything runs.

use tossa_bench::suites::{all_suites, spec_arg};
use tossa_bench::tables;
use tossa_bench::trajectory::measure;

const USAGE: &str = "usage: tables [table1|table2|table3|table4|table5|table6|all] [--spec N]";

/// The command line: the table to print and the `--spec` scale.
fn parse(args: &[String]) -> Result<(&str, usize), String> {
    let mut which = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => {
                it.next(); // checked by `spec_arg`
            }
            t @ ("table1" | "table2" | "table3" | "table4" | "table5" | "table6" | "all")
                if which.is_none() =>
            {
                which = Some(t);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((which.unwrap_or("all"), spec_arg(args)?))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (which, spec_scale) = parse(&args).unwrap_or_else(|e| {
        eprintln!("tables: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if which == "table1" {
        print!("{}", tables::table1());
        return;
    }
    let suites = all_suites(spec_scale);
    let t = measure(&suites);
    let out = match which {
        "table2" => tables::table2(&t),
        "table3" => tables::table3(&t),
        "table4" => tables::table4(&t),
        "table5" => tables::table5(&suites, &t),
        "table6" => tables::table6(&t),
        _ => tables::all(&suites, &t),
    };
    print!("{out}");
}
