//! Regenerates the paper's tables.
//!
//! Usage: `tables [table1|table2|table3|table4|table5|table6|all] [--no-verify] [--spec N]`
//!
//! The default, `tables all` at `--spec 40` with verification on,
//! prints the checked-in `tables_output.txt` byte for byte
//! (`tests/baseline.rs` compares the two). Any other argument, or a
//! `--spec` that is not a number, prints the usage line and exits 2
//! before anything runs.

use tossa_bench::suites::{all_suites, spec_arg};
use tossa_bench::tables;

const USAGE: &str =
    "usage: tables [table1|table2|table3|table4|table5|table6|all] [--no-verify] [--spec N]";

/// The command line: the table to print, whether to verify, and the
/// `--spec` scale.
fn parse(args: &[String]) -> Result<(&str, bool, usize), String> {
    let mut which = None;
    let mut verify = true;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-verify" => verify = false,
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
    Ok((which.unwrap_or("all"), verify, spec_arg(args)?))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (which, verify, spec_scale) = parse(&args).unwrap_or_else(|e| {
        eprintln!("tables: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let suites = all_suites(spec_scale);
    let out = match which {
        "table1" => tables::table1(),
        "table2" => tables::table2(&suites, verify),
        "table3" => tables::table3(&suites, verify),
        "table4" => tables::table4(&suites, verify),
        "table5" => tables::table5(&suites, verify),
        "table6" => tables::table6(&suites, verify),
        _ => tables::all(&suites, verify),
    };
    print!("{out}");
}
