//! `tossa` — command-line driver for the out-of-SSA translator.
//!
//! ```text
//! tossa [OPTIONS] [FILE]           reads LAI text from FILE or stdin
//!
//!   --experiment <NAME>   pipeline to run (default: Lphi,ABI+C): a key
//!                         ("CAbi") or a label no other experiment shares
//!                         ("Sphi+C", "LABI"), in any case
//!   --mode <exact|opt|pess>  interference variant (default: exact)
//!   --depth               use the Algorithm-3 depth variant
//!   --print-ssa           also print the pinned SSA reconstruction receives
//!   --run v1,v2,...       execute the function before/after on inputs
//!   --stats               print copy statistics
//! ```

use std::io::Read as _;
use tossa::bench::runner::{run_observed, Stage};
use tossa::core::coalesce::CoalesceOptions;
use tossa::core::interfere::InterferenceMode;
use tossa::core::Experiment;
use tossa::ir::{interp, machine::Machine, parse::parse_function};

fn fail(msg: &str) -> ! {
    eprintln!("tossa: {msg}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = "Lphi,ABI+C".to_string();
    let mut mode = InterferenceMode::Exact;
    let mut depth = false;
    let mut print_ssa = false;
    let mut stats = false;
    let mut run_inputs: Option<Vec<i64>> = None;
    let mut file: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--experiment" => {
                experiment = it
                    .next()
                    .unwrap_or_else(|| fail("--experiment needs a value"));
            }
            "--mode" => match it.next().as_deref() {
                Some("exact") => mode = InterferenceMode::Exact,
                Some("opt") => mode = InterferenceMode::Optimistic,
                Some("pess") => mode = InterferenceMode::Pessimistic,
                other => fail(&format!("bad --mode {other:?}")),
            },
            "--depth" => depth = true,
            "--print-ssa" => print_ssa = true,
            "--stats" => stats = true,
            "--run" => {
                let vals = it.next().unwrap_or_else(|| fail("--run needs v1,v2,..."));
                let parsed: Result<Vec<i64>, _> = vals
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::parse)
                    .collect();
                run_inputs =
                    Some(parsed.unwrap_or_else(|_| fail("bad --run values (need integers)")));
            }
            "--help" | "-h" => {
                println!(
                    "usage: tossa [--experiment NAME] [--mode exact|opt|pess] [--depth]\n\
                     \x20            [--print-ssa] [--stats] [--run v1,v2,...] [FILE]"
                );
                return;
            }
            other if !other.starts_with('-') => file = Some(other.to_string()),
            other => fail(&format!("unknown option `{other}`")),
        }
    }

    let text = match file {
        Some(path) => std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}"))),
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| fail(&format!("cannot read stdin: {e}")));
            buf
        }
    };

    let machine = Machine::dsp32();
    let src = parse_function(&text, &machine).unwrap_or_else(|e| fail(&format!("parse: {e}")));
    src.validate()
        .unwrap_or_else(|e| fail(&format!("invalid input: {e}")));

    let exp = Experiment::from_name(&experiment).unwrap_or_else(|e| fail(&e));
    let opts = CoalesceOptions {
        mode,
        depth_priority: depth,
        ..Default::default()
    };

    let result = run_observed(&src, exp, &opts, |stage, f| {
        if print_ssa && stage == Stage::Pinned {
            println!("== pinned SSA ==\n{f}");
        }
    });
    println!("== {} ==\n{}", exp.label(), result.func);
    if stats {
        println!(
            "moves: {} (weighted {}); φ copies {}, ABI copies {}, repairs {}, temps {}, \
             coalesced away {}",
            result.moves,
            result.weighted,
            result.recon.phi_copies,
            result.recon.abi_copies,
            result.recon.repair_copies,
            result.recon.temp_copies,
            result.coalesced
        );
    }
    if let Some(inputs) = run_inputs {
        let before = interp::run(&src, &inputs, 10_000_000)
            .unwrap_or_else(|e| fail(&format!("source traps: {e}")));
        let after = interp::run(&result.func, &inputs, 10_000_000)
            .unwrap_or_else(|e| fail(&format!("translated code traps: {e}")));
        println!("source outputs:     {:?}", before.outputs);
        println!("translated outputs: {:?}", after.outputs);
        if before.outputs != after.outputs {
            fail("TRANSLATION CHANGED BEHAVIOUR");
        }
        println!("semantics preserved ✓");
    }
}
