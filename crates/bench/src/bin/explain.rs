//! Decision-provenance reports: *why* each pin, coalesce verdict, copy,
//! and spill happened on a given suite × experiment run.
//!
//! Usage:
//!   `explain [--suite NAME] [--experiment NAME] [--function NAME]`
//!   `        [--naive] [--alloc] [--spill-everywhere] [--hull]`
//!   `        [--spec N] [--json FILE] [--quiet]`
//!   `explain --diff A.json B.json`
//!
//! * `--suite NAME`      — suite to run (default `VALcc1`);
//! * `--experiment NAME` — experiment, by key (`LphiAbiC`) or by a paper
//!   label no other experiment shares (`Lphi,ABI+C`), in any case;
//!   default `LphiAbiC`;
//! * `--function NAME`   — restrict the report to one function;
//! * `--naive`           — pessimistic interference oracle (Algorithm 4
//!   `Variable_kills_pessimistic`): over-reports interference, so
//!   coalescing decisions flip against the default exact oracle — the
//!   knob `--diff` is meant to compare;
//! * `--alloc`           — run the register allocator too, so spill
//!   rationales appear;
//! * `--spill-everywhere` — allocate under the PR4 spill-everywhere
//!   policy instead of the cost-driven default; `--diff` two `--alloc`
//!   dumps (one with this flag, one without) to list exactly the webs
//!   whose spill decision flipped;
//! * `--hull`            — allocate over hull intervals (the pre-PR9
//!   model: no lifetime holes) instead of the per-range default;
//!   `--diff` against a default dump to list exactly the spill
//!   decisions that hole-precise liveness dissolves;
//! * `--json FILE`       — also write the machine-readable
//!   `tossa-explain/1` dump;
//! * `--quiet`           — skip the human-readable report (JSON only);
//! * `--diff A B`        — compare two `tossa-explain/1` dumps and list
//!   every flipped decision; exits 0 on identical decisions, 1 on any
//!   difference.
//!
//! Any other argument, a value flag without its value, a `--spec` that
//! is not a number, an unknown or shared experiment name (`C`), or
//! `--spill-everywhere` / `--hull` without `--alloc` (they would change
//! nothing) prints the usage line and exits 2 before anything runs.
//!
//! The human report groups each function's records by kind and ends
//! with a pruning summary attributing every killed affinity edge to an
//! interference class with its concrete witness pair.

use tossa_bench::runner::{apply_alloc_with, run_experiment};
use tossa_bench::suites::{all_suites, spec_arg};
use tossa_core::coalesce::CoalesceOptions;
use tossa_core::interfere::InterferenceMode;
use tossa_core::Experiment;
use tossa_regalloc::{AllocOptions, IntervalPrecision, SpillPolicy};
use tossa_trace::json::{parse_json, Json};
use tossa_trace::provenance::{records_json, Kind, Record, Verdict};
use tossa_trace::{escape_json, validate_json};

const USAGE: &str =
    "usage: explain [--suite NAME] [--experiment NAME] [--function NAME] [--naive] \
[--alloc [--spill-everywhere] [--hull]] [--spec N] [--json FILE] [--quiet]
       explain --diff A.json B.json";

/// Checks a report run's command line — every argument known, every
/// value flag followed by its value, the allocator knobs only with
/// `--alloc` — and returns the `--spec` scale.
fn check_args(args: &[String]) -> Result<usize, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--suite" | "--experiment" | "--function" | "--spec" | "--json" => {
                it.next().ok_or_else(|| format!("{a} wants a value"))?;
            }
            "--naive" | "--alloc" | "--spill-everywhere" | "--hull" | "--quiet" => {}
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let has = |name: &str| args.iter().any(|a| a == name);
    for knob in ["--spill-everywhere", "--hull"] {
        if has(knob) && !has("--alloc") {
            return Err(format!("{knob} needs --alloc"));
        }
    }
    spec_arg(args)
}

/// One function's run: its records plus the copy totals for the
/// cross-check line.
struct FunctionDump {
    function: String,
    records: Vec<Record>,
    total_copies: usize,
}

fn run_dump(
    suite_name: &str,
    exp: Experiment,
    opts: &CoalesceOptions,
    alloc: Option<&AllocOptions>,
    only: Option<&str>,
    spec_scale: usize,
) -> Vec<FunctionDump> {
    let suites = all_suites(spec_scale);
    let Some(suite) = suites.iter().find(|s| s.name == suite_name) else {
        eprintln!(
            "unknown suite {suite_name:?}; known: {}",
            suites.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
        );
        std::process::exit(2);
    };
    suite
        .functions
        .iter()
        .filter(|bf| only.is_none_or(|n| bf.func.name == n))
        .map(|bf| {
            let (r, trace) = tossa_trace::capture(|| {
                let mut r = run_experiment(&bf.func, exp, opts);
                if let Some(aopts) = alloc {
                    apply_alloc_with(&mut r, aopts);
                }
                r
            });
            FunctionDump {
                function: bf.func.name.clone(),
                records: trace.records,
                total_copies: r.recon.total_copies(),
            }
        })
        .collect()
}

fn print_report(d: &FunctionDump) {
    println!("== {} ==", d.function);
    let pins: Vec<_> = d
        .records
        .iter()
        .filter_map(|r| match &r.kind {
            Kind::Pin {
                var,
                resource,
                cause,
            } => Some((var, resource, cause)),
            _ => None,
        })
        .collect();
    println!("pins ({}):", pins.len());
    for (var, resource, cause) in pins {
        println!("  {var} -> {resource}  [{cause}]");
    }
    let edges: Vec<_> = d
        .records
        .iter()
        .filter_map(|r| match &r.kind {
            Kind::Edge {
                block,
                a,
                b,
                weight,
                verdict,
            } => Some((block, a, b, weight, verdict)),
            _ => None,
        })
        .collect();
    let mut by_class: Vec<(&str, usize)> = Vec::new();
    let mut coalesced = 0usize;
    let mut pruned = 0usize;
    println!("affinity edges ({}):", edges.len());
    for (block, a, b, weight, verdict) in &edges {
        match verdict {
            Verdict::Coalesced { into } => {
                coalesced += 1;
                println!("  [{block}] {a} -- {b}  w={weight}  coalesced -> {into}");
            }
            Verdict::PrunedInitial { class, witness }
            | Verdict::PrunedBipartite { class, witness } => {
                pruned += 1;
                let stage = if matches!(verdict, Verdict::PrunedInitial { .. }) {
                    "initial"
                } else {
                    "bipartite"
                };
                match by_class.iter_mut().find(|(n, _)| *n == class.name()) {
                    Some((_, k)) => *k += 1,
                    None => by_class.push((class.name(), 1)),
                }
                println!(
                    "  [{block}] {a} -- {b}  w={weight}  pruned({stage}) {} witness({}, {})",
                    class.name(),
                    witness.0,
                    witness.1
                );
            }
        }
    }
    let copies: Vec<_> = d
        .records
        .iter()
        .filter_map(|r| match &r.kind {
            Kind::Copy { dst, src, cause } => Some((dst, src, cause)),
            _ => None,
        })
        .collect();
    println!("copies ({}):", copies.len());
    for (dst, src, cause) in copies {
        println!("  {dst} = {src}  [{cause}]");
    }
    let spills: Vec<_> = d
        .records
        .iter()
        .filter_map(|r| match &r.kind {
            Kind::Spill {
                var,
                start,
                end,
                cause,
            } => Some((var, start, end, cause)),
            _ => None,
        })
        .collect();
    println!("spills ({}):", spills.len());
    for (var, start, end, cause) in spills {
        println!("  {var} [{start}, {end}]  [{cause}]");
    }
    by_class.sort();
    let classes = by_class
        .iter()
        .map(|(n, k)| format!("{n}={k}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!(
        "summary: {coalesced} coalesced, {pruned} pruned ({})  reconstruct copies={}",
        if classes.is_empty() {
            "-".to_string()
        } else {
            classes
        },
        d.total_copies
    );
    println!();
}

fn dump_json(suite: &str, experiment: Experiment, mode: &str, dumps: &[FunctionDump]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"tossa-explain/1\",\n");
    out.push_str(&format!("  \"suite\": \"{}\",\n", escape_json(suite)));
    out.push_str(&format!("  \"experiment\": \"{experiment:?}\",\n"));
    out.push_str(&format!("  \"mode\": \"{}\",\n", escape_json(mode)));
    out.push_str("  \"functions\": [\n");
    for (i, d) in dumps.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"function\": \"{}\", \"total_copies\": {}, \"records\": {} }}{}\n",
            escape_json(&d.function),
            d.total_copies,
            records_json(&d.records),
            if i + 1 < dumps.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---- diff mode ----------------------------------------------------------

/// A decision, keyed independently of record IDs so two dumps align by
/// *what* was decided, and compared by the verdict itself.
fn decision_key_value(r: &Json) -> Option<(String, String)> {
    let kind = r.get("kind")?.as_str()?;
    match kind {
        "pin" => Some((
            format!("pin {}", r.get("var")?.as_str()?),
            format!(
                "-> {} [{}]",
                r.get("resource")?.as_str()?,
                r.get("cause")?.as_str()?
            ),
        )),
        "edge" => {
            let verdict = r.get("verdict")?.as_str()?;
            let mut value = verdict.to_string();
            if let Some(into) = r.get("into").and_then(Json::as_str) {
                value.push_str(&format!(" -> {into}"));
            }
            if let Some(class) = r.get("class").and_then(Json::as_str) {
                value.push_str(&format!(" ({class})"));
            }
            Some((
                format!(
                    "edge [{}] {} -- {}",
                    r.get("block")?.as_str()?,
                    r.get("a")?.as_str()?,
                    r.get("b")?.as_str()?
                ),
                value,
            ))
        }
        "copy" => Some((
            format!(
                "copy {} = {}",
                r.get("dst")?.as_str()?,
                r.get("src")?.as_str()?
            ),
            format!("[{}]", r.get("cause")?.as_str()?),
        )),
        "spill" => Some((
            format!("spill {}", r.get("var")?.as_str()?),
            format!(
                "[{}, {}] [{}]",
                r.get("start")?.as_u64()?,
                r.get("end")?.as_u64()?,
                r.get("cause")?.as_str()?
            ),
        )),
        _ => None,
    }
}

/// function -> decision key -> list of values (a decision can repeat,
/// e.g. two identical copies; list order is the deterministic record
/// order).
type Decisions = Vec<(String, Vec<(String, Vec<String>)>)>;

fn load_decisions(path: &str) -> Decisions {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("reading {path}: {e}");
        std::process::exit(2);
    });
    let doc = parse_json(&text).unwrap_or_else(|e| {
        eprintln!("parsing {path}: {e}");
        std::process::exit(2);
    });
    if doc.get("schema").and_then(Json::as_str) != Some("tossa-explain/1") {
        eprintln!("{path}: not a tossa-explain/1 dump");
        std::process::exit(2);
    }
    let mut out: Decisions = Vec::new();
    for f in doc
        .get("functions")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let name = f
            .get("function")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let mut decisions: Vec<(String, Vec<String>)> = Vec::new();
        for r in f.get("records").and_then(Json::as_arr).unwrap_or_default() {
            let Some((key, value)) = decision_key_value(r) else {
                continue;
            };
            match decisions.iter_mut().find(|(k, _)| *k == key) {
                Some((_, vs)) => vs.push(value),
                None => decisions.push((key, vec![value])),
            }
        }
        out.push((name, decisions));
    }
    out
}

fn diff(a_path: &str, b_path: &str) -> i32 {
    let a = load_decisions(a_path);
    let b = load_decisions(b_path);
    let mut flips = 0usize;
    let lookup = |set: &Decisions, f: &str, k: &str| -> Option<Vec<String>> {
        set.iter()
            .find(|(name, _)| name == f)
            .and_then(|(_, ds)| ds.iter().find(|(key, _)| key == k))
            .map(|(_, vs)| vs.clone())
    };
    for (fname, decisions) in &a {
        for (key, va) in decisions {
            match lookup(&b, fname, key) {
                Some(vb) if vb == *va => {}
                Some(vb) => {
                    flips += 1;
                    println!("{fname}: {key}");
                    println!("  - {}", va.join("; "));
                    println!("  + {}", vb.join("; "));
                }
                None => {
                    flips += 1;
                    println!("{fname}: {key}");
                    println!("  - {}", va.join("; "));
                    println!("  + (absent)");
                }
            }
        }
    }
    for (fname, decisions) in &b {
        for (key, vb) in decisions {
            if lookup(&a, fname, key).is_none() {
                flips += 1;
                println!("{fname}: {key}");
                println!("  - (absent)");
                println!("  + {}", vb.join("; "));
            }
        }
    }
    if flips == 0 {
        println!("no differing decisions between {a_path} and {b_path}");
        0
    } else {
        println!("{flips} differing decisions between {a_path} and {b_path}");
        1
    }
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

    let usage_error = |e: String| -> ! {
        eprintln!("explain: {e}\n{USAGE}");
        std::process::exit(2);
    };

    if flag("--diff") {
        match args.as_slice() {
            [d, a, b] if d == "--diff" => std::process::exit(diff(a, b)),
            _ => usage_error("--diff takes exactly two dumps".into()),
        }
    }
    let spec_scale = check_args(&args).unwrap_or_else(|e| usage_error(e));

    let suite = value("--suite").unwrap_or_else(|| "VALcc1".into());
    let exp_name = value("--experiment").unwrap_or_else(|| "LphiAbiC".into());
    let exp = Experiment::from_name(&exp_name).unwrap_or_else(|e| usage_error(e));
    let naive = flag("--naive");
    let opts = CoalesceOptions {
        mode: if naive {
            InterferenceMode::Pessimistic
        } else {
            InterferenceMode::default()
        },
        ..CoalesceOptions::default()
    };
    let mode = if naive { "pessimistic" } else { "exact" };
    let only = value("--function");
    let alloc_opts = flag("--alloc").then(|| AllocOptions {
        spill_policy: if flag("--spill-everywhere") {
            SpillPolicy::Everywhere
        } else {
            SpillPolicy::default()
        },
        precision: if flag("--hull") {
            IntervalPrecision::Hull
        } else {
            IntervalPrecision::default()
        },
    });
    let dumps = run_dump(
        &suite,
        exp,
        &opts,
        alloc_opts.as_ref(),
        only.as_deref(),
        spec_scale,
    );
    if dumps.is_empty() {
        eprintln!("no function matched");
        std::process::exit(2);
    }
    if !flag("--quiet") {
        for d in &dumps {
            print_report(d);
        }
    }
    if let Some(path) = value("--json") {
        let json = dump_json(&suite, exp, mode, &dumps);
        validate_json(&json).expect("explain dump is well-formed JSON");
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
