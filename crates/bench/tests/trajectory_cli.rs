//! The trajectory tools end to end: `perf` writes a byte-reproducible
//! document, `bench-diff` exits 0 on identical deterministic cells, 2 on
//! drift in any field (naming the cell), and 3 on bad usage, and `perf`,
//! `tables`, `explain` and `fuzz` refuse arguments they do not
//! understand.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

const PERF: &str = env!("CARGO_BIN_EXE_perf");
const BENCH_DIFF: &str = env!("CARGO_BIN_EXE_bench-diff");
const TABLES: &str = env!("CARGO_BIN_EXE_tables");
const EXPLAIN: &str = env!("CARGO_BIN_EXE_explain");
const FUZZ: &str = env!("CARGO_BIN_EXE_fuzz");

fn baseline() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pr10.json")
}

/// A file of this test process (concurrent `cargo test` runs share the
/// directory).
fn scratch(name: &str) -> PathBuf {
    let file = format!("trajectory_cli-{}-{name}", std::process::id());
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(file)
}

fn run(bin: &str, args: &[&Path]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("running {bin}: {e}"))
}

fn perf(args: &[&str], out: &Path) -> Output {
    Command::new(PERF)
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("running perf")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

/// One default-spec trajectory, shared by the `bench-diff` tests.
fn fresh() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        let out = scratch("fresh.json");
        let o = perf(&[], &out);
        assert!(o.status.success(), "perf failed: {o:?}");
        std::fs::read_to_string(&out).expect("perf wrote its --out file")
    })
}

/// `fresh()` with `edit` applied, written under `name`; returns the path.
fn edited(name: &str, edit: impl FnOnce(&str) -> String) -> PathBuf {
    let path = scratch(name);
    std::fs::write(&path, edit(fresh())).expect("writing the edited copy");
    path
}

/// Adds 1 to the first `"key": N` of the document.
fn bump_first(doc: &str, key: &str) -> String {
    let pat = format!("\"{key}\": ");
    let at = doc.find(&pat).expect("key present") + pat.len();
    let len = doc[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let n: u64 = doc[at..at + len].parse().unwrap();
    format!("{}{}{}", &doc[..at], n + 1, &doc[at + len..])
}

#[test]
fn two_runs_write_byte_identical_files() {
    let (a, b) = (scratch("spec2-a.json"), scratch("spec2-b.json"));
    for path in [&a, &b] {
        let o = perf(&["--spec", "2"], path);
        assert!(o.status.success(), "perf failed: {o:?}");
    }
    let (a, b) = (std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
    assert!(!a.is_empty());
    assert!(a == b, "two perf runs wrote different trajectories");
}

#[test]
fn perf_refuses_unknown_flags_and_a_malformed_spec() {
    for (name, args) in [
        ("no-verify", &["--no-verify"][..]),
        ("spec-x", &["--spec", "x"][..]),
    ] {
        let out = scratch(&format!("refused-{name}.json"));
        let _ = std::fs::remove_file(&out);
        let o = perf(args, &out);
        assert_eq!(o.status.code(), Some(2), "perf {args:?}: {o:?}");
        assert!(
            String::from_utf8_lossy(&o.stderr).contains("usage: perf"),
            "perf {args:?} must print its usage line"
        );
        assert!(!out.exists(), "perf {args:?} wrote {}", out.display());
    }
}

/// `tables`, `explain` and `fuzz` reject each argument list with their
/// usage line and exit 2, having printed nothing on stdout.
#[test]
fn tables_explain_and_fuzz_refuse_unknown_arguments() {
    for (bin, name, args) in [
        (TABLES, "tables", &["table6", "--bogus"][..]),
        (TABLES, "tables", &["table6", "--gate", "x.json"][..]),
        (TABLES, "tables", &["table7"][..]),
        (TABLES, "tables", &["--spec", "x"][..]),
        (TABLES, "tables", &["table2", "--no-verify"][..]),
        (FUZZ, "fuzz", &["--fucntions", "3"][..]),
        (FUZZ, "fuzz", &["--functions", "3", "--seed", "x"][..]),
        (FUZZ, "fuzz", &["--functions", "x"][..]),
        (FUZZ, "fuzz", &["--functions", "3", "--fuel", "x"][..]),
        (FUZZ, "fuzz", &["--functions", "3", "--chaos"][..]),
        (FUZZ, "fuzz", &["--functions", "3", "--chaos", "bogus"][..]),
        (FUZZ, "fuzz", &["--functions", "3", "--experiment", "C"][..]),
        (EXPLAIN, "explain", &["--bogus"][..]),
        (EXPLAIN, "explain", &["--spill-everywhere"][..]),
        (EXPLAIN, "explain", &["--hull", "--quiet"][..]),
        (EXPLAIN, "explain", &["--suite"][..]),
        (EXPLAIN, "explain", &["--spec", "x"][..]),
        (EXPLAIN, "explain", &["--diff", "a.json"][..]),
        (EXPLAIN, "explain", &["--experiment", "C"][..]),
    ] {
        let o = Command::new(bin)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("running {name}: {e}"));
        assert_eq!(o.status.code(), Some(2), "{name} {args:?}: {o:?}");
        assert!(
            String::from_utf8_lossy(&o.stderr).contains(&format!("usage: {name}")),
            "{name} {args:?} must print its usage line"
        );
        assert!(
            o.stdout.is_empty(),
            "{name} {args:?} printed: {}",
            stdout(&o)
        );
    }
}

#[test]
fn fresh_run_is_identical_to_the_baseline() {
    let path = edited("fresh-copy.json", str::to_string);
    let o = run(BENCH_DIFF, &[&baseline(), &path]);
    assert_eq!(o.status.code(), Some(0), "{}", stdout(&o));
    assert!(stdout(&o).contains("deterministic cells: identical"));
}

#[test]
fn a_bumped_move_count_is_drift_naming_the_cell() {
    let path = edited("bumped.json", |d| bump_first(d, "moves"));
    let o = run(BENCH_DIFF, &[&baseline(), &path]);
    assert_eq!(o.status.code(), Some(2), "{}", stdout(&o));
    assert!(
        stdout(&o).contains("VALcc1/LphiC: moves "),
        "{}",
        stdout(&o)
    );
}

#[test]
fn a_missing_cell_is_drift_naming_the_cell() {
    // Cut the first cell: from its `"experiment"` line up to the next one.
    let path = edited("missing.json", |d| {
        let lines: Vec<&str> = d.lines().collect();
        let starts: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].contains("\"experiment\": "))
            .take(2)
            .collect();
        let mut kept = lines[..starts[0]].to_vec();
        kept.extend(&lines[starts[1]..]);
        kept.join("\n")
    });
    let o = run(BENCH_DIFF, &[&baseline(), &path]);
    assert_eq!(o.status.code(), Some(2), "{}", stdout(&o));
    assert!(
        stdout(&o).contains("VALcc1/LphiC: cell missing"),
        "{}",
        stdout(&o)
    );
}

#[test]
fn a_cache_counter_shift_is_drift_naming_the_field() {
    let path = edited("cache.json", |d| bump_first(d, "analysis_cache_hits"));
    let o = run(BENCH_DIFF, &[&baseline(), &path]);
    assert_eq!(o.status.code(), Some(2), "{}", stdout(&o));
    assert!(
        stdout(&o).contains("VALcc1/LphiC: counter.analysis_cache_hits "),
        "{}",
        stdout(&o)
    );
}

#[test]
fn one_argument_is_bad_usage() {
    let o = run(BENCH_DIFF, &[&baseline()]);
    assert_eq!(o.status.code(), Some(3), "{o:?}");
}
