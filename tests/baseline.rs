//! The checked-in numbers are what the program prints today.
//!
//! `BENCH_pr10.json` is the one baseline trajectory and
//! `tables_output.txt` the paper's tables at the same scale (SPECint
//! scale 40, every function verified). Both are regenerated here, the
//! tables from the same fresh trajectory, and compared byte for byte, so a change that moves a cell fails until it
//! rewrites the file (`perf --out BENCH_pr10.json`, `tables all >
//! tables_output.txt`) and says why in CHANGES.md. Two claims about the
//! allocated code are then checked on the fresh cells.

use std::sync::OnceLock;

use tossa::bench::suites::all_suites;
use tossa::bench::tables;
use tossa::bench::trajectory::{measure, Cell, Trajectory};

/// The SPECint scale of both checked-in files.
const SPEC_SCALE: usize = 40;

fn trajectory() -> &'static Trajectory {
    static T: OnceLock<Trajectory> = OnceLock::new();
    T.get_or_init(|| measure(&all_suites(SPEC_SCALE)))
}

fn cell(suite: &str, experiment: &str) -> &'static Cell {
    trajectory()
        .cells
        .iter()
        .find(|c| c.suite == suite && c.experiment == experiment)
        .unwrap_or_else(|| panic!("no {suite}/{experiment} cell"))
}

/// Panics at the first line where `fresh` and the checked-in `file`
/// differ, naming the command that regenerates the file.
fn assert_checked_in(file: &str, fresh: &str, regenerate: &str) {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let checked_in = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if checked_in == fresh {
        return;
    }
    let old: Vec<&str> = checked_in.lines().collect();
    let new: Vec<&str> = fresh.lines().collect();
    let at = (0..old.len().max(new.len()))
        .find(|&i| old.get(i) != new.get(i))
        .unwrap_or(old.len());
    panic!(
        "{file} differs from a fresh run at line {}:\n  checked in: {:?}\n  fresh:      {:?}\n\
         If the change is deliberate, regenerate it with `{regenerate}` and say why in CHANGES.md.",
        at + 1,
        old.get(at),
        new.get(at)
    );
}

#[test]
fn trajectory_is_the_checked_in_baseline() {
    assert_checked_in(
        "BENCH_pr10.json",
        &trajectory().to_json(),
        "cargo run --release -p tossa-bench --bin perf -- --out BENCH_pr10.json",
    );
}

#[test]
fn tables_are_the_checked_in_output() {
    assert_checked_in(
        "tables_output.txt",
        &tables::all(&all_suites(SPEC_SCALE), trajectory()),
        "cargo run --release -p tossa-bench --bin tables -- all > tables_output.txt",
    );
}

/// With lifetime holes visible no cell spills at this scale, so every
/// Table 6 total is the count of moves that survive allocation.
#[test]
fn no_cell_spills() {
    assert!(
        !trajectory().cells.is_empty(),
        "the trajectory has no cells"
    );
    for c in &trajectory().cells {
        let a = &c.alloc;
        assert_eq!(
            a.spilled_vars + a.reloads + a.stores,
            0,
            "{}/{} spills: {a:?}",
            c.suite,
            c.experiment
        );
        assert_eq!(a.spill_move_total(), a.moves_after);
    }
}

/// On the paper's focus suites the pinning pipeline's post-allocation
/// spill+move total is no worse than either naive Table-4 baseline's
/// (`Sφ`: Briggs-style φ replacement; `LABI`: naive ABI handling; no
/// coalescing) and within one of the Sreedhar pipeline's.
#[test]
fn pipeline_allocates_no_worse_than_naive_on_focus_suites() {
    for suite in ["VALcc1", "VALcc2", "LAI Large"] {
        let total = |exp| cell(suite, exp).alloc.spill_move_total();
        let pipeline = total("LphiAbiC");
        for naive in ["Sphi", "Labi"] {
            assert!(
                pipeline <= total(naive),
                "{suite}: pipeline total {pipeline} worse than naive {naive}'s {}",
                total(naive)
            );
        }
        assert!(
            pipeline <= total("SphiLabiC") + 1,
            "{suite}: pipeline total {pipeline} vs Sreedhar's {}",
            total("SphiLabiC")
        );
    }
}
