//! The master correctness property: every experiment pipeline of Table 1
//! preserves the observable behaviour of every benchmark function on
//! every sample input, and produces structurally valid non-SSA code.
//! Checked mode runs the same pass sequence, so it prints the same code.

use tossa::bench::checked::{run_checked, CheckedOptions};
use tossa::bench::runner::{apply_alloc, run_experiment, verify};
use tossa::bench::suites::all_suites;
use tossa::core::coalesce::CoalesceOptions;
use tossa::core::interfere::InterferenceMode;
use tossa::core::Experiment;

fn check_all(opts: &CoalesceOptions) {
    for suite in all_suites(12) {
        for bf in &suite.functions {
            for &exp in Experiment::all() {
                let r = run_experiment(&bf.func, exp, opts);
                r.func
                    .validate()
                    .unwrap_or_else(|e| panic!("{exp} on {}: invalid: {e}", bf.func.name));
                assert_eq!(
                    r.func
                        .all_insts()
                        .filter(|&(_, i)| r.func.inst(i).is_phi())
                        .count(),
                    0,
                    "{exp} left φs in {}",
                    bf.func.name
                );
                verify(&bf.func, &r.func, &bf.inputs)
                    .unwrap_or_else(|e| panic!("{exp} broke {e}\n{}", r.func));
            }
        }
    }
}

#[test]
fn all_experiments_preserve_semantics_base() {
    check_all(&CoalesceOptions::default());
}

#[test]
fn all_experiments_preserve_semantics_depth_variant() {
    check_all(&CoalesceOptions {
        depth_priority: true,
        ..Default::default()
    });
}

#[test]
fn all_experiments_preserve_semantics_optimistic() {
    check_all(&CoalesceOptions {
        mode: InterferenceMode::Optimistic,
        ..Default::default()
    });
}

#[test]
fn all_experiments_preserve_semantics_pessimistic() {
    check_all(&CoalesceOptions {
        mode: InterferenceMode::Pessimistic,
        ..Default::default()
    });
}

/// Checked mode observes the runner's own pass sequence, so a clean
/// checked run ends in the function the unchecked runner prints, for
/// every experiment; with the allocation stage, `Lφ,ABI+C` ends in what
/// `run_experiment` + `apply_alloc` prints. A second, drifted copy of the
/// sequence fails this.
#[test]
fn checked_mode_prints_what_the_runner_prints() {
    let opts = CoalesceOptions::default();
    let with_alloc = CheckedOptions {
        alloc: true,
        ..Default::default()
    };
    for suite in all_suites(12) {
        for bf in &suite.functions {
            for &exp in Experiment::all() {
                let checked = run_checked(bf, exp, &opts, &CheckedOptions::default());
                assert!(
                    checked.error.is_none(),
                    "{exp} on {}: {:?}",
                    bf.func.name,
                    checked.error
                );
                let unchecked = run_experiment(&bf.func, exp, &opts);
                assert_eq!(
                    checked.func.to_string(),
                    unchecked.func.to_string(),
                    "{exp} on {}",
                    bf.func.name
                );
            }
            let exp = Experiment::LphiAbiC;
            let checked = run_checked(bf, exp, &opts, &with_alloc);
            assert!(
                checked.error.is_none(),
                "{exp} on {}: {:?}",
                bf.func.name,
                checked.error
            );
            let mut unchecked = run_experiment(&bf.func, exp, &opts);
            apply_alloc(&mut unchecked);
            assert_eq!(
                checked.func.to_string(),
                unchecked.func.to_string(),
                "allocated {exp} on {}",
                bf.func.name
            );
        }
    }
}
