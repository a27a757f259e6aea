//! Differential-execution test layer for the register allocator.
//!
//! For every function of every bench suite, across all ten experiments
//! of the paper's matrix, the fully allocated code (physical DSP32
//! registers plus spill slots) must produce bit-identical outputs to the
//! pre-SSA source on the suite's input vectors. The suite runner's
//! `check` panics on the first divergence or trap, naming the function
//! and inputs.

use tossa::bench::runner::{self, run_experiment, run_suite_each_allocated};
use tossa::bench::suites::synth::{generate_function, SynthConfig};
use tossa::bench::suites::{all_suites, Suite};
use tossa::core::coalesce::CoalesceOptions;
use tossa::core::Experiment;
use tossa::regalloc::{finish, prepare, verify_allocation, AllocOptions};

/// Small synthetic-population scale: keeps the full 10-experiment matrix
/// affordable in CI; the perf trajectory run covers the full scale.
const SPEC_SCALE: usize = 6;

#[test]
fn allocated_code_matches_source_on_every_suite_and_experiment() {
    let opts = CoalesceOptions::default();
    let mut cells = 0usize;
    let mut functions = 0usize;
    for suite in all_suites(SPEC_SCALE) {
        let machine_regs = suite.functions[0].func.machine.regs().count();
        for &exp in Experiment::all() {
            // Panics on any output divergence between the allocated code
            // and the pre-SSA source.
            let results = run_suite_each_allocated(&suite, exp, &opts, true);
            for r in &results {
                let stats = r.alloc.as_ref().expect("allocation post-pass ran");
                assert!(
                    stats.regs_used > 0 && stats.regs_used <= machine_regs,
                    "{} / {exp:?} / {}: implausible register usage {}",
                    suite.name,
                    r.func.name,
                    stats.regs_used
                );
            }
            functions += results.len();
            cells += 1;
        }
    }
    assert_eq!(
        cells,
        all_suites(SPEC_SCALE).len() * Experiment::all().len(),
        "the matrix must cover every suite × experiment cell"
    );
    assert!(functions > 0);
}

/// The second-chance pass is live on real pipeline output: a seeded
/// high-pressure population (48-var pool, depth-2 loops — found by
/// deterministic seed search) makes a scan round evict split sub-webs
/// that the pass then re-assigns to registers left free across their
/// ranges. Execution stays bit-identical to the pre-SSA source.
#[test]
fn second_chance_rescues_fire_on_the_pressure_population() {
    let opts = CoalesceOptions::default();
    let cfg = SynthConfig {
        functions: 1,
        pool: 48,
        max_depth: 2,
        body_len: 16,
    };
    let suite = Suite {
        name: "pressure",
        functions: [187, 2377, 2516, 3114]
            .into_iter()
            .map(|s| generate_function(s, &cfg))
            .collect(),
    };
    let rescues: usize = run_suite_each_allocated(&suite, Experiment::LphiAbiC, &opts, true)
        .iter()
        .map(|r| r.alloc.as_ref().expect("alloc ran").second_chances)
        .sum();
    assert!(
        rescues > 0,
        "the pressure population must trigger at least one second-chance rescue"
    );
}

/// High-pressure functions on which scan needs 9 to 18 rounds: five
/// that a budget of eight rounds could not allocate at all, and three
/// that it handed to a graph-colouring engine (the bound in the table is
/// that engine's spill+move total). Each must allocate, pass the
/// verifier and run like the source.
#[test]
fn scan_converges_where_the_round_budget_ran_out() {
    let shape = |pool, max_depth, body_len| SynthConfig {
        functions: 1,
        pool,
        max_depth,
        body_len,
    };
    let (pool32, pressure, pool48) = (shape(32, 1, 16), shape(32, 1, 12), shape(48, 2, 16));
    let cases = [
        (&pool32, 7135, Experiment::LphiAbiC, None),
        (&pool32, 63929, Experiment::LphiAbiC, None),
        (&pool32, 121231, Experiment::LphiAbiC, None),
        (&pool32, 123201, Experiment::LphiAbiC, None),
        (&pool32, 161638, Experiment::LphiC, None),
        (&pressure, 451, Experiment::LphiC, Some(84)),
        (&pool48, 2179, Experiment::LphiAbiC, Some(310)),
        (&pool48, 2966, Experiment::LphiAbiC, Some(251)),
    ];
    let opts = CoalesceOptions::default();
    for (cfg, seed, exp, bound) in cases {
        let bf = generate_function(seed, cfg);
        let mut r = run_experiment(&bf.func, exp, &opts);
        let prep = prepare(&mut r.func, &AllocOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed} / {exp:?}: {e}"));
        verify_allocation(&r.func, &prep.assignment)
            .unwrap_or_else(|e| panic!("seed {seed} / {exp:?}: {e}"));
        let stats = finish(&mut r.func, prep);
        runner::verify(&bf.func, &r.func, &bf.inputs)
            .unwrap_or_else(|e| panic!("seed {seed} / {exp:?}: {e}"));
        if let Some(bound) = bound {
            assert!(
                stats.spill_move_total() <= bound,
                "seed {seed} / {exp:?}: spill+move total {} above {bound}",
                stats.spill_move_total()
            );
        }
    }
}

/// The allocated form is genuinely physical: every operand variable of
/// every allocated function names a machine register, and the printed
/// form survives a parse round trip.
#[test]
fn allocated_form_is_physical_and_reparses() {
    use tossa::ir::parse::parse_function;
    let opts = CoalesceOptions::default();
    for suite in all_suites(2) {
        for r in run_suite_each_allocated(&suite, Experiment::LphiAbiC, &opts, false) {
            for v in r.func.vars() {
                let data = r.func.var(v);
                let used = r
                    .func
                    .all_insts()
                    .any(|(_, i)| r.func.inst(i).operands().any(|o| o.var == v));
                if used {
                    assert!(
                        data.reg.is_some(),
                        "{}: operand variable {} has no physical register",
                        r.func.name,
                        data.name
                    );
                }
            }
            let text = r.func.to_string();
            let back = parse_function(&text, &r.func.machine).unwrap_or_else(|e| {
                panic!("{}: allocated form does not reparse: {e}", r.func.name)
            });
            back.validate().unwrap();
        }
    }
}
