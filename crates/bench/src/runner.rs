//! Experiment runner: the Table-1 pass sequence and the functions that run
//! it over a function or a suite, with optional end-to-end interpreter
//! verification.
//!
//! [`run_stages`] is the one place the pass order is written. The
//! tables, `perf`, checked mode ([`crate::checked`]) and `tossa
//! --print-ssa` all run it and watch the function through its observer.
//! One [`AnalysisCache`] is threaded through the whole sequence: pin-only
//! passes (`pinningSP`, `pinningCSSA`, `Program_pinning`) keep every
//! analysis memoized, and structural passes invalidate exactly once.
//! Suites run on a scoped thread pool ([`par_map`]) with results
//! collected in deterministic suite order.

use crate::metrics;
use crate::suites::{BenchFunction, Suite};
use std::sync::atomic::{AtomicUsize, Ordering};
use tossa_analysis::AnalysisCache;
use tossa_baselines::{aggressive_coalesce_cached, dead_code_elim_cached, to_cssa_cached};
use tossa_core::coalesce::CoalesceOptions;
use tossa_core::collect::{naive_abi, pinning_abi, pinning_cssa, pinning_sp};
use tossa_core::error::TossaError;
use tossa_core::reconstruct::out_of_pinned_ssa_checked;
use tossa_core::{program_pinning_cached, Experiment, ReconstructStats};
use tossa_ir::{interp, Function};
use tossa_regalloc::{allocate, AllocOptions, AllocStats};
use tossa_ssa::{ifconv, opt, psi, to_ssa};

/// Result of running one pipeline on one function.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The final non-SSA function.
    pub func: Function,
    /// Static move count of the final code.
    pub moves: usize,
    /// `5^depth`-weighted move count (Table 5 metric).
    pub weighted: u64,
    /// Copy statistics from the out-of-pinned-SSA phase.
    pub recon: ReconstructStats,
    /// Moves removed by the Chaitin pass, when enabled.
    pub coalesced: usize,
    /// Register-allocation statistics (the allocation post-pass ran and
    /// [`RunResult::func`] is in physical form).
    pub alloc: Option<AllocStats>,
}

/// Verification failure: the translated function diverged from the
/// source.
#[derive(Clone, Debug)]
pub struct VerifyError {
    /// Function name.
    pub function: String,
    /// Inputs that exposed the divergence.
    pub inputs: Vec<i64>,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} on {:?}: {}",
            self.function, self.inputs, self.message
        )
    }
}

impl std::error::Error for VerifyError {}

const FUEL: u64 = 5_000_000;

/// Shared front end: SSA construction, if-conversion of small diamonds
/// to ψ instructions (the LAO's input is predicated ST120 code, §5),
/// ψ lowering to two-operand `psel` chains, and the SSA-level
/// optimizations the paper assumes have run ("value numbering ... while
/// in SSA form").
pub fn front_end(src: &Function) -> Function {
    let mut f = src.clone();
    to_ssa(&mut f);
    ifconv::if_convert(&mut f, &ifconv::IfConvOptions::default());
    psi::lower_psis(&mut f);
    opt::copy_propagate(&mut f);
    opt::gvn(&mut f);
    opt::dce(&mut f);
    f
}

/// A point of the Table-1 pass sequence at which [`run_stages`] hands
/// the function to its observer, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// The front end's SSA output, before the experiment's first pass.
    FrontEnd,
    /// After Sreedhar et al.'s SSA→CSSA conversion.
    Sreedhar,
    /// After `pinningCSSA`.
    PinningCssa,
    /// After `pinningSP`.
    PinningSp,
    /// After `pinningABI`.
    PinningAbi,
    /// The pinned SSA that reconstruction receives (after
    /// `Program_pinning` when the experiment coalesces φs).
    Pinned,
    /// After reconstruction out of pinned SSA (and `NaiveABI`'s moves).
    Reconstruct,
    /// After dead-code elimination (and Chaitin coalescing).
    Cleanup,
}

/// Runs the passes `exp` enables on the SSA function `f`, in Table-1
/// order and with each pass's cache invalidation, and calls `after` at
/// every [`Stage`] the experiment reaches. `FrontEnd`, `PinningSp`,
/// `Pinned`, `Reconstruct` and `Cleanup` always come. Returns the
/// reconstruction statistics and the number of moves Chaitin removed.
///
/// # Errors
/// The first error `after` returns, unchanged (no later stage runs), or
/// [`TossaError::Reconstruct`] on an ill-formed copy group: the symptom
/// of an incorrect pinning.
pub fn run_stages(
    f: &mut Function,
    exp: Experiment,
    opts: &CoalesceOptions,
    cache: &mut AnalysisCache,
    mut after: impl FnMut(Stage, &mut Function, &mut AnalysisCache) -> Result<(), TossaError>,
) -> Result<(ReconstructStats, usize), TossaError> {
    let passes = exp.passes();
    after(Stage::FrontEnd, f, cache)?;
    if passes.sreedhar {
        tossa_trace::span("cssa", || {
            to_cssa_cached(f, cache);
            after(Stage::Sreedhar, f, cache)
        })?;
    }
    tossa_trace::span("pinning", || {
        if passes.pinning_cssa {
            pinning_cssa(f); // pin-only: cache stays hot
            after(Stage::PinningCssa, f, cache)?;
        }
        if passes.pinning_sp {
            pinning_sp(f); // pin-only: cache stays hot
            after(Stage::PinningSp, f, cache)?;
        }
        if passes.pinning_abi {
            pinning_abi(f); // inserts save/restore moves (CFG unchanged)
            cache.invalidate_instructions();
            after(Stage::PinningAbi, f, cache)?;
        }
        if passes.pinning_phi {
            program_pinning_cached(f, opts, cache); // pin-only
        }
        after(Stage::Pinned, f, cache)
    })?;
    debug_assert!(passes.out_of_pinned_ssa);
    let recon = tossa_trace::span("reconstruct_stage", || -> Result<_, TossaError> {
        let recon = out_of_pinned_ssa_checked(f)?;
        // Reconstruction only changes block structure when it splits
        // edges; otherwise the CFG-shape analyses stay valid and the
        // cleanup stage's first liveness is the only recompute.
        if recon.edges_split == 0 {
            cache.invalidate_instructions();
        } else {
            cache.invalidate();
        }
        if passes.naive_abi {
            naive_abi(f); // inserts plain moves (CFG unchanged)
            cache.invalidate_instructions();
        }
        after(Stage::Reconstruct, f, cache)?;
        Ok(recon)
    })?;
    let coalesced = tossa_trace::span("cleanup", || -> Result<_, TossaError> {
        dead_code_elim_cached(f, cache);
        let mut coalesced = 0;
        if passes.coalescing {
            coalesced = aggressive_coalesce_cached(f, cache).coalesced;
            dead_code_elim_cached(f, cache);
        }
        after(Stage::Cleanup, f, cache)?;
        Ok(coalesced)
    })?;
    Ok((recon, coalesced))
}

/// Runs one experiment pipeline on a pre-SSA function.
pub fn run_experiment(src: &Function, exp: Experiment, opts: &CoalesceOptions) -> RunResult {
    run_observed(src, exp, opts, |_, _| {})
}

/// [`run_experiment`] that shows `after` the function at every stage
/// [`run_stages`] reaches: how `tossa --print-ssa` prints the pinned SSA
/// that reconstruction receives.
///
/// # Panics
/// Panics when reconstruction meets an ill-formed copy group, which
/// only an incorrect pinning produces.
pub fn run_observed(
    src: &Function,
    exp: Experiment,
    opts: &CoalesceOptions,
    after: impl FnMut(Stage, &Function),
) -> RunResult {
    let f = tossa_trace::span("front_end", || front_end(src));
    run_pipeline(f, exp, opts, after)
}

fn run_pipeline(
    mut f: Function,
    exp: Experiment,
    opts: &CoalesceOptions,
    mut after: impl FnMut(Stage, &Function),
) -> RunResult {
    let mut cache = AnalysisCache::new();
    let (recon, coalesced) = run_stages(&mut f, exp, opts, &mut cache, |stage, f, _| {
        after(stage, f);
        Ok(())
    })
    .unwrap_or_else(|e| panic!("{exp} on {}: {e}", f.name));
    let (moves, weighted) = tossa_trace::span("metrics", || {
        (
            metrics::move_count(&f),
            metrics::weighted_move_count_cached(&f, &mut cache),
        )
    });
    RunResult {
        func: f,
        moves,
        weighted,
        recon,
        coalesced,
        alloc: None,
    }
}

/// Runs the register-allocation post-pass on a pipeline result, in
/// place: [`RunResult::func`] is rewritten to physical form (registers +
/// stack slots), the stage is traced like every other stage, and the
/// statistics land in [`RunResult::alloc`]. [`RunResult::moves`] keeps
/// the *pre-allocation* count (the paper's tables metric); the
/// post-allocation survivor count is [`AllocStats::moves_after`].
///
/// # Panics
/// Panics when allocation fails — like a verification failure, an
/// unallocatable function invalidates the whole table.
pub fn apply_alloc(r: &mut RunResult) {
    let stats = tossa_trace::span("alloc_stage", || {
        allocate(&mut r.func, &AllocOptions::default())
            .unwrap_or_else(|e| panic!("allocation failed on {}: {e}\n{}", r.func.name, r.func))
    });
    r.alloc = Some(stats);
}

/// Checks that `result` computes the same outputs as `src` on every
/// sample input.
///
/// # Errors
/// Returns the first diverging input.
pub fn verify(src: &Function, result: &Function, inputs: &[Vec<i64>]) -> Result<(), VerifyError> {
    verify_with_fuel(src, result, inputs, FUEL)
}

/// [`verify`] with `fuel` interpreter steps per execution.
///
/// # Errors
/// Returns the first diverging input, or the first input on which
/// either side traps (running out of fuel included).
pub fn verify_with_fuel(
    src: &Function,
    result: &Function,
    inputs: &[Vec<i64>],
    fuel: u64,
) -> Result<(), VerifyError> {
    tossa_trace::span("interp_verify", || verify_inner(src, result, inputs, fuel))
}

fn verify_inner(
    src: &Function,
    result: &Function,
    inputs: &[Vec<i64>],
    fuel: u64,
) -> Result<(), VerifyError> {
    for ins in inputs {
        let want = interp::run(src, ins, fuel).map_err(|e| VerifyError {
            function: src.name.clone(),
            inputs: ins.clone(),
            message: format!("source traps: {e}"),
        })?;
        let got = interp::run(result, ins, fuel).map_err(|e| VerifyError {
            function: src.name.clone(),
            inputs: ins.clone(),
            message: format!("translated code traps: {e}"),
        })?;
        if want.outputs != got.outputs {
            return Err(VerifyError {
                function: src.name.clone(),
                inputs: ins.clone(),
                message: format!("outputs {:?} != expected {:?}", got.outputs, want.outputs),
            });
        }
    }
    Ok(())
}

/// Aggregate of one experiment over a whole suite.
#[derive(Clone, Debug, Default)]
pub struct SuiteResult {
    /// Total moves across the suite.
    pub moves: usize,
    /// Total weighted moves.
    pub weighted: u64,
    /// Total φ copies before any cleanup.
    pub phi_copies: usize,
    /// Total ABI copies before any cleanup.
    pub abi_copies: usize,
    /// Total repair copies.
    pub repair_copies: usize,
    /// Total moves removed by Chaitin coalescing.
    pub coalesced: usize,
    /// Aggregated allocation statistics (`None` when the allocation
    /// post-pass did not run).
    pub alloc: Option<AllocStats>,
}

impl SuiteResult {
    /// Sums per-function results into the suite aggregate. The single
    /// counting path shared by the tables and the trajectory emitter.
    pub fn fold(results: &[RunResult]) -> SuiteResult {
        let mut total = SuiteResult::default();
        for r in results {
            total.moves += r.moves;
            total.weighted += r.weighted;
            total.phi_copies += r.recon.phi_copies;
            total.abi_copies += r.recon.abi_copies;
            total.repair_copies += r.recon.repair_copies;
            total.coalesced += r.coalesced;
            if let Some(a) = &r.alloc {
                total
                    .alloc
                    .get_or_insert_with(AllocStats::default)
                    .add_assign(a);
            }
        }
        total
    }
}

/// Maps `f` over `0..n` on a scoped worker pool (one thread per
/// available core). Results land in index order, so the output is
/// deterministic regardless of scheduling; a worker panic (e.g. a
/// verification failure) propagates to the caller.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n, || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let f = &f;
                s.spawn(move || {
                    let mut out: Vec<(usize, T)> = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            break;
                        }
                        out.push((k, f(k)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            // Re-raise worker panics here.
            for (k, r) in h.join().expect("bench worker panicked") {
                slots[k] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index assigned"))
        .collect()
}

fn check(bf: &BenchFunction, exp: Experiment, r: &RunResult, verify_each: bool) {
    if verify_each {
        if let Err(e) = verify(&bf.func, &r.func, &bf.inputs) {
            panic!("experiment {exp} broke {e}\n{}", r.func);
        }
    }
}

/// Runs the shared [`front_end`] over every function of a suite, in
/// parallel, and records its trace counters (SSA construction runs
/// liveness fixpoints, which count worklist pops). The front end is
/// experiment-independent, so the trajectory runs it once per suite,
/// feeds the functions to [`run_suite_each_prepared_counted`] and adds
/// the returned set to every cell's pipeline counters — reproducing
/// exactly what a full from-source traced run of each cell would have
/// counted.
pub fn prepare_suite_counted(suite: &Suite) -> (Vec<Function>, tossa_trace::CounterSet) {
    let pairs = par_map(suite.functions.len(), |k| {
        tossa_trace::capture_counters(|| front_end(&suite.functions[k].func))
    });
    let mut total = tossa_trace::CounterSet::default();
    let mut fns = Vec::with_capacity(pairs.len());
    for (f, set) in pairs {
        total.merge(&set);
        fns.push(f);
    }
    (fns, total)
}

/// Per-function results of one experiment over a suite, in suite order,
/// executed on a scoped worker pool (one [`AnalysisCache`] per
/// pipeline).
///
/// # Panics
/// Panics on a verification failure (propagated from any worker).
pub fn run_suite_each(
    suite: &Suite,
    exp: Experiment,
    opts: &CoalesceOptions,
    verify_each: bool,
) -> Vec<RunResult> {
    par_map(suite.functions.len(), |k| {
        let bf = &suite.functions[k];
        let r = run_experiment(&bf.func, exp, opts);
        check(bf, exp, &r, verify_each);
        r
    })
}

/// Per-function results of one experiment over a pre-converted suite,
/// each allocated ([`apply_alloc`]) and verified on the allocated code,
/// with a counters-only capture around the *pipeline* portion of each
/// run: the returned [`CounterSet`] covers exactly the translation
/// pipeline — the allocation post-pass and verification run outside the
/// capture — so the counters match a pipeline-only traced pass byte for
/// byte. The counters-only capture skips span clocks and provenance
/// strings, so its overhead over an untraced run is a handful of local
/// integer increments in the analysis fixpoints.
///
/// [`CounterSet`]: tossa_trace::CounterSet
///
/// # Panics
/// Panics on an allocation or verification failure (propagated from any
/// worker).
pub fn run_suite_each_prepared_counted(
    suite: &Suite,
    prepared: &[Function],
    exp: Experiment,
    opts: &CoalesceOptions,
) -> Vec<(RunResult, tossa_trace::CounterSet)> {
    par_map(suite.functions.len(), |k| {
        let bf = &suite.functions[k];
        let (mut r, set) = tossa_trace::capture_counters(|| {
            run_pipeline(prepared[k].clone(), exp, opts, |_, _| {})
        });
        apply_alloc(&mut r);
        check(bf, exp, &r, true);
        (r, set)
    })
}

/// Per-function results of one experiment with the allocation post-pass:
/// the full pipeline, then [`apply_alloc`], then (when `verify_each`)
/// differential execution of the *allocated* code against the pre-SSA
/// source.
///
/// # Panics
/// Panics on an allocation or verification failure (propagated from any
/// worker).
pub fn run_suite_each_allocated(
    suite: &Suite,
    exp: Experiment,
    opts: &CoalesceOptions,
    verify_each: bool,
) -> Vec<RunResult> {
    par_map(suite.functions.len(), |k| {
        let bf = &suite.functions[k];
        let mut r = run_experiment(&bf.func, exp, opts);
        apply_alloc(&mut r);
        check(bf, exp, &r, verify_each);
        r
    })
}

/// Per-function results of one experiment over a suite, each run under
/// its own trace capture (workers install per-thread collectors, so the
/// parallel runner records every function's counters and spans). Pair
/// `k` of the output is `(result, trace)` for `suite.functions[k]`.
///
/// # Panics
/// Panics on a verification failure (propagated from any worker).
pub fn run_suite_each_traced(
    suite: &Suite,
    exp: Experiment,
    opts: &CoalesceOptions,
    verify_each: bool,
) -> Vec<(RunResult, tossa_trace::TraceData)> {
    par_map(suite.functions.len(), |k| {
        let bf = &suite.functions[k];
        tossa_trace::capture(|| {
            let r = run_experiment(&bf.func, exp, opts);
            check(bf, exp, &r, verify_each);
            r
        })
    })
}

/// Runs one experiment over a suite (in parallel), verifying every
/// function unless `verify_each` is false.
///
/// # Panics
/// Panics on a verification failure — a translation that changes program
/// behaviour invalidates every number in the tables.
pub fn run_suite(
    suite: &Suite,
    exp: Experiment,
    opts: &CoalesceOptions,
    verify_each: bool,
) -> SuiteResult {
    SuiteResult::fold(&run_suite_each(suite, exp, opts, verify_each))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites;

    #[test]
    fn every_experiment_preserves_semantics_on_examples() {
        let ex = suites::paper_examples::examples();
        for &exp in Experiment::all() {
            for bf in &ex {
                let r = run_experiment(&bf.func, exp, &CoalesceOptions::default());
                verify(&bf.func, &r.func, &bf.inputs).unwrap_or_else(|e| panic!("{exp}: {e}"));
            }
        }
    }

    #[test]
    fn our_algorithm_beats_naive_on_kernels() {
        let suite = suites::Suite {
            name: "VALcc1",
            functions: suites::kernels::valcc1(),
        };
        let opts = CoalesceOptions::default();
        let ours = run_suite(&suite, Experiment::LphiC, &opts, true);
        let naive = run_suite(&suite, Experiment::CNoAbi, &opts, true);
        assert!(
            ours.moves <= naive.moves,
            "Lphi+C {} > C {}",
            ours.moves,
            naive.moves
        );
    }

    #[test]
    fn abi_pinning_beats_naive_abi() {
        let suite = suites::Suite {
            name: "VALcc1",
            functions: suites::kernels::valcc1(),
        };
        let opts = CoalesceOptions::default();
        let pinned = run_suite(&suite, Experiment::LphiAbiC, &opts, true);
        let naive = run_suite(&suite, Experiment::CAbi, &opts, true);
        assert!(
            pinned.moves <= naive.moves,
            "Lphi,ABI+C {} > C(abi) {}",
            pinned.moves,
            naive.moves
        );
    }

    /// The stages `exp`'s passes enable, in Table-1 order.
    fn enabled_stages(exp: Experiment) -> Vec<Stage> {
        let p = exp.passes();
        [
            (true, Stage::FrontEnd),
            (p.sreedhar, Stage::Sreedhar),
            (p.pinning_cssa, Stage::PinningCssa),
            (p.pinning_sp, Stage::PinningSp),
            (p.pinning_abi, Stage::PinningAbi),
            (true, Stage::Pinned),
            (true, Stage::Reconstruct),
            (true, Stage::Cleanup),
        ]
        .into_iter()
        .filter_map(|(on, stage)| on.then_some(stage))
        .collect()
    }

    #[test]
    fn the_observer_sees_exactly_the_enabled_stages_in_order() {
        let bf = &suites::paper_examples::examples()[2];
        for &exp in Experiment::all() {
            let mut seen = Vec::new();
            run_observed(&bf.func, exp, &CoalesceOptions::default(), |s, _| {
                seen.push(s)
            });
            assert_eq!(seen, enabled_stages(exp), "{exp:?}");
            for always in [
                Stage::FrontEnd,
                Stage::Pinned,
                Stage::Reconstruct,
                Stage::Cleanup,
            ] {
                assert!(seen.contains(&always), "{exp:?} skipped {always:?}");
            }
        }
    }

    #[test]
    fn an_observer_error_comes_back_unchanged_and_stops_the_sequence() {
        let bf = &suites::paper_examples::examples()[2];
        let ssa = front_end(&bf.func);
        for &exp in Experiment::all() {
            let stages = enabled_stages(exp);
            for (k, &stop) in stages.iter().enumerate() {
                let err = TossaError::Panic {
                    pass: "observer",
                    message: format!("{stop:?}"),
                };
                let mut seen = Vec::new();
                let got = run_stages(
                    &mut ssa.clone(),
                    exp,
                    &CoalesceOptions::default(),
                    &mut AnalysisCache::new(),
                    |s, _, _| {
                        seen.push(s);
                        if s == stop {
                            Err(err.clone())
                        } else {
                            Ok(())
                        }
                    },
                );
                assert_eq!(got.unwrap_err(), err, "{exp:?} at {stop:?}");
                assert_eq!(seen, stages[..=k], "{exp:?} went on after {stop:?}");
            }
        }
    }

    #[test]
    fn parallel_suite_matches_serial() {
        let suite = suites::Suite {
            name: "VALcc1",
            functions: suites::kernels::valcc1(),
        };
        let opts = CoalesceOptions::default();
        let par = run_suite_each(&suite, Experiment::LphiAbiC, &opts, false);
        assert_eq!(par.len(), suite.functions.len());
        for (p, bf) in par.iter().zip(&suite.functions) {
            let s = run_experiment(&bf.func, Experiment::LphiAbiC, &opts);
            assert_eq!(p.moves, s.moves);
            assert_eq!(p.weighted, s.weighted);
            assert_eq!(p.recon, s.recon);
        }
    }
}
