//! Checked pipeline mode: per-pass verification, graceful fallback, and
//! the per-function error report.
//!
//! [`run_checked`] runs the runner's own pass sequence
//! ([`run_stages`]) and observes every stage with a [`PassGuard`]:
//! structural verifiers (CFG, SSA/CSSA, pin consistency) plus
//! differential execution against the source function on the
//! benchmark's input vectors. Any violation becomes a structured
//! [`TossaError`] instead of a panic, and the function **degrades to the
//! naive out-of-SSA translation** so a suite run completes with a
//! [`SuiteReport`] naming every failed function instead of aborting.
//!
//! Fault injection ([`CheckedOptions::chaos`]) corrupts the function at
//! the stage whose check must catch the corruption class, which lets
//! tests prove the safety net trips: the corrupted run must produce a
//! structured error *and* a semantically-correct fallback.

use crate::runner::{front_end, par_map, run_stages, Stage};
use crate::suites::{BenchFunction, Suite};
use std::panic::{catch_unwind, AssertUnwindSafe};
use tossa_analysis::AnalysisCache;
use tossa_baselines::naive_out_of_ssa;
use tossa_core::chaos::{self, AllocCorruption, Catcher, Corruption};
use tossa_core::checked::{IrForm, PassGuard};
use tossa_core::coalesce::CoalesceOptions;
use tossa_core::collect::naive_abi;
use tossa_core::error::{CoalesceError, TossaError, VerifyError};
use tossa_core::Experiment;
use tossa_ir::rng::SplitMix64;
use tossa_ir::Function;
use tossa_regalloc::{AllocOptions, AllocStats};
use tossa_ssa::verify_cssa;

/// Tuning of a checked run.
#[derive(Clone, Copy, Debug)]
pub struct CheckedOptions {
    /// Interpreter step budget per differential execution.
    pub fuel: u64,
    /// Inject this corruption class (for safety-net validation).
    pub chaos: Option<Corruption>,
    /// Seed for the corruption site choice.
    pub chaos_seed: u64,
    /// Run register allocation after the pipeline, with the allocation
    /// verifier and a post-allocation differential check.
    pub alloc: bool,
    /// Inject this allocation corruption between assignment and the
    /// allocation verifier (implies the allocation stage).
    pub alloc_chaos: Option<AllocCorruption>,
}

impl Default for CheckedOptions {
    fn default() -> Self {
        CheckedOptions {
            fuel: 5_000_000,
            chaos: None,
            chaos_seed: 0,
            alloc: false,
            alloc_chaos: None,
        }
    }
}

/// Outcome of one checked run on one function.
#[derive(Clone, Debug)]
pub struct CheckedOutcome {
    /// The final non-SSA function (checked pipeline output, or the naive
    /// fallback after a failure).
    pub func: Function,
    /// Static move count of `func`.
    pub moves: usize,
    /// The failure that triggered the fallback (`None` = clean run).
    pub error: Option<TossaError>,
    /// Whether `func` is the naive fallback translation.
    pub fell_back: bool,
    /// Set when even the fallback failed verification (this indicates a
    /// corrupted *input*, not a pass bug).
    pub fallback_error: Option<TossaError>,
    /// Whether a [`CheckedOptions::chaos`] corruption actually found an
    /// injection site in this function.
    pub injected: bool,
    /// Allocation statistics (when the allocation stage ran cleanly).
    pub alloc: Option<AllocStats>,
}

/// The text of a caught panic's payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn verify_err(pass: &'static str) -> impl Fn(VerifyError) -> TossaError {
    move |error| TossaError::Verify { pass, error }
}

/// Publishes a landed chaos injection on the trace sink and returns
/// whether it landed.
fn note_injection(hit: bool, c: impl std::fmt::Debug) -> bool {
    if hit {
        tossa_trace::count(tossa_trace::Counter::ChaosInjected, 1);
        tossa_trace::event("chaos", || format!("{c:?}"));
    }
    hit
}

/// The pass a failure seen at `stage` is blamed on, and the IR form its
/// guard checks.
fn guard_of(stage: Stage) -> (&'static str, IrForm) {
    match stage {
        Stage::FrontEnd => ("front_end", IrForm::Ssa),
        Stage::Sreedhar => ("sreedhar", IrForm::Ssa),
        Stage::PinningCssa => ("pinning_cssa", IrForm::PinnedSsa),
        Stage::PinningSp => ("pinning_sp", IrForm::PinnedSsa),
        Stage::PinningAbi => ("pinning_abi", IrForm::PinnedSsa),
        Stage::Pinned => ("pinning_phi", IrForm::PinnedSsa),
        Stage::Reconstruct => ("reconstruct", IrForm::NonSsa),
        Stage::Cleanup => ("cleanup", IrForm::NonSsa),
    }
}

/// The stage a corruption class is injected at: the one whose check
/// must catch it.
fn chaos_stage(c: Corruption) -> Stage {
    match c.caught_by() {
        // SSA-corrupting classes model a buggy front end,
        Catcher::Structural | Catcher::Ssa => Stage::FrontEnd,
        // pin-corrupting ones a buggy coalescer,
        Catcher::Pin => Stage::Pinned,
        // copy reordering a buggy sequentializer.
        Catcher::Differential => Stage::Reconstruct,
    }
}

/// Checked mode's observer of [`run_stages`]: the guard, the chaos class
/// with its site RNG, and whether an injection landed.
struct Checker<'g> {
    guard: &'g PassGuard,
    chaos: Option<Corruption>,
    rng: SplitMix64,
    injected: bool,
}

impl Checker<'_> {
    /// Checks one stage: drains stale-analysis diagnostics, injects the
    /// chaos class this stage must catch, runs the guard with the stage's
    /// IR form (each earlier stage was already proven
    /// semantics-preserving, so a divergence is blamed on the pass it
    /// first appears after), and after Sreedhar also `verify_cssa`.
    fn check(
        &mut self,
        stage: Stage,
        f: &mut Function,
        cache: &mut AnalysisCache,
    ) -> Result<(), TossaError> {
        let (pass, form) = guard_of(stage);
        if let Some(s) = cache.take_stale() {
            return Err(verify_err(pass)(VerifyError::StaleAnalysis(s)));
        }
        if let Some(c) = self.chaos.filter(|&c| chaos_stage(c) == stage) {
            self.injected |= note_injection(chaos::inject(f, c, &mut self.rng), c);
        }
        match self.guard.check(f, form) {
            Ok(()) => {}
            // A pin violation after the coalescer is its fault: the
            // collect passes were each verified before it.
            Err(VerifyError::Pin(p)) if stage == Stage::Pinned => {
                return Err(TossaError::Coalesce(CoalesceError::InvalidPinning(p)));
            }
            Err(e) => return Err(verify_err(pass)(e)),
        }
        if stage == Stage::Sreedhar {
            verify_cssa(f).map_err(|e| verify_err(pass)(VerifyError::Ssa(e)))?;
        }
        Ok(())
    }
}

/// Runs one experiment pipeline on one function in checked mode.
///
/// On any verification failure (or pass panic) the run degrades: the
/// returned function is the naive out-of-SSA translation of the
/// front-end output, itself verified against the source, and the
/// triggering error is recorded in the outcome.
pub fn run_checked(
    bf: &BenchFunction,
    exp: Experiment,
    opts: &CoalesceOptions,
    copts: &CheckedOptions,
) -> CheckedOutcome {
    let guard = PassGuard::before(&bf.func, &bf.inputs, copts.fuel);
    let ssa = front_end(&bf.func);
    let mut checker = Checker {
        guard: &guard,
        chaos: copts.chaos,
        rng: SplitMix64::seed_from_u64(copts.chaos_seed),
        injected: false,
    };
    let piped = catch_unwind(AssertUnwindSafe(|| {
        let mut f = ssa.clone();
        let mut cache = AnalysisCache::new();
        cache.set_deferred_staleness(true);
        run_stages(&mut f, exp, opts, &mut cache, |stage, f, cache| {
            checker.check(stage, f, cache)
        })
        .map(|_| f)
    }))
    .unwrap_or_else(|p| {
        Err(TossaError::Panic {
            pass: "pipeline",
            message: panic_message(&*p),
        })
    });
    let injected = checker.injected;
    match piped {
        Ok(func) => {
            let mut outcome = CheckedOutcome {
                moves: crate::metrics::move_count(&func),
                func,
                error: None,
                fell_back: false,
                fallback_error: None,
                injected,
                alloc: None,
            };
            if copts.alloc || copts.alloc_chaos.is_some() {
                let mut hit = false;
                let alloced = catch_unwind(AssertUnwindSafe(|| {
                    alloc_checked(&outcome.func, &guard, copts, &mut hit)
                }))
                .unwrap_or_else(|p| {
                    Err(TossaError::Panic {
                        pass: "alloc",
                        message: panic_message(&*p),
                    })
                });
                outcome.injected |= hit;
                match alloced {
                    Ok((af, stats)) => {
                        outcome.moves = crate::metrics::move_count(&af);
                        outcome.func = af;
                        outcome.alloc = Some(stats);
                    }
                    // The unallocated pipeline output stays usable; the
                    // allocation failure is the reported diagnostic.
                    Err(e) => outcome.error = Some(e),
                }
            }
            outcome
        }
        Err(error) => {
            tossa_trace::count(tossa_trace::Counter::FallbacksTaken, 1);
            tossa_trace::event("fallback", || format!("{}: {error}", bf.func.name));
            let (func, fallback_error) = naive_fallback(&ssa, exp, &guard);
            CheckedOutcome {
                moves: crate::metrics::move_count(&func),
                func,
                error: Some(error),
                fell_back: true,
                fallback_error,
                injected,
                alloc: None,
            }
        }
    }
}

/// The checked allocation stage: assignment + spill code, optional fault
/// injection, the independent allocation verifier, the physical rewrite,
/// then differential execution of the *allocated* code against the
/// pre-pipeline source.
fn alloc_checked(
    func: &Function,
    guard: &PassGuard,
    copts: &CheckedOptions,
    injected: &mut bool,
) -> Result<(Function, AllocStats), TossaError> {
    let mut f = func.clone();
    let mut prep =
        tossa_regalloc::prepare(&mut f, &AllocOptions::default()).map_err(TossaError::Alloc)?;
    if let Some(c) = copts.alloc_chaos {
        let mut rng = SplitMix64::seed_from_u64(copts.chaos_seed ^ 0xA110_C0DE);
        let hit = chaos::inject_alloc(&mut f, &mut prep.assignment, c, &mut rng);
        *injected |= note_injection(hit, c);
    }
    tossa_regalloc::verify_allocation(&f, &prep.assignment).map_err(TossaError::Alloc)?;
    let stats = tossa_regalloc::finish(&mut f, prep);
    guard
        .check(&f, IrForm::NonSsa)
        .map_err(verify_err("alloc"))?;
    Ok((f, stats))
}

/// The degraded path: naive φ replacement (plus naive ABI moves when the
/// experiment requires ABI conformance), verified against the source.
fn naive_fallback(
    ssa: &Function,
    exp: Experiment,
    guard: &PassGuard,
) -> (Function, Option<TossaError>) {
    let built = catch_unwind(AssertUnwindSafe(|| {
        let mut g = ssa.clone();
        naive_out_of_ssa(&mut g);
        if exp.enforces_abi() {
            naive_abi(&mut g);
        }
        g
    }));
    match built {
        Ok(g) => {
            let err = guard
                .check(&g, IrForm::NonSsa)
                .err()
                .map(verify_err("naive_fallback"));
            (g, err)
        }
        Err(p) => (
            ssa.clone(),
            Some(TossaError::Panic {
                pass: "naive_fallback",
                message: panic_message(&*p),
            }),
        ),
    }
}

/// One entry of the per-function error report.
#[derive(Clone, Debug)]
pub struct FunctionReport {
    /// Function name.
    pub function: String,
    /// The failure that triggered the fallback.
    pub error: TossaError,
    /// Whether even the naive fallback failed verification.
    pub fallback_error: Option<TossaError>,
}

/// Aggregate of one checked experiment over a suite.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// The experiment run.
    pub experiment: Experiment,
    /// Functions processed.
    pub total: usize,
    /// Functions that completed the full pipeline cleanly.
    pub clean: usize,
    /// Functions a chaos corruption actually landed in (0 without
    /// [`CheckedOptions::chaos`], or when no function offered a site).
    pub injected: usize,
    /// Functions that degraded to the naive translation, with their
    /// diagnostics (empty on a fully clean run).
    pub failures: Vec<FunctionReport>,
}

impl SuiteReport {
    /// Whether every function completed without degradation.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

impl std::fmt::Display for SuiteReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checked {}: {}/{} clean, {} degraded",
            self.experiment,
            self.clean,
            self.total,
            self.failures.len()
        )?;
        if self.injected > 0 {
            write!(f, " ({} injected)", self.injected)?;
        }
        writeln!(f)?;
        for r in &self.failures {
            writeln!(f, "  {}: {}", r.function, r.error)?;
            if let Some(e) = &r.fallback_error {
                writeln!(f, "  {}: FALLBACK ALSO FAILED: {e}", r.function)?;
            }
        }
        Ok(())
    }
}

/// Runs one experiment over a suite in checked mode, in parallel. Never
/// panics on a pass failure: failing functions degrade to the naive
/// translation and are listed in the report.
pub fn run_suite_checked(
    suite: &Suite,
    exp: Experiment,
    opts: &CoalesceOptions,
    copts: &CheckedOptions,
) -> SuiteReport {
    let outcomes = par_map(suite.functions.len(), |k| {
        run_checked(&suite.functions[k], exp, opts, copts)
    });
    collect_report(suite, exp, outcomes)
}

/// [`run_suite_checked`] with per-function trace capture: each worker
/// installs a collector, so verifier spans, chaos injections, and
/// fallback events are all recorded. Trace `k` belongs to
/// `suite.functions[k]`.
pub fn run_suite_checked_traced(
    suite: &Suite,
    exp: Experiment,
    opts: &CoalesceOptions,
    copts: &CheckedOptions,
) -> (SuiteReport, Vec<tossa_trace::TraceData>) {
    let pairs = par_map(suite.functions.len(), |k| {
        tossa_trace::capture(|| run_checked(&suite.functions[k], exp, opts, copts))
    });
    let (outcomes, traces): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
    (collect_report(suite, exp, outcomes), traces)
}

fn collect_report(suite: &Suite, exp: Experiment, outcomes: Vec<CheckedOutcome>) -> SuiteReport {
    let mut report = SuiteReport {
        experiment: exp,
        total: outcomes.len(),
        clean: 0,
        injected: 0,
        failures: Vec::new(),
    };
    for (bf, o) in suite.functions.iter().zip(outcomes) {
        if o.injected {
            report.injected += 1;
        }
        match o.error {
            None => report.clean += 1,
            Some(error) => report.failures.push(FunctionReport {
                function: bf.func.name.clone(),
                error,
                fallback_error: o.fallback_error,
            }),
        }
    }
    report
}

/// A deterministic fuzz population: `n` seeded random functions (the
/// SPECint-like generator) with the input set widened from the
/// generator's 3 vectors to 8, so differential execution probes more
/// paths. Equal `(n, seed_base)` yield byte-identical suites.
pub fn fuzz_suite(n: usize, seed_base: u64) -> Suite {
    // Slightly smaller than the SPECint-like default: the checked mode
    // re-verifies and re-executes after every pass that edits code, so
    // with allocation a function costs about 1.3–1.6× a plain allocated
    // run, and the population is large.
    let cfg = crate::suites::synth::SynthConfig {
        max_depth: 2,
        body_len: 4,
        ..Default::default()
    };
    let functions = (0..n as u64)
        .map(|k| {
            let seed = seed_base.wrapping_add(k);
            let mut bf = crate::suites::synth::generate_function(seed, &cfg);
            let ninputs = bf.inputs[0].len();
            let mut rng = SplitMix64::seed_from_u64(seed ^ 0xF022_55AA);
            while bf.inputs.len() < 8 {
                bf.inputs.push(
                    (0..ninputs)
                        .map(|_| rng.random_range(-100i64..100))
                        .collect(),
                );
            }
            bf
        })
        .collect();
    Suite {
        name: "fuzz",
        functions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites;

    fn small_suite() -> Suite {
        Suite {
            name: "examples",
            functions: suites::paper_examples::examples(),
        }
    }

    #[test]
    fn checked_mode_is_clean_on_examples() {
        let opts = CoalesceOptions::default();
        let copts = CheckedOptions::default();
        for &exp in Experiment::all() {
            let report = run_suite_checked(&small_suite(), exp, &opts, &copts);
            assert!(report.is_clean(), "{report}");
            assert_eq!(report.clean, report.total);
        }
    }

    #[test]
    fn checked_alloc_is_clean_on_examples_and_reports_stats() {
        let opts = CoalesceOptions::default();
        let copts = CheckedOptions {
            alloc: true,
            ..Default::default()
        };
        for &exp in Experiment::all() {
            let suite = small_suite();
            for bf in &suite.functions {
                let o = run_checked(bf, exp, &opts, &copts);
                assert!(o.error.is_none(), "{exp} {}: {:?}", bf.func.name, o.error);
                let stats = o.alloc.expect("alloc stage ran");
                assert!(stats.regs_used > 0, "{exp} {}", bf.func.name);
            }
        }
    }

    #[test]
    fn alloc_chaos_is_caught_as_structured_alloc_errors() {
        let opts = CoalesceOptions::default();
        let suite = small_suite();
        let copts = CheckedOptions {
            alloc_chaos: Some(AllocCorruption::AssignOverlappingInterval),
            chaos_seed: 5,
            ..Default::default()
        };
        let report = run_suite_checked(&suite, Experiment::LphiC, &opts, &copts);
        assert!(report.injected > 0, "corruption never landed");
        assert!(!report.is_clean(), "corruption landed but was not caught");
        for r in &report.failures {
            assert!(matches!(r.error, TossaError::Alloc(_)), "{}", r.error);
        }
    }

    #[test]
    fn chaos_degrades_to_naive_and_reports() {
        let opts = CoalesceOptions::default();
        let suite = small_suite();
        for (k, &c) in Corruption::all().iter().enumerate() {
            let copts = CheckedOptions {
                chaos: Some(c),
                chaos_seed: 11 + k as u64,
                ..Default::default()
            };
            let report = run_suite_checked(&suite, Experiment::LphiC, &opts, &copts);
            // At least one function must offer a corruption site, be
            // caught, and degrade; every degraded function's fallback
            // must verify.
            assert!(
                !report.is_clean(),
                "{c:?} was never injected or never caught"
            );
            for r in &report.failures {
                assert!(
                    r.fallback_error.is_none(),
                    "{c:?} fallback broken on {}: {:?}",
                    r.function,
                    r.fallback_error
                );
            }
            // The report formats with function names and error text.
            let text = report.to_string();
            assert!(text.contains("degraded"), "{text}");
        }
    }

    #[test]
    fn chaos_errors_match_their_class() {
        let opts = CoalesceOptions::default();
        let suite = small_suite();
        let copts = CheckedOptions {
            chaos: Some(Corruption::MergeInterferingWebs),
            chaos_seed: 3,
            ..Default::default()
        };
        let report = run_suite_checked(&suite, Experiment::LphiC, &opts, &copts);
        assert!(!report.is_clean());
        for r in &report.failures {
            assert!(
                matches!(r.error, TossaError::Coalesce(_)),
                "expected coalesce error, got {} on {}",
                r.error,
                r.function
            );
        }
    }

    #[test]
    fn panic_message_reads_str_and_string_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(&*s), "boom");
        let s: Box<dyn std::any::Any + Send> = Box::new(format!("{}", 42));
        assert_eq!(panic_message(&*s), "42");
        let s: Box<dyn std::any::Any + Send> = Box::new(7u8);
        assert_eq!(panic_message(&*s), "non-string panic payload");
    }

    #[test]
    fn fallback_output_is_usable() {
        let opts = CoalesceOptions::default();
        let copts = CheckedOptions {
            chaos: Some(Corruption::DoubleDef),
            chaos_seed: 1,
            ..Default::default()
        };
        let bf = &suites::paper_examples::examples()[0];
        let o = run_checked(bf, Experiment::LphiC, &opts, &copts);
        assert!(o.fell_back);
        assert!(o.error.is_some());
        tossa_core::checked::check_form(&o.func, IrForm::NonSsa).unwrap();
    }
}
