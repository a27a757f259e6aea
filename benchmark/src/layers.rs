//! The pipeline re-sequenced from the layers' public functions, one span
//! per layer call: the same call order as `tossa_bench::runner`'s
//! `run_experiment` + `apply_alloc` (batch) and as the checked service
//! path, `run_checked` with allocation (service). The traced pass runs
//! these and cross-checks their output against the library entry points,
//! so the per-layer split is known to describe the code being measured.

use crate::trace::Tracer;
use crate::workload::FUEL;
use tossa_analysis::AnalysisCache;
use tossa_baselines::{aggressive_coalesce_cached, dead_code_elim_cached, to_cssa_cached};
use tossa_bench::metrics;
use tossa_core::checked::{IrForm, PassGuard};
use tossa_core::collect::{naive_abi, pinning_abi, pinning_cssa, pinning_sp};
use tossa_core::{
    out_of_pinned_ssa, out_of_pinned_ssa_checked, program_pinning_cached, CoalesceOptions,
    Experiment,
};
use tossa_ir::{interp, Function};
use tossa_regalloc::{finish, prepare, verify_allocation, AllocOptions, AllocStats};
use tossa_ssa::{ifconv, opt, psi, to_ssa, verify_cssa};

/// Result of one batch item through the sequenced layers.
pub struct Compiled {
    /// Allocated physical-form function.
    pub func: Function,
    /// Pre-allocation static moves (Tables 2–4).
    pub moves: usize,
    /// Pre-allocation weighted moves (Table 5).
    pub weighted: u64,
    /// Allocation statistics (Table 6 via `spill_move_total`).
    pub alloc: AllocStats,
}

fn front_end(t: &mut Tracer, src: &Function) -> Function {
    t.span("ssa.front_end", |_| {
        let mut f = src.clone();
        to_ssa(&mut f);
        ifconv::if_convert(&mut f, &ifconv::IfConvOptions::default());
        psi::lower_psis(&mut f);
        opt::copy_propagate(&mut f);
        opt::gvn(&mut f);
        opt::dce(&mut f);
        f
    })
}

fn allocate(t: &mut Tracer, f: &mut Function) -> Result<AllocStats, String> {
    let prep = t
        .span("regalloc.prepare", |_| prepare(f, &AllocOptions::default()))
        .map_err(|e| format!("alloc: {e}"))?;
    t.span("regalloc.verify", |_| {
        verify_allocation(f, &prep.assignment)
    })
    .map_err(|e| format!("alloc verify: {e}"))?;
    Ok(t.span("regalloc.finish", |_| finish(f, prep)))
}

/// `run_experiment` + `apply_alloc`, one span per layer call.
///
/// # Errors
/// Allocation failed.
pub fn batch(t: &mut Tracer, src: &Function, exp: Experiment) -> Result<Compiled, String> {
    let opts = CoalesceOptions::default();
    let mut f = front_end(t, src);
    let passes = exp.passes();
    let mut cache = AnalysisCache::new();
    if passes.sreedhar {
        t.span("baselines.cssa", |_| to_cssa_cached(&mut f, &mut cache));
    }
    t.span("core.pinning", |_| {
        if passes.pinning_cssa {
            pinning_cssa(&mut f);
        }
        if passes.pinning_sp {
            pinning_sp(&mut f);
        }
        if passes.pinning_abi {
            pinning_abi(&mut f);
            cache.invalidate_instructions();
        }
        if passes.pinning_phi {
            program_pinning_cached(&mut f, &opts, &mut cache);
        }
    });
    t.span("core.reconstruct", |_| {
        let recon = out_of_pinned_ssa(&mut f);
        if recon.edges_split == 0 {
            cache.invalidate_instructions();
        } else {
            cache.invalidate();
        }
        if passes.naive_abi {
            naive_abi(&mut f);
            cache.invalidate_instructions();
        }
    });
    t.span("baselines.cleanup", |_| {
        dead_code_elim_cached(&mut f, &mut cache);
        if passes.coalescing {
            aggressive_coalesce_cached(&mut f, &mut cache);
            dead_code_elim_cached(&mut f, &mut cache);
        }
    });
    let (moves, weighted) = t.span("bench.metrics", |_| {
        (
            metrics::move_count(&f),
            metrics::weighted_move_count_cached(&f, &mut cache),
        )
    });
    let alloc = allocate(t, &mut f)?;
    Ok(Compiled {
        func: f,
        moves,
        weighted,
        alloc,
    })
}

/// The checked service path (`run_checked` with allocation, no chaos):
/// a [`PassGuard`] snapshot, then every pass followed by its guard check,
/// then the checked allocation stage. Returns the allocated function.
///
/// # Errors
/// A guard or the allocator rejected the run (the service would degrade).
pub fn checked(
    t: &mut Tracer,
    src: &Function,
    inputs: &[Vec<i64>],
    exp: Experiment,
) -> Result<Function, String> {
    let opts = CoalesceOptions::default();
    let passes = exp.passes();
    let guard = t.span("core.guard", |_| PassGuard::before(src, inputs, FUEL));
    let check = |t: &mut Tracer, f: &Function, form: IrForm, pass: &str| {
        t.span("core.guard", |_| guard.check(f, form))
            .map_err(|e| format!("{pass}: {e}"))
    };
    let stale = |cache: &mut AnalysisCache, pass: &str| match cache.take_stale() {
        Some(s) => Err(format!("{pass}: stale analysis {s:?}")),
        None => Ok(()),
    };
    let ssa = front_end(t, src);
    let mut f = ssa.clone();
    check(t, &f, IrForm::Ssa, "front_end")?;
    let mut cache = AnalysisCache::new();
    cache.set_deferred_staleness(true);
    if passes.sreedhar {
        t.span("baselines.cssa", |_| to_cssa_cached(&mut f, &mut cache));
        stale(&mut cache, "sreedhar")?;
        check(t, &f, IrForm::Ssa, "sreedhar")?;
        t.span("core.guard", |_| verify_cssa(&f))
            .map_err(|e| format!("sreedhar: {e}"))?;
    }
    if passes.pinning_cssa {
        t.span("core.pinning", |_| pinning_cssa(&mut f));
        check(t, &f, IrForm::PinnedSsa, "pinning_cssa")?;
    }
    if passes.pinning_sp {
        t.span("core.pinning", |_| pinning_sp(&mut f));
        check(t, &f, IrForm::PinnedSsa, "pinning_sp")?;
    }
    if passes.pinning_abi {
        t.span("core.pinning", |_| pinning_abi(&mut f));
        cache.invalidate_instructions();
        check(t, &f, IrForm::PinnedSsa, "pinning_abi")?;
    }
    if passes.pinning_phi {
        t.span("core.pinning", |_| {
            program_pinning_cached(&mut f, &opts, &mut cache)
        });
        stale(&mut cache, "pinning_phi")?;
    }
    check(t, &f, IrForm::PinnedSsa, "pinning_phi")?;
    t.span("core.reconstruct", |_| {
        let recon = out_of_pinned_ssa_checked(&mut f).map_err(|e| format!("reconstruct: {e}"))?;
        if recon.edges_split == 0 {
            cache.invalidate_instructions();
        } else {
            cache.invalidate();
        }
        if passes.naive_abi {
            naive_abi(&mut f);
            cache.invalidate_instructions();
        }
        Ok::<(), String>(())
    })?;
    check(t, &f, IrForm::NonSsa, "reconstruct")?;
    t.span("baselines.cleanup", |_| {
        dead_code_elim_cached(&mut f, &mut cache);
        if passes.coalescing {
            aggressive_coalesce_cached(&mut f, &mut cache);
            dead_code_elim_cached(&mut f, &mut cache);
        }
    });
    stale(&mut cache, "cleanup")?;
    check(t, &f, IrForm::NonSsa, "cleanup")?;
    let mut g = f.clone();
    allocate(t, &mut g)?;
    check(t, &g, IrForm::NonSsa, "alloc")?;
    Ok(g)
}

/// The service's output seal (`runner::verify`): differential execution
/// of the produced code against the source on every input vector.
///
/// # Errors
/// The first diverging input.
pub fn interp_seal(
    t: &mut Tracer,
    src: &Function,
    out: &Function,
    inputs: &[Vec<i64>],
) -> Result<(), String> {
    t.span("ir.interp", |_| {
        for ins in inputs {
            let want = interp::run(src, ins, FUEL).map(|r| r.outputs);
            let got = interp::run(out, ins, FUEL).map(|r| r.outputs);
            if want.is_err() || want != got {
                return Err(format!("diverges on {ins:?}: {got:?} vs {want:?}"));
            }
        }
        Ok(())
    })
}
