//! Per-pass invariant verification: the [`PassGuard`].
//!
//! Checked pipeline mode snapshots the function before each pass and,
//! after the pass, re-establishes every machine-checkable invariant the
//! paper's correctness argument relies on:
//!
//! * CFG well-formedness ([`tossa_ir::Function::validate`]);
//! * SSA invariants while the function is still in SSA form
//!   ([`tossa_ssa::verify_ssa`]);
//! * pin consistency — no Fig. 4 violation, in particular no two
//!   strongly-interfering webs pinned to one resource
//!   ([`crate::pinning::check_pinning`]);
//! * absence of residual φs once the function claims to be out of SSA;
//! * *semantic equivalence* with the pre-pass function, by differential
//!   execution of both versions on seeded input vectors with the
//!   fuel-bounded reference interpreter.
//!
//! The guard returns structured [`VerifyError`]s instead of panicking, so
//! a suite runner can degrade gracefully (fall back to the naive
//! translation) and keep a per-function diagnostic report.
//!
//! A guard checks each program once. It remembers the
//! [edit stamp](Function::edit_stamp) of the last program that passed
//! the structural checks and the differential runs; when the next check
//! sees the same stamp, only pins can have changed since, so it re-runs
//! only what pins can break: `check_pinning`, for [`IrForm::PinnedSsa`].

use crate::error::VerifyError;
use crate::interfere::{EnvHandles, InterferenceMode};
use crate::pinning::check_pinning;
use std::cell::{Cell, RefCell};
use tossa_analysis::AnalysisCache;
use tossa_ir::interp::{self, Trap};
use tossa_ir::Function;
use tossa_ssa::verify_ssa;

/// Which invariants the function is expected to satisfy at a given
/// pipeline point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IrForm {
    /// Strict SSA (possibly with pins): single definitions, dominance.
    Ssa,
    /// SSA plus a pinning that must pass the Fig. 4 checker.
    PinnedSsa,
    /// Ordinary code after out-of-SSA: no φ may remain.
    NonSsa,
}

impl IrForm {
    /// The form with pins ignored: what the checks other than
    /// `check_pinning` verify.
    fn pin_free(self) -> IrForm {
        match self {
            IrForm::PinnedSsa => IrForm::Ssa,
            form => form,
        }
    }
}

/// Checks the structural invariants of `form` on `f`, without running the
/// interpreter.
///
/// # Errors
/// Returns the first violated invariant.
pub fn check_form(f: &Function, form: IrForm) -> Result<(), VerifyError> {
    check_structure(f, form)?;
    if form == IrForm::PinnedSsa {
        check_pins(f, &mut AnalysisCache::new())?;
    }
    Ok(())
}

/// The pin-free structural checks: `validate`, then `verify_ssa` or the
/// residual-φ check.
fn check_structure(f: &Function, form: IrForm) -> Result<(), VerifyError> {
    f.validate()?;
    match form.pin_free() {
        IrForm::NonSsa => {
            for b in f.blocks() {
                if f.phis(b).next().is_some() {
                    return Err(VerifyError::ResidualPhi { block: b });
                }
            }
        }
        _ => verify_ssa(f)?,
    }
    Ok(())
}

/// The Fig. 4 pin check under the exact interference model, with its
/// analyses taken from `cache`.
fn check_pins(f: &Function, cache: &mut AnalysisCache) -> Result<(), VerifyError> {
    let handles = EnvHandles::from_cache(f, cache);
    let env = handles.env(f, InterferenceMode::Exact);
    check_pinning(f, &env)?;
    Ok(())
}

fn run_outputs(f: &Function, inputs: &[i64], fuel: u64) -> Result<Vec<i64>, Trap> {
    interp::run(f, inputs, fuel).map(|r| r.outputs)
}

/// Snapshot of a function's observable behaviour before a pass, used to
/// verify the pass's output against it.
///
/// ```
/// use tossa_core::checked::{IrForm, PassGuard};
/// use tossa_ir::{machine::Machine, parse::parse_function};
///
/// let f = parse_function(
///     "func @id {\nentry:\n  %a = input\n  ret %a\n}",
///     &Machine::dsp32(),
/// )?;
/// let guard = PassGuard::before(&f, &[vec![3], vec![-1]], 10_000);
/// // ... run a pass on a copy of f ...
/// guard.check(&f, IrForm::Ssa)?; // the identity "pass" trivially passes
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct PassGuard {
    inputs: Vec<Vec<i64>>,
    expected: Vec<Result<Vec<i64>, Trap>>,
    fuel: u64,
    /// Edit stamp and pin-free form of the last program that passed the
    /// structural checks and the differential runs.
    passed: Cell<Option<((u64, u64), IrForm)>>,
    /// `check_pinning`'s analyses, and the edit stamp they were computed
    /// at.
    pin_analyses: RefCell<(Option<(u64, u64)>, AnalysisCache)>,
}

impl PassGuard {
    /// Captures the pre-pass behaviour of `f` on every vector of
    /// `inputs` (reference outputs, or the trap raised).
    pub fn before(f: &Function, inputs: &[Vec<i64>], fuel: u64) -> PassGuard {
        PassGuard {
            inputs: inputs.to_vec(),
            expected: inputs.iter().map(|ins| run_outputs(f, ins, fuel)).collect(),
            fuel,
            passed: Cell::new(None),
            pin_analyses: RefCell::new((None, AnalysisCache::new())),
        }
    }

    /// Verifies the post-pass function: structural invariants of `form`,
    /// then differential execution against the pre-pass snapshot.
    ///
    /// Input vectors on which *both* versions trap are considered
    /// equivalent (e.g. both run out of fuel); a trap only on the
    /// post-pass side is an error, as is any output mismatch.
    ///
    /// A program whose edit stamp and pin-free form match the last one
    /// that passed is not re-verified: only `check_pinning` runs again,
    /// for [`IrForm::PinnedSsa`]. The order of the checks, and so the
    /// first error reported, is that of a full check.
    ///
    /// # Errors
    /// Returns the first violated invariant or diverging input.
    pub fn check(&self, f: &Function, form: IrForm) -> Result<(), VerifyError> {
        let key = (f.edit_stamp(), form.pin_free());
        let unchanged = self.passed.get() == Some(key);
        tossa_trace::span("verify_structural", || -> Result<(), VerifyError> {
            if !unchanged {
                check_structure(f, form)?;
            }
            if form == IrForm::PinnedSsa {
                self.check_pins(f)?;
            }
            Ok(())
        })?;
        if !unchanged {
            tossa_trace::span("verify_differential", || self.check_differential(f))?;
            self.passed.set(Some(key));
        }
        Ok(())
    }

    /// [`check_pins`] on the guard's own cache, invalidated whenever the
    /// edit stamp has moved.
    fn check_pins(&self, f: &Function) -> Result<(), VerifyError> {
        let mut slot = self.pin_analyses.borrow_mut();
        let (seen, cache) = &mut *slot;
        if *seen != Some(f.edit_stamp()) {
            cache.invalidate();
            *seen = Some(f.edit_stamp());
        }
        check_pins(f, cache)
    }

    fn check_differential(&self, f: &Function) -> Result<(), VerifyError> {
        for (ins, want) in self.inputs.iter().zip(&self.expected) {
            let got = run_outputs(f, ins, self.fuel);
            match (want, got) {
                (Ok(want), Ok(got)) => {
                    if *want != got {
                        return Err(VerifyError::Divergence {
                            inputs: ins.clone(),
                            expected: want.clone(),
                            got,
                        });
                    }
                }
                (Ok(_), Err(trap)) => {
                    return Err(VerifyError::Trap {
                        inputs: ins.clone(),
                        trap,
                    });
                }
                (Err(_), _) => {} // pre-pass already trapped: no reference
            }
        }
        Ok(())
    }

    /// The input vectors this guard replays.
    pub fn inputs(&self) -> &[Vec<i64>] {
        &self.inputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;
    use tossa_ir::Opcode;
    use tossa_trace::Counter;

    fn parse(text: &str) -> Function {
        parse_function(text, &Machine::dsp32()).unwrap()
    }

    #[test]
    fn identity_pass_passes() {
        let f = parse("func @id {\nentry:\n  %a, %b = input\n  %s = add %a, %b\n  ret %s\n}");
        let guard = PassGuard::before(&f, &[vec![1, 2], vec![-5, 5]], 10_000);
        guard.check(&f, IrForm::Ssa).unwrap();
    }

    #[test]
    fn divergence_is_reported_with_inputs() {
        let f = parse("func @g {\nentry:\n  %a = input\n  %s = addi %a, 1\n  ret %s\n}");
        let guard = PassGuard::before(&f, &[vec![10]], 10_000);
        // A "pass" that changes the constant.
        let mut g = f.clone();
        let (_, i) = g
            .all_insts()
            .find(|&(_, i)| g.inst(i).opcode == Opcode::AddImm)
            .unwrap();
        *g.inst_mut(i).imm = 2;
        let e = guard.check(&g, IrForm::Ssa).unwrap_err();
        match e {
            VerifyError::Divergence {
                inputs,
                expected,
                got,
            } => {
                assert_eq!(inputs, vec![10]);
                assert_eq!(expected, vec![11]);
                assert_eq!(got, vec![12]);
            }
            other => panic!("expected divergence, got {other}"),
        }
    }

    #[test]
    fn residual_phi_is_reported_in_nonssa_form() {
        let f = parse(
            "func @p {\nentry:\n  %a = make 1\n  jump m\nm:\n  %x = phi [entry: %a]\n  ret %x\n}",
        );
        let e = check_form(&f, IrForm::NonSsa).unwrap_err();
        assert!(matches!(e, VerifyError::ResidualPhi { .. }), "{e}");
        check_form(&f, IrForm::Ssa).unwrap();
    }

    #[test]
    fn both_sides_trapping_is_equivalent() {
        // An infinite loop runs out of fuel before and after the no-op
        // "pass": the guard must not flag it.
        let f = parse("func @lp {\nentry:\n  jump entry\n}");
        let guard = PassGuard::before(&f, &[vec![]], 1_000);
        guard.check(&f, IrForm::Ssa).unwrap();
    }

    #[test]
    fn new_trap_is_reported() {
        let f = parse("func @t {\nentry:\n  %a = input\n  ret %a\n}");
        let guard = PassGuard::before(&f, &[vec![4]], 10_000);
        // A "pass" that makes the ret read an undefined variable.
        let mut g = f.clone();
        let ghost = g.new_var("ghost");
        let (_, ret) = g
            .all_insts()
            .find(|&(_, i)| g.inst(i).opcode == Opcode::Ret)
            .unwrap();
        g.inst_mut(ret).uses[0].var = ghost;
        let e = guard.check(&g, IrForm::NonSsa).unwrap_err();
        assert!(matches!(e, VerifyError::Trap { .. }), "{e}");
    }

    #[test]
    fn pin_inconsistency_is_reported_in_pinned_form() {
        let mut f =
            parse("func @pin {\nentry:\n  %a, %b = input\n  %s = add %a, %b\n  ret %s, %a\n}");
        // a and b are defined together: strongly interfering; pinning
        // both to one resource is Fig. 4 case 1/6.
        let r = f.resources.new_virt("bad");
        for name in ["a", "b"] {
            let v = f.vars().find(|&v| &*f.var(v).name == name).unwrap();
            f.var_mut(v).pin = Some(r);
        }
        let e = check_form(&f, IrForm::PinnedSsa).unwrap_err();
        assert!(matches!(e, VerifyError::Pin(_)), "{e}");
        // The same function is fine when pins are ignored.
        check_form(&f, IrForm::Ssa).unwrap();
    }

    #[test]
    fn an_edit_after_a_passing_check_is_checked_again() {
        let mut f = parse("func @g {\nentry:\n  %a = input\n  %s = addi %a, 1\n  ret %s\n}");
        let guard = PassGuard::before(&f, &[vec![10]], 10_000);
        guard.check(&f, IrForm::Ssa).unwrap();
        // The same function, edited in place: its stamp moves, so the
        // guard must interpret it again.
        let (_, i) = f
            .all_insts()
            .find(|&(_, i)| f.inst(i).opcode == Opcode::AddImm)
            .unwrap();
        *f.inst_mut(i).imm = 2;
        let e = guard.check(&f, IrForm::Ssa).unwrap_err();
        assert!(matches!(e, VerifyError::Divergence { .. }), "{e}");
    }

    #[test]
    fn a_pin_only_edit_is_checked_for_pins_alone() {
        let mut f =
            parse("func @pin {\nentry:\n  %a, %b = input\n  %s = add %a, %b\n  ret %s, %a\n}");
        let guard = PassGuard::before(&f, &[vec![1, 2], vec![3, 4]], 10_000);
        let (first, counters) =
            tossa_trace::capture_counters(|| guard.check(&f, IrForm::PinnedSsa));
        first.unwrap();
        assert!(counters.get(Counter::InterpSteps) > 0);
        // Fig. 4 case 1, written through the stamp-neutral setter.
        let r = f.resources.new_virt("bad");
        for name in ["a", "b"] {
            let v = f.vars().find(|&v| &*f.var(v).name == name).unwrap();
            f.set_pin(v, Some(r));
        }
        let (second, counters) =
            tossa_trace::capture_counters(|| guard.check(&f, IrForm::PinnedSsa));
        assert_eq!(counters.get(Counter::InterpSteps), 0);
        let e = second.unwrap_err();
        assert!(matches!(e, VerifyError::Pin(_)), "{e}");
    }

    #[test]
    fn structural_breakage_is_reported_first() {
        let mut f = parse("func @s {\nentry:\n  %a = input\n  ret %a\n}");
        // Drop the terminator: the block no longer ends in one.
        let b = f.blocks().next().unwrap();
        f.block_mut(b).insts.pop();
        let e = check_form(&f, IrForm::Ssa).unwrap_err();
        assert!(matches!(e, VerifyError::Structural(_)), "{e}");
    }
}
