//! Fault injection: deliberate IR/pinning corruptions for verifier
//! validation.
//!
//! Each [`Corruption`] class models a realistic compiler bug — a pass
//! dropping a φ argument, a coalescer merging interfering webs, a copy
//! sequentializer emitting moves in the wrong order — and each class is
//! paired (see [`Corruption::caught_by`]) with the verifier that must
//! catch it. Tests inject every class and assert the corresponding
//! structured [`VerifyError`](crate::error::VerifyError) is produced,
//! proving the checked pipeline's safety net actually trips.

use crate::interfere::{EnvHandles, InterferenceMode};
use tossa_analysis::AnalysisCache;
use tossa_ir::ids::Var;
use tossa_ir::instr::InstData;
use tossa_ir::rng::SplitMix64;
use tossa_ir::{Function, Opcode};

/// A class of deliberate corruption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// Remove one argument (and its predecessor entry) from a φ with at
    /// least two arguments — a broken SSA-repair or edge-split pass.
    DropPhiArg,
    /// Add a second definition of an already-defined variable — a pass
    /// that forgot to rename.
    DoubleDef,
    /// Replace one instruction use with a fresh, never-defined variable —
    /// a dangling reference after aggressive rewriting.
    UndefinedUse,
    /// Pin two strongly-interfering variables to one fresh resource — a
    /// coalescer merging webs it must keep apart (Fig. 2 / Fig. 4 case 6).
    MergeInterferingWebs,
    /// Swap two adjacent moves where the first reads the variable the
    /// second overwrites — a sequentializer ignoring the lost-copy
    /// read-before-overwrite ordering.
    ReorderParallelCopy,
}

/// Which verifier must catch a corruption class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Catcher {
    /// [`tossa_ir::Function::validate`].
    Structural,
    /// [`tossa_ssa::verify_ssa`].
    Ssa,
    /// [`crate::pinning::check_pinning`].
    Pin,
    /// Differential execution against the pre-corruption function.
    Differential,
}

impl Corruption {
    /// All corruption classes.
    pub fn all() -> &'static [Corruption] {
        use Corruption::*;
        &[
            DropPhiArg,
            DoubleDef,
            UndefinedUse,
            MergeInterferingWebs,
            ReorderParallelCopy,
        ]
    }

    /// The verifier responsible for catching this class.
    pub fn caught_by(self) -> Catcher {
        match self {
            Corruption::DropPhiArg => Catcher::Structural,
            Corruption::DoubleDef | Corruption::UndefinedUse => Catcher::Ssa,
            Corruption::MergeInterferingWebs => Catcher::Pin,
            Corruption::ReorderParallelCopy => Catcher::Differential,
        }
    }
}

/// Injects corruption `c` into `f`, choosing among eligible sites with
/// `rng`. Returns `false` when the function offers no site for this
/// class (e.g. no multi-argument φ), leaving `f` untouched.
pub fn inject(f: &mut Function, c: Corruption, rng: &mut SplitMix64) -> bool {
    match c {
        Corruption::DropPhiArg => drop_phi_arg(f, rng),
        Corruption::DoubleDef => double_def(f, rng),
        Corruption::UndefinedUse => undefined_use(f, rng),
        Corruption::MergeInterferingWebs => merge_interfering_webs(f, rng),
        Corruption::ReorderParallelCopy => reorder_parallel_copy(f, rng),
    }
}

fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> Option<T> {
    if items.is_empty() {
        None
    } else {
        Some(items[rng.random_range(0..items.len())])
    }
}

fn drop_phi_arg(f: &mut Function, rng: &mut SplitMix64) -> bool {
    let sites: Vec<_> = f
        .all_insts()
        .filter(|&(_, i)| f.inst(i).is_phi() && f.inst(i).uses.len() >= 2)
        .map(|(_, i)| i)
        .collect();
    let Some(i) = pick(rng, &sites) else {
        return false;
    };
    let k = rng.random_range(0..f.inst(i).uses.len());
    f.phi_remove_arg(i, k);
    true
}

fn double_def(f: &mut Function, rng: &mut SplitMix64) -> bool {
    let defined: Vec<Var> = f
        .all_insts()
        .flat_map(|(_, i)| f.inst(i).defs.to_vec())
        .map(|d| d.var)
        .collect();
    let Some(v) = pick(rng, &defined) else {
        return false;
    };
    let blocks: Vec<_> = f.blocks().collect();
    let Some(b) = pick(rng, &blocks) else {
        return false;
    };
    // Before the terminator, after any φs.
    let at = f
        .block(b)
        .insts
        .len()
        .saturating_sub(1)
        .max(f.first_non_phi(b));
    f.insert_inst(
        b,
        at,
        InstData::new(Opcode::Make)
            .with_defs(vec![v.into()])
            .with_imm(0),
    );
    true
}

fn undefined_use(f: &mut Function, rng: &mut SplitMix64) -> bool {
    let sites: Vec<_> = f
        .all_insts()
        .filter(|&(_, i)| !f.inst(i).is_phi() && !f.inst(i).uses.is_empty())
        .map(|(_, i)| i)
        .collect();
    let Some(i) = pick(rng, &sites) else {
        return false;
    };
    let ghost = f.new_var("chaos_ghost");
    let k = rng.random_range(0..f.inst(i).uses.len());
    f.inst_mut(i).uses[k].var = ghost;
    true
}

fn merge_interfering_webs(f: &mut Function, rng: &mut SplitMix64) -> bool {
    let pairs: Vec<(Var, Var)> = {
        let mut cache = AnalysisCache::new();
        let handles = EnvHandles::from_cache(f, &mut cache);
        let env = handles.env(f, InterferenceMode::Exact);
        let unpinned: Vec<Var> = f.vars().filter(|&v| f.var(v).pin.is_none()).collect();
        let mut pairs = Vec::new();
        for (k, &x) in unpinned.iter().enumerate() {
            for &y in &unpinned[k + 1..] {
                if env.strongly_interfere(x, y) {
                    pairs.push((x, y));
                }
            }
        }
        pairs
    };
    let Some((x, y)) = pick(rng, &pairs) else {
        return false;
    };
    let r = f.resources.new_virt("chaos_web");
    f.set_pin(x, Some(r));
    f.set_pin(y, Some(r));
    true
}

/// A class of deliberate register-allocation corruption.
///
/// These model allocator bugs rather than pass bugs, so they live in a
/// separate enum with a separate injection point: between
/// [`tossa_regalloc::prepare`] and [`tossa_regalloc::verify_allocation`],
/// mutating the [`Assignment`](tossa_regalloc::Assignment) (or the spill
/// code) the verifier is about to check. Each class is caught by a
/// specific structured [`AllocError`](tossa_regalloc::AllocError).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocCorruption {
    /// Force two simultaneously-live variables onto one register — a
    /// scan that mis-sorted intervals. Caught as
    /// [`AllocError::RegisterOverlap`](tossa_regalloc::AllocError::RegisterOverlap).
    AssignOverlappingInterval,
    /// Move a precolored variable off its pinned register — an allocator
    /// ignoring the out-of-SSA pinning. Caught as
    /// [`AllocError::PinClobbered`](tossa_regalloc::AllocError::PinClobbered).
    ClobberPinnedResource,
    /// Delete a `spillld`, leaving its reload temporary undefined — a
    /// spiller losing an insertion. Caught as
    /// [`AllocError::UndefinedUse`](tossa_regalloc::AllocError::UndefinedUse).
    DropReload,
    /// Redirect one live-range-split boundary reload (a `spillld`
    /// defining a `.s` hot sub-web) to a slot nothing stores into — a
    /// splitter miscomputing the boundary slot, so the store/reload
    /// pairing the split promised is broken. Caught as
    /// [`AllocError::UnpairedSlot`](tossa_regalloc::AllocError::UnpairedSlot).
    DropSplitCopy,
    /// Force two webs onto one register at a point where *both ranges*
    /// are live, choosing a pair where at least one web has a lifetime
    /// hole — the PR9 failure mode: hull interference would have caught
    /// the overlap trivially, but a buggy hole check (one that treats
    /// the whole hull gap as free) would miss it. Caught as
    /// [`AllocError::RegisterOverlap`](tossa_regalloc::AllocError::RegisterOverlap).
    AssignInHole,
}

impl AllocCorruption {
    /// All allocation corruption classes.
    pub fn all() -> &'static [AllocCorruption] {
        use AllocCorruption::*;
        &[
            AssignOverlappingInterval,
            ClobberPinnedResource,
            DropReload,
            DropSplitCopy,
            AssignInHole,
        ]
    }
}

/// Injects allocation corruption `c` into the prepared state: the
/// function `f` (already spill-rewritten) and the assignment `asg` about
/// to be verified. Returns `false` when there is no site (e.g. no
/// precolored variable, no spill code), leaving both untouched.
pub fn inject_alloc(
    f: &mut Function,
    asg: &mut tossa_regalloc::Assignment,
    c: AllocCorruption,
    rng: &mut SplitMix64,
) -> bool {
    match c {
        AllocCorruption::AssignOverlappingInterval => assign_overlapping(f, asg, rng),
        AllocCorruption::ClobberPinnedResource => clobber_pinned(f, asg, rng),
        AllocCorruption::DropReload => drop_reload(f, rng),
        AllocCorruption::DropSplitCopy => drop_split_copy(f, rng),
        AllocCorruption::AssignInHole => assign_in_hole(f, asg, rng),
    }
}

fn assign_in_hole(
    f: &Function,
    asg: &mut tossa_regalloc::Assignment,
    rng: &mut SplitMix64,
) -> bool {
    // Pairs whose per-range lifetimes overlap where at least one side
    // has a lifetime hole: merging them is wrong at a point both ranges
    // cover, yet a hole check that wrongly frees the whole hull gap
    // would wave it through. The hull prefilter alone catches every
    // such pair, so this class discriminates the range walk itself.
    let ivs = tossa_regalloc::intervals::build(f);
    let mut sites: Vec<(Var, Var)> = Vec::new();
    for (k, x) in ivs.items.iter().enumerate() {
        for y in &ivs.items[k + 1..] {
            let holed = ivs.ranges_of(x).len() > 1 || ivs.ranges_of(y).len() > 1;
            if holed
                && f.var(x.var).reg.is_none()
                && f.var(y.var).reg.is_none()
                && asg.get(x.var).is_some()
                && asg.get(y.var).is_some()
                && asg.get(x.var) != asg.get(y.var)
                && ivs.overlap(x, y)
            {
                sites.push((x.var, y.var));
            }
        }
    }
    let Some((a, b)) = pick(rng, &sites) else {
        return false;
    };
    let Some(stolen) = asg.get(b) else {
        return false;
    };
    asg.set(a, stolen);
    true
}

fn assign_overlapping(
    f: &Function,
    asg: &mut tossa_regalloc::Assignment,
    rng: &mut SplitMix64,
) -> bool {
    // Two distinct unpinned variables used by one instruction are
    // simultaneously live at its use point; give the first the second's
    // register.
    let mut sites: Vec<(Var, Var)> = Vec::new();
    for (_, i) in f.all_insts() {
        let uses = &f.inst(i).uses;
        for (k, a) in uses.iter().enumerate() {
            for b in &uses[k + 1..] {
                if a.var != b.var
                    && f.var(a.var).reg.is_none()
                    && f.var(b.var).reg.is_none()
                    && asg.get(a.var) != asg.get(b.var)
                    && asg.get(b.var).is_some()
                {
                    sites.push((a.var, b.var));
                }
            }
        }
    }
    let Some((a, b)) = pick(rng, &sites) else {
        return false;
    };
    let Some(stolen) = asg.get(b) else {
        return false;
    };
    asg.set(a, stolen);
    true
}

fn clobber_pinned(
    f: &Function,
    asg: &mut tossa_regalloc::Assignment,
    rng: &mut SplitMix64,
) -> bool {
    let pinned: Vec<Var> = {
        let mut seen = std::collections::HashSet::new();
        f.all_insts()
            .flat_map(|(_, i)| f.inst(i).operands().map(|o| o.var).collect::<Vec<_>>())
            .filter(|&v| seen.insert(v) && f.var(v).reg.is_some())
            .collect()
    };
    let Some(v) = pick(rng, &pinned) else {
        return false;
    };
    let Some(have) = f.var(v).reg else {
        return false;
    };
    let Some(other) = f.machine.regs().find(|&r| r != have) else {
        return false;
    };
    asg.set(v, other);
    true
}

fn drop_reload(f: &mut Function, rng: &mut SplitMix64) -> bool {
    let sites: Vec<_> = f
        .all_insts()
        .filter(|&(_, i)| f.inst(i).opcode == Opcode::SpillLoad)
        .collect();
    let Some((b, i)) = pick(rng, &sites) else {
        return false;
    };
    f.remove_inst(b, i);
    true
}

fn drop_split_copy(f: &mut Function, rng: &mut SplitMix64) -> bool {
    // Boundary reloads inserted by a live-range split define the `.s`
    // hot sub-web; any other reload defines a `.r` use temporary.
    let sites: Vec<_> = f
        .all_insts()
        .filter(|&(_, i)| {
            let inst = f.inst(i);
            inst.opcode == Opcode::SpillLoad
                && inst
                    .defs
                    .first()
                    .is_some_and(|o| f.var(o.var).name.ends_with(".s"))
        })
        .map(|(_, i)| i)
        .collect();
    let Some(i) = pick(rng, &sites) else {
        return false;
    };
    let unpaired = f
        .all_insts()
        .filter(|&(_, j)| matches!(f.inst(j).opcode, Opcode::SpillLoad | Opcode::SpillStore))
        .map(|(_, j)| f.inst(j).imm)
        .max()
        .unwrap_or(0)
        + 1;
    *f.inst_mut(i).imm = unpaired;
    true
}

fn reorder_parallel_copy(f: &mut Function, rng: &mut SplitMix64) -> bool {
    // Adjacent move pairs where the first reads the variable the second
    // overwrites: correct sequentialization ordered the read before the
    // overwrite, so swapping makes the first move read the new value.
    let mut sites = Vec::new();
    for b in f.blocks() {
        let insts: Vec<_> = f.block_insts(b).collect();
        for w in insts.windows(2) {
            let (a, c) = (f.inst(w[0]), f.inst(w[1]));
            if a.opcode.is_move()
                && c.opcode.is_move()
                && a.uses[0].var == c.defs[0].var
                && a.defs[0].var != c.defs[0].var
            {
                sites.push((b, w[0], w[1]));
            }
        }
    }
    let Some((b, i, j)) = pick(rng, &sites) else {
        return false;
    };
    let list = &mut f.block_mut(b).insts;
    let (Some(pi), Some(pj)) = (
        list.iter().position(|&x| x == i),
        list.iter().position(|&x| x == j),
    ) else {
        return false;
    };
    list.swap(pi, pj);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checked::{check_form, IrForm, PassGuard};
    use crate::error::VerifyError;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    fn parse(text: &str) -> Function {
        parse_function(text, &Machine::dsp32()).unwrap()
    }

    /// A function with a multi-argument φ, interfering values, and (after
    /// reconstruction) a dependent copy chain — a site for every class.
    fn specimen() -> Function {
        parse(
            "func @chaos {
entry:
  %a, %b, %n = input
  %z = make 0
  jump head
head:
  %x = phi [entry: %a], [latch: %y]
  %y = phi [entry: %b], [latch: %x]
  %i = phi [entry: %z], [latch: %i2]
  %i2 = addi %i, 1
  %c = cmplt %i2, %n
  br %c, latch, exit
latch:
  jump head
exit:
  ret %x, %y
}",
        )
    }

    #[test]
    fn every_class_has_a_site_on_the_specimen() {
        for (k, &c) in Corruption::all().iter().enumerate() {
            let mut f = specimen();
            if c == Corruption::ReorderParallelCopy {
                crate::reconstruct::out_of_pinned_ssa(&mut f);
            }
            let mut rng = SplitMix64::seed_from_u64(k as u64);
            assert!(inject(&mut f, c, &mut rng), "{c:?} found no site");
        }
    }

    #[test]
    fn drop_phi_arg_caught_by_validate() {
        let mut f = specimen();
        let mut rng = SplitMix64::seed_from_u64(1);
        assert!(inject(&mut f, Corruption::DropPhiArg, &mut rng));
        let e = check_form(&f, IrForm::Ssa).unwrap_err();
        assert!(matches!(e, VerifyError::Structural(_)), "{e}");
    }

    #[test]
    fn double_def_caught_by_verify_ssa() {
        let mut f = specimen();
        let mut rng = SplitMix64::seed_from_u64(2);
        assert!(inject(&mut f, Corruption::DoubleDef, &mut rng));
        let e = check_form(&f, IrForm::Ssa).unwrap_err();
        assert!(matches!(e, VerifyError::Ssa(_)), "{e}");
    }

    #[test]
    fn undefined_use_caught_by_verify_ssa() {
        let mut f = specimen();
        let mut rng = SplitMix64::seed_from_u64(3);
        assert!(inject(&mut f, Corruption::UndefinedUse, &mut rng));
        let e = check_form(&f, IrForm::Ssa).unwrap_err();
        assert!(matches!(e, VerifyError::Ssa(_)), "{e}");
    }

    #[test]
    fn merged_webs_caught_by_check_pinning() {
        let mut f = specimen();
        let mut rng = SplitMix64::seed_from_u64(4);
        assert!(inject(&mut f, Corruption::MergeInterferingWebs, &mut rng));
        let e = check_form(&f, IrForm::PinnedSsa).unwrap_err();
        assert!(matches!(e, VerifyError::Pin(_)), "{e}");
    }

    #[test]
    fn reordered_copies_caught_by_differential_execution() {
        // The swap loop's latch copies form a dependency chain after
        // sequentialization; reordering them changes the outputs.
        let mut f = specimen();
        crate::reconstruct::out_of_pinned_ssa(&mut f);
        let inputs: Vec<Vec<i64>> = vec![vec![7, 9, 1], vec![7, 9, 2], vec![7, 9, 5]];
        let guard = PassGuard::before(&f, &inputs, 100_000);
        let mut rng = SplitMix64::seed_from_u64(5);
        assert!(inject(&mut f, Corruption::ReorderParallelCopy, &mut rng));
        let e = guard.check(&f, IrForm::NonSsa).unwrap_err();
        assert!(
            matches!(e, VerifyError::Divergence { .. }),
            "expected divergence, got {e}"
        );
    }

    #[test]
    fn no_site_leaves_the_function_untouched() {
        let f0 = parse("func @tiny {\nentry:\n  %a = input\n  ret %a\n}");
        for (k, &c) in [Corruption::DropPhiArg, Corruption::ReorderParallelCopy]
            .iter()
            .enumerate()
        {
            let mut f = f0.clone();
            let mut rng = SplitMix64::seed_from_u64(k as u64);
            assert!(!inject(&mut f, c, &mut rng), "{c:?}");
            assert_eq!(f.to_string(), f0.to_string());
        }
    }

    /// Prepares a function for allocation-fault injection: parse,
    /// allocate up to the assignment (spill code in place), assignment
    /// ready to corrupt.
    fn prepared_for_alloc(text: &str) -> (Function, tossa_regalloc::Assignment) {
        let mut f = parse(text);
        let prep = tossa_regalloc::prepare(&mut f, &tossa_regalloc::AllocOptions::default())
            .expect("allocation prepares");
        (f, prep.assignment)
    }

    /// High register pressure: forces spill code so [`AllocCorruption::DropReload`]
    /// has a site.
    fn pressure_specimen_text() -> String {
        let mut text = String::from("func @hp {\nentry:\n  %i = input\n");
        for k in 0..24 {
            text.push_str(&format!("  %v{k} = addi %i, {k}\n"));
        }
        text.push_str("  %s = make 0\n");
        for k in 0..24 {
            text.push_str(&format!("  %s = add %s, %v{k}\n"));
        }
        text.push_str("  ret %s\n}\n");
        text
    }

    #[test]
    fn assign_overlapping_interval_caught_as_register_overlap() {
        let (mut f, mut asg) = prepared_for_alloc(
            "func @a {\nentry:\n  %a, %b = input\n  %c = add %a, %b\n  ret %c\n}",
        );
        let mut rng = SplitMix64::seed_from_u64(7);
        assert!(inject_alloc(
            &mut f,
            &mut asg,
            AllocCorruption::AssignOverlappingInterval,
            &mut rng
        ));
        let e = tossa_regalloc::verify_allocation(&f, &asg).unwrap_err();
        assert!(
            matches!(e, tossa_regalloc::AllocError::RegisterOverlap { .. }),
            "{e}"
        );
    }

    #[test]
    fn clobber_pinned_resource_caught_as_pin_clobbered() {
        let (mut f, mut asg) = prepared_for_alloc(
            "func @p {\nentry:\n  R0, %b = input\n  %c = add R0, %b\n  ret %c\n}",
        );
        let mut rng = SplitMix64::seed_from_u64(8);
        assert!(inject_alloc(
            &mut f,
            &mut asg,
            AllocCorruption::ClobberPinnedResource,
            &mut rng
        ));
        let e = tossa_regalloc::verify_allocation(&f, &asg).unwrap_err();
        assert!(
            matches!(e, tossa_regalloc::AllocError::PinClobbered { .. }),
            "{e}"
        );
    }

    #[test]
    fn drop_reload_caught_as_undefined_use() {
        let (mut f, mut asg) = prepared_for_alloc(&pressure_specimen_text());
        let mut rng = SplitMix64::seed_from_u64(9);
        assert!(inject_alloc(
            &mut f,
            &mut asg,
            AllocCorruption::DropReload,
            &mut rng
        ));
        let e = tossa_regalloc::verify_allocation(&f, &asg).unwrap_err();
        assert!(
            matches!(e, tossa_regalloc::AllocError::UndefinedUse { .. }),
            "{e}"
        );
    }

    /// Pressure shaped so the cost-driven allocator must split: six
    /// webs crossing a loop (weight 7 = entry def + body use ×5 + cold
    /// use) against sixteen heavier short webs (weight 9, dead before
    /// the loop) overflow the register file inside the entry block, so
    /// the cheapest normalized victims are exactly the loop-crossing
    /// webs and their conflict point lies outside the loop — the split
    /// precondition — while the hot sub-webs face no pressure and stay
    /// register-resident.
    fn split_specimen_text() -> String {
        let mut text = String::from("func @sp {\nentry:\n  %n = input\n");
        for k in 0..6 {
            text.push_str(&format!("  %h{k} = addi %n, {k}\n"));
        }
        text.push_str("  %t = make 0\n");
        for k in 0..16 {
            text.push_str(&format!("  %c{k} = addi %n, {}\n", 100 + k));
        }
        for k in 0..16 {
            for _ in 0..8 {
                text.push_str(&format!("  %t = add %t, %c{k}\n"));
            }
        }
        text.push_str("  %z = mov %t\n  jump head\nhead:\n");
        text.push_str("  %cc = cmplt %z, %n\n  br %cc, body, mid\nbody:\n");
        for k in 0..6 {
            text.push_str(&format!("  %z = add %z, %h{k}\n"));
        }
        text.push_str("  jump head\nmid:\n  %s = mov %z\n");
        for k in 0..6 {
            text.push_str(&format!("  %s = add %s, %h{k}\n"));
        }
        text.push_str("  ret %s\n}\n");
        text
    }

    /// A web (%a) with a lifetime hole — dead between its last use and
    /// its redefinition — plus a web (%c) live across that hole: the
    /// [`AllocCorruption::AssignInHole`] site shape.
    fn hole_specimen_text() -> &'static str {
        "func @ih {
entry:
  %a, %p = input
  %b = add %a, %a
  %c = add %b, %p
  %a = make 5
  %r = add %a, %c
  ret %r
}"
    }

    #[test]
    fn assign_in_hole_caught_as_register_overlap() {
        let (mut f, mut asg) = prepared_for_alloc(hole_specimen_text());
        let mut rng = SplitMix64::seed_from_u64(12);
        assert!(
            inject_alloc(&mut f, &mut asg, AllocCorruption::AssignInHole, &mut rng),
            "the specimen offers no holed overlapping pair:\n{f}"
        );
        let e = tossa_regalloc::verify_allocation(&f, &asg).unwrap_err();
        assert!(
            matches!(e, tossa_regalloc::AllocError::RegisterOverlap { .. }),
            "{e}"
        );
    }

    #[test]
    fn drop_split_copy_caught_as_unpaired_slot() {
        let (mut f, mut asg) = prepared_for_alloc(&split_specimen_text());
        let mut rng = SplitMix64::seed_from_u64(11);
        assert!(
            inject_alloc(&mut f, &mut asg, AllocCorruption::DropSplitCopy, &mut rng),
            "the specimen never split:\n{f}"
        );
        let e = tossa_regalloc::verify_allocation(&f, &asg).unwrap_err();
        assert!(
            matches!(e, tossa_regalloc::AllocError::UnpairedSlot { .. }),
            "{e}"
        );
    }

    #[test]
    fn alloc_classes_without_sites_leave_state_untouched() {
        // No pinned variables and no spill code: three of the four
        // classes have no site.
        let (mut f, mut asg) = prepared_for_alloc("func @n {\nentry:\n  %a = input\n  ret %a\n}");
        let before = f.to_string();
        let asg0 = asg.clone();
        let mut rng = SplitMix64::seed_from_u64(10);
        for c in [
            AllocCorruption::ClobberPinnedResource,
            AllocCorruption::DropReload,
            AllocCorruption::DropSplitCopy,
            AllocCorruption::AssignInHole,
        ] {
            assert!(!inject_alloc(&mut f, &mut asg, c, &mut rng), "{c:?}");
        }
        assert_eq!(f.to_string(), before);
        assert_eq!(asg, asg0);
    }

    #[test]
    fn catcher_map_covers_all_classes() {
        use std::collections::HashSet;
        let catchers: HashSet<_> = Corruption::all()
            .iter()
            .map(|c| format!("{:?}", c.caught_by()))
            .collect();
        assert_eq!(catchers.len(), 4, "all four verifiers exercised");
    }
}
