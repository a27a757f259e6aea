//! Independent allocation verifier.
//!
//! Rechecks an [`Assignment`] against the function it was computed for,
//! using nothing from the scan engine except the liveness analysis:
//!
//! - every operand variable has a register ([`AllocError::Unassigned`]);
//! - precolored variables keep their register
//!   ([`AllocError::PinClobbered`]);
//! - no two simultaneously-live variables share a register, including
//!   dead defs clobbering live-through values
//!   ([`AllocError::RegisterOverlap`]) — checked by a per-block backward
//!   scan from `live_exit` that tracks which variable currently owns
//!   each register. The scan is per-program-point precise, which makes
//!   it *hole-aware* by construction: a def releases its register, so
//!   two webs may legally share one as long as each lives inside the
//!   other's lifetime holes — exactly the sharing the per-range
//!   allocator (PR9) produces, and exactly what a hull-based recheck
//!   would wrongly reject;
//! - every `spillld` reads a slot that a `spillst` must have written on
//!   all paths ([`AllocError::UnpairedSlot`]) — a forward must-written
//!   dataflow over slots;
//! - every used variable has a definition
//!   ([`AllocError::UndefinedUse`]), catching dropped reloads.
//!
//! This is the checked-mode contract: chaos-injected allocation faults
//! must surface here as structured errors, never as miscompiles.

use tossa_analysis::{BitSet, Liveness};
use tossa_ir::cfg::Cfg;
use tossa_ir::ids::{EntityId, Var};
use tossa_ir::machine::RegClass;
use tossa_ir::{Function, Opcode};

use crate::{AllocError, Assignment};

/// Verifies `asg` against `f` (still in virtual-register form, possibly
/// with spill code).
///
/// # Errors
/// The first violated invariant, as an [`AllocError`].
pub fn verify_allocation(f: &Function, asg: &Assignment) -> Result<(), AllocError> {
    // Assignment completeness, pin preservation, definedness.
    let mut defined = vec![false; f.num_vars()];
    let mut used = vec![false; f.num_vars()];
    for (_, i) in f.all_insts() {
        let inst = f.inst(i);
        for o in inst.defs {
            defined[o.var.index()] = true;
        }
        for o in inst.uses {
            used[o.var.index()] = true;
        }
        for o in inst.operands() {
            let v = o.var;
            let r = asg.get(v).ok_or(AllocError::Unassigned { var: v })?;
            if let Some(pinned) = f.var(v).reg {
                if pinned != r {
                    return Err(AllocError::PinClobbered {
                        var: v,
                        pinned,
                        got: r,
                    });
                }
            }
        }
    }
    for idx in 0..f.num_vars() {
        if used[idx] && !defined[idx] {
            let v = Var::new(idx);
            let special = f
                .var(v)
                .reg
                .map(|r| f.machine.reg_class(r) == RegClass::Special)
                .unwrap_or(false);
            if !special {
                return Err(AllocError::UndefinedUse { var: v });
            }
        }
    }

    let cfg = Cfg::compute(f);
    let live = Liveness::compute(f, &cfg);

    // Register-overlap check: backward per-block scan tracking the
    // variable owning each register. One dense 256-entry ownership table
    // is reused across blocks (reg ids are `u8`), cleared per block.
    let mut owner: Vec<Option<Var>> = vec![None; 256];
    let mut exit: BitSet<Var> = BitSet::new(f.num_vars());
    for b in f.blocks() {
        owner.fill(None);
        let claim = |owner: &mut [Option<Var>], v: Var| -> Result<(), AllocError> {
            let r = asg.get(v).ok_or(AllocError::Unassigned { var: v })?;
            match owner[r.0 as usize] {
                Some(w) if w != v => Err(AllocError::RegisterOverlap { reg: r, a: v, b: w }),
                _ => {
                    owner[r.0 as usize] = Some(v);
                    Ok(())
                }
            }
        };
        live.live_exit_into(f, b, &mut exit);
        for v in exit.iter() {
            claim(&mut owner, v)?;
        }
        for &i in f.block(b).insts.iter().rev() {
            let inst = f.inst(i);
            // A def clobbers whatever holds its register, so the holder
            // must be the defined variable itself (or nothing). Dead
            // defs clobber too. Defs per instruction are few, so the
            // duplicate-register check is a linear pass over the prefix.
            for (k, o) in inst.defs.iter().enumerate() {
                let v = o.var;
                let r = asg.get(v).ok_or(AllocError::Unassigned { var: v })?;
                for prev in &inst.defs[..k] {
                    let w = prev.var;
                    if asg.get(w) == Some(r) {
                        return Err(AllocError::RegisterOverlap { reg: r, a: v, b: w });
                    }
                }
                if let Some(w) = owner[r.0 as usize] {
                    if w != v {
                        return Err(AllocError::RegisterOverlap { reg: r, a: v, b: w });
                    }
                }
            }
            for o in inst.defs {
                let r = asg.get(o.var).unwrap();
                if owner[r.0 as usize] == Some(o.var) {
                    owner[r.0 as usize] = None;
                }
            }
            for o in inst.uses {
                claim(&mut owner, o.var)?;
            }
        }
    }

    verify_slots(f, &cfg)
}

/// A spill slot's dense index: the rank of its slot number among the
/// distinct slot numbers the function uses.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Slot(usize);

impl EntityId for Slot {
    fn from_index(index: usize) -> Self {
        Slot(index)
    }
    fn index(self) -> usize {
        self.0
    }
}

/// Must-written forward dataflow over spill slots: a `spillld` of a slot
/// not written on every path to it is an [`AllocError::UnpairedSlot`].
fn verify_slots(f: &Function, cfg: &Cfg) -> Result<(), AllocError> {
    let mut numbers: Vec<i64> = Vec::new();
    for (_, i) in f.all_insts() {
        if matches!(f.opcode(i), Opcode::SpillStore | Opcode::SpillLoad) {
            numbers.push(f.inst(i).imm);
        }
    }
    if numbers.is_empty() {
        return Ok(());
    }
    numbers.sort_unstable();
    numbers.dedup();
    let n = numbers.len();
    let slot = |imm: i64| Slot(numbers.binary_search(&imm).expect("collected above"));
    // stored[b]: the slots `b` stores to.
    let mut stored: Vec<BitSet<Slot>> = (0..f.num_blocks()).map(|_| BitSet::new(n)).collect();
    for b in f.blocks() {
        for i in f.block_insts(b) {
            if f.opcode(i) == Opcode::SpillStore {
                stored[b.index()].insert(slot(f.inst(i).imm));
            }
        }
    }
    // in[entry] = ∅, in[b] = ∩ preds out; out[b] = in[b] ∪ stored[b].
    let mut all = BitSet::new(n);
    for k in 0..n {
        all.insert(Slot(k));
    }
    let mut written_in: Vec<BitSet<Slot>> = vec![all; f.num_blocks()];
    written_in[f.entry.index()].clear();
    let (mut inb, mut out) = (BitSet::new(n), BitSet::new(n));
    let mut changed = true;
    while changed {
        changed = false;
        for &b in cfg.rpo() {
            let preds = cfg.preds(b);
            if b == f.entry || preds.is_empty() {
                inb.clear();
            } else {
                inb.clone_from(&written_in[preds[0].index()]);
                inb.union_with(&stored[preds[0].index()]);
                for &p in &preds[1..] {
                    out.clone_from(&written_in[p.index()]);
                    out.union_with(&stored[p.index()]);
                    inb.intersect_with(&out);
                }
            }
            if inb != written_in[b.index()] {
                written_in[b.index()].clone_from(&inb);
                changed = true;
            }
        }
    }
    for b in f.blocks() {
        let cur = &mut written_in[b.index()];
        for i in f.block_insts(b) {
            let inst = f.inst(i);
            match inst.opcode {
                Opcode::SpillLoad if !cur.contains(slot(inst.imm)) => {
                    return Err(AllocError::UnpairedSlot { slot: inst.imm });
                }
                Opcode::SpillStore => {
                    cur.insert(slot(inst.imm));
                }
                _ => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::tests::scan_once;
    use crate::AllocOptions;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    fn prepared(text: &str) -> (Function, Assignment) {
        let mut f = parse_function(text, &Machine::dsp32()).unwrap();
        let prep = crate::prepare(&mut f, &AllocOptions::default()).unwrap();
        (f, prep.assignment)
    }

    #[test]
    fn clean_allocation_verifies() {
        let (f, asg) =
            prepared("func @v {\nentry:\n  %a, %b = input\n  %c = add %a, %b\n  ret %c\n}");
        verify_allocation(&f, &asg).unwrap();
    }

    #[test]
    fn forced_overlap_is_reported() {
        let (f, mut asg) =
            prepared("func @o {\nentry:\n  %a, %b = input\n  %c = add %a, %b\n  ret %c\n}");
        // Force %a and %b onto one register: both live at the add.
        let a = f.vars().find(|&v| &*f.var(v).name == "a").unwrap();
        let b = f.vars().find(|&v| &*f.var(v).name == "b").unwrap();
        asg.set(a, asg.get(b).unwrap());
        let e = verify_allocation(&f, &asg).unwrap_err();
        assert!(matches!(e, AllocError::RegisterOverlap { .. }), "{e}");
    }

    #[test]
    fn dead_def_clobber_is_reported() {
        let (f, mut asg) = prepared(
            "func @d {\nentry:\n  %a = input\n  %dead = make 7\n  %s = addi %a, 1\n  ret %s\n}",
        );
        // %dead's def clobbers %a, which is live across it.
        let a = f.vars().find(|&v| &*f.var(v).name == "a").unwrap();
        let dead = f.vars().find(|&v| &*f.var(v).name == "dead").unwrap();
        asg.set(dead, asg.get(a).unwrap());
        let e = verify_allocation(&f, &asg).unwrap_err();
        assert!(matches!(e, AllocError::RegisterOverlap { .. }), "{e}");
    }

    /// Hole-aware acceptance: two webs whose hulls overlap but whose
    /// ranges do not (one lives entirely inside the other's lifetime
    /// hole) may share a register. The per-point owner scan releases
    /// the register at the hole boundary, so no overlap is reported.
    #[test]
    fn hole_sharing_assignment_verifies() {
        let (f, mut asg) = prepared(
            "func @hs {
entry:
  %a = input
  %b = add %a, %a
  %c = add %b, %b
  %a = make 1
  %r = add %a, %c
  ret %r
}",
        );
        let a = f.vars().find(|&v| &*f.var(v).name == "a").unwrap();
        let b = f.vars().find(|&v| &*f.var(v).name == "b").unwrap();
        // %b lives in %a's hole (between %a's last use and its
        // redefinition): sharing %a's register is legal.
        asg.set(b, asg.get(a).unwrap());
        verify_allocation(&f, &asg).unwrap();
        // But %c overlaps %a's second life at the final add: sharing
        // with it must still be rejected.
        let c = f.vars().find(|&v| &*f.var(v).name == "c").unwrap();
        asg.set(c, asg.get(a).unwrap());
        let e = verify_allocation(&f, &asg).unwrap_err();
        assert!(matches!(e, AllocError::RegisterOverlap { .. }), "{e}");
    }

    #[test]
    fn clobbered_pin_is_reported() {
        let (f, mut asg) =
            prepared("func @p {\nentry:\n  R0, %b = input\n  %c = add R0, %b\n  ret %c\n}");
        let pinned = f.vars().find(|&v| f.var(v).reg.is_some()).unwrap();
        let other = Machine::dsp32().reg_by_name("R9").unwrap();
        asg.set(pinned, other);
        let e = verify_allocation(&f, &asg).unwrap_err();
        assert!(matches!(e, AllocError::PinClobbered { .. }), "{e}");
    }

    #[test]
    fn load_before_store_is_an_unpaired_slot() {
        let f = parse_function(
            "func @u {\nentry:\n  %x = spillld 0\n  spillst %x, 0\n  ret %x\n}",
            &Machine::dsp32(),
        )
        .unwrap();
        let asg = match scan_once(&f) {
            Ok(a) => a,
            Err(e) => panic!("{e:?}"),
        };
        let e = verify_allocation(&f, &asg).unwrap_err();
        assert!(matches!(e, AllocError::UnpairedSlot { slot: 0 }), "{e}");
    }

    #[test]
    fn undefined_use_is_reported() {
        let f = parse_function(
            "func @uu {\nentry:\n  %g = input\n  %h = add %g, %never\n  ret %h\n}",
            &Machine::dsp32(),
        )
        .unwrap();
        let asg = scan_once(&f).unwrap();
        let e = verify_allocation(&f, &asg).unwrap_err();
        assert!(matches!(e, AllocError::UndefinedUse { .. }), "{e}");
    }

    #[test]
    fn branchy_code_verifies() {
        let (f, asg) = prepared(
            "
func @g {
entry:
  %a, %b = input
  %c = cmplt %a, %b
  br %c, t, e
t:
  %r = sub %b, %a
  jump done
e:
  %r = sub %a, %b
  jump done
done:
  ret %r
}",
        );
        verify_allocation(&f, &asg).unwrap();
    }
}
