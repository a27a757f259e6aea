//! Spill rewriting through the stack-slot model.
//!
//! Two rewrites live here, both driven by the spill loop in
//! [`crate::prepare`], and both visiting only the blocks they are given:
//! the blocks where the victim occurs ([`crate::cost::SpillCosts`]
//! records them). Spilling a web only ever touches that web's
//! occurrences, so no other block needs to be rebuilt.
//!
//! - **Spill-everywhere** ([`rewrite_spills_in`]): each evicted variable
//!   gets one stack slot for the whole function. Every instruction that
//!   reads it gets a fresh reload temporary (`tmp = spillld slot`)
//!   inserted just before it; every instruction that writes it gets a
//!   fresh store temporary followed by `spillst tmp, slot`. Temporaries
//!   live for exactly one instruction, are recorded as unspillable, and
//!   shrink register pressure at every original program point — which
//!   is what makes the spill-and-rescan loop terminate. The
//!   live-range-splitting layer ([`crate::split`]) runs the same rewrite
//!   over the occurrence blocks outside a region, for the cold side of a
//!   split web.
//! - **Rematerialization** ([`rematerialize`]): a web whose single def is
//!   a pure `make` is re-issued before each use instead of reloaded, and
//!   its original def deleted — no slot, no memory traffic.
//!
//! Blocks are visited in the order given, which callers keep increasing,
//! so temporaries are created (and numbered) in program order.

use tossa_ir::ids::{Block, Var};
use tossa_ir::instr::{InstData, Operand};
use tossa_ir::{Function, Opcode};

use crate::VarSet;

/// Rewrites each `(var, slot)` of `pairs` through its stack slot in
/// `blocks`, which must hold every occurrence of those variables that is
/// to be rewritten. Returns `(stores, reloads)` inserted; the fresh
/// temporaries are added to `temps`.
pub fn rewrite_spills_in(
    f: &mut Function,
    pairs: &[(Var, i64)],
    blocks: &[Block],
    temps: &mut VarSet,
) -> (usize, usize) {
    let slot_of = |v: Var| pairs.iter().find(|&&(p, _)| p == v).map(|&(_, s)| s);
    let mut stores = 0usize;
    let mut reloads = 0usize;
    // Per-instruction scratch, reused: (spilled var, its temporary) for
    // the reloads before the instruction, and (spilled var, slot, its
    // temporary) for the stores after it.
    let mut reload_tmp: Vec<(Var, Var)> = Vec::new();
    let mut store_after: Vec<(Var, i64, Var)> = Vec::new();

    for &b in blocks {
        let old = std::mem::take(&mut f.block_mut(b).insts);
        let mut new_list = Vec::with_capacity(old.len() + 2);
        for &i in &old {
            // One reload temp per distinct spilled variable used here.
            reload_tmp.clear();
            for k in 0..f.uses(i).len() {
                let v = f.uses(i)[k].var;
                let Some(slot) = slot_of(v) else {
                    continue;
                };
                if reload_tmp.iter().any(|&(u, _)| u == v) {
                    continue;
                }
                let tmp = f.new_var(format!("{}.r", f.var(v).name));
                temps.insert(tmp);
                let ld = InstData::new(Opcode::SpillLoad)
                    .with_defs(vec![Operand::new(tmp)])
                    .with_imm(slot);
                new_list.push(f.alloc_inst(ld));
                reload_tmp.push((v, tmp));
                reloads += 1;
            }
            // Fresh store temp per spilled def. Should one instruction
            // define a variable twice, the last temp stands for both.
            store_after.clear();
            for k in 0..f.defs(i).len() {
                let v = f.defs(i)[k].var;
                if let Some(slot) = slot_of(v) {
                    let tmp = f.new_var(format!("{}.w", f.var(v).name));
                    temps.insert(tmp);
                    store_after.push((v, slot, tmp));
                }
            }
            let store_tmp = |v: Var| {
                store_after
                    .iter()
                    .rev()
                    .find(|&&(u, _, _)| u == v)
                    .map(|&(_, _, tmp)| tmp)
            };
            let inst = f.inst_mut(i);
            for o in inst.uses.iter_mut() {
                if let Some(&(_, tmp)) = reload_tmp.iter().find(|&&(u, _)| u == o.var) {
                    o.var = tmp;
                }
            }
            for o in inst.defs.iter_mut() {
                if let Some(tmp) = store_tmp(o.var) {
                    o.var = tmp;
                }
            }
            new_list.push(i);
            for &(v, slot, _) in &store_after {
                let tmp = store_tmp(v).expect("recorded above");
                let st = InstData::new(Opcode::SpillStore)
                    .with_uses(vec![Operand::new(tmp)])
                    .with_imm(slot);
                new_list.push(f.alloc_inst(st));
                stores += 1;
            }
        }
        f.block_mut(b).insts = new_list;
    }
    (stores, reloads)
}

/// Rematerializes `v` (single def `make imm`) in `blocks`, the blocks
/// holding its occurrences: re-issues the `make` into a fresh
/// one-instruction temporary before every use and deletes the original
/// def, eliminating `v` without a stack slot. Returns the number of
/// re-issued defs. The temporaries join `temps` (unspillable, like
/// reload temps).
pub fn rematerialize(
    f: &mut Function,
    v: Var,
    imm: i64,
    blocks: &[Block],
    temps: &mut VarSet,
) -> usize {
    let mut remats = 0usize;
    for &b in blocks {
        let old = std::mem::take(&mut f.block_mut(b).insts);
        let mut new_list = Vec::with_capacity(old.len() + 1);
        for &i in &old {
            // Drop the original def: after the rewrite the web has no
            // uses left, and `make` is pure.
            let inst_ref = f.inst(i);
            if inst_ref.opcode == Opcode::Make && inst_ref.defs.iter().any(|o| o.var == v) {
                continue;
            }
            if inst_ref.uses.iter().any(|o| o.var == v) {
                let tmp = f.new_var(format!("{}.m", f.var(v).name));
                temps.insert(tmp);
                let mk = InstData::new(Opcode::Make)
                    .with_defs(vec![Operand::new(tmp)])
                    .with_imm(imm);
                new_list.push(f.alloc_inst(mk));
                for o in f.inst_mut(i).uses.iter_mut() {
                    if o.var == v {
                        o.var = tmp;
                    }
                }
                remats += 1;
            }
            new_list.push(i);
        }
        f.block_mut(b).insts = new_list;
    }
    remats
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::interp;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    #[test]
    fn spilling_a_loop_var_preserves_semantics() {
        let text = "
func @s {
entry:
  %n = input
  %z = make 0
  jump head
head:
  %c = cmplt %z, %n
  br %c, body, exit
body:
  %z = addi %z, 1
  jump head
exit:
  ret %z
}";
        let mut f = parse_function(text, &Machine::dsp32()).unwrap();
        let before = interp::run(&f, &[6], 10_000).unwrap().outputs;
        let z = f.vars().find(|&v| f.var(v).name == "z").unwrap();
        let mut temps = VarSet::default();
        let blocks: Vec<Block> = f.blocks().collect();
        let (st, rl) = rewrite_spills_in(&mut f, &[(z, 0)], &blocks, &mut temps);
        f.validate().unwrap();
        assert!(st >= 2 && rl >= 2, "stores={st} reloads={rl}\n{f}");
        assert!(f.vars().any(|v| temps.contains(v)));
        assert_eq!(
            interp::run(&f, &[6], 10_000).unwrap().outputs,
            before,
            "{f}"
        );
        // The spilled variable no longer appears as an operand.
        for (_, i) in f.all_insts() {
            for o in f.inst(i).operands() {
                assert_ne!(o.var, z, "{f}");
            }
        }
    }

    #[test]
    fn remat_reissues_the_make_and_drops_the_def() {
        let text = "
func @rm {
entry:
  %k = make 9
  %a = input
  %x = add %a, %k
  %y = mul %x, %k
  ret %y
}";
        let mut f = parse_function(text, &Machine::dsp32()).unwrap();
        let before = interp::run(&f, &[3], 100).unwrap().outputs;
        let k = f.vars().find(|&v| f.var(v).name == "k").unwrap();
        let mut temps = VarSet::default();
        let entry = f.entry;
        let n = rematerialize(&mut f, k, 9, &[entry], &mut temps);
        f.validate().unwrap();
        assert_eq!(n, 2, "{f}");
        assert_eq!(f.vars().filter(|&v| temps.contains(v)).count(), 2);
        // The web is gone entirely — no operand, no def, and no spill
        // opcode was introduced.
        for (_, i) in f.all_insts() {
            let inst = f.inst(i);
            assert!(
                !matches!(inst.opcode, Opcode::SpillLoad | Opcode::SpillStore),
                "{f}"
            );
            for o in inst.operands() {
                assert_ne!(o.var, k, "{f}");
            }
        }
        assert_eq!(interp::run(&f, &[3], 100).unwrap().outputs, before, "{f}");
    }
}
