//! SSA construction: Cytron et al. φ placement on iterated dominance
//! frontiers, pruned by liveness (the paper uses pruned SSA \[4\]), followed
//! by renaming along the dominator tree.

use tossa_analysis::{DomFrontiers, DomTree, IdfScratch, Liveness};
use tossa_ir::cfg::Cfg;
use tossa_ir::ids::{group_by_key, Block, Var};
use tossa_ir::instr::{InstData, Operand};
use tossa_ir::{Function, Opcode};

/// Converts `f` (arbitrary multiple-assignment code) into pruned SSA form
/// in place.
///
/// Every inserted φ and every renamed definition produces a fresh variable
/// whose [`origin`](tossa_ir::function::VarData::origin) points at the
/// pre-SSA variable — constraint collection later uses this to find the
/// web of a dedicated register such as `SP`.
///
/// Uses reachable only along paths with no prior definition keep the
/// original variable (executing them traps in the interpreter, as
/// before).
/// # Panics
/// Panics if `f` already contains φ instructions: construction renames
/// from scratch and does not merge with pre-existing φs.
pub fn to_ssa(f: &mut Function) {
    assert!(
        !has_phis(f),
        "to_ssa input must not contain φ instructions (function {})",
        f.name
    );
    let cfg = Cfg::compute(f);
    let dt = DomTree::compute(f, &cfg);
    let df = DomFrontiers::compute(f, &cfg, &dt);
    let live = Liveness::compute(f, &cfg);
    let num_orig = f.num_vars();

    // Definition blocks per variable in compressed sparse row form, each
    // row in block order (`all_insts` visits a block's instructions
    // contiguously, so a repeat is always the variable's last block).
    let mut last_def: Vec<Option<Block>> = vec![None; num_orig];
    let mut defs: Vec<(u32, Block)> = Vec::new();
    for (b, i) in f.all_insts() {
        for d in f.defs(i) {
            if last_def[d.var.index()] != Some(b) {
                last_def[d.var.index()] = Some(b);
                defs.push((d.var.index() as u32, b));
            }
        }
    }
    let (def_at, def_blocks) = group_by_key(num_orig, &defs);

    // The φ predecessor list of every block: its distinct predecessors
    // in block order. `Cfg::preds` lists them in block order already,
    // with a block twice in a row when both branch targets reach `b`.
    let mut preds_at = Vec::with_capacity(f.num_blocks() + 1);
    let mut distinct_preds: Vec<Block> = Vec::new();
    preds_at.push(0);
    for b in f.blocks() {
        let row = distinct_preds.len();
        for &p in cfg.preds(b) {
            if distinct_preds[row..].last() != Some(&p) {
                distinct_preds.push(p);
            }
        }
        preds_at.push(distinct_preds.len());
    }

    // φ insertion on the pruned iterated dominance frontier, variable by
    // variable. The φs get consecutive arena ids from `first_phi`, and
    // `phi_orig[k]` is the variable the `k`-th one merges.
    let first_phi = f.num_insts();
    let mut phi_orig: Vec<Var> = Vec::new();
    let mut idf = IdfScratch::default();
    for v in (0..num_orig).map(Var::new) {
        let blocks = &def_blocks[def_at[v.index()] as usize..def_at[v.index() + 1] as usize];
        if blocks.is_empty() {
            continue;
        }
        let seeds = blocks.iter().copied().filter(|&b| dt.is_reachable(b));
        for &join in df.iterated(seeds, &mut idf) {
            // Pruned SSA: only where the variable is live-in.
            if !live.live_in(join).contains(v) {
                continue;
            }
            let preds = &distinct_preds[preds_at[join.index()]..preds_at[join.index() + 1]];
            let phi = InstData {
                defs: vec![Operand::new(v)],
                uses: vec![Operand::new(v); preds.len()],
                phi_preds: preds.to_vec(),
                ..InstData::new(Opcode::Phi)
            };
            f.insert_inst(join, 0, phi);
            phi_orig.push(v);
        }
    }

    // Renaming along the dominator tree (iterative, enter/exit events).
    // `current[v]` is the version of original variable `v` in scope (`v`
    // itself before any definition), and `undo` logs the
    // `(variable, previous version)` of every definition renamed so far.
    let mut current: Vec<Var> = (0..num_orig).map(Var::new).collect();
    let mut undo: Vec<(Var, Var)> = Vec::new();
    enum Event {
        Enter(Block),
        /// Restore every version replaced since `undo` had this length.
        Exit(usize),
    }
    let mut events = vec![Event::Enter(f.entry)];

    while let Some(ev) = events.pop() {
        match ev {
            Event::Enter(b) => {
                events.push(Event::Exit(undo.len()));
                for k in 0..f.block(b).insts.len() {
                    let i = f.block(b).insts[k];
                    if !f.opcode(i).is_phi() {
                        // Rewrite uses to the current version.
                        for u in f.inst_mut(i).uses.iter_mut() {
                            if u.var.index() < num_orig {
                                u.var = current[u.var.index()];
                            }
                        }
                    }
                    // Rewrite defs to fresh versions.
                    for k in 0..f.defs(i).len() {
                        let v = f.defs(i)[k].var;
                        if v.index() < num_orig {
                            let new = f.new_var_version(v);
                            undo.push((v, current[v.index()]));
                            current[v.index()] = new;
                            f.inst_mut(i).defs[k].var = new;
                        }
                    }
                }
                // Fill φ arguments of successors for the edge b -> s.
                for si in 0..f.succs(b).len() {
                    let s = f.succs(b)[si];
                    for k in 0..f.first_non_phi(s) {
                        let phi = f.block(s).insts[k];
                        let top = current[phi_orig[phi.index() - first_phi].index()];
                        let inst = f.inst_mut(phi);
                        for (slot, &p) in inst.phi_preds.iter().enumerate() {
                            if p == b {
                                inst.uses[slot].var = top;
                            }
                        }
                    }
                }
                // Recurse into dominator-tree children.
                for &c in dt.children(b) {
                    events.push(Event::Enter(c));
                }
            }
            Event::Exit(mark) => {
                for (v, prev) in undo.drain(mark..).rev() {
                    current[v.index()] = prev;
                }
            }
        }
    }
}

/// Returns true if `f` contains at least one φ.
pub fn has_phis(f: &Function) -> bool {
    f.all_insts().any(|(_, i)| f.inst(i).is_phi())
}

/// Counts the φ instructions of `f`.
pub fn count_phis(f: &Function) -> usize {
    f.all_insts().filter(|&(_, i)| f.inst(i).is_phi()).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_ssa;
    use tossa_ir::interp;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    fn ssa_of(text: &str) -> (Function, Function) {
        let before = parse_function(text, &Machine::dsp32()).unwrap();
        before.validate().unwrap();
        let mut after = before.clone();
        to_ssa(&mut after);
        after.validate().unwrap_or_else(|e| panic!("{e}\n{after}"));
        verify_ssa(&after).unwrap_or_else(|e| panic!("{e}\n{after}"));
        (before, after)
    }

    #[test]
    fn straightline_multiple_defs_get_versions() {
        let (_, f) = ssa_of(
            "func @s {
entry:
  %x = make 1
  %x = addi %x, 2
  %x = addi %x, 3
  ret %x
}",
        );
        assert_eq!(count_phis(&f), 0);
        // Three defs -> three distinct versions.
        let r = interp::run(&f, &[], 100).unwrap();
        assert_eq!(r.outputs, vec![6]);
    }

    #[test]
    fn diamond_gets_one_phi() {
        let (before, f) = ssa_of(
            "func @d {
entry:
  %c = input
  %x = make 0
  br %c, l, r
l:
  %x = make 1
  jump m
r:
  %x = make 2
  jump m
m:
  ret %x
}",
        );
        assert_eq!(count_phis(&f), 1);
        for c in [0, 1] {
            assert_eq!(
                interp::run(&before, &[c], 100).unwrap().outputs,
                interp::run(&f, &[c], 100).unwrap().outputs
            );
        }
    }

    #[test]
    fn pruned_no_phi_for_dead_variable() {
        let (_, f) = ssa_of(
            "func @p {
entry:
  %c = input
  %x = make 0
  %y = make 9
  br %c, l, r
l:
  %x = make 1
  jump m
r:
  %x = make 2
  jump m
m:
  ret %y
}",
        );
        // x is dead at m: pruned SSA inserts no φ at all.
        assert_eq!(count_phis(&f), 0);
    }

    #[test]
    fn loop_phis_and_equivalence() {
        let text = "
func @sum {
entry:
  %n = input
  %i = make 0
  %acc = make 0
  jump head
head:
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %acc = add %acc, %i
  %i = addi %i, 1
  jump head
exit:
  ret %acc
}";
        let (before, f) = ssa_of(text);
        // φs for i and acc at head.
        assert_eq!(count_phis(&f), 2);
        for n in [0, 1, 5, 10] {
            assert_eq!(
                interp::run(&before, &[n], 10_000).unwrap().outputs,
                interp::run(&f, &[n], 10_000).unwrap().outputs,
                "n={n}"
            );
        }
    }

    #[test]
    fn phi_arg_counts() {
        let (_, f) = ssa_of(
            "func @c {
entry:
  %c = input
  %x = make 0
  br %c, l, r
l:
  %x = make 1
  jump m
r:
  %x = make 2
  jump m
m:
  ret %x
}",
        );
        assert!(has_phis(&f));
        assert_eq!(count_phis(&f), 1);
        let phi_args: usize = f
            .all_insts()
            .filter(|&(_, i)| f.inst(i).is_phi())
            .map(|(_, i)| f.inst(i).uses.len())
            .sum();
        assert_eq!(phi_args, 2);
    }

    #[test]
    fn versions_record_origin() {
        let (_, f) = ssa_of(
            "func @o {
entry:
  %x = make 1
  %x = addi %x, 1
  ret %x
}",
        );
        let versions: Vec<Var> = f
            .vars()
            .filter(|&v| f.var(v).origin == Some(Var::new(0)))
            .collect();
        assert_eq!(versions.len(), 2);
        for v in versions {
            assert_eq!(f.var(v).name, "x");
        }
    }

    #[test]
    fn nested_loop_equivalence() {
        let text = "
func @nest {
entry:
  %n = input
  %i = make 0
  %s = make 0
  jump oh
oh:
  %ci = cmplt %i, %n
  br %ci, obody, exit
obody:
  %j = make 0
  jump ih
ih:
  %cj = cmplt %j, %i
  br %cj, ibody, olatch
ibody:
  %s = add %s, %j
  %j = addi %j, 1
  jump ih
olatch:
  %i = addi %i, 1
  jump oh
exit:
  ret %s
}";
        let (before, f) = ssa_of(text);
        for n in [0, 3, 6] {
            assert_eq!(
                interp::run(&before, &[n], 100_000).unwrap().outputs,
                interp::run(&f, &[n], 100_000).unwrap().outputs
            );
        }
    }
}
