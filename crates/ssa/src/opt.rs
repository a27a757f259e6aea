//! SSA-level optimizations: copy propagation, dead-code elimination, and
//! dominator-scoped global value numbering.
//!
//! These are the transformations the paper's introduction warns about:
//! "this replacement must be performed carefully whenever optimizations
//! such as value numbering have been done while in SSA form" — they
//! extend live ranges and merge values, creating the interferences the
//! out-of-SSA coalescer must then negotiate.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use tossa_analysis::DomTree;
use tossa_ir::cfg::Cfg;
use tossa_ir::ids::{Block, Inst, Var};
use tossa_ir::{Function, Opcode};

/// Replaces every use of a copy destination by the copy source
/// (transitively) and leaves the now-dead `mov`s for [`dce`]. Returns the
/// number of uses rewritten.
pub fn copy_propagate(f: &mut Function) -> usize {
    // alias[d] = s for every `d = mov s`; `moves` counts the entries.
    let mut alias: Vec<Option<Var>> = vec![None; f.num_vars()];
    let mut moves = 0usize;
    for (_, i) in f.all_insts() {
        let inst = f.inst(i);
        if inst.opcode.is_move() {
            let slot = &mut alias[inst.defs[0].var.index()];
            if slot.is_none() {
                moves += 1;
            }
            *slot = Some(inst.uses[0].var);
        }
    }
    let resolve = |mut v: Var| {
        let mut hops = 0;
        while let Some(s) = alias[v.index()] {
            v = s;
            hops += 1;
            if hops > moves {
                break; // defensive: cyclic moves cannot occur in SSA
            }
        }
        v
    };
    let mut rewritten = 0;
    for b in f.blocks() {
        for k in 0..f.block(b).insts.len() {
            let i = f.block(b).insts[k];
            for o in f.inst_mut(i).uses.iter_mut() {
                let r = resolve(o.var);
                if r != o.var {
                    o.var = r;
                    rewritten += 1;
                }
            }
        }
    }
    rewritten
}

/// Keeps only the instructions `keep` accepts, with one `retain` per
/// block. Returns the number dropped.
fn sweep(f: &mut Function, keep: impl Fn(Inst) -> bool) -> usize {
    let mut removed = 0;
    for b in f.blocks() {
        let insts = &mut f.block_mut(b).insts;
        let before = insts.len();
        insts.retain(|&i| keep(i));
        removed += before - insts.len();
    }
    removed
}

/// Dead-code elimination: removes instructions without side effects whose
/// definitions are never used (transitively). Returns the number of
/// instructions removed.
pub fn dce(f: &mut Function) -> usize {
    // Mark pass: seed with side-effecting instructions.
    let mut live = vec![false; f.num_insts()];
    let mut def_of: Vec<Option<Inst>> = vec![None; f.num_vars()];
    let mut work: Vec<Inst> = Vec::new();
    for (_, i) in f.all_insts() {
        for d in f.defs(i) {
            def_of[d.var.index()] = Some(i);
        }
        if f.opcode(i).has_side_effects() {
            live[i.index()] = true;
            work.push(i);
        }
    }
    while let Some(i) = work.pop() {
        for u in f.uses(i) {
            if let Some(di) = def_of[u.var.index()] {
                if !live[di.index()] {
                    live[di.index()] = true;
                    work.push(di);
                }
            }
        }
    }
    sweep(f, |i| live[i.index()])
}

/// A value-numbering key, held inline: the opcode, the operand count and
/// up to three operand variables (`Function::validate` allows no more on
/// a value-numbered opcode; `select` and `psel` have three), and the
/// immediate.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    opcode: Opcode,
    len: u8,
    uses: [Var; 3],
    imm: i64,
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let [a, b, c] = self.uses.map(|v| v.index() as u64);
        h.write_u64(self.opcode as u64 | u64::from(self.len) << 8 | a << 32);
        h.write_u64(b | c << 32);
        h.write_i64(self.imm);
    }
}

/// A multiply-rotate hasher with a fixed key (the FxHash scheme). With
/// no per-table random key, the table's layout, and so the number of
/// allocations a compile makes, depends only on the function compiled.
#[derive(Default)]
struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Dominator-scoped value numbering: two pure instructions computing the
/// same (opcode, operands, immediate) in a dominating position are merged.
/// Returns the number of instructions eliminated.
pub fn gvn(f: &mut Function) -> usize {
    let cfg = Cfg::compute(f);
    let dt = DomTree::compute(f, &cfg);

    fn pure(op: Opcode) -> bool {
        matches!(
            op,
            Opcode::Make
                | Opcode::More
                | Opcode::Add
                | Opcode::Sub
                | Opcode::Mul
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::Shl
                | Opcode::Shr
                | Opcode::Neg
                | Opcode::Not
                | Opcode::AddImm
                | Opcode::AutoAdd
                | Opcode::CmpEq
                | Opcode::CmpNe
                | Opcode::CmpLt
                | Opcode::CmpLe
                | Opcode::Select
                | Opcode::PSel
        )
    }

    let mut replacement: Vec<Option<Var>> = vec![None; f.num_vars()];
    let mut table: HashMap<Key, Var, BuildHasherDefault<FixedHasher>> = HashMap::default();
    // Every key inserted, in order; a block's scope is the tail past the
    // mark its exit event carries.
    let mut scope_log: Vec<Key> = Vec::new();
    let mut dead = vec![false; f.num_insts()];
    let mut removed = 0;

    enum Event {
        Enter(Block),
        /// Remove every key logged since the log had this length.
        Exit(usize),
    }
    let mut events = vec![Event::Enter(f.entry)];
    while let Some(ev) = events.pop() {
        match ev {
            Event::Enter(b) => {
                events.push(Event::Exit(scope_log.len()));
                for k in 0..f.block(b).insts.len() {
                    let i = f.block(b).insts[k];
                    // Resolve uses through prior replacements first.
                    for o in f.inst_mut(i).uses.iter_mut() {
                        if let Some(r) = replacement[o.var.index()] {
                            o.var = r;
                        }
                    }
                    let inst = f.inst(i);
                    let len = inst.uses.len();
                    if !pure(inst.opcode) || inst.defs.len() != 1 || len > 3 {
                        continue;
                    }
                    let mut uses = [Var::new(0); 3];
                    for (slot, o) in uses.iter_mut().zip(inst.uses) {
                        *slot = o.var;
                    }
                    // Commutative normalization.
                    if matches!(
                        inst.opcode,
                        Opcode::Add | Opcode::Mul | Opcode::And | Opcode::Or | Opcode::Xor
                    ) {
                        uses[..len].sort();
                    }
                    let key = Key {
                        opcode: inst.opcode,
                        len: len as u8,
                        uses,
                        imm: inst.imm,
                    };
                    match table.entry(key) {
                        Entry::Occupied(existing) => {
                            replacement[inst.defs[0].var.index()] = Some(*existing.get());
                            dead[i.index()] = true;
                            removed += 1;
                        }
                        Entry::Vacant(slot) => {
                            slot.insert(inst.defs[0].var);
                            scope_log.push(key);
                        }
                    }
                }
                for &c in dt.children(b) {
                    events.push(Event::Enter(c));
                }
            }
            Event::Exit(mark) => {
                for key in scope_log.drain(mark..) {
                    table.remove(&key);
                }
            }
        }
    }

    // Apply replacements everywhere (φ args in not-yet-visited blocks).
    if removed > 0 {
        // rewrite_vars also remaps the defs of the replaced instructions
        // themselves; harmless, they are removed below.
        f.rewrite_vars(|mut v| {
            while let Some(r) = replacement[v.index()] {
                v = r;
            }
            v
        });
        sweep(f, |i| !dead[i.index()]);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_ssa;
    use tossa_ir::interp;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    fn parse(text: &str) -> Function {
        let f = parse_function(text, &Machine::dsp32()).unwrap();
        f.validate().unwrap();
        f
    }

    #[test]
    fn copy_prop_then_dce_removes_moves() {
        let mut f = parse(
            "func @c {
entry:
  %a = make 1
  %b = mov %a
  %c = mov %b
  %d = addi %c, 1
  ret %d
}",
        );
        let before = interp::run(&f, &[], 100).unwrap();
        assert!(copy_propagate(&mut f) >= 1);
        let removed = dce(&mut f);
        assert_eq!(removed, 2);
        assert_eq!(f.count_moves(), 0);
        assert_eq!(interp::run(&f, &[], 100).unwrap().outputs, before.outputs);
        verify_ssa(&f).unwrap();
    }

    #[test]
    fn dce_keeps_side_effects() {
        let mut f = parse(
            "func @s {
entry:
  %p = input
  %dead = make 7
  store %p, %p
  ret
}",
        );
        let removed = dce(&mut f);
        assert_eq!(removed, 1); // only %dead
        assert_eq!(f.block_insts(f.entry).count(), 3);
    }

    #[test]
    fn gvn_merges_redundant_computation() {
        let mut f = parse(
            "func @g {
entry:
  %a, %b = input
  %x = add %a, %b
  %y = add %b, %a
  %z = mul %x, %y
  ret %z
}",
        );
        let before = interp::run(&f, &[3, 4], 100).unwrap();
        let n = gvn(&mut f);
        assert_eq!(n, 1); // commutative match
        assert_eq!(
            interp::run(&f, &[3, 4], 100).unwrap().outputs,
            before.outputs
        );
        verify_ssa(&f).unwrap();
    }

    #[test]
    fn gvn_respects_dominance_scoping() {
        // The same expression in two sibling branches must NOT be merged.
        let mut f = parse(
            "func @sib {
entry:
  %c, %a = input
  br %c, l, r
l:
  %x = addi %a, 5
  jump m
r:
  %y = addi %a, 5
  jump m
m:
  %z = phi [l: %x], [r: %y]
  ret %z
}",
        );
        let n = gvn(&mut f);
        assert_eq!(n, 0);
        verify_ssa(&f).unwrap();
    }

    #[test]
    fn gvn_merges_across_dominance() {
        let mut f = parse(
            "func @dom {
entry:
  %c, %a = input
  %x = addi %a, 5
  br %c, l, m
l:
  %y = addi %a, 5
  jump m
m:
  ret %x
}",
        );
        let before = interp::run(&f, &[1, 2], 100).unwrap();
        let n = gvn(&mut f);
        assert_eq!(n, 1);
        dce(&mut f);
        assert_eq!(
            interp::run(&f, &[1, 2], 100).unwrap().outputs,
            before.outputs
        );
        verify_ssa(&f).unwrap();
    }

    #[test]
    fn gvn_does_not_merge_loads() {
        let mut f = parse(
            "func @mem {
entry:
  %p = input
  %v1 = load %p
  store %p, %v1
  %v2 = load %p
  %s = add %v1, %v2
  ret %s
}",
        );
        assert_eq!(gvn(&mut f), 0);
    }
}
