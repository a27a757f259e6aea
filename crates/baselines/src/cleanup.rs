//! Non-SSA cleanup: liveness-based dead code elimination. The paper's
//! pipelines run "dead code and aggressive coalescing phases" after a
//! naive out-of-SSA translation (§5, Table 4 discussion); this is the
//! dead-code part.

use tossa_analysis::{AnalysisCache, BitSet};
use tossa_ir::ids::{Inst, Var};
use tossa_ir::Function;

/// Removes instructions without side effects whose definitions are all
/// dead, iterating to a fixpoint. Returns the number removed.
pub fn dead_code_elim(f: &mut Function) -> usize {
    dead_code_elim_cached(f, &mut AnalysisCache::new())
}

/// [`dead_code_elim`] against a shared [`AnalysisCache`]. Rounds that
/// remove code invalidate the cache; the final round's liveness stays
/// memoized.
pub fn dead_code_elim_cached(f: &mut Function, cache: &mut AnalysisCache) -> usize {
    let mut removed = 0;
    let mut cursor: BitSet<Var> = BitSet::new(f.num_vars());
    let mut dead: Vec<Inst> = Vec::new();
    loop {
        let live = cache.liveness(f);
        let mut removed_this_round = 0;
        for b in f.blocks() {
            live.live_exit_into(f, b, &mut cursor);
            // Walk backwards tracking per-point liveness.
            dead.clear();
            for &i in f.block(b).insts.iter().rev() {
                let inst = f.inst(i);
                let is_dead = !inst.opcode.has_side_effects()
                    && !inst.is_terminator()
                    && !inst.defs.is_empty()
                    && inst.defs.iter().all(|d| !cursor.contains(d.var));
                if is_dead {
                    dead.push(i);
                    continue; // its uses do not keep anything alive
                }
                for d in inst.defs {
                    cursor.remove(d.var);
                }
                for u in inst.uses {
                    cursor.insert(u.var);
                }
            }
            // One pass over the block drops all of its dead code.
            if !dead.is_empty() {
                removed_this_round += dead.len();
                let mut list = std::mem::take(&mut f.block_mut(b).insts);
                list.retain(|i| !dead.contains(i));
                f.block_mut(b).insts = list;
            }
        }
        if removed_this_round == 0 {
            break;
        }
        cache.invalidate_instructions();
        removed += removed_this_round;
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    fn parse(text: &str) -> Function {
        let f = parse_function(text, &Machine::dsp32()).unwrap();
        f.validate().unwrap();
        f
    }

    #[test]
    fn removes_dead_chain() {
        let mut f = parse(
            "func @d {
entry:
  %a = make 1
  %b = addi %a, 1
  %c = make 9
  ret %c
}",
        );
        assert_eq!(dead_code_elim(&mut f), 2);
        assert_eq!(f.block_insts(f.entry).count(), 2);
    }

    #[test]
    fn keeps_stores_and_redefined_values() {
        let mut f = parse(
            "func @k {
entry:
  %p = input
  %x = make 1
  store %p, %x
  %x = make 2
  ret %x
}",
        );
        assert_eq!(dead_code_elim(&mut f), 0);
    }

    #[test]
    fn removes_dead_moves_after_redefinition() {
        let mut f = parse(
            "func @m {
entry:
  %a = make 1
  %x = mov %a
  %x = make 2
  ret %x
}",
        );
        let n = dead_code_elim(&mut f);
        assert_eq!(n, 2); // the mov and then the make feeding it
        assert_eq!(f.count_moves(), 0);
    }
}
