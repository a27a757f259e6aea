//! Loop-depth-weighted spill costs and rematerialization candidates.
//!
//! The cost of spilling a web is what the spill code would execute: one
//! memory operation per occurrence, weighted by the Table 5 execution
//! frequency of the block holding it (`5^depth` from
//! [`tossa_analysis::LoopInfo`]). Linear scan ([`crate::scan`]) evicts
//! the *cheapest* candidate at each pressure point, so hot loop-carried
//! webs keep their registers while cold webs take the slots.
//!
//! A web whose single definition is a pure constant builder
//! ([`tossa_ir::Opcode::Make`]: immediate in, no uses, no side effects)
//! is *rematerializable*: re-issuing the `make` at each use is never
//! worse than a `spillld` and needs no stack slot at all.

use tossa_analysis::LoopInfo;
use tossa_ir::ids::{group_by_key, Block, Var};
use tossa_ir::{Function, Opcode};

/// One web's spill cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VarCost {
    /// Σ over operand occurrences of `5^depth(block)`, saturating.
    pub weight: u64,
    /// Maximum loop depth over the web's occurrences.
    pub depth: u32,
    /// Occurrence count (uses + defs).
    pub occurrences: u32,
}

/// Per-variable spill costs plus rematerialization candidates for one
/// spill round.
#[derive(Clone, Debug, Default)]
pub struct SpillCosts {
    costs: Vec<VarCost>,
    /// `Some(imm)` when the variable's single def is `make imm` and the
    /// variable is unpinned — re-issue the def instead of reloading.
    remat_imm: Vec<Option<i64>>,
    /// Blocks holding at least one occurrence of each variable, grouped
    /// per variable: variable `v`'s blocks are
    /// `occ_blocks[occ_start[v]..occ_start[v + 1]]`, in first-occurrence
    /// order (which is increasing block index).
    occ_blocks: Vec<Block>,
    occ_start: Vec<u32>,
}

impl SpillCosts {
    /// Computes costs over the current (pre-rewrite) function body.
    pub fn compute(f: &Function, loops: &LoopInfo) -> SpillCosts {
        let n = f.num_vars();
        let mut costs = vec![VarCost::default(); n];
        let mut def_count = vec![0u32; n];
        let mut remat_imm: Vec<Option<i64>> = vec![None; n];
        // (var index, block) for each variable's first occurrence in each
        // block. `all_insts` visits a block's instructions contiguously,
        // so a repeat in the same block is always the variable's last
        // entry.
        let mut last_block: Vec<Option<Block>> = vec![None; n];
        let mut firsts: Vec<(u32, Block)> = Vec::new();
        for (b, i) in f.all_insts() {
            let w = loops.weight(b);
            let d = loops.depth(b);
            let inst = f.inst(i);
            for o in inst.operands() {
                let c = &mut costs[o.var.index()];
                c.weight = c.weight.saturating_add(w);
                c.depth = c.depth.max(d);
                c.occurrences += 1;
                if last_block[o.var.index()] != Some(b) {
                    last_block[o.var.index()] = Some(b);
                    firsts.push((o.var.index() as u32, b));
                }
            }
            for o in inst.defs {
                let v = o.var;
                def_count[v.index()] += 1;
                remat_imm[v.index()] = match def_count[v.index()] {
                    1 if inst.opcode == Opcode::Make && f.var(v).reg.is_none() => Some(inst.imm),
                    _ => None,
                };
            }
        }
        // Group by variable, keeping each variable's blocks in
        // first-occurrence order.
        let (occ_start, occ_blocks) = group_by_key(n, &firsts);
        SpillCosts {
            costs,
            remat_imm,
            occ_blocks,
            occ_start,
        }
    }

    /// The cost of spilling `v`.
    pub fn cost(&self, v: Var) -> VarCost {
        self.costs.get(v.index()).copied().unwrap_or_default()
    }

    /// The `make` immediate to re-issue for `v`, when `v` is
    /// rematerializable.
    pub fn remat_imm(&self, v: Var) -> Option<i64> {
        self.remat_imm.get(v.index()).copied().flatten()
    }

    /// Blocks holding an occurrence of `v`, in first-occurrence order
    /// (increasing block index).
    pub fn occurrence_blocks(&self, v: Var) -> &[Block] {
        match (
            self.occ_start.get(v.index()),
            self.occ_start.get(v.index() + 1),
        ) {
            (Some(&s), Some(&e)) => &self.occ_blocks[s as usize..e as usize],
            _ => &[],
        }
    }

    /// The `cost:` provenance rationale for spilling `v` (one cause of
    /// the [`tossa_trace::provenance::Kind::Spill`] grammar).
    pub fn rationale(&self, v: Var) -> String {
        let c = self.cost(v);
        format!("cost:weight={},depth={}", c.weight, c.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_analysis::DomTree;
    use tossa_ir::cfg::Cfg;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    fn costs_of(text: &str) -> (Function, SpillCosts) {
        let f = parse_function(text, &Machine::dsp32()).unwrap();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let loops = LoopInfo::compute(&f, &cfg, &dt);
        let costs = SpillCosts::compute(&f, &loops);
        (f, costs)
    }

    fn var(f: &Function, name: &str) -> Var {
        f.vars().find(|&v| &*f.var(v).name == name).unwrap()
    }

    #[test]
    fn loop_occurrences_weigh_five_to_the_depth() {
        let (f, costs) = costs_of(
            "func @w {
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
}",
        );
        let z = costs.cost(var(&f, "z"));
        let n = costs.cost(var(&f, "n"));
        // %z: def in entry (1) + use in head (5) + def+use in body (10)
        // + use in exit (1).
        assert_eq!(z.weight, 17, "{z:?}");
        assert_eq!(z.depth, 1);
        // %n: def in entry (1) + use in head (5).
        assert_eq!(n.weight, 6, "{n:?}");
        assert!(z.weight > n.weight, "loop-carried web must cost more");
    }

    #[test]
    fn single_make_def_is_rematerializable() {
        let (f, costs) = costs_of(
            "func @r {\nentry:\n  %k = make 42\n  %a = input\n  %s = add %a, %k\n  ret %s\n}",
        );
        assert_eq!(costs.remat_imm(var(&f, "k")), Some(42));
        assert_eq!(costs.remat_imm(var(&f, "a")), None);
        assert_eq!(costs.remat_imm(var(&f, "s")), None);
    }

    #[test]
    fn redefined_make_is_not_rematerializable() {
        let (f, costs) = costs_of("func @m {\nentry:\n  %k = make 1\n  %k = make 2\n  ret %k\n}");
        assert_eq!(costs.remat_imm(var(&f, "k")), None);
    }
}
