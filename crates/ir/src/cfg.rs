//! Control-flow graph utilities: predecessor/successor maps, traversal
//! orders, reachability, and critical-edge splitting.
//!
//! [`Cfg`] stores both maps in compressed sparse row form: one offset
//! array and one block array each, so a function's CFG is a handful of
//! buffers rather than two `Vec`s per block.

use crate::function::{derived_name, Function};
use crate::ids::Block;
use crate::instr::InstData;
use crate::opcode::Opcode;

/// Predecessor/successor maps of a function, computed from terminators.
///
/// The maps are a snapshot: recompute after mutating the CFG.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// `succs(b)` is `succ[succ_at[b]..succ_at[b + 1]]`.
    succ_at: Vec<usize>,
    succ: Vec<Block>,
    /// `preds(b)` is `pred[pred_at[b]..pred_at[b + 1]]`.
    pred_at: Vec<usize>,
    pred: Vec<Block>,
    rpo: Vec<Block>,
}

impl Cfg {
    /// Computes the CFG of `f`.
    pub fn compute(f: &Function) -> Cfg {
        let n = f.num_blocks();
        let mut succ_at = vec![0; n + 1];
        // No terminator has more than two targets (`br`).
        let mut succ = Vec::with_capacity(2 * n);
        // Count each block's predecessors, then turn the counts into
        // range ends; filling the ranges back to front from the last
        // block leaves every `pred_at[b]` at its range start and each
        // range in block creation order.
        let mut pred_at = vec![0; n + 1];
        for b in f.blocks() {
            for &s in f.succs(b) {
                succ.push(s);
                pred_at[s.index()] += 1;
            }
            succ_at[b.index() + 1] = succ.len();
        }
        for k in 1..=n {
            pred_at[k] += pred_at[k - 1];
        }
        let mut pred = vec![f.entry; succ.len()];
        for b in (0..n).rev().map(Block::new) {
            for &s in &succ[succ_at[b.index()]..succ_at[b.index() + 1]] {
                pred_at[s.index()] -= 1;
                pred[pred_at[s.index()]] = b;
            }
        }
        Cfg {
            succ_at,
            succ,
            pred_at,
            pred,
            rpo: reverse_postorder(f),
        }
    }

    /// Blocks in reverse postorder, cached at construction so every
    /// consumer (dominators, worklist dataflow) shares one traversal.
    /// Unreachable blocks are omitted.
    pub fn rpo(&self) -> &[Block] {
        &self.rpo
    }

    /// Blocks in postorder (reverse of [`Cfg::rpo`]), the natural
    /// iteration order for backward dataflow problems.
    pub fn postorder(&self) -> impl DoubleEndedIterator<Item = Block> + '_ {
        self.rpo.iter().rev().copied()
    }

    /// Successors of `b` in terminator order (then/else for `br`).
    pub fn succs(&self, b: Block) -> &[Block] {
        &self.succ[self.succ_at[b.index()]..self.succ_at[b.index() + 1]]
    }

    /// Predecessors of `b` in block creation order. A block appears twice
    /// if both branch targets reach `b` (the validator forbids this for
    /// blocks with φs; split such edges first).
    pub fn preds(&self, b: Block) -> &[Block] {
        &self.pred[self.pred_at[b.index()]..self.pred_at[b.index() + 1]]
    }

    /// Number of blocks covered.
    pub fn num_blocks(&self) -> usize {
        self.succ_at.len() - 1
    }
}

/// Blocks in postorder of a DFS from the entry. Unreachable blocks are
/// omitted.
pub fn postorder(f: &Function) -> Vec<Block> {
    let n = f.num_blocks();
    let mut visited = vec![false; n];
    let mut out = Vec::with_capacity(n);
    // Iterative DFS carrying the next successor index.
    let mut stack: Vec<(Block, usize)> = Vec::with_capacity(n);
    stack.push((f.entry, 0));
    visited[f.entry.index()] = true;
    while let Some(&mut (b, ref mut next)) = stack.last_mut() {
        let succs = f.succs(b);
        if *next < succs.len() {
            let s = succs[*next];
            *next += 1;
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push((s, 0));
            }
        } else {
            out.push(b);
            stack.pop();
        }
    }
    out
}

/// Blocks in reverse postorder (a topological-ish order good for forward
/// dataflow). Unreachable blocks are omitted.
pub fn reverse_postorder(f: &Function) -> Vec<Block> {
    let mut po = postorder(f);
    po.reverse();
    po
}

/// The set of blocks reachable from the entry.
pub fn reachable(f: &Function) -> Vec<bool> {
    let mut r = vec![false; f.num_blocks()];
    for b in postorder(f) {
        r[b.index()] = true;
    }
    r
}

/// Splits every critical edge (an edge from a block with several
/// successors to a block with several predecessors) by inserting an empty
/// block containing a single `jump`. φ predecessor lists are updated.
///
/// Out-of-SSA copy insertion places copies "at the end of the predecessor
/// block" (paper §3.2, Class 2); on a critical edge that position is
/// shared with other paths, so edges are split first.
///
/// Returns the number of edges split.
pub fn split_critical_edges(f: &mut Function) -> usize {
    let cfg = Cfg::compute(f);
    let mut split = 0;
    for b in f.blocks().collect::<Vec<_>>() {
        let succs: Vec<Block> = f.succs(b).to_vec();
        if succs.len() < 2 {
            continue;
        }
        for (slot, s) in succs.iter().copied().enumerate() {
            if cfg.preds(s).len() < 2 {
                continue;
            }
            // Critical edge b -> s: insert a middle block.
            let mid = f.add_block(derived_name(format_args!("split{split}")));
            f.push_inst(mid, InstData::new(Opcode::Jump).with_targets(vec![s]));
            let term = f
                .terminator(b)
                .expect("block with successors has terminator");
            f.inst_mut(term).targets[slot] = mid;
            // Retarget φs of s: the value now flows in from mid.
            for phi in f.phis(s).collect::<Vec<_>>() {
                for p in f.inst_mut(phi).phi_preds.iter_mut() {
                    if *p == b {
                        *p = mid;
                    }
                }
            }
            split += 1;
        }
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Function;
    use crate::machine::Machine;

    /// Builds a diamond: entry -> (l, r) -> exit, with a φ at exit.
    fn diamond() -> (Function, Block, Block, Block) {
        let mut f = Function::new("d", Machine::dsp32());
        let c = f.new_var("c");
        let a = f.new_var("a");
        let b = f.new_var("b");
        let x = f.new_var("x");
        let l = f.add_block("l");
        let r = f.add_block("r");
        let exit = f.add_block("exit");
        let e = f.entry;
        f.push_inst(
            e,
            InstData::new(Opcode::Make)
                .with_defs(vec![c.into()])
                .with_imm(1),
        );
        f.push_inst(
            e,
            InstData::new(Opcode::Br)
                .with_uses(vec![c.into()])
                .with_targets(vec![l, r]),
        );
        f.push_inst(
            l,
            InstData::new(Opcode::Make)
                .with_defs(vec![a.into()])
                .with_imm(2),
        );
        f.push_inst(l, InstData::new(Opcode::Jump).with_targets(vec![exit]));
        f.push_inst(
            r,
            InstData::new(Opcode::Make)
                .with_defs(vec![b.into()])
                .with_imm(3),
        );
        f.push_inst(r, InstData::new(Opcode::Jump).with_targets(vec![exit]));
        f.push_inst(exit, InstData::phi(x, vec![(l, a), (r, b)]));
        f.push_inst(exit, InstData::new(Opcode::Ret).with_uses(vec![x.into()]));
        (f, l, r, exit)
    }

    #[test]
    fn cfg_preds_succs() {
        let (f, l, r, exit) = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.succs(f.entry), &[l, r]);
        assert_eq!(cfg.preds(exit), &[l, r]);
        assert_eq!(cfg.preds(f.entry), &[] as &[Block]);
    }

    #[test]
    fn rpo_starts_at_entry_and_respects_order() {
        let (f, _, _, exit) = diamond();
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo[0], f.entry);
        assert_eq!(*rpo.last().unwrap(), exit);
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn unreachable_blocks_omitted() {
        let (mut f, _, _, _) = diamond();
        let dead = f.add_block("dead");
        f.push_inst(dead, InstData::new(Opcode::Ret));
        let reach = reachable(&f);
        assert!(!reach[dead.index()]);
        assert_eq!(postorder(&f).len(), 4);
    }

    #[test]
    fn diamond_has_no_critical_edges() {
        let (mut f, _, _, _) = diamond();
        assert_eq!(split_critical_edges(&mut f), 0);
    }

    #[test]
    fn critical_edge_is_split_and_phi_updated() {
        // entry branches to (loop, exit); loop branches back to loop or to
        // exit => edges entry->exit and loop->exit are critical if exit has
        // 2 preds and sources have 2 succs.
        let mut f = Function::new("c", Machine::dsp32());
        let c = f.new_var("c");
        let a = f.new_var("a");
        let x = f.new_var("x");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        let e = f.entry;
        f.push_inst(
            e,
            InstData::new(Opcode::Make)
                .with_defs(vec![c.into()])
                .with_imm(1),
        );
        f.push_inst(
            e,
            InstData::new(Opcode::Make)
                .with_defs(vec![a.into()])
                .with_imm(7),
        );
        f.push_inst(
            e,
            InstData::new(Opcode::Br)
                .with_uses(vec![c.into()])
                .with_targets(vec![body, exit]),
        );
        f.push_inst(
            body,
            InstData::new(Opcode::Br)
                .with_uses(vec![c.into()])
                .with_targets(vec![body, exit]),
        );
        f.push_inst(exit, InstData::phi(x, vec![(e, a), (body, a)]));
        f.push_inst(exit, InstData::new(Opcode::Ret).with_uses(vec![x.into()]));
        assert!(f.validate().is_ok());

        let n = split_critical_edges(&mut f);
        // All four edges are critical: both sources have two successors
        // and both sinks have two predecessors.
        assert_eq!(n, 4);
        assert!(f.validate().is_ok(), "{:?}", f.validate());
        // After splitting, exit's φ preds are the two new middle blocks.
        let phi = f.phis(exit).next().unwrap();
        for &p in f.inst(phi).phi_preds {
            assert_ne!(p, e);
            assert_ne!(p, body);
        }
        let cfg = Cfg::compute(&f);
        for b in f.blocks() {
            if cfg.succs(b).len() > 1 {
                for &s in cfg.succs(b) {
                    assert!(cfg.preds(s).len() < 2, "critical edge {b}->{s} remains");
                }
            }
        }
    }
}
