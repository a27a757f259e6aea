//! Dominator tree via the Cooper–Harvey–Kennedy algorithm.
//!
//! SSA construction places φs on iterated dominance frontiers, and the
//! paper's Class 1 interference test asks whether one definition
//! dominates another (§3.2). Both are answered here.

use crate::bitset::BitSet;
use tossa_ir::cfg::Cfg;
use tossa_ir::ids::{Block, EntityVec};
use tossa_ir::Function;

/// The dominator tree of a function's reachable blocks.
#[derive(Clone, Debug)]
pub struct DomTree {
    node: EntityVec<Block, Node>,
    /// Reverse postorder of reachable blocks.
    rpo: Vec<Block>,
    /// Every block's children, one row per block (see [`Node::kids_at`]),
    /// each row in decreasing reverse-postorder position.
    child: Vec<Block>,
    entry: Block,
}

/// One block's place in the dominator tree.
#[derive(Clone, Copy, Debug)]
struct Node {
    /// Immediate dominator (the entry maps to itself; unreachable blocks
    /// map to `None`).
    idom: Option<Block>,
    /// Depth in the dominator tree (entry = 0).
    depth: u32,
    /// Position in reverse postorder (`u32::MAX` if unreachable).
    rpo_pos: u32,
    /// The block's children are `child[kids_at..kids_at + kids]`.
    kids_at: u32,
    kids: u32,
}

impl DomTree {
    /// Computes the dominator tree of `f`.
    pub fn compute(f: &Function, cfg: &Cfg) -> DomTree {
        let n = f.num_blocks();
        // The traversal is cached on the `Cfg` so dominators, liveness,
        // and loop analysis share one DFS.
        let rpo = cfg.rpo().to_vec();
        let unreached = Node {
            idom: None,
            depth: 0,
            rpo_pos: u32::MAX,
            kids_at: 0,
            kids: 0,
        };
        let mut node: EntityVec<Block, Node> = EntityVec::filled(n, unreached);
        for (i, &b) in rpo.iter().enumerate() {
            node[b].rpo_pos = i as u32;
        }
        node[f.entry].idom = Some(f.entry);

        let intersect = |node: &EntityVec<Block, Node>, mut a: Block, mut b: Block| {
            while a != b {
                while node[a].rpo_pos > node[b].rpo_pos {
                    a = node[a].idom.expect("processed block has idom");
                }
                while node[b].rpo_pos > node[a].rpo_pos {
                    b = node[b].idom.expect("processed block has idom");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<Block> = None;
                for &p in cfg.preds(b) {
                    if node[p].idom.is_none() {
                        continue; // unprocessed or unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&node, cur, p),
                    });
                }
                if new_idom != node[b].idom {
                    node[b].idom = new_idom;
                    changed = true;
                }
            }
        }

        // Depths and child counts, then each row's end; filling the rows
        // back to front in reverse postorder leaves every `kids_at` at its
        // row start and each row in decreasing reverse-postorder position.
        for &b in rpo.iter().skip(1) {
            let d = node[b].idom.expect("reachable block has idom");
            node[b].depth = node[d].depth + 1;
            node[d].kids += 1;
        }
        let mut end = 0;
        for b in f.blocks() {
            end += node[b].kids;
            node[b].kids_at = end;
        }
        let mut child = vec![f.entry; end as usize];
        for &b in rpo.iter().skip(1) {
            let d = node[b].idom.expect("reachable block has idom");
            node[d].kids_at -= 1;
            child[node[d].kids_at as usize] = b;
        }
        DomTree {
            node,
            rpo,
            child,
            entry: f.entry,
        }
    }

    /// Immediate dominator of `b` (`None` for the entry and for
    /// unreachable blocks).
    pub fn idom(&self, b: Block) -> Option<Block> {
        match self.node[b].idom {
            Some(d) if b != self.entry => Some(d),
            _ => None,
        }
    }

    /// Whether `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: Block, mut b: Block) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        while self.node[b].depth > self.node[a].depth {
            b = self.node[b].idom.expect("has idom");
        }
        a == b
    }

    /// Whether `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: Block, b: Block) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: Block) -> bool {
        self.node[b].idom.is_some()
    }

    /// Reverse postorder of the reachable blocks.
    pub fn rpo(&self) -> &[Block] {
        &self.rpo
    }

    /// Position of `b` in reverse postorder (`usize::MAX` if unreachable).
    pub fn rpo_pos(&self, b: Block) -> usize {
        match self.node[b].rpo_pos {
            u32::MAX => usize::MAX,
            pos => pos as usize,
        }
    }

    /// Children of `b` in the dominator tree, in decreasing
    /// reverse-postorder position: pushed in this order onto a stack,
    /// they are entered in reverse postorder.
    pub fn children(&self, b: Block) -> &[Block] {
        let Node { kids_at, kids, .. } = self.node[b];
        &self.child[kids_at as usize..(kids_at + kids) as usize]
    }
}

/// Reference implementation: dominators by iterative set intersection in
/// O(n²) — used by tests to validate [`DomTree`].
pub fn naive_dominators(f: &Function, cfg: &Cfg) -> EntityVec<Block, BitSet<Block>> {
    let n = f.num_blocks();
    let rpo: Vec<Block> = cfg.rpo().to_vec();
    let mut dom: EntityVec<Block, BitSet<Block>> = EntityVec::filled(n, BitSet::new(n));
    let mut all = BitSet::new(n);
    for &b in &rpo {
        all.insert(b);
    }
    for b in f.blocks() {
        if b == f.entry {
            dom[b].insert(b);
        } else {
            dom[b] = all.clone();
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo {
            if b == f.entry {
                continue;
            }
            let mut new = all.clone();
            let mut any_pred = false;
            for &p in cfg.preds(b) {
                if rpo.contains(&p) {
                    any_pred = true;
                    let mut tmp = new.clone();
                    // intersection = new & dom[p]
                    tmp.subtract(&dom[p]);
                    new.subtract(&tmp);
                }
            }
            if !any_pred {
                new.clear();
            }
            new.insert(b);
            if new != dom[b] {
                dom[b] = new;
                changed = true;
            }
        }
    }
    dom
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    fn parse(text: &str) -> Function {
        parse_function(text, &Machine::dsp32()).unwrap()
    }

    fn irreducible() -> Function {
        // entry -> a, b; a -> b; b -> a (irreducible-ish with exit via a).
        parse(
            "func @irr {
entry:
  %c = input
  br %c, a, b
a:
  br %c, b, exit
b:
  jump a
exit:
  ret %c
}",
        )
    }

    #[test]
    fn entry_dominates_everything() {
        let f = irreducible();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        for b in f.blocks() {
            assert!(dt.dominates(f.entry, b), "{b}");
        }
        assert_eq!(dt.idom(f.entry), None);
    }

    #[test]
    fn diamond_idoms() {
        let f = parse(
            "func @d {
entry:
  %c = input
  br %c, l, r
l:
  jump exit
r:
  jump exit
exit:
  ret %c
}",
        );
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let bb = |i| Block::new(i);
        assert_eq!(dt.idom(bb(1)), Some(f.entry));
        assert_eq!(dt.idom(bb(2)), Some(f.entry));
        assert_eq!(dt.idom(bb(3)), Some(f.entry)); // join dominated by entry only
        assert!(!dt.dominates(bb(1), bb(3)));
        assert!(dt.strictly_dominates(f.entry, bb(3)));
        assert!(!dt.strictly_dominates(bb(3), bb(3)));
        // Reverse postorder is entry, r, l, exit: rows run backwards.
        assert_eq!(dt.children(f.entry), &[bb(3), bb(1), bb(2)]);
        assert_eq!(dt.children(bb(1)), &[] as &[Block]);
    }

    #[test]
    fn matches_naive_on_irreducible() {
        let f = irreducible();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let naive = naive_dominators(&f, &cfg);
        for a in f.blocks() {
            for b in f.blocks() {
                assert_eq!(
                    dt.dominates(a, b),
                    naive[b].contains(a),
                    "dominates({a}, {b}) mismatch"
                );
            }
        }
    }

    #[test]
    fn unreachable_blocks_are_not_dominated() {
        let f = parse("func @u {\nentry:\n  ret\ndead:\n  ret\n}");
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let dead = Block::new(1);
        assert!(!dt.is_reachable(dead));
        assert!(!dt.dominates(f.entry, dead));
        assert!(!dt.dominates(dead, f.entry));
    }
}
