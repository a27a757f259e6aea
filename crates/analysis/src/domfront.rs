//! Dominance frontiers (Cytron et al.), used for φ placement.
//!
//! Every block's frontier lives in compressed sparse row form: one offset
//! array and one block array. [`DomFrontiers::iterated`] computes an
//! iterated frontier in a caller-owned [`IdfScratch`], so placing the φs
//! of every variable reuses the same few buffers.

use crate::domtree::DomTree;
use tossa_ir::cfg::Cfg;
use tossa_ir::ids::{group_by_key, Block};
use tossa_ir::Function;

/// The dominance frontier of every block.
#[derive(Clone, Debug)]
pub struct DomFrontiers {
    /// `frontier(b)` is `df[df_at[b]..df_at[b + 1]]`.
    df_at: Vec<u32>,
    df: Vec<Block>,
}

/// Reusable buffers for [`DomFrontiers::iterated`]: two mark arrays
/// stamped with a per-call epoch (so no call clears them), the worklist
/// and the output.
#[derive(Clone, Debug, Default)]
pub struct IdfScratch {
    epoch: u32,
    in_out: Vec<u32>,
    queued: Vec<u32>,
    work: Vec<Block>,
    out: Vec<Block>,
}

impl DomFrontiers {
    /// Computes dominance frontiers with the standard two-level walk: a
    /// block `b` with several predecessors is in the frontier of every
    /// dominator of a predecessor up to (excluding) `idom(b)`. Each
    /// frontier lists its blocks in increasing index order.
    pub fn compute(f: &Function, cfg: &Cfg, dt: &DomTree) -> DomFrontiers {
        let n = f.num_blocks();
        // `(runner, join)` pairs in walk order. A pair repeats only within
        // one join's walk, so remembering each runner's last join drops
        // every repeat.
        let mut pairs: Vec<(u32, Block)> = Vec::new();
        let mut last_join: Vec<Option<Block>> = vec![None; n];
        for b in f.blocks() {
            if !dt.is_reachable(b) || cfg.preds(b).len() < 2 {
                continue;
            }
            let idom_b = dt.idom(b);
            for &p in cfg.preds(b) {
                if !dt.is_reachable(p) {
                    continue;
                }
                let mut runner = p;
                while Some(runner) != idom_b {
                    if last_join[runner.index()] != Some(b) {
                        last_join[runner.index()] = Some(b);
                        pairs.push((runner.index() as u32, b));
                    }
                    match dt.idom(runner) {
                        Some(d) => runner = d,
                        None => break, // reached the entry
                    }
                }
            }
        }
        let (df_at, df) = group_by_key(n, &pairs);
        DomFrontiers { df_at, df }
    }

    /// The dominance frontier of `b`.
    pub fn frontier(&self, b: Block) -> &[Block] {
        &self.df[self.df_at[b.index()] as usize..self.df_at[b.index() + 1] as usize]
    }

    /// Iterated dominance frontier of a set of blocks (the φ insertion
    /// sites for a variable defined in those blocks), in discovery order.
    /// The result lives in `scratch` until its next use.
    pub fn iterated<'s>(
        &self,
        seeds: impl IntoIterator<Item = Block>,
        scratch: &'s mut IdfScratch,
    ) -> &'s [Block] {
        let n = self.df_at.len() - 1;
        let s = scratch;
        if s.in_out.len() < n || s.epoch == u32::MAX {
            // Fresh (or too short) mark arrays, or a wrapped epoch.
            s.epoch = 0;
            s.in_out.clear();
            s.in_out.resize(n, 0);
            s.queued.clear();
            s.queued.resize(n, 0);
        }
        s.epoch += 1;
        let epoch = s.epoch;
        s.out.clear();
        s.work.clear();
        s.work.extend(seeds);
        for &b in &s.work {
            s.queued[b.index()] = epoch;
        }
        while let Some(b) = s.work.pop() {
            for &d in self.frontier(b) {
                if s.in_out[d.index()] != epoch {
                    s.in_out[d.index()] = epoch;
                    s.out.push(d);
                    if s.queued[d.index()] != epoch {
                        s.queued[d.index()] = epoch;
                        s.work.push(d);
                    }
                }
            }
        }
        &s.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domtree::DomTree;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    fn setup(text: &str) -> (Function, Cfg, DomTree) {
        let f = parse_function(text, &Machine::dsp32()).unwrap();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        (f, cfg, dt)
    }

    #[test]
    fn diamond_frontier_is_join() {
        let (f, cfg, dt) = setup(
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
        let df = DomFrontiers::compute(&f, &cfg, &dt);
        let (l, r, exit) = (Block::new(1), Block::new(2), Block::new(3));
        assert_eq!(df.frontier(l), &[exit]);
        assert_eq!(df.frontier(r), &[exit]);
        assert_eq!(df.frontier(f.entry), &[] as &[Block]);
        assert_eq!(df.frontier(exit), &[] as &[Block]);
    }

    #[test]
    fn loop_header_in_own_frontier() {
        let (f, cfg, dt) = setup(
            "func @l {
entry:
  %c = input
  jump head
head:
  br %c, body, exit
body:
  jump head
exit:
  ret %c
}",
        );
        let df = DomFrontiers::compute(&f, &cfg, &dt);
        let (head, body) = (Block::new(1), Block::new(2));
        assert_eq!(df.frontier(body), &[head]);
        // head's frontier contains head itself (back edge).
        assert!(df.frontier(head).contains(&head));
    }

    #[test]
    fn iterated_frontier_cascades() {
        let (f, cfg, dt) = setup(
            "func @c {
entry:
  %c = input
  br %c, a, b
a:
  jump j1
b:
  jump j1
j1:
  br %c, c2, d
c2:
  jump j2
d:
  jump j2
j2:
  ret %c
}",
        );
        let df = DomFrontiers::compute(&f, &cfg, &dt);
        let a = Block::new(1);
        let j1 = Block::new(3);
        let j2 = Block::new(6);
        let mut scratch = IdfScratch::default();
        let idf = df.iterated([a], &mut scratch).to_vec();
        assert!(idf.contains(&j1));
        // j1 dominates... j1's frontier: j2? No: j1 dominates c2,d and j2,
        // so frontier(j1) is empty; a def in `a` needs a φ only at j1.
        assert!(!idf.contains(&j2));
        // But a def in c2 cascades nowhere; a def in j1 reaches j2? j1
        // dominates j2 so no φ needed: frontier check.
        assert_eq!(df.frontier(j1), &[] as &[Block]);
        // The scratch forgets earlier calls: c2 reaches only j2.
        let c2 = Block::new(4);
        assert_eq!(df.iterated([c2], &mut scratch), &[j2]);
        assert_eq!(df.iterated([a], &mut scratch), idf.as_slice());
        assert_eq!(df.iterated([], &mut scratch), &[] as &[Block]);
    }
}
