//! Liveness analysis with the paper's φ conventions (§3.2, Class 2):
//!
//! * a φ instruction "does not occur where it textually appears, but at
//!   the end of each predecessor basic block instead";
//! * a φ *use* flowing from block `C` is live up to the end of `C` but is
//!   **dead at the exit of `C`** (it does not appear in `live_out(C)`);
//! * a φ *definition* is live-in to its block (it was written at the end
//!   of every predecessor).
//!
//! The same dataflow works for non-SSA code (no φs, multiple defs per
//! variable), which the Chaitin-style coalescing baseline relies on.
//!
//! Results are flat bit matrices, one buffer per set family rather than
//! one heap row per block or variable; queries borrow a [`BitRow`].

use crate::bitset::{BitMatrix, BitRow, BitSet};
use tossa_ir::cfg::Cfg;
use tossa_ir::ids::{Block, EntityVec, Inst, Var};
use tossa_ir::Function;

/// Per-block live-in/live-out sets, each family one block-major matrix.
#[derive(Clone, Debug)]
pub struct Liveness {
    live_in: BitMatrix<Var>,
    live_out: BitMatrix<Var>,
}

/// Rows of [`Liveness::compute`]'s scratch matrix: mask `k` of block `b`
/// is row `3b + k`, for its φ defs (which predecessors subtract from its
/// live-in), its non-φ defs, and the φ arguments read at its *end*.
const PHI_DEFS: usize = 0;
const DEFS: usize = 1;
const PHI_USES: usize = 2;

fn mask(b: Block, k: usize) -> usize {
    3 * b.index() + k
}

impl Liveness {
    /// Computes liveness with a postorder-seeded worklist.
    ///
    /// Per block, upward-exposed uses, non-φ defs and the φ arguments read
    /// at the block's end are precomputed once, plus the φ-def mask each
    /// successor subtracts. The fixpoint loop is then pure word-level
    /// bitset arithmetic driven by `union_minus`'s changed-bit: a block
    /// re-enters the worklist only when a successor's live-in actually
    /// grew, instead of the whole-CFG round-robin sweeps (with per-edge
    /// set clones and φ-def `remove`s) the reference implementation does.
    pub fn compute(f: &Function, cfg: &Cfg) -> Liveness {
        let nb = f.num_blocks();
        let nv = f.num_vars();
        let mut live_in = BitMatrix::new(nb, nv);
        let mut live_out = BitMatrix::new(nb, nv);

        // --- Precomputation (one pass over the instructions). ---
        // Upward-exposed uses go straight into live-in, which they seed.
        let mut masks = BitMatrix::new(3 * nb, nv);
        for b in f.blocks() {
            for i in f.block_insts(b) {
                let inst = f.inst(i);
                if inst.is_phi() {
                    masks.insert(mask(b, PHI_DEFS), inst.defs[0].var);
                    for (k, u) in inst.uses.iter().enumerate() {
                        masks.insert(mask(inst.phi_preds[k], PHI_USES), u.var);
                    }
                    continue;
                }
                // Uses read before defs are written: `%x = addi %x, 1`
                // leaves `%x` upward-exposed.
                for u in inst.uses {
                    if !masks.row(mask(b, DEFS)).contains(u.var) {
                        live_in.insert(b.index(), u.var);
                    }
                }
                for d in inst.defs {
                    masks.insert(mask(b, DEFS), d.var);
                }
            }
        }

        // Seed live-in with the rest of the block-local contribution:
        // use(b) ∪ (φ-uses-at-end(b) \ def(b)).
        for b in f.blocks() {
            let (phi_uses, defs) = (masks.row(mask(b, PHI_USES)), masks.row(mask(b, DEFS)));
            live_in.union_minus(b.index(), phi_uses, defs);
        }

        // --- Worklist on postorder (successors first for backward flow).
        // Unreachable blocks are appended so the result matches the
        // reference fixpoint set-for-set on every block.
        let mut on_list = vec![false; nb];
        let mut order: Vec<Block> = cfg.postorder().collect();
        for &b in &order {
            on_list[b.index()] = true;
        }
        for b in f.blocks() {
            if !on_list[b.index()] {
                on_list[b.index()] = true;
                order.push(b);
            }
        }
        let mut work = std::collections::VecDeque::from(order);
        let mut pops: u64 = 0;
        while let Some(b) = work.pop_front() {
            pops += 1;
            on_list[b.index()] = false;
            // live_out(b) |= live_in(s) \ phi_defs(s) for each successor.
            // All sets grow monotonically, so in-place union reaches the
            // same fixpoint as recomputation from scratch.
            let mut out_grew = false;
            for &s in cfg.succs(b) {
                let (in_s, phi_defs) = (live_in.row(s.index()), masks.row(mask(s, PHI_DEFS)));
                out_grew |= live_out.union_minus(b.index(), in_s, phi_defs);
            }
            if !out_grew {
                continue;
            }
            // live_in(b) |= live_out(b) \ def(b); the block-local part was
            // seeded above and never changes.
            let (out_b, defs) = (live_out.row(b.index()), masks.row(mask(b, DEFS)));
            if live_in.union_minus(b.index(), out_b, defs) {
                for &p in cfg.preds(b) {
                    if !on_list[p.index()] {
                        on_list[p.index()] = true;
                        work.push_back(p);
                    }
                }
            }
        }
        tossa_trace::count(tossa_trace::Counter::LivenessIterations, pops);
        Liveness { live_in, live_out }
    }

    /// The original round-robin backward fixpoint, kept verbatim as an
    /// independent reference implementation for equivalence testing of
    /// the worklist algorithm. Not for production use.
    #[doc(hidden)]
    pub fn compute_reference(f: &Function, cfg: &Cfg) -> Liveness {
        let nb = f.num_blocks();
        let nv = f.num_vars();
        let mut live_in = BitMatrix::new(nb, nv);
        let mut live_out = BitMatrix::new(nb, nv);

        let mut changed = true;
        while changed {
            changed = false;
            // Backward iteration converges faster on postorder, but any
            // order is correct; reverse creation order keeps this simple.
            for b in (0..nb).rev().map(Block::new) {
                // live_out(b) = U_s (live_in(s) \ phi_defs(s))
                let mut out = BitSet::new(nv);
                for &s in cfg.succs(b) {
                    let mut contrib = BitSet::new(nv);
                    contrib.copy_from(live_in.row(s.index()));
                    for phi in f.phis(s) {
                        contrib.remove(f.inst(phi).defs[0].var);
                    }
                    out.union_with(&contrib);
                }
                // In-block transfer starts from the values read by the
                // successors' φs at our end, plus live_out.
                let mut cursor = out.clone();
                insert_phi_uses_at_end(f, b, &mut cursor);
                transfer_block(f, b, &mut cursor);
                if out.row() != live_out.row(b.index()) {
                    live_out.copy_row(b.index(), out.row());
                    changed = true;
                }
                if cursor.row() != live_in.row(b.index()) {
                    live_in.copy_row(b.index(), cursor.row());
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Values live at the entry of `b` (φ definitions of `b` included when
    /// they are used at or after `b`).
    pub fn live_in(&self, b: Block) -> BitRow<'_, Var> {
        self.live_in.row(b.index())
    }

    /// Values live at the exit of `b`. φ uses flowing out of `b` are *not*
    /// included (paper convention); see [`Liveness::live_exit`].
    pub fn live_out(&self, b: Block) -> BitRow<'_, Var> {
        self.live_out.row(b.index())
    }

    /// Values live at the end of `b` *including* the arguments read by the
    /// successors' φs (the starting point for in-block backward scans).
    pub fn live_exit(&self, f: &Function, b: Block) -> BitSet<Var> {
        let mut s = BitSet::new(0);
        self.live_exit_into(f, b, &mut s);
        s
    }

    /// [`Liveness::live_exit`] into a caller-owned cursor, reusing its
    /// buffer. Lets per-block backward scans (interference construction,
    /// live-at-defs) run a whole function on one allocation.
    pub fn live_exit_into(&self, f: &Function, b: Block, cursor: &mut BitSet<Var>) {
        cursor.copy_from(self.live_out(b));
        insert_phi_uses_at_end(f, b, cursor);
    }
}

/// Applies the backward in-block transfer to `cursor` (which enters as
/// the live-at-end set and leaves as live-at-entry). φs of `b` itself are
/// skipped: their defs happen at the end of predecessors and their uses
/// at the end of predecessors too.
fn transfer_block(f: &Function, b: Block, cursor: &mut BitSet<Var>) {
    for &i in f.block(b).insts.iter().rev() {
        let inst = f.inst(i);
        if inst.is_phi() {
            continue;
        }
        for d in inst.defs {
            cursor.remove(d.var);
        }
        for u in inst.uses {
            cursor.insert(u.var);
        }
    }
}

/// Inserts into `cursor` the φ uses that semantically occur at the end
/// of `b`: the argument flowing in from `b` of every φ of every
/// successor of `b`.
fn insert_phi_uses_at_end(f: &Function, b: Block, cursor: &mut BitSet<Var>) {
    for &s in f.succs(b) {
        for phi in f.phis(s) {
            if let Some(op) = f.inst(phi).phi_arg_for(b) {
                cursor.insert(op.var);
            }
        }
    }
}

/// The unique definition site of each variable, for SSA-form functions.
#[derive(Clone, Debug)]
pub struct DefMap {
    sites: EntityVec<Var, Option<DefSite>>,
}

/// Where a variable is defined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DefSite {
    /// Defining block.
    pub block: Block,
    /// Defining instruction.
    pub inst: Inst,
    /// Position of the instruction within the block.
    pub pos: usize,
    /// Whether the definition is a φ.
    pub is_phi: bool,
}

impl DefMap {
    /// Records the first definition of every variable. For SSA functions
    /// this is *the* definition.
    pub fn compute(f: &Function) -> DefMap {
        let mut sites: EntityVec<Var, Option<DefSite>> = EntityVec::filled(f.num_vars(), None);
        for b in f.blocks() {
            for (pos, i) in f.block_insts(b).enumerate() {
                let inst = f.inst(i);
                for d in inst.defs {
                    if sites[d.var].is_none() {
                        sites[d.var] = Some(DefSite {
                            block: b,
                            inst: i,
                            pos,
                            is_phi: inst.is_phi(),
                        });
                    }
                }
            }
        }
        DefMap { sites }
    }

    /// The definition site of `v`, if it has one.
    pub fn site(&self, v: Var) -> Option<DefSite> {
        self.sites.get(v).copied().flatten()
    }
}

/// For every variable `v`, the set of variables live immediately *after*
/// the definition of `v` — the exact interference oracle: when
/// `def(x)` dominates `def(y)`, `x` and `y` have overlapping live ranges
/// iff `x` is live after `def(y)`.
///
/// For a φ definition the point "after the def" is the entry of its block
/// (after the parallel copies of all incoming edges), so the set is the
/// block's live-in.
#[derive(Clone, Debug)]
pub struct LiveAtDefs {
    /// Row `v`: the variables live just after `v`'s definition.
    after: BitMatrix<Var>,
    /// The variables with a definition, whose rows are filled.
    defined: BitSet<Var>,
}

impl LiveAtDefs {
    /// Computes the live-after-def set of every defined variable with one
    /// backward scan per block, copying the scan cursor into the defined
    /// variable's row at each definition.
    pub fn compute(f: &Function, live: &Liveness, defs: &DefMap) -> LiveAtDefs {
        let nv = f.num_vars();
        let mut after = BitMatrix::new(nv, nv);
        let mut defined = BitSet::new(nv);
        let mut cursor = BitSet::new(nv);
        for b in f.blocks() {
            live.live_exit_into(f, b, &mut cursor);
            for (pos, &i) in f.block(b).insts.iter().enumerate().rev() {
                let inst = f.inst(i);
                if inst.is_phi() {
                    continue;
                }
                // `cursor` is currently the live set after inst i.
                for d in inst.defs {
                    if defs.site(d.var).map(|s| (s.inst, s.pos)) == Some((i, pos)) {
                        after.copy_row(d.var.index(), cursor.row());
                        defined.insert(d.var);
                    }
                }
                for d in inst.defs {
                    cursor.remove(d.var);
                }
                for u in inst.uses {
                    cursor.insert(u.var);
                }
            }
            // φ defs: live-after is the block's live-in.
            for phi in f.phis(b) {
                let v = f.inst(phi).defs[0].var;
                if defs.site(v).map(|s| s.inst) == Some(phi) {
                    after.copy_row(v.index(), live.live_in(b));
                    defined.insert(v);
                }
            }
        }
        LiveAtDefs { after, defined }
    }

    /// The variables live just after the definition of `v` (`None` if `v`
    /// has no definition, or was created after the analysis ran).
    pub fn after_def(&self, v: Var) -> Option<BitRow<'_, Var>> {
        self.defined.contains(v).then(|| self.after.row(v.index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    fn setup(text: &str) -> (Function, Cfg) {
        let f = parse_function(text, &Machine::dsp32()).unwrap();
        f.validate().unwrap();
        let cfg = Cfg::compute(&f);
        (f, cfg)
    }

    fn var(f: &Function, name: &str) -> Var {
        f.vars()
            .find(|&v| f.var(v).name == name)
            .unwrap_or_else(|| panic!("no var {name}"))
    }

    #[test]
    fn straightline_liveness() {
        let (f, cfg) = setup(
            "func @s {
entry:
  %a, %b = input
  %c = add %a, %b
  %d = add %c, %a
  ret %d
}",
        );
        let live = Liveness::compute(&f, &cfg);
        assert!(live.live_in(f.entry).is_empty());
        assert!(live.live_out(f.entry).is_empty());
        let defs = DefMap::compute(&f);
        let lad = LiveAtDefs::compute(&f, &live, &defs);
        // After def of c: a is still live (used by d), b is dead.
        let after_c = lad.after_def(var(&f, "c")).unwrap();
        assert!(after_c.contains(var(&f, "a")));
        assert!(!after_c.contains(var(&f, "b")));
        assert!(after_c.contains(var(&f, "c")));
        // After def of d: only d.
        let after_d = lad.after_def(var(&f, "d")).unwrap();
        assert_eq!(after_d.count(), 1);
    }

    #[test]
    fn phi_use_not_live_out_phi_def_live_in() {
        let (f, cfg) = setup(
            "func @l {
entry:
  %z = make 0
  %n = input
  jump head
head:
  %i = phi [entry: %z], [body: %i2]
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %i2 = addi %i, 1
  jump head
exit:
  ret %i
}",
        );
        let live = Liveness::compute(&f, &cfg);
        let (entry, head, body) = (f.entry, Block::new(1), Block::new(2));
        let z = var(&f, "z");
        let i = var(&f, "i");
        let i2 = var(&f, "i2");
        // z is a φ use from entry: live inside entry, dead at its exit.
        assert!(!live.live_out(entry).contains(z));
        assert!(live.live_exit(&f, entry).contains(z));
        // φ def i is live-in to head.
        assert!(live.live_in(head).contains(i));
        // i2 is a φ use from body: dead at body exit, but live-in to body?
        // It is defined in body, so not live-in.
        assert!(!live.live_out(body).contains(i2));
        assert!(!live.live_in(body).contains(i2));
        assert!(live.live_exit(&f, body).contains(i2));
        // n flows around the loop.
        let n = var(&f, "n");
        assert!(live.live_out(entry).contains(n));
        assert!(live.live_in(head).contains(n));
        assert!(live.live_out(body).contains(n));
    }

    #[test]
    fn phi_input_code_matches_paper_example() {
        // Fig. 5(c)-like shape: x2 pinned case — check i (φ def) live
        // after def of i2 (they interfere: lost-copy shape).
        let (f, cfg) = setup(
            "func @fig {
entry:
  %z = make 0
  jump head
head:
  %i = phi [entry: %z], [body: %i2]
  %i2 = addi %i, 1
  %c = cmplt %i, %i2
  br %c, body, exit
body:
  jump head
exit:
  ret %i
}",
        );
        let live = Liveness::compute(&f, &cfg);
        let defs = DefMap::compute(&f);
        let lad = LiveAtDefs::compute(&f, &live, &defs);
        let i = var(&f, "i");
        let i2 = var(&f, "i2");
        // i is used by cmplt after i2's def, so live after def(i2).
        assert!(lad.after_def(i2).unwrap().contains(i));
        // after def of φ i = live_in(head) contains i.
        assert!(lad.after_def(i).unwrap().contains(i));
    }

    #[test]
    fn non_ssa_multiple_defs() {
        let (f, cfg) = setup(
            "func @m {
entry:
  %a = make 1
  %x = mov %a
  %x = addi %x, 2
  ret %x
}",
        );
        let live = Liveness::compute(&f, &cfg);
        assert!(live.live_in(f.entry).is_empty());
        let defs = DefMap::compute(&f);
        // DefMap records the first def.
        let x = var(&f, "x");
        assert_eq!(defs.site(x).unwrap().pos, 1);
    }

    #[test]
    fn live_exit_adds_the_phi_args_read_at_the_end() {
        let (f, cfg) = setup(
            "func @p {
entry:
  %a = make 1
  %b = make 2
  jump m
m:
  %x = phi [entry: %a]
  %y = phi [entry: %b]
  ret %x, %y
}",
        );
        let live = Liveness::compute(&f, &cfg);
        assert!(live.live_out(f.entry).is_empty());
        let exit = live.live_exit(&f, f.entry);
        let names: Vec<&str> = exit.iter().map(|v| f.var(v).name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
