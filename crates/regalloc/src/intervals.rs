//! Per-range live intervals over a linearized block order.
//!
//! Blocks are laid out in reverse postorder (unreachable blocks
//! appended); instruction `k` of a block with base position `p` reads
//! its uses at `p + 2k` and writes its defs at `p + 2k + 1`. A def
//! therefore never overlaps a use that dies at the same instruction —
//! which is exactly what lets `mov` destinations and two-operand tied
//! defs share the register of their dying source.
//!
//! Each variable carries two views of its lifetime:
//!
//! * the *hull* `[min, max]` (inclusive) over all live positions — a
//!   cheap prefilter;
//! * a sorted list of disjoint half-open `[start, end)` *ranges* with
//!   lifetime holes between them, built by a backward per-block walk
//!   over the same worklist liveness. Two webs interfere only where
//!   their ranges overlap, so a register stays assignable inside
//!   another web's holes.
//!
//! Ranges separated only by the unused padding position between two
//! consecutive blocks in the linear order are merged: no instruction
//! ever occupies a padding position, so the "hole" there could never
//! hold another web, and merging keeps each web's range list in
//! one-piece-per-real-hole form (and its envelope equal to its hull).

use tossa_analysis::{AnalysisCache, BitSet, Liveness};
use tossa_ir::cfg::Cfg;
use tossa_ir::ids::{group_by_key, Block, Var};
use tossa_ir::machine::{PhysReg, RegClass};
use tossa_ir::{Function, Opcode};

/// One variable's live interval plus its allocation preferences.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    /// The variable.
    pub var: Var,
    /// First position (inclusive) where the variable is live — the hull
    /// start, equal to the first range's start.
    pub start: u32,
    /// Last position (inclusive) where the variable is live — the hull
    /// end, equal to the last range's end minus one.
    pub end: u32,
    /// Pre-existing register identity (out-of-SSA pinning); kept
    /// verbatim and never spilled.
    pub pre: Option<PhysReg>,
    /// Prefer the pointer register pool (the variable is used as an
    /// address).
    pub ptr_pref: bool,
    /// Prefer the register of this variable (`mov` source or tied use),
    /// so the copy becomes a self-move.
    pub hint: Option<Var>,
    /// Index of this interval's first range in the owning
    /// [`Intervals`] pool.
    range_start: u32,
    /// Number of ranges.
    range_len: u32,
}

impl Interval {
    /// Inclusive *hull* overlap — the cheap prefilter. For liveness-
    /// accurate interference use [`Intervals::overlap`], which descends
    /// into the ranges.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }
}

/// All intervals of a function, sorted by start position, plus the
/// shared range pool they index into.
#[derive(Clone, Debug, Default)]
pub struct Intervals {
    /// Intervals sorted by `(start, var)`.
    pub items: Vec<Interval>,
    /// Per-block position span `(base, live_exit)` in the linearized
    /// order, indexed by `Block::index()`. Used by the spill layer to
    /// reason about region boundaries in position space.
    pub block_span: Vec<(u32, u32)>,
    /// Half-open `[start, end)` ranges, grouped per interval (see
    /// [`Intervals::ranges_of`]); within a group sorted, disjoint and
    /// nonempty.
    ranges: Vec<(u32, u32)>,
}

impl Intervals {
    /// The sorted disjoint half-open ranges of `iv`.
    pub fn ranges_of(&self, iv: &Interval) -> &[(u32, u32)] {
        let s = iv.range_start as usize;
        &self.ranges[s..s + iv.range_len as usize]
    }

    /// Liveness-accurate interference: do `a` and `b` have a position
    /// where both are live? Hull-disjoint pairs short-circuit; hull-
    /// overlapping pairs walk their range lists in merge order.
    pub fn overlap(&self, a: &Interval, b: &Interval) -> bool {
        if !a.overlaps(b) {
            return false;
        }
        let (ra, rb) = (self.ranges_of(a), self.ranges_of(b));
        if a.range_len == 1 && b.range_len == 1 {
            return true; // the hulls already overlapped
        }
        let (mut i, mut j) = (0, 0);
        while i < ra.len() && j < rb.len() {
            let (s1, e1) = ra[i];
            let (s2, e2) = rb[j];
            if s1 < e2 && s2 < e1 {
                return true;
            }
            if e1 <= e2 {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// Is `iv` live at position `p`?
    pub fn covers(&self, iv: &Interval, p: u32) -> bool {
        self.ranges_of(iv).iter().any(|&(s, e)| s <= p && p < e)
    }

    /// Positions actually covered by `iv`'s ranges — the spill-cost
    /// normalization denominator (a web full of holes relieves pressure
    /// only where it is live, not across its whole hull).
    pub fn covered_len(&self, iv: &Interval) -> u64 {
        self.ranges_of(iv)
            .iter()
            .map(|&(s, e)| u64::from(e - s))
            .sum()
    }

    /// The interval of `v`, if it has one.
    pub fn find(&self, v: Var) -> Option<&Interval> {
        self.items.iter().find(|iv| iv.var == v)
    }

    /// Does the position `p` fall inside the span of any block in
    /// `blocks`?
    pub fn position_in_blocks(&self, p: u32, blocks: &[tossa_ir::ids::Block]) -> bool {
        blocks.iter().any(|b| {
            self.block_span
                .get(b.index())
                .map(|&(s, e)| s <= p && p <= e)
                .unwrap_or(false)
        })
    }
}

/// Reverse postorder with unreachable blocks appended, so every
/// instruction gets a position.
pub(crate) fn linear_order(f: &Function, cfg: &Cfg) -> Vec<Block> {
    let mut order: Vec<Block> = cfg.rpo().to_vec();
    let mut seen = vec![false; f.num_blocks()];
    for &b in &order {
        seen[b.index()] = true;
    }
    for b in f.blocks() {
        if !seen[b.index()] {
            order.push(b);
        }
    }
    order
}

/// Builds per-range intervals from the worklist liveness.
pub fn build(f: &Function) -> Intervals {
    let cfg = Cfg::compute(f);
    let live = Liveness::compute(f, &cfg);
    build_inner(f, &cfg, &live)
}

/// [`build`] with analyses drawn from `cache` — the spill loop's fast
/// path. Spill rewriting inserts and removes instructions but never
/// touches block structure, so rounds after the first reuse the cached
/// CFG and only recompute liveness (instructions-only invalidation).
pub fn build_cached(f: &Function, cache: &mut AnalysisCache) -> Intervals {
    let cfg = cache.cfg(f);
    let live = cache.liveness(f);
    build_inner(f, &cfg, &live)
}

fn build_inner(f: &Function, cfg: &Cfg, live: &Liveness) -> Intervals {
    let order = linear_order(f, cfg);

    // Dense per-variable tables; the backward walk runs once per
    // operand and per live-exit member, so none of it may hash.
    let mut ptr_pref: Vec<bool> = vec![false; f.num_vars()];
    let mut hint: Vec<Option<Var>> = vec![None; f.num_vars()];
    // Open segment ends (exclusive) during the backward walk; 0 means
    // "not live below this point" (every real end is >= 1).
    let mut pending: Vec<u32> = vec![0; f.num_vars()];
    let mut opened: Vec<Var> = Vec::new();
    let mut exit: BitSet<Var> = BitSet::new(f.num_vars());
    // Raw (var, (start, end)) segments. The walk emits a block's segments
    // in decreasing start order; each block's run is reversed once the
    // block is done, so every variable's segments end up in increasing
    // start order across the whole function.
    let mut raw: Vec<(u32, (u32, u32))> = Vec::new();

    let mut block_span: Vec<(u32, u32)> = vec![(0, 0); f.num_blocks()];
    let mut base: u32 = 0;
    for &b in &order {
        let insts = &f.block(b).insts;
        let k_count = insts.len() as u32;
        let end_pos = base + 2 * k_count;
        block_span[b.index()] = (base, end_pos);
        let block_raw = raw.len();

        // Seed the walk from the block's live-exit set: everything live
        // out is live at `end_pos` until a def inside the block closes
        // its segment.
        opened.clear();
        live.live_exit_into(f, b, &mut exit);
        for v in exit.iter() {
            pending[v.index()] = end_pos + 1;
            opened.push(v);
        }
        for (k, &i) in insts.iter().enumerate().rev() {
            let k = k as u32;
            let inst = f.inst(i);
            let def_pos = base + 2 * k + 1;
            for o in inst.defs {
                let p = &mut pending[o.var.index()];
                if *p != 0 {
                    raw.push((o.var.index() as u32, (def_pos, *p)));
                    *p = 0;
                } else {
                    // Dead def: the web still occupies a register for
                    // the defining position itself.
                    raw.push((o.var.index() as u32, (def_pos, def_pos + 1)));
                }
                if inst.opcode == Opcode::AutoAdd {
                    ptr_pref[o.var.index()] = true;
                }
            }
            let use_pos = base + 2 * k;
            for (pos, o) in inst.uses.iter().enumerate() {
                let p = &mut pending[o.var.index()];
                if *p == 0 {
                    *p = use_pos + 1;
                    opened.push(o.var);
                }
                if matches!(inst.opcode, Opcode::Load | Opcode::Store | Opcode::AutoAdd) && pos == 0
                {
                    ptr_pref[o.var.index()] = true;
                }
            }
            if !inst.defs.is_empty() {
                let tied = match inst.opcode {
                    Opcode::Mov => Some(0),
                    op => op.tied_use(),
                };
                if let Some(u) = tied {
                    if let Some(src) = inst.uses.get(u) {
                        hint[inst.defs[0].var.index()] = Some(src.var);
                    }
                }
            }
        }
        // Segments still open at the block start belong to live-in
        // variables.
        for &v in &opened {
            let p = &mut pending[v.index()];
            if *p != 0 {
                raw.push((v.index() as u32, (base, *p)));
                *p = 0;
            }
        }
        raw[block_raw..].reverse();
        base = end_pos + 2;
    }

    // Padding positions: the one unused slot between consecutive blocks
    // in the linear order. A same-web gap that is exactly a padding
    // position is a layout artifact, not a lifetime hole.
    let mut pads: Vec<u32> = block_span.iter().map(|&(_, e)| e + 1).collect();
    pads.sort_unstable();
    let is_pad = |p: u32| pads.binary_search(&p).is_ok();

    // Bucket the segments by variable (a stable grouping, so each bucket
    // stays in increasing start order), then merge each bucket.
    let (seg_start, segs) = group_by_key(f.num_vars(), &raw);
    let mut items: Vec<Interval> = Vec::new();
    let mut ranges: Vec<(u32, u32)> = Vec::new();
    for var_idx in 0..f.num_vars() {
        let bucket = &segs[seg_start[var_idx] as usize..seg_start[var_idx + 1] as usize];
        let Some((&(first_s, first_e), rest)) = bucket.split_first() else {
            continue;
        };
        let range_start = ranges.len() as u32;
        let (mut cur_s, mut cur_e) = (first_s, first_e);
        for &(s, e) in rest {
            if s <= cur_e || (s == cur_e + 1 && is_pad(cur_e)) {
                cur_e = cur_e.max(e);
            } else {
                ranges.push((cur_s, cur_e));
                (cur_s, cur_e) = (s, e);
            }
        }
        ranges.push((cur_s, cur_e));
        let (start, end) = (ranges[range_start as usize].0, cur_e - 1);
        let var = Var::new(var_idx);
        items.push(Interval {
            var,
            start,
            end,
            pre: f.var(var).reg,
            ptr_pref: ptr_pref[var.index()]
                || f.var(var)
                    .reg
                    .map(|r| f.machine.reg_class(r) == RegClass::Ptr)
                    .unwrap_or(false),
            hint: hint[var.index()],
            range_start,
            range_len: ranges.len() as u32 - range_start,
        });
    }
    items.sort_by_key(|iv| (iv.start, iv.var.index()));
    Intervals {
        items,
        block_span,
        ranges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    #[test]
    fn def_position_clears_dying_use() {
        let f = parse_function(
            "func @t {\nentry:\n  %a = input\n  %b = mov %a\n  ret %b\n}",
            &Machine::dsp32(),
        )
        .unwrap();
        let ivs = build(&f);
        let by_name = |n: &str| {
            ivs.items
                .iter()
                .find(|iv| &*f.var(iv.var).name == n)
                .copied()
                .unwrap()
        };
        let a = by_name("a");
        let b = by_name("b");
        // %a dies at the mov's use point; %b starts one past it.
        assert!(a.end < b.start, "a={a:?} b={b:?}");
        assert_eq!(
            b.hint.map(|v| f.var(v).name.to_string()),
            Some("a".to_string())
        );
    }

    #[test]
    fn loop_carried_var_spans_the_loop() {
        let f = parse_function(
            "
func @l {
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
            &Machine::dsp32(),
        )
        .unwrap();
        let ivs = build(&f);
        let z = ivs
            .items
            .iter()
            .find(|iv| &*f.var(iv.var).name == "z")
            .unwrap();
        let n = ivs
            .items
            .iter()
            .find(|iv| &*f.var(iv.var).name == "n")
            .unwrap();
        assert!(z.overlaps(n), "loop-carried z must interfere with n");
        assert!(ivs.overlap(z, n), "per-range view must agree here");
    }

    /// A web that dies and is later redefined has a lifetime hole; its
    /// hull still spans both pieces, and another web fully inside the
    /// hole does not interfere.
    #[test]
    fn redefined_web_has_a_hole_and_hole_dweller_does_not_interfere() {
        let f = parse_function(
            "func @h {
entry:
  %a = input
  %b = add %a, %a
  %c = add %b, %b
  %a = make 1
  %r = add %a, %c
  ret %r
}",
            &Machine::dsp32(),
        )
        .unwrap();
        let ivs = build(&f);
        let by_name = |n: &str| {
            ivs.items
                .iter()
                .find(|iv| &*f.var(iv.var).name == n)
                .unwrap()
        };
        let a = by_name("a");
        let b = by_name("b");
        assert_eq!(
            ivs.ranges_of(a).len(),
            2,
            "two lives of %a: {:?}",
            ivs.ranges_of(a)
        );
        // Envelope equals the hull on both sides of the hole.
        let ra = ivs.ranges_of(a);
        assert_eq!(ra[0].0, a.start);
        assert_eq!(ra[ra.len() - 1].1, a.end + 1);
        // %b lives strictly inside %a's hole: hulls overlap, ranges
        // do not.
        assert!(a.overlaps(b), "hull prefilter must still fire");
        assert!(!ivs.overlap(a, b), "ranges must expose the hole");
        assert!(!ivs.covers(a, b.start), "%a is dead where %b starts");
        assert!(ivs.covered_len(a) < u64::from(a.end - a.start) + 1);
    }

    /// A web live across a block boundary keeps one merged range over
    /// the inter-block padding position instead of a spurious hole.
    #[test]
    fn block_boundary_padding_is_bridged() {
        let f = parse_function(
            "func @p {
entry:
  %a = input
  jump next
next:
  ret %a
}",
            &Machine::dsp32(),
        )
        .unwrap();
        let ivs = build(&f);
        let a = ivs
            .items
            .iter()
            .find(|iv| &*f.var(iv.var).name == "a")
            .unwrap();
        assert_eq!(
            ivs.ranges_of(a).len(),
            1,
            "padding gap must merge: {:?}",
            ivs.ranges_of(a)
        );
        assert_eq!(ivs.ranges_of(a)[0], (a.start, a.end + 1));
    }
}
