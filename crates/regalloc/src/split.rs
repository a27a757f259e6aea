//! Live-range splitting at region boundaries.
//!
//! A victim web whose pressure point lies *outside* a region it occurs
//! in does not have to give up its register inside that region. Regions
//! are loop bodies first (the Table 5 frequency argument: occurrences
//! inside a loop are worth `5^depth` memory operations each) and, since
//! PR9, single non-loop blocks — any block holding an occurrence away
//! from the pressure point qualifies, with the hottest eligible region
//! winning and loop regions preferred on ties. The split renames the
//! web's occurrences inside the region to a fresh hot sub-web
//! (register-resident), spills the cold remainder everywhere, and
//! stitches the two together with boundary copies through the web's
//! stack slot:
//!
//! - one `vh = spillld slot` at the end of each entry predecessor of the
//!   loop header (only when the web is live into the header);
//! - one `spillst vh, slot` at the end of each exit block whose outside
//!   successor still needs the web (only when the web is redefined
//!   inside the loop).
//!
//! Every boundary copy lands on a region boundary by construction: entry
//! copies sit in blocks outside the loop branching to its header, exit
//! copies in loop blocks with a successor outside the body.
//!
//! The split is committed only when a *must-written* pre-check proves
//! that every planned `spillld` (boundary and cold-side reloads alike)
//! sees a store on all paths — the same forward dataflow the
//! post-allocation verifier runs over slots — so a split can never
//! introduce an [`crate::AllocError::UnpairedSlot`] that spill-everywhere
//! would have avoided. When the pre-check (or the region's shape) rules
//! a split out, the caller falls back to spill-everywhere for that web.

use tossa_analysis::{Liveness, LoopInfo};
use tossa_ir::cfg::Cfg;
use tossa_ir::ids::{Block, Var};
use tossa_ir::instr::{InstData, Operand};
use tossa_ir::print::var_str;
use tossa_ir::{Function, Opcode};
use tossa_trace::provenance;

use crate::cost::SpillCosts;
use crate::intervals::Intervals;
use crate::VarSet;

/// What a committed split inserted.
#[derive(Clone, Debug)]
pub struct SplitOutcome {
    /// `spillst` instructions inserted (boundary + cold-side).
    pub stores: usize,
    /// `spillld` instructions inserted (boundary + cold-side).
    pub reloads: usize,
    /// The blocks holding boundary copies.
    pub boundaries: Vec<Block>,
    /// The hot sub-web now living in a register inside the loop.
    pub hot_var: Var,
}

/// The region a split would preserve, chosen before mutating: a loop
/// body entered through its header, or a single non-loop block.
struct Region {
    header: Block,
    body: Vec<Block>,
}

/// Picks the hottest eligible region for splitting `v`, or `None` when
/// no region qualifies (the conflict sits inside every candidate, a
/// candidate has side entries or no entry predecessor, or the web never
/// leaves it). Loop regions are tried first and win heat ties over
/// single-block regions, which exist so a web can keep its register in
/// a straight-line block even when no loop shape applies.
fn pick_region(
    v: Var,
    conflict_at: u32,
    ivs: &Intervals,
    loops: &LoopInfo,
    cfg: &Cfg,
    costs: &SpillCosts,
) -> Option<Region> {
    let occ = costs.occurrence_blocks(v);
    let mut best: Option<(u64, Region)> = None;
    for &h in loops.headers() {
        let body = loops.body(h)?;
        if !occ.iter().any(|b| body.contains(b)) {
            continue;
        }
        // The pressure point must lie outside the region, otherwise the
        // split cannot relieve it and the spill loop would not progress.
        if ivs.position_in_blocks(conflict_at, body) {
            continue;
        }
        // The web must exist outside the region — otherwise there is no
        // cold part to spill.
        if !occ.iter().any(|b| !body.contains(b)) {
            continue;
        }
        // Reducible region shape: every edge from outside enters through
        // the header.
        let side_entry = body
            .iter()
            .any(|&b| b != h && cfg.preds(b).iter().any(|p| !body.contains(p)));
        if side_entry {
            continue;
        }
        // At least one entry predecessor (a detached loop cannot be
        // stitched).
        if !cfg.preds(h).iter().any(|p| !body.contains(p)) {
            continue;
        }
        let heat: u64 = occ
            .iter()
            .filter(|b| body.contains(b))
            .map(|&b| loops.weight(b))
            .sum();
        let region = Region {
            header: h,
            body: body.to_vec(),
        };
        if best.as_ref().map(|(w, _)| heat > *w).unwrap_or(true) {
            best = Some((heat, region));
        }
    }
    // Non-loop fallback: a single occurrence-holding block away from
    // the pressure point. Header == body, so the side-entry condition
    // is vacuous; the remaining checks mirror the loop case.
    for &b in occ {
        if ivs.position_in_blocks(conflict_at, &[b]) {
            continue;
        }
        if !occ.iter().any(|&o| o != b) {
            continue;
        }
        if !cfg.preds(b).iter().any(|&p| p != b) {
            continue;
        }
        let heat = loops.weight(b);
        let region = Region {
            header: b,
            body: vec![b],
        };
        if best.as_ref().map(|(w, _)| heat > *w).unwrap_or(true) {
            best = Some((heat, region));
        }
    }
    best.map(|(_, r)| r)
}

/// Must-written pre-check over the *planned* spill code: `true` when
/// every planned reload of `slot` (cold-side reloads before outside uses
/// of `v`, plus the boundary reload at each entry predecessor) is
/// preceded by a store on all paths. `cold` lists the blocks outside the
/// region that hold an occurrence of `v`: the only blocks whose own
/// instructions will store to or reload from the slot.
fn planned_slot_is_must_written(
    f: &Function,
    cfg: &Cfg,
    v: Var,
    cold: &[Block],
    entry_preds: &[Block],
    exit_stores: &[Block],
    needs_entry_reload: bool,
) -> bool {
    // gen[b]: block b will contain a spillst to the web's slot — a
    // cold-side def (store follows immediately) or a planned exit store.
    let mut gen = vec![false; f.num_blocks()];
    for &b in cold {
        gen[b.index()] = f
            .block_insts(b)
            .any(|i| f.inst(i).defs.iter().any(|o| o.var == v));
    }
    for &b in exit_stores {
        gen[b.index()] = true;
    }
    // Forward all-paths dataflow: in[entry] = false, in[b] = AND over
    // preds of (in[p] | gen[p]). Unreachable blocks stay at top (the
    // post-verifier is equally lenient there).
    let mut inb = vec![true; f.num_blocks()];
    inb[f.entry.index()] = false;
    let mut changed = true;
    while changed {
        changed = false;
        for &b in cfg.rpo() {
            if b == f.entry {
                continue;
            }
            let preds = cfg.preds(b);
            let v_in = !preds.is_empty() && preds.iter().all(|&p| inb[p.index()] || gen[p.index()]);
            if v_in != inb[b.index()] {
                inb[b.index()] = v_in;
                changed = true;
            }
        }
    }
    // Cold-side reload points: before every outside use of v.
    for &b in cold {
        let mut written = inb[b.index()];
        for i in f.block_insts(b) {
            let inst = f.inst(i);
            if inst.uses.iter().any(|o| o.var == v) && !written {
                return false;
            }
            if inst.defs.iter().any(|o| o.var == v) {
                written = true;
            }
        }
    }
    // Boundary reloads at the end of each entry predecessor.
    if needs_entry_reload {
        for &p in entry_preds {
            if !(inb[p.index()] || gen[p.index()]) {
                return false;
            }
        }
    }
    true
}

/// Attempts a region split for victim `v` at conflict position
/// `conflict_at`, assigning it `slot`. On success the function has been
/// rewritten (hot sub-web inside the region, spill-everywhere outside,
/// boundary copies at the region edges) and each boundary copy is
/// recorded as a `split-at:<block>` provenance rationale. Returns `None`
/// — with `f` untouched — when no region qualifies.
#[allow(clippy::too_many_arguments)]
pub fn try_split(
    f: &mut Function,
    v: Var,
    conflict_at: u32,
    ivs: &Intervals,
    loops: &LoopInfo,
    live: &Liveness,
    cfg: &Cfg,
    costs: &SpillCosts,
    slot: i64,
    temps: &mut VarSet,
    no_split: &mut VarSet,
) -> Option<SplitOutcome> {
    if no_split.contains(v) || temps.contains(v) || f.var(v).reg.is_some() {
        return None;
    }
    let region = pick_region(v, conflict_at, ivs, loops, cfg, costs)?;
    let in_body = |b: Block| region.body.contains(&b);
    // The cold side: occurrence blocks outside the region, in increasing
    // block index (the order the rewrite below creates temporaries in).
    let cold: Vec<Block> = costs
        .occurrence_blocks(v)
        .iter()
        .copied()
        .filter(|&b| !in_body(b))
        .collect();

    let entry_preds: Vec<Block> = cfg
        .preds(region.header)
        .iter()
        .copied()
        .filter(|&p| !in_body(p))
        .collect();
    let needs_entry_reload = live.live_in(region.header).contains(v);
    let defs_in_region = region.body.iter().any(|&b| {
        f.block_insts(b)
            .any(|i| f.inst(i).defs.iter().any(|o| o.var == v))
    });
    let exit_stores: Vec<Block> = if defs_in_region {
        region
            .body
            .iter()
            .copied()
            .filter(|&b| {
                f.succs(b)
                    .iter()
                    .any(|&s| !in_body(s) && live.live_in(s).contains(v))
            })
            .collect()
    } else {
        Vec::new()
    };
    if !planned_slot_is_must_written(
        f,
        cfg,
        v,
        &cold,
        &entry_preds,
        &exit_stores,
        needs_entry_reload,
    ) {
        return None;
    }

    // Commit. Hot sub-web: register-resident inside the region; never
    // split again (a second split of the same loop cannot make
    // progress), but still spillable everywhere if pressure persists.
    let hot = f.new_var(format!("{}.s", f.var(v).name));
    no_split.insert(hot);
    for &b in &region.body {
        for k in 0..f.block(b).insts.len() {
            let inst = f.inst_mut(f.block(b).insts[k]);
            for o in inst.uses.iter_mut().chain(inst.defs.iter_mut()) {
                if o.var == v {
                    o.var = hot;
                }
            }
        }
    }
    let mut out = SplitOutcome {
        stores: 0,
        reloads: 0,
        boundaries: Vec::new(),
        hot_var: hot,
    };
    let before_terminator = |f: &Function, b: Block| {
        let len = f.block(b).insts.len();
        if f.terminator(b).is_some() {
            len - 1
        } else {
            len
        }
    };
    if needs_entry_reload {
        for &p in &entry_preds {
            let at = before_terminator(f, p);
            let ld = InstData::new(Opcode::SpillLoad)
                .with_defs(vec![Operand::new(hot)])
                .with_imm(slot);
            f.insert_inst(p, at, ld);
            out.reloads += 1;
            out.boundaries.push(p);
        }
    }
    for &b in &exit_stores {
        let at = before_terminator(f, b);
        let st = InstData::new(Opcode::SpillStore)
            .with_uses(vec![Operand::new(hot)])
            .with_imm(slot);
        f.insert_inst(b, at, st);
        out.stores += 1;
        out.boundaries.push(b);
    }
    for &b in &out.boundaries {
        provenance::record(|| provenance::Kind::Spill {
            var: var_str(f, v),
            start: conflict_at,
            end: conflict_at,
            cause: format!("split-at:{}", f.block(b).name),
        });
    }

    // Cold side: spill-everywhere outside the region (the boundary
    // copies above use the hot sub-web, not `v`).
    let (st, rl) = crate::spill::rewrite_spills_in(f, &[(v, slot)], &cold, temps);
    out.stores += st;
    out.reloads += rl;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intervals;
    use tossa_analysis::{DomTree, LoopInfo};
    use tossa_ir::interp;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    /// A web (%k) defined before a loop, read inside it, and read again
    /// after it: the canonical split shape.
    const HOT_THROUGH_LOOP: &str = "
func @h {
entry:
  %n = input
  %k = make 7
  %z = make 0
  jump head
head:
  %c = cmplt %z, %n
  br %c, body, exit
body:
  %z = add %z, %k
  jump head
exit:
  %r = add %z, %k
  ret %r
}";

    fn analyses(f: &Function) -> (Cfg, LoopInfo, Liveness) {
        let cfg = Cfg::compute(f);
        let dt = DomTree::compute(f, &cfg);
        let loops = LoopInfo::compute(f, &cfg, &dt);
        let live = Liveness::compute(f, &cfg);
        (cfg, loops, live)
    }

    #[test]
    fn split_keeps_semantics_and_lands_on_boundaries() {
        let mut f = parse_function(HOT_THROUGH_LOOP, &Machine::dsp32()).unwrap();
        let before = interp::run(&f, &[5], 10_000).unwrap().outputs;
        let k = f.vars().find(|&v| f.var(v).name == "k").unwrap();
        let (cfg, loops, live) = analyses(&f);
        let ivs = intervals::build(&f);
        let costs = SpillCosts::compute(&f, &loops);
        // Conflict in `exit`, outside the loop.
        let exit = f.blocks().find(|&b| f.block(b).name == "exit").unwrap();
        let conflict_at = ivs.block_span[exit.index()].0;
        let mut temps = VarSet::default();
        let mut no_split = VarSet::default();
        let out = try_split(
            &mut f,
            k,
            conflict_at,
            &ivs,
            &loops,
            &live,
            &cfg,
            &costs,
            0,
            &mut temps,
            &mut no_split,
        )
        .expect("split must apply");
        f.validate().unwrap();
        assert!(out.reloads >= 1, "{f}");
        assert!(!out.boundaries.is_empty());
        // Boundary blocks are entry preds of the header or exit blocks.
        let header = f.blocks().find(|&b| f.block(b).name == "head").unwrap();
        let body = loops.body(header).unwrap();
        for &b in &out.boundaries {
            let is_entry = !body.contains(&b) && f.succs(b).contains(&header);
            let is_exit = body.contains(&b) && f.succs(b).iter().any(|s| !body.contains(s));
            assert!(is_entry || is_exit, "boundary {b:?} off-region\n{f}");
        }
        // Inside the loop, the web is register-resident (no reloads of
        // the hot sub-web's slot in the body).
        for &b in body {
            for i in f.block_insts(b) {
                assert_ne!(
                    f.inst(i).opcode,
                    Opcode::SpillLoad,
                    "reload in hot region\n{f}"
                );
            }
        }
        assert_eq!(
            interp::run(&f, &[5], 10_000).unwrap().outputs,
            before,
            "{f}"
        );
    }

    /// With the pressure point inside the loop, the loop region is
    /// ineligible — but since PR9 a single non-loop block holding an
    /// occurrence (here `exit`) still qualifies, so the split falls
    /// back to it instead of giving up.
    #[test]
    fn conflict_inside_the_loop_falls_back_to_a_non_loop_region() {
        let mut f = parse_function(HOT_THROUGH_LOOP, &Machine::dsp32()).unwrap();
        let before = interp::run(&f, &[5], 10_000).unwrap().outputs;
        let k = f.vars().find(|&v| f.var(v).name == "k").unwrap();
        let (cfg, loops, live) = analyses(&f);
        let ivs = intervals::build(&f);
        let costs = SpillCosts::compute(&f, &loops);
        let body_b = f.blocks().find(|&b| f.block(b).name == "body").unwrap();
        let conflict_at = ivs.block_span[body_b.index()].0;
        let mut temps = VarSet::default();
        let mut no_split = VarSet::default();
        let out = try_split(
            &mut f,
            k,
            conflict_at,
            &ivs,
            &loops,
            &live,
            &cfg,
            &costs,
            0,
            &mut temps,
            &mut no_split,
        )
        .expect("single-block fallback region must apply");
        f.validate().unwrap();
        // The hot sub-web is confined to a region away from the
        // conflict block: no occurrence of it in `body`.
        for i in f.block_insts(body_b) {
            assert!(
                f.inst(i).operands().all(|o| o.var != out.hot_var),
                "hot sub-web leaked into the conflict block\n{f}"
            );
        }
        assert_eq!(
            interp::run(&f, &[5], 10_000).unwrap().outputs,
            before,
            "{f}"
        );
    }

    /// A web confined to one block can never be split: there is no cold
    /// part to spill, whatever the conflict position.
    #[test]
    fn single_block_web_has_no_region() {
        let mut f = parse_function(HOT_THROUGH_LOOP, &Machine::dsp32()).unwrap();
        let r = f.vars().find(|&v| f.var(v).name == "r").unwrap();
        let (cfg, loops, live) = analyses(&f);
        let ivs = intervals::build(&f);
        let costs = SpillCosts::compute(&f, &loops);
        let entry = f.blocks().find(|&b| f.block(b).name == "entry").unwrap();
        let conflict_at = ivs.block_span[entry.index()].0;
        let mut temps = VarSet::default();
        let mut no_split = VarSet::default();
        assert!(try_split(
            &mut f,
            r,
            conflict_at,
            &ivs,
            &loops,
            &live,
            &cfg,
            &costs,
            0,
            &mut temps,
            &mut no_split,
        )
        .is_none());
    }

    /// A loop-free program: the split carves a straight-line block out
    /// of the web, reloading at the block's entry predecessor.
    #[test]
    fn non_loop_region_splits_a_straightline_web() {
        let mut f = parse_function(
            "
func @sl {
entry:
  %k = make 7
  %a = input
  %b = add %a, %k
  jump mid
mid:
  %c = add %b, %b
  jump last
last:
  %r = add %c, %k
  ret %r
}",
            &Machine::dsp32(),
        )
        .unwrap();
        let before = interp::run(&f, &[5], 10_000).unwrap().outputs;
        let k = f.vars().find(|&v| f.var(v).name == "k").unwrap();
        let (cfg, loops, live) = analyses(&f);
        let ivs = intervals::build(&f);
        let costs = SpillCosts::compute(&f, &loops);
        let mid = f.blocks().find(|&b| f.block(b).name == "mid").unwrap();
        let conflict_at = ivs.block_span[mid.index()].0;
        let mut temps = VarSet::default();
        let mut no_split = VarSet::default();
        let out = try_split(
            &mut f,
            k,
            conflict_at,
            &ivs,
            &loops,
            &live,
            &cfg,
            &costs,
            0,
            &mut temps,
            &mut no_split,
        )
        .expect("non-loop split must apply");
        f.validate().unwrap();
        assert!(out.reloads >= 1, "{f}");
        // Boundary copies land outside the conflict-free region's
        // interior: every boundary block is a predecessor of the region
        // or an exit of it.
        let last = f.blocks().find(|&b| f.block(b).name == "last").unwrap();
        for &b in &out.boundaries {
            assert!(
                f.succs(b).contains(&last) || b == last,
                "boundary {b:?} detached from the region\n{f}"
            );
        }
        assert_eq!(
            interp::run(&f, &[5], 10_000).unwrap().outputs,
            before,
            "{f}"
        );
    }

    #[test]
    fn web_defined_in_loop_gets_exit_stores() {
        // %z is loop-carried and read after the loop: the split must
        // store it back at the exit boundary.
        let mut f = parse_function(HOT_THROUGH_LOOP, &Machine::dsp32()).unwrap();
        let before = interp::run(&f, &[5], 10_000).unwrap().outputs;
        let z = f.vars().find(|&v| f.var(v).name == "z").unwrap();
        let (cfg, loops, live) = analyses(&f);
        let ivs = intervals::build(&f);
        let costs = SpillCosts::compute(&f, &loops);
        let exit = f.blocks().find(|&b| f.block(b).name == "exit").unwrap();
        let conflict_at = ivs.block_span[exit.index()].0;
        let mut temps = VarSet::default();
        let mut no_split = VarSet::default();
        let out = try_split(
            &mut f,
            z,
            conflict_at,
            &ivs,
            &loops,
            &live,
            &cfg,
            &costs,
            0,
            &mut temps,
            &mut no_split,
        )
        .expect("split must apply");
        assert!(out.stores >= 1, "loop-defined web needs an exit store\n{f}");
        f.validate().unwrap();
        assert_eq!(
            interp::run(&f, &[5], 10_000).unwrap().outputs,
            before,
            "{f}"
        );
    }
}
