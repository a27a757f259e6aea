//! Out-of-pinned-SSA translation: Leung and George's *mark* and
//! *reconstruct* phases (paper §2.3), generalized over any correct
//! pinning.
//!
//! The engine runs a forward must-dataflow computing, for every *slot*
//! (a renaming resource, or an unpinned φ definition standing for
//! itself), which SSA value currently occupies it. Then:
//!
//! * a use pinned to `S` emits `S = cur(x)` **unless `S` already holds
//!   `x`** (Fig. 3: "the algorithm is careful not to introduce a
//!   redundant move instruction in this case"); the argument copies of
//!   one instruction form a parallel group;
//! * a variable whose resource is overwritten between its definition and
//!   a use is *killed*: a repair copy `x′ = R` is inserted right after
//!   the definition and the killed uses read `x′` (Fig. 3's `x′3`);
//! * φs are replaced by one parallel copy per incoming edge, placed at
//!   the end of the predecessor (edges from multi-successor blocks are
//!   split first); no copy is emitted for an argument already occupying
//!   the φ's slot — the gain maximized by the coalescer;
//! * parallel copies are sequentialized, inserting a temporary on cycles
//!   (the swap problem) and ordering reads before writes (the lost-copy
//!   problem).
//!
//! Finally every pinned variable is renamed to its resource's final
//! variable and all φs and pins are erased: the result is ordinary
//! (non-SSA) machine code.

use crate::error::ReconstructError;
use tossa_ir::ids::{Block, EntityVec, Inst, Resource, Var};
use tossa_ir::instr::InstData;
use tossa_ir::parallel_copy::{sequentialize, sequentialize_checked};
use tossa_ir::print::{res_str, var_str};
use tossa_ir::{Function, Opcode};
use tossa_trace::provenance;

/// Copy counts produced by one translation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReconstructStats {
    /// Copies materializing φs (per-edge parallel copies).
    pub phi_copies: usize,
    /// Copies satisfying use pinnings (ABI argument setup etc.).
    pub abi_copies: usize,
    /// Repair copies for killed variables.
    pub repair_copies: usize,
    /// Extra temporaries introduced by cycle breaking.
    pub temp_copies: usize,
    /// φ instructions replaced.
    pub phis_removed: usize,
    /// Edges split so copies could be placed on them.
    pub edges_split: usize,
}

impl ReconstructStats {
    /// Publishes the run's totals on the trace sink (no-op when tracing
    /// is disabled).
    fn flush_trace(&self) {
        use tossa_trace::{count, Counter};
        count(Counter::CopiesPhi, self.phi_copies as u64);
        count(Counter::CopiesAbi, self.abi_copies as u64);
        count(Counter::CopiesRepair, self.repair_copies as u64);
        count(Counter::CopiesTemp, self.temp_copies as u64);
        count(Counter::PhisRemoved, self.phis_removed as u64);
        count(Counter::EdgesSplit, self.edges_split as u64);
    }

    /// Total `mov` instructions inserted.
    pub fn total_copies(&self) -> usize {
        self.phi_copies + self.abi_copies + self.repair_copies + self.temp_copies
    }
}

/// Splits every edge `(p, s)` where `s` contains φs and `p` has several
/// successors, so that per-edge parallel copies can be placed at the end
/// of the predecessor without affecting sibling paths. Returns the number
/// of edges split.
pub fn split_edges_for_phis(f: &mut Function) -> usize {
    let mut split = 0;
    for b in f.blocks() {
        if f.succs(b).len() < 2 {
            continue;
        }
        let succs: Vec<Block> = f.succs(b).to_vec();
        for (slot, s) in succs.iter().copied().enumerate() {
            if f.phis(s).next().is_none() {
                continue;
            }
            let mid = f.add_block(format!("edge{split}"));
            f.push_inst(mid, InstData::new(Opcode::Jump).with_targets(vec![s]));
            let term = f.terminator(b).expect("has successors");
            f.inst_mut(term).targets[slot] = mid;
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

/// Occupant lattice value: ⊥ (unvisited), ⊤ (unknown), or a variable.
const BOT: u32 = 0;
const TOP: u32 = 1;
fn val(v: Var) -> u32 {
    v.index() as u32 + 2
}
fn meet(a: u32, b: u32) -> u32 {
    match (a, b) {
        (BOT, x) | (x, BOT) => x,
        (x, y) if x == y => x,
        _ => TOP,
    }
}

/// Owns the slot numbering and per-variable home slots; does not borrow
/// the function (which is mutated during rewriting).
///
/// Slot numbering: resources take slots `0..nres` in index order (so a
/// resource's slot is just its index), unpinned φ definitions take the
/// slots after.
struct Engine {
    nslots: usize,
    home: EntityVec<Var, Option<usize>>,
}

impl Engine {
    fn new(f: &Function) -> Engine {
        let mut home: EntityVec<Var, Option<usize>> = EntityVec::filled(f.num_vars(), None);
        for v in f.vars() {
            if let Some(r) = f.var(v).pin {
                home[v] = Some(r.index());
            }
        }
        let mut nslots = f.resources.len();
        for (_, i) in f.all_insts() {
            let inst = f.inst(i);
            if inst.is_phi() {
                let x = inst.defs[0].var;
                if f.var(x).pin.is_none() && home[x].is_none() {
                    home[x] = Some(nslots);
                    nslots += 1;
                }
            }
        }
        Engine { nslots, home }
    }

    /// Home slot of `v` (`None` for plain, never-clobbered variables and
    /// for variables created after analysis).
    fn home(&self, v: Var) -> Option<usize> {
        self.home.get(v).copied().flatten()
    }

    fn res_slot(&self, r: Resource) -> usize {
        r.index()
    }

    /// Whether the value of `y` is readable from its home slot.
    fn available(&self, cur: &[u32], y: Var) -> bool {
        match self.home(y) {
            Some(slot) => cur[slot] == val(y),
            None => true,
        }
    }

    /// Applies one instruction's writes to `state` (use-pin writes, then
    /// definition writes).
    fn transfer_inst(&self, f: &Function, i: Inst, state: &mut [u32]) {
        let inst = f.inst(i);
        if inst.is_phi() {
            return;
        }
        for u in inst.uses {
            if let Some(s) = u.pin {
                state[self.res_slot(s)] = val(u.var);
            }
        }
        for d in inst.defs {
            if let Some(slot) = self.home(d.var) {
                state[slot] = val(d.var);
            }
        }
    }

    /// Applies the φ writes of any edge into `s` to `state`.
    fn transfer_edge(&self, f: &Function, s: Block, state: &mut [u32]) {
        for phi in f.phis(s) {
            let x = f.inst(phi).defs[0].var;
            if let Some(slot) = self.home(x) {
                state[slot] = val(x);
            }
        }
    }

    /// Computes the in-state of every reachable block by forward
    /// worklist fixpoint over reverse postorder. Meets are monotone
    /// (⊥ → value → ⊤), so reprocessing only the blocks whose input
    /// actually changed reaches the same fixpoint as the naive
    /// all-blocks iteration, without its per-round clones. The states
    /// are one table of `nslots` entries per block ([`Engine::in_state`]).
    fn in_states(&self, f: &Function, rpo: &[Block]) -> Vec<u32> {
        let (nb, n) = (f.num_blocks(), self.nslots);
        let mut ins = vec![BOT; nb * n];
        ins[f.entry.index() * n..][..n].fill(TOP);
        let mut on_list = vec![false; nb];
        let mut worklist: std::collections::VecDeque<Block> = rpo.iter().copied().collect();
        for &b in rpo {
            on_list[b.index()] = true;
        }
        let mut state = vec![BOT; self.nslots];
        let mut edge = vec![BOT; self.nslots];
        while let Some(b) = worklist.pop_front() {
            on_list[b.index()] = false;
            state.copy_from_slice(self.in_state(&ins, b));
            for i in f.block_insts(b) {
                self.transfer_inst(f, i, &mut state);
            }
            for &s in f.succs(b) {
                edge.clone_from(&state);
                self.transfer_edge(f, s, &mut edge);
                let mut changed = false;
                let tgt = &mut ins[s.index() * n..][..n];
                for (slot, &v) in edge.iter().enumerate() {
                    let m = meet(tgt[slot], v);
                    if m != tgt[slot] {
                        tgt[slot] = m;
                        changed = true;
                    }
                }
                if changed && !on_list[s.index()] {
                    on_list[s.index()] = true;
                    worklist.push_back(s);
                }
            }
        }
        ins
    }

    /// Block `b`'s row of an [`Engine::in_states`] table.
    fn in_state<'a>(&self, ins: &'a [u32], b: Block) -> &'a [u32] {
        &ins[b.index() * self.nslots..][..self.nslots]
    }

    /// Slots written (in parallel) just before instruction `i` executes:
    /// its use-pin copies and, for a terminator, the edge copies. Fills
    /// the caller's reusable buffer; slots are unique (last write wins,
    /// matching map-insert semantics), so a linear [`gw_get`] lookup is
    /// exact. Groups are tiny — a few pinned uses plus a few φs.
    fn group_writes_into(
        &self,
        f: &Function,
        b: Block,
        i: Inst,
        is_term: bool,
        out: &mut Vec<(usize, u32)>,
    ) {
        out.clear();
        let put = |out: &mut Vec<(usize, u32)>, slot: usize, v: u32| match out
            .iter_mut()
            .find(|e| e.0 == slot)
        {
            Some(e) => e.1 = v,
            None => out.push((slot, v)),
        };
        for u in f.inst(i).uses {
            if let Some(s) = u.pin {
                put(out, self.res_slot(s), val(u.var));
            }
        }
        if is_term {
            for &s in f.succs(b) {
                for phi in f.phis(s) {
                    let x = f.inst(phi).defs[0].var;
                    if let Some(slot) = self.home(x) {
                        put(out, slot, val(x));
                    }
                }
            }
        }
    }
}

/// Records `cause` for the copy into `dst`, replacing an earlier one.
fn set_cause(causes: &mut Vec<(Var, String)>, dst: Var, cause: String) {
    match causes.iter_mut().find(|(v, _)| *v == dst) {
        Some(e) => e.1 = cause,
        None => causes.push((dst, cause)),
    }
}

/// Lookup into a [`Engine::group_writes_into`] buffer.
fn gw_get(group: &[(usize, u32)], slot: usize) -> Option<u32> {
    group.iter().find(|e| e.0 == slot).map(|e| e.1)
}

/// Translates pinned SSA code out of SSA form in place.
///
/// Preconditions: `f` is valid SSA with a *correct* pinning
/// (see [`crate::pinning::check_pinning`]). The function's CFG is edited
/// (edge splitting); all φs and pins are gone afterwards.
pub fn out_of_pinned_ssa(f: &mut Function) -> ReconstructStats {
    match translate(f, false) {
        Ok(stats) => stats,
        Err(e) => unreachable!("unchecked translation cannot fail: {e}"),
    }
}

/// [`out_of_pinned_ssa`] for untrusted pinnings: an ill-formed parallel
/// copy group (the symptom of an incorrect pinning upstream) is reported
/// instead of asserted.
///
/// # Errors
/// Returns [`ReconstructError::ParallelCopy`] on a duplicate-destination
/// copy group; `f` is then partially rewritten and must be discarded.
pub fn out_of_pinned_ssa_checked(f: &mut Function) -> Result<ReconstructStats, ReconstructError> {
    translate(f, true)
}

fn translate(f: &mut Function, checked: bool) -> Result<ReconstructStats, ReconstructError> {
    let out = tossa_trace::span("reconstruct", || translate_inner(f, checked));
    if let Ok(stats) = &out {
        stats.flush_trace();
    }
    out
}

fn translate_inner(f: &mut Function, checked: bool) -> Result<ReconstructStats, ReconstructError> {
    let mut stats = ReconstructStats {
        edges_split: split_edges_for_phis(f),
        ..Default::default()
    };

    let engine = Engine::new(f);
    let rpo = tossa_ir::cfg::reverse_postorder(f);
    let ins = engine.in_states(f, &rpo);

    // Variables with no definition (e.g. the incoming value of a dedicated
    // register such as SP) are never killed: their value is the initial
    // content of their resource and needs no repair.
    let mut has_def = vec![false; f.num_vars()];
    for (_, i) in f.all_insts() {
        for d in f.inst(i).defs {
            has_def[d.var.index()] = true;
        }
    }

    // ---- mark phase: find killed variables ------------------------------
    let mut needs_repair: EntityVec<Var, bool> = EntityVec::filled(f.num_vars(), false);
    let mut cur: Vec<u32> = Vec::new();
    let mut insts: Vec<Inst> = Vec::new();
    let mut group: Vec<(usize, u32)> = Vec::new();
    for &b in &rpo {
        cur.clear();
        cur.extend_from_slice(engine.in_state(&ins, b));
        insts.clear();
        insts.extend(f.block_insts(b));
        for pos in 0..insts.len() {
            let i = insts[pos];
            let inst = f.inst(i);
            if inst.is_phi() {
                continue;
            }
            let is_term = pos + 1 == insts.len() && inst.is_terminator();
            engine.group_writes_into(f, b, i, is_term, &mut group);
            for u in inst.uses {
                match u.pin {
                    Some(s) => {
                        // A copy `S = cur(u)` is emitted unless S already
                        // holds the value; its source must be readable.
                        if has_def[u.var.index()]
                            && cur[engine.res_slot(s)] != val(u.var)
                            && !engine.available(&cur, u.var)
                        {
                            needs_repair[u.var] = true;
                        }
                    }
                    None => {
                        if let Some(slot) = engine.home(u.var) {
                            let clobbered = gw_get(&group, slot).is_some_and(|w| w != val(u.var));
                            if has_def[u.var.index()] && (cur[slot] != val(u.var) || clobbered) {
                                needs_repair[u.var] = true;
                            }
                        }
                    }
                }
            }
            // Edge copy sources must be readable at the end of the block
            // (checked when processing the terminator's group).
            if is_term {
                for &s in f.succs(b) {
                    for phi in f.phis(s) {
                        let pinst = f.inst(phi);
                        let Some(arg) = pinst.phi_arg_for(b) else {
                            continue;
                        };
                        let x = pinst.defs[0].var;
                        if let Some(ds) = engine.home(x) {
                            if cur[ds] == val(arg.var) {
                                continue; // no copy needed
                            }
                        }
                        if has_def[arg.var.index()] && !engine.available(&cur, arg.var) {
                            needs_repair[arg.var] = true;
                        }
                    }
                }
            }
            engine.transfer_inst(f, i, &mut cur);
        }
    }

    // ---- final names -----------------------------------------------------
    // Dense: resource `r`'s final variable at index `r.index()`, and a
    // killed variable's repair at its own index (None elsewhere).
    let mut res_var: Vec<Var> = Vec::with_capacity(f.resources.len());
    for r in f.resources.iter() {
        let name = f.resources.name(r).to_string();
        let v = f.new_var(name);
        if let Some(reg) = f.resources.as_phys(r) {
            f.var_mut(v).reg = Some(reg);
        }
        res_var.push(v);
    }
    let mut repair_var: Vec<Option<Var>> = vec![None; f.num_vars()];
    for v in needs_repair.keys().filter(|&v| needs_repair[v]) {
        let name = format!("{}_rep", f.var(v).name);
        let rv = f.new_var(name);
        repair_var[v.index()] = Some(rv);
    }
    // The final name of a variable: its resource's variable, or itself.
    let out_var = |f: &Function, v: Var| -> Var {
        match f.var(v).pin {
            Some(r) => res_var[r.index()],
            None => v,
        }
    };
    // The final variable currently holding the value of `y`.
    let read_loc = |f: &Function, cur: &[u32], y: Var| -> Var {
        match engine.home(y) {
            Some(slot)
                if cur[slot] != val(y) && y.index() < has_def.len() && has_def[y.index()] =>
            {
                repair_var[y.index()].expect("killed value was marked for repair")
            }
            _ => out_var(f, y),
        }
    };

    // ---- rewrite phase ----------------------------------------------------
    // New instruction lists are applied only after every block has been
    // processed: predecessors must still see their successors' φs.
    let mut new_lists: Vec<(Block, Vec<Inst>)> = Vec::with_capacity(rpo.len());
    let mut temp_counter = 0;
    let mut renamed_uses: Vec<Var> = Vec::new();
    let mut renamed_defs: Vec<Var> = Vec::new();
    let mut group_slots: Vec<(usize, u32)> = Vec::new();
    for &b in &rpo {
        cur.clear();
        cur.extend_from_slice(engine.in_state(&ins, b));
        insts.clear();
        insts.extend(f.block_insts(b));
        let mut new_list: Vec<Inst> = Vec::with_capacity(insts.len());

        // Repairs of this block's φ definitions come first.
        for &i in &insts {
            if !f.inst(i).is_phi() {
                break;
            }
            let x = f.inst(i).defs[0].var;
            stats.phis_removed += 1;
            if let Some(rv) = repair_var[x.index()] {
                let src = out_var(f, x);
                provenance::record(|| provenance::Kind::Copy {
                    dst: var_str(f, rv),
                    src: var_str(f, src),
                    cause: format!("repair:{}", var_str(f, x)),
                });
                let mov = f.alloc_inst(InstData::mov(rv, src));
                new_list.push(mov);
                stats.repair_copies += 1;
            }
        }

        for pos in 0..insts.len() {
            let i = insts[pos];
            if f.inst(i).is_phi() {
                continue;
            }
            let is_term = pos + 1 == insts.len() && f.inst(i).is_terminator();
            engine.group_writes_into(f, b, i, is_term, &mut group_slots);

            // Build the parallel copy group preceding this instruction.
            // `copy_cause` attributes each destination to the constraint
            // that demanded the copy (keyed by destination: a well-formed
            // parallel copy writes each destination once; a later entry
            // for the same destination replaces the earlier one).
            let mut group: Vec<(Var, Var)> = Vec::new();
            let mut copy_cause: Vec<(Var, String)> = Vec::new();
            for k in 0..f.inst(i).uses.len() {
                let u = f.inst(i).uses[k];
                if let Some(s) = u.pin {
                    if cur[engine.res_slot(s)] == val(u.var) {
                        continue; // redundant move avoided
                    }
                    let src = read_loc(f, &cur, u.var);
                    group.push((res_var[s.index()], src));
                    if tossa_trace::verbose() {
                        set_cause(
                            &mut copy_cause,
                            res_var[s.index()],
                            format!("abi:{}", res_str(f, s)),
                        );
                    }
                }
            }
            group.sort();
            group.dedup();
            let n_abi = group.len();
            if is_term {
                let edge = edge_copy_group(f, &engine, b, &cur, &res_var, &read_loc);
                stats.phi_copies += edge.len();
                if tossa_trace::verbose() {
                    for &(dst, _, succ) in &edge {
                        set_cause(
                            &mut copy_cause,
                            dst,
                            format!("phi-edge:{}->{}", f.block(b).name, f.block(succ).name),
                        );
                    }
                }
                group.extend(edge.into_iter().map(|(dst, src, _)| (dst, src)));
            }
            stats.abi_copies += n_abi;
            if !group.is_empty() {
                let first_temp = f.num_vars();
                let seq = tossa_trace::span("parallel_copy_seq", || {
                    if checked {
                        sequentialize_checked(&group, || {
                            temp_counter += 1;
                            stats.temp_copies += 1;
                            f.new_var(format!("pcopy{temp_counter}"))
                        })
                        .map_err(ReconstructError::ParallelCopy)
                    } else {
                        Ok(sequentialize(&group, || {
                            temp_counter += 1;
                            stats.temp_copies += 1;
                            f.new_var(format!("pcopy{temp_counter}"))
                        }))
                    }
                })?;
                for (d, s) in seq {
                    if tossa_trace::verbose() {
                        // A destination created by the sequentializer is a
                        // cycle-breaking temporary; anything else keeps the
                        // cause of the group member it realizes.
                        let cause = if d.index() >= first_temp {
                            "cycle".to_string()
                        } else {
                            copy_cause
                                .iter()
                                .find(|(v, _)| *v == d)
                                .map_or_else(|| "parallel-copy".to_string(), |(_, c)| c.clone())
                        };
                        provenance::record(|| provenance::Kind::Copy {
                            dst: var_str(f, d),
                            src: var_str(f, s),
                            cause,
                        });
                    }
                    let mov = f.alloc_inst(InstData::mov(d, s));
                    new_list.push(mov);
                }
            }

            // Compute the renamed operands before mutating (the state
            // advance below must still read the original pins), then
            // rewrite the instruction *in place*: the original id is
            // reused, avoiding a clone + arena grow per instruction.
            let inst = f.inst(i);
            renamed_uses.clear();
            renamed_uses.extend(inst.uses.iter().map(|u| match u.pin {
                Some(s) => res_var[s.index()],
                None => {
                    if let Some(slot) = engine.home(u.var) {
                        let clobbered = gw_get(&group_slots, slot).is_some_and(|w| w != val(u.var));
                        let killed =
                            has_def[u.var.index()] && (cur[slot] != val(u.var) || clobbered);
                        if killed {
                            repair_var[u.var.index()].expect("killed use was marked")
                        } else {
                            out_var(f, u.var)
                        }
                    } else {
                        u.var
                    }
                }
            }));
            let def_repairs: Vec<(Var, Var, Var)> = inst
                .defs
                .iter()
                .filter_map(|d| repair_var[d.var.index()].map(|rv| (rv, out_var(f, d.var), d.var)))
                .collect();
            renamed_defs.clear();
            renamed_defs.extend(inst.defs.iter().map(|d| out_var(f, d.var)));
            // Advance the state while the instruction is still original.
            for &(slot, w) in &group_slots {
                cur[slot] = w;
            }
            engine.transfer_inst(f, i, &mut cur);
            let data = f.inst_mut(i);
            for (u, &v) in data.uses.iter_mut().zip(&renamed_uses) {
                u.var = v;
                u.pin = None;
            }
            for (d, &v) in data.defs.iter_mut().zip(&renamed_defs) {
                d.var = v;
                d.pin = None;
            }
            let is_self_move = data.opcode.is_move() && data.defs[0].var == data.uses[0].var;
            if !is_self_move {
                new_list.push(i);
            }
            for (rv, src, orig) in def_repairs {
                provenance::record(|| provenance::Kind::Copy {
                    dst: var_str(f, rv),
                    src: var_str(f, src),
                    cause: format!("repair:{}", var_str(f, orig)),
                });
                let mov = f.alloc_inst(InstData::mov(rv, src));
                new_list.push(mov);
                stats.repair_copies += 1;
            }
        }
        new_lists.push((b, new_list));
    }
    for (b, list) in new_lists {
        f.block_mut(b).insts = list;
    }

    // Unreachable blocks never execute: reduce them to a bare return so
    // no φ or pin survives anywhere.
    let reachable = tossa_ir::cfg::reachable(f);
    for b in f.blocks() {
        if !reachable[b.index()] {
            f.block_mut(b).insts.clear();
            f.push_inst(b, InstData::new(Opcode::Ret));
        }
    }

    // Erase pins.
    for v in f.vars() {
        f.var_mut(v).pin = None;
    }
    Ok(stats)
}

/// Builds the parallel copy group materializing the φs of `b`'s
/// successors, in final variable names, and applies the skip rule for
/// arguments already occupying the φ's slot. Each move carries the
/// successor block it materializes a φ of, for provenance.
fn edge_copy_group(
    f: &Function,
    engine: &Engine,
    b: Block,
    cur: &[u32],
    res_var: &[Var],
    read_loc: &dyn Fn(&Function, &[u32], Var) -> Var,
) -> Vec<(Var, Var, Block)> {
    let mut moves = Vec::new();
    for &s in f.succs(b) {
        for phi in f.phis(s) {
            let inst = f.inst(phi);
            let Some(arg) = inst.phi_arg_for(b) else {
                continue;
            };
            let x = inst.defs[0].var;
            if let Some(ds) = engine.home(x) {
                if cur[ds] == val(arg.var) {
                    continue; // the coalescing gain: no copy
                }
            }
            let dst = match f.var(x).pin {
                Some(r) => res_var[r.index()],
                None => x,
            };
            let src = read_loc(f, cur, arg.var);
            if dst != src {
                moves.push((dst, src, s));
            }
        }
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::interp;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    fn parse(text: &str) -> Function {
        let f = parse_function(text, &Machine::dsp32()).unwrap();
        f.validate().unwrap();
        tossa_ssa::verify_ssa(&f).unwrap();
        f
    }

    fn check_equiv(before: &Function, after: &Function, inputs_list: &[&[i64]]) {
        for &inputs in inputs_list {
            let a = interp::run(before, inputs, 100_000).unwrap();
            let b = interp::run(after, inputs, 100_000)
                .unwrap_or_else(|e| panic!("after traps: {e}\n{after}"));
            assert_eq!(a.outputs, b.outputs, "inputs {inputs:?}\n{after}");
        }
    }

    #[test]
    fn unpinned_phi_naive_copies() {
        let f = parse(
            "func @d {
entry:
  %c = input
  br %c, l, r
l:
  %a = make 1
  jump m
r:
  %b = make 2
  jump m
m:
  %x = phi [l: %a], [r: %b]
  ret %x
}",
        );
        let mut g = f.clone();
        let stats = out_of_pinned_ssa(&mut g);
        g.validate().unwrap_or_else(|e| panic!("{e}\n{g}"));
        assert_eq!(stats.phis_removed, 1);
        assert_eq!(stats.phi_copies, 2); // one per edge, no coalescing
        check_equiv(&f, &g, &[&[0], &[1]]);
    }

    #[test]
    fn coalesced_phi_zero_copies() {
        let mut f = parse(
            "func @d {
entry:
  %c = input
  br %c, l, r
l:
  %a = make 1
  jump m
r:
  %b = make 2
  jump m
m:
  %x = phi [l: %a], [r: %b]
  ret %x
}",
        );
        let orig = f.clone();
        crate::coalesce::program_pinning(&mut f, &Default::default());
        let stats = out_of_pinned_ssa(&mut f);
        assert_eq!(stats.phi_copies, 0, "{f}");
        assert_eq!(f.count_moves(), 0);
        check_equiv(&orig, &f, &[&[0], &[1]]);
    }

    #[test]
    fn lost_copy_is_repaired() {
        // Forcing the φ web into one resource although x and x2 overlap
        // requires a repair copy (Fig. 5(b)'s "worst" solution).
        let mut f = parse(
            "func @lost {
entry:
  %one = make 1
  %n = input
  jump head
head:
  %x = phi [entry: %one], [latch: %x2]
  %x2 = addi %x, 1
  %c = cmplt %x2, %n
  br %c, latch, exit
latch:
  jump head
exit:
  ret %x
}",
        );
        let orig = f.clone();
        let r = f.resources.new_virt("forced");
        for name in ["one", "x", "x2"] {
            let v = f.vars().find(|&v| f.var(v).name == name).unwrap();
            f.var_mut(v).pin = Some(r);
        }
        let stats = out_of_pinned_ssa(&mut f);
        assert!(stats.repair_copies >= 1, "{stats:?}\n{f}");
        check_equiv(&orig, &f, &[&[0], &[1], &[5]]);
    }

    #[test]
    fn swap_problem_sequentialized_with_temp() {
        // Two φs exchanging values each iteration: with each φ coalesced
        // onto its own web the edge copies on the latch form a 2-cycle.
        let mut f = parse(
            "func @swap {
entry:
  %a, %b, %n = input
  %z = make 0
  jump head
head:
  %x = phi [entry: %a], [latch: %y]
  %y = phi [entry: %b], [latch: %x]
  %i = phi [entry: %z], [latch: %i2]
  %i2 = addi %i, 1
  %c = cmplt %i2, %n
  br %c, latch, exit
latch:
  jump head
exit:
  ret %x, %y
}",
        );
        let orig = f.clone();
        let stats = out_of_pinned_ssa(&mut f);
        f.validate().unwrap_or_else(|e| panic!("{e}\n{f}"));
        assert!(stats.temp_copies >= 1, "{stats:?}\n{f}");
        check_equiv(&orig, &f, &[&[7, 9, 1], &[7, 9, 2], &[7, 9, 5]]);
    }

    #[test]
    fn abi_use_pin_emits_setup_copies() {
        let mut f = parse(
            "func @abi {
entry:
  %a, %b = input
  %d = call g(%b!R0, %a!R1)
  ret %d!R0
}",
        );
        let orig = f.clone();
        crate::collect::pinning_abi(&mut f);
        let stats = out_of_pinned_ssa(&mut f);
        f.validate().unwrap();
        // Swapped arguments: both need to move (through a cycle).
        assert!(stats.abi_copies >= 2, "{stats:?}\n{f}");
        check_equiv(&orig, &f, &[&[3, 4], &[0, 0]]);
    }

    #[test]
    fn redundant_abi_copy_avoided() {
        let mut f = parse(
            "func @red {
entry:
  %a, %b = input
  %d = call g(%a, %b)
  ret %d
}",
        );
        let orig = f.clone();
        crate::collect::pinning_abi(&mut f);
        let stats = out_of_pinned_ssa(&mut f);
        // Arguments already arrive in R0/R1; the result is already in R0.
        assert_eq!(stats.total_copies(), 0, "{stats:?}\n{f}");
        assert_eq!(f.count_moves(), 0);
        check_equiv(&orig, &f, &[&[3, 4]]);
    }

    #[test]
    fn two_operand_constraint_honored() {
        let mut f = parse(
            "func @two {
entry:
  %p = input
  %v = load %p
  %q = autoadd %p, 1
  %w = load %q
  %s = add %v, %w
  ret %s
}",
        );
        let orig = f.clone();
        crate::collect::pinning_abi(&mut f);
        let mut g = f.clone();
        let _ = out_of_pinned_ssa(&mut g);
        g.validate().unwrap();
        let autoadd = g
            .all_insts()
            .find(|&(_, i)| g.inst(i).opcode == Opcode::AutoAdd)
            .map(|(_, i)| i)
            .unwrap();
        assert_eq!(g.inst(autoadd).defs[0].var, g.inst(autoadd).uses[0].var);
        check_equiv(&orig, &g, &[&[100], &[4]]);
    }

    #[test]
    fn kill_by_call_result_repaired() {
        // Fig. 3 skeleton: x lives in R0 (first input), the call also
        // defines R0 while x is needed afterwards: repair x′ = R0.
        let mut f = parse(
            "func @kill {
entry:
  %x, %y = input
  %d = call g(%y!R0)
  %s = add %x, %d
  ret %s!R0
}",
        );
        let orig = f.clone();
        crate::collect::pinning_abi(&mut f);
        let stats = out_of_pinned_ssa(&mut f);
        assert!(stats.repair_copies >= 1, "{stats:?}\n{f}");
        check_equiv(&orig, &f, &[&[3, 4], &[100, -1]]);
    }

    #[test]
    fn loop_with_coalescing_end_to_end() {
        let mut f = parse(
            "func @sum {
entry:
  %n = input
  %z = make 0
  %z2 = make 0
  jump head
head:
  %i = phi [entry: %z], [body: %i2]
  %acc = phi [entry: %z2], [body: %acc2]
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %acc2 = add %acc, %i
  %i2 = addi %i, 1
  jump head
exit:
  ret %acc
}",
        );
        let orig = f.clone();
        crate::coalesce::program_pinning(&mut f, &Default::default());
        let stats = out_of_pinned_ssa(&mut f);
        f.validate().unwrap_or_else(|e| panic!("{e}\n{f}"));
        // Full coalescing: i web and acc web each collapse to one name.
        assert_eq!(stats.phi_copies, 0, "{stats:?}\n{f}");
        assert_eq!(f.count_moves(), 0, "{f}");
        check_equiv(&orig, &f, &[&[0], &[1], &[5], &[10]]);
    }

    #[test]
    fn multi_value_return_uses_two_registers() {
        let mut f = parse(
            "func @pair {
entry:
  %a, %b = input
  %s = add %a, %b
  %d = sub %a, %b
  ret %s!R0, %d!R1
}",
        );
        let orig = f.clone();
        crate::collect::pinning_abi(&mut f);
        let _ = out_of_pinned_ssa(&mut f);
        f.validate().unwrap();
        check_equiv(&orig, &f, &[&[9, 4], &[-2, 3]]);
        // The final ret reads the two ABI register variables.
        let ret = f
            .all_insts()
            .find(|&(_, i)| f.inst(i).opcode == Opcode::Ret)
            .map(|(_, i)| i)
            .unwrap();
        let regs: Vec<_> = f.inst(ret).uses.iter().map(|u| f.var(u.var).reg).collect();
        assert!(regs.iter().all(|r| r.is_some()), "{f}");
    }

    #[test]
    fn chained_calls_route_through_r0() {
        // g's result (R0) feeds h's second argument (R1) while a fresh
        // value takes R0: the staging copies must not clobber each other.
        let mut f = parse(
            "func @chain {
entry:
  %a, %b = input
  %r1 = call g(%a, %b)
  %r2 = call h(%b, %r1)
  ret %r2
}",
        );
        let orig = f.clone();
        crate::collect::pinning_abi(&mut f);
        let _ = out_of_pinned_ssa(&mut f);
        f.validate().unwrap();
        check_equiv(&orig, &f, &[&[3, 4], &[0, -7]]);
    }

    #[test]
    fn excess_inputs_stay_virtual() {
        // Only the first four scalar + two pointer args have registers;
        // the rest keep their virtual names.
        let mut f = parse(
            "func @many {
entry:
  %a, %b, %c, %d, %e, %g, %h = input
  %s1 = add %a, %h
  %s2 = add %s1, %g
  ret %s2
}",
        );
        let orig = f.clone();
        crate::collect::pinning_abi(&mut f);
        let _ = out_of_pinned_ssa(&mut f);
        f.validate().unwrap();
        check_equiv(&orig, &f, &[&[1, 2, 3, 4, 5, 6, 7]]);
        let input = f
            .all_insts()
            .find(|&(_, i)| f.inst(i).opcode == Opcode::Input)
            .map(|(_, i)| i)
            .unwrap();
        let defs = &f.inst(input).defs;
        assert!(f.var(defs[0].var).reg.is_some());
        assert!(f.var(defs[6].var).reg.is_none(), "{f}");
    }

    #[test]
    fn psel_chain_coalesces_to_one_name() {
        let mut f = parse(
            "func @pc {
entry:
  %p1, %a1, %p2, %a2 = input
  %z = make 0
  %t1 = psel %p1, %a1, %z
  %x = psel %p2, %a2, %t1
  ret %x
}",
        );
        let orig = f.clone();
        crate::collect::pinning_abi(&mut f); // ties each psel to its else input
        let stats = out_of_pinned_ssa(&mut f);
        f.validate().unwrap();
        // Two copies total: seeding the chain's resource with z, and the
        // return staging into R0. Nothing between the psels.
        assert_eq!(stats.total_copies(), 2, "{stats:?}\n{f}");
        let psels: Vec<_> = f
            .all_insts()
            .filter(|&(_, i)| f.inst(i).opcode == Opcode::PSel)
            .map(|(_, i)| i)
            .collect();
        let names: std::collections::HashSet<_> =
            psels.iter().map(|&i| f.inst(i).defs[0].var).collect();
        assert_eq!(names.len(), 1, "whole chain in one resource\n{f}");
        check_equiv(&orig, &f, &[&[1, 10, 1, 20], &[0, 10, 0, 20]]);
    }

    #[test]
    fn checked_reconstruct_reports_ill_formed_copy_group() {
        // Two φs of one block forced into one resource with different
        // arguments: the per-edge parallel copy writes the resource
        // twice. The unchecked path would assert; the checked path
        // reports a structured error.
        let mut f = parse(
            "func @ill {
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
        let r = f.resources.new_virt("bad");
        for name in ["x", "y"] {
            let v = f.vars().find(|&v| f.var(v).name == name).unwrap();
            f.var_mut(v).pin = Some(r);
        }
        let e = out_of_pinned_ssa_checked(&mut f).unwrap_err();
        assert!(
            matches!(e, ReconstructError::ParallelCopy(_)),
            "expected parallel copy error, got {e}"
        );
    }

    #[test]
    fn unreachable_blocks_are_cleared() {
        let mut f = parse(
            "func @u {
entry:
  %a = make 1
  ret %a
dead:
  %x = phi [dead: %x]
  jump dead
}",
        );
        let _ = out_of_pinned_ssa(&mut f);
        f.validate().unwrap();
        assert_eq!(
            f.all_insts().filter(|&(_, i)| f.inst(i).is_phi()).count(),
            0,
            "no φ survives"
        );
    }
}
