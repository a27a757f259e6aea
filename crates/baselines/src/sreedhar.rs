//! Sreedhar et al.'s SSA→CSSA conversion, Method III (interference graph
//! and liveness driven copy insertion) \[11\], and the resulting
//! out-of-SSA translation.
//!
//! In *conventional* SSA (CSSA) every φ-congruence class is
//! interference-free, so replacing all members of a class by one name and
//! deleting the φs is correct. Method III inserts copies only for φ
//! resources whose congruence classes actually interfere, choosing the
//! side to split from liveness information (the four cases of \[11\]),
//! with the "process the unresolved resources" heuristic for
//! virtually-interfering pairs.
//!
//! The paper (§5) notes its Sreedhar implementation "still performs some
//! illegal variable splitting" around SP; this implementation instead
//! refuses to split resources of a dedicated-register web when the other
//! side can be split, and a final safety pass inserts copies for any
//! interference the heuristic left behind, so the output is always
//! genuinely conventional.

use std::rc::Rc;
use tossa_analysis::{AnalysisCache, DefMap, LiveAtDefs, Liveness};
use tossa_ir::ids::{Block, Inst, Var};
use tossa_ir::instr::InstData;
use tossa_ir::Function;

/// Statistics of a CSSA conversion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CssaStats {
    /// Copies inserted for φ arguments.
    pub arg_copies: usize,
    /// Copies inserted for φ results.
    pub def_copies: usize,
    /// Copies added by the final safety pass.
    pub safety_copies: usize,
}

impl CssaStats {
    /// All copies inserted.
    pub fn total(&self) -> usize {
        self.arg_copies + self.def_copies + self.safety_copies
    }
}

struct Analyses {
    live: Rc<Liveness>,
    defs: Rc<DefMap>,
    lad: Rc<LiveAtDefs>,
}

/// Pulls the analyses from the cache; φs that need no copies leave the
/// memo hot, so the common non-interfering case pays for liveness once.
fn analyze(f: &Function, cache: &mut AnalysisCache) -> Analyses {
    Analyses {
        live: cache.liveness(f),
        defs: cache.defs(f),
        lad: cache.live_at_defs(f),
    }
}

/// Exact pairwise live-range interference (dominance + live-after-def).
fn interferes(a: &Analyses, x: Var, y: Var) -> bool {
    if x == y {
        return false;
    }
    let (Some(sx), Some(sy)) = (a.defs.site(x), a.defs.site(y)) else {
        return false;
    };
    // Same-instruction defs always interfere.
    if sx.inst == sy.inst {
        return true;
    }
    a.lad.after_def(y).is_some_and(|s| s.contains(x))
        || a.lad.after_def(x).is_some_and(|s| s.contains(y))
        || (sx.block == sy.block && sx.is_phi && sy.is_phi)
}

/// φ-congruence classes maintained with union-find + member lists:
/// `members[r]` lists the class whose root is `r`, and stays empty for a
/// class of one.
struct Classes {
    parent: Vec<usize>,
    members: Vec<Vec<Var>>,
}

impl Classes {
    fn new(n: usize) -> Classes {
        Classes {
            parent: (0..n).collect(),
            members: vec![Vec::new(); n],
        }
    }
    fn grow(&mut self, n: usize) {
        while self.parent.len() < n {
            self.parent.push(self.parent.len());
            self.members.push(Vec::new());
        }
    }
    fn find(&mut self, v: Var) -> usize {
        let mut r = v.index();
        while self.parent[r] != r {
            r = self.parent[r];
        }
        let mut c = v.index();
        while self.parent[c] != r {
            let n = self.parent[c];
            self.parent[c] = r;
            c = n;
        }
        r
    }
    /// Appends the members of `v`'s class to `out`.
    fn push_members(&mut self, v: Var, out: &mut Vec<Var>) {
        let r = self.find(v);
        if self.members[r].is_empty() {
            out.push(v);
        } else {
            out.extend_from_slice(&self.members[r]);
        }
    }
    fn union(&mut self, a: Var, b: Var) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let ma = std::mem::take(&mut self.members[ra]);
        let mb = &mut self.members[rb];
        if mb.is_empty() {
            mb.push(Var::new(rb));
        }
        if ma.is_empty() {
            mb.push(Var::new(ra));
        } else {
            mb.extend(ma);
        }
        self.parent[ra] = rb;
    }
}

/// Whether splitting `v` (renaming it at a φ boundary) should be avoided:
/// versions of dedicated registers must keep their web intact (§5).
fn avoid_split(f: &Function, v: Var) -> bool {
    let data = f.var(v);
    if data.reg.is_some() {
        return true;
    }
    data.origin.is_some_and(|o| f.var(o).reg.is_some())
}

/// Converts `f` to conventional SSA by Method-III-style copy insertion.
pub fn to_cssa(f: &mut Function) -> CssaStats {
    to_cssa_cached(f, &mut AnalysisCache::new())
}

/// [`to_cssa`] against a shared [`AnalysisCache`]. Analyses are only
/// recomputed after a φ actually inserts copies; φs whose resources do
/// not interfere reuse the memoized liveness.
pub fn to_cssa_cached(f: &mut Function, cache: &mut AnalysisCache) -> CssaStats {
    tossa_trace::span("to_cssa", || {
        let stats = to_cssa_inner(f, cache);
        tossa_trace::count(tossa_trace::Counter::CopiesPhi, stats.total() as u64);
        stats
    })
}

fn to_cssa_inner(f: &mut Function, cache: &mut AnalysisCache) -> CssaStats {
    let mut stats = CssaStats::default();
    let mut classes = Classes::new(f.num_vars());

    // Process φs block by block. Analyses are invalidated after each φ's
    // copies are inserted (simple and robust; incremental updates are the
    // production optimization the paper's authors describe).
    let phi_list: Vec<(Block, Inst)> = f.all_insts().filter(|&(_, i)| f.inst(i).is_phi()).collect();

    for (block, phi) in phi_list {
        let analyses = analyze(f, cache);
        let inst = f.inst(phi);
        // Resources of this φ: (var, block where its value crosses).
        let mut resources: Vec<(Var, Block, Option<usize>)> = Vec::new();
        resources.push((inst.defs[0].var, block, None));
        for (k, u) in inst.uses.iter().enumerate() {
            resources.push((u.var, inst.phi_preds[k], Some(k)));
        }

        // Each resource's congruence class, as a range of `class_vars`.
        // No class changes before the copies go in, so each is read once.
        let mut class_vars: Vec<Var> = Vec::new();
        let mut class_of: Vec<std::ops::Range<usize>> = Vec::with_capacity(resources.len());
        for &(x, _, _) in &resources {
            let start = class_vars.len();
            classes.push_members(x, &mut class_vars);
            class_of.push(start..class_vars.len());
        }

        // Pairwise interference of congruence classes -> candidates,
        // flagged by position in `resources`.
        let mut candidates = vec![false; resources.len()];
        let mut unresolved: Vec<(usize, usize)> = Vec::new();
        for i in 0..resources.len() {
            for j in i + 1..resources.len() {
                let (xi, li, _) = resources[i];
                let (xj, lj, _) = resources[j];
                if xi == xj {
                    continue;
                }
                let ci = &class_vars[class_of[i].clone()];
                let cj = &class_vars[class_of[j].clone()];
                let class_interf = ci
                    .iter()
                    .any(|&a| cj.iter().any(|&b| interferes(&analyses, a, b)));
                if !class_interf {
                    continue;
                }
                // The four cases of Method III.
                let ci_live_out_lj = ci.iter().any(|&a| analyses.live.live_out(lj).contains(a));
                let cj_live_out_li = cj.iter().any(|&a| analyses.live.live_out(li).contains(a));
                match (ci_live_out_lj, cj_live_out_li) {
                    (true, false) => candidates[i] = true,
                    (false, true) => candidates[j] = true,
                    (true, true) => {
                        candidates[i] = true;
                        candidates[j] = true;
                    }
                    (false, false) => unresolved.push((i, j)),
                }
            }
        }
        // Process the unresolved resources: repeatedly take the resource
        // with the most unresolved neighbours.
        let mut count: Vec<usize> = Vec::new();
        loop {
            unresolved.retain(|&(i, j)| !candidates[i] && !candidates[j]);
            if unresolved.is_empty() {
                break;
            }
            count.clear();
            count.resize(resources.len(), 0);
            for &(i, j) in &unresolved {
                count[i] += 1;
                count[j] += 1;
            }
            let pick = (0..resources.len())
                .filter(|&i| count[i] > 0)
                .max_by_key(|&i| {
                    // Prefer splitting resources that are allowed to split.
                    let splittable = !avoid_split(f, resources[i].0);
                    (splittable, count[i], std::cmp::Reverse(i))
                })
                .expect("non-empty");
            candidates[pick] = true;
        }

        // Insert the copies.
        if candidates.contains(&true) {
            cache.invalidate_instructions();
        }
        for idx in (0..resources.len()).filter(|&i| candidates[i]) {
            let (x, l, arg_slot) = resources[idx];
            match arg_slot {
                Some(k) => {
                    // xi' = xi at the end of the predecessor l.
                    let nv = f.new_var(format!("{}_c", f.var(x).name));
                    let at = f.block(l).insts.len().saturating_sub(1);
                    f.insert_inst(l, at, InstData::mov(nv, x));
                    f.inst_mut(phi).uses[k].var = nv;
                    classes.grow(f.num_vars());
                    stats.arg_copies += 1;
                }
                None => {
                    // x0' = φ(...); x0 = x0' at the head of the block.
                    let nv = f.new_var(format!("{}_c", f.var(x).name));
                    f.inst_mut(phi).defs[0].var = nv;
                    let at = f.first_non_phi(l);
                    f.insert_inst(l, at, InstData::mov(x, nv));
                    classes.grow(f.num_vars());
                    stats.def_copies += 1;
                }
            }
        }

        // Merge the (possibly renamed) φ resources into one class.
        let inst = f.inst(phi);
        let d = inst.defs[0].var;
        for u in inst.uses {
            classes.union(d, u.var);
        }
    }

    stats.safety_copies = safety_pass(f, cache);
    stats
}

/// Final safety pass: whatever the Method III heuristic left behind is
/// resolved by splitting the offending φ resources until every
/// φ-congruence class is interference-free. Conversion back out of SSA is
/// only correct on genuinely conventional code, so this pass guarantees
/// the post-condition rather than trusting the heuristic.
fn safety_pass(f: &mut Function, cache: &mut AnalysisCache) -> usize {
    let mut inserted = 0;
    loop {
        let analyses = analyze(f, cache);
        let phis: Vec<Inst> = f
            .all_insts()
            .filter(|&(_, i)| f.inst(i).is_phi())
            .map(|(_, i)| i)
            .collect();
        // Webs from all φ unions.
        let mut all = Classes::new(f.num_vars());
        for &i in &phis {
            let inst = f.inst(i);
            let d = inst.defs[0].var;
            for u in inst.uses {
                all.union(d, u.var);
            }
        }
        // Find one φ whose direct resources' webs conflict pairwise.
        // Pre-filter: any conflict between two sub-webs of a φ is an
        // interfering pair inside the φ's *whole* web (sub-webs are
        // subsets of it), so a φ whose whole web is interference-free
        // can be skipped without building its per-resource sub-webs.
        // The check is cached per union-find root; in the common case —
        // the Method III heuristic left nothing behind — no web
        // interferes and the loop below never materializes a `without`.
        let mut web_conflict: Vec<Option<bool>> = vec![None; f.num_vars()];
        let mut fix: Option<(Inst, usize)> = None; // (phi, arg slot to split)
        let mut whole_web: Vec<Var> = Vec::new();
        'outer: for &p in &phis {
            let inst = f.inst(p);
            let d = inst.defs[0].var;
            let root = all.find(d);
            whole_web.clear();
            all.push_members(d, &mut whole_web);
            if whole_web.len() < 2 {
                continue;
            }
            let conflicts = *web_conflict[root].get_or_insert_with(|| {
                whole_web.iter().enumerate().any(|(i, &a)| {
                    whole_web[i + 1..]
                        .iter()
                        .any(|&b| interferes(&analyses, a, b))
                })
            });
            if !conflicts {
                continue;
            }
            // Sub-web of each direct resource: its class built from all
            // φs *except* p (so splitting one argument detaches it).
            let mut without = Classes::new(f.num_vars());
            for &i in &phis {
                if i == p {
                    continue;
                }
                let oi = f.inst(i);
                let od = oi.defs[0].var;
                for u in oi.uses {
                    without.union(od, u.var);
                }
            }
            let mut webs: Vec<(Option<usize>, Vec<Var>)> = Vec::new();
            let sides = std::iter::once((None, d))
                .chain(inst.uses.iter().enumerate().map(|(k, u)| (Some(k), u.var)));
            for (slot, v) in sides {
                let mut web = Vec::new();
                without.push_members(v, &mut web);
                webs.push((slot, web));
            }
            for i in 0..webs.len() {
                for j in i + 1..webs.len() {
                    let conflict = webs[i]
                        .1
                        .iter()
                        .any(|&a| webs[j].1.iter().any(|&b| interferes(&analyses, a, b)));
                    if conflict {
                        // Prefer splitting an argument over the def, and a
                        // splittable resource over a dedicated-register web.
                        let slot = match (webs[i].0, webs[j].0) {
                            (Some(ki), Some(kj)) => {
                                if avoid_split(f, inst.uses[ki].var) {
                                    Some(kj)
                                } else {
                                    Some(ki)
                                }
                            }
                            (Some(k), None) | (None, Some(k)) => Some(k),
                            (None, None) => unreachable!("distinct webs"),
                        };
                        fix = Some((p, slot.expect("an argument side exists")));
                        break 'outer;
                    }
                }
            }
        }
        let Some((p, k)) = fix else { break };
        cache.invalidate_instructions();
        let inst = f.inst(p);
        let u = inst.uses[k].var;
        let l = inst.phi_preds[k];
        let nv = f.new_var(format!("{}_s", f.var(u).name));
        let at = f.block(l).insts.len().saturating_sub(1);
        f.insert_inst(l, at, InstData::mov(nv, u));
        f.inst_mut(p).uses[k].var = nv;
        inserted += 1;
    }
    inserted
}

/// Full Sreedhar-style out-of-SSA: convert to CSSA, rename every
/// φ-congruence class to a single representative, and delete the φs.
pub fn sreedhar_out_of_ssa(f: &mut Function) -> CssaStats {
    sreedhar_out_of_ssa_cached(f, &mut AnalysisCache::new())
}

/// [`sreedhar_out_of_ssa`] against a shared [`AnalysisCache`]. The cache
/// is invalidated at the end (renaming and φ deletion are structural).
pub fn sreedhar_out_of_ssa_cached(f: &mut Function, cache: &mut AnalysisCache) -> CssaStats {
    let stats = to_cssa_cached(f, cache);
    let mut classes = Classes::new(f.num_vars());
    for (_, i) in f.all_insts().collect::<Vec<_>>() {
        let inst = f.inst(i);
        if !inst.is_phi() {
            continue;
        }
        let d = inst.defs[0].var;
        for u in inst.uses {
            classes.union(d, u.var);
        }
    }
    // Rename members to a representative, preferring one that carries a
    // register identity so dedicated-register webs keep their register.
    // `rep[r]` is the representative of the class rooted at `r`.
    let mut rep: Vec<Var> = f.vars().collect();
    for v in f.vars() {
        if f.var(v).reg.is_some() {
            rep[classes.find(v)] = v;
        }
    }
    f.rewrite_vars(|v| rep[classes.find(v)]);
    // Delete φs (now self-referential).
    for b in f.blocks().collect::<Vec<_>>() {
        for phi in f.phis(b).collect::<Vec<_>>() {
            f.remove_inst(b, phi);
        }
    }
    cache.invalidate_instructions();
    stats
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

    fn cssa_is_conventional(f: &Function) {
        // The public checker must agree...
        tossa_ssa::verify_cssa(f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        // ...with this independent class-by-class assertion.
        let analyses = analyze(f, &mut AnalysisCache::new());
        let mut classes = Classes::new(f.num_vars());
        for (_, i) in f.all_insts() {
            let inst = f.inst(i);
            if inst.is_phi() {
                let d = inst.defs[0].var;
                for u in inst.uses {
                    classes.union(d, u.var);
                }
            }
        }
        for (_, i) in f.all_insts() {
            let inst = f.inst(i);
            if !inst.is_phi() {
                continue;
            }
            let mut members = Vec::new();
            classes.push_members(inst.defs[0].var, &mut members);
            for (a_idx, &a) in members.iter().enumerate() {
                for &b in &members[a_idx + 1..] {
                    assert!(
                        !interferes(&analyses, a, b),
                        "{a} and {b} interfere within a class\n{f}"
                    );
                }
            }
        }
    }

    #[test]
    fn non_interfering_phi_needs_no_copies() {
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
        let stats = sreedhar_out_of_ssa(&mut f);
        f.validate().unwrap();
        assert_eq!(stats.total(), 0);
        assert_eq!(f.count_moves(), 0);
        for c in [0, 1] {
            assert_eq!(
                interp::run(&orig, &[c], 100).unwrap().outputs,
                interp::run(&f, &[c], 100).unwrap().outputs
            );
        }
    }

    #[test]
    fn interfering_arg_gets_one_copy() {
        // a is used after the φ: a interferes with the class.
        let mut f = parse(
            "func @i {
entry:
  %c = input
  %a = make 1
  br %c, l, r
l:
  jump m
r:
  %b = make 2
  jump m
m:
  %x = phi [l: %a], [r: %b]
  %y = add %x, %a
  ret %y
}",
        );
        let orig = f.clone();
        let mut g = f.clone();
        let stats = to_cssa(&mut g);
        assert!(stats.total() >= 1);
        cssa_is_conventional(&g);
        let _ = sreedhar_out_of_ssa(&mut f);
        f.validate().unwrap();
        for c in [0, 1] {
            assert_eq!(
                interp::run(&orig, &[c], 100).unwrap().outputs,
                interp::run(&f, &[c], 100).unwrap().outputs
            );
        }
    }

    #[test]
    fn lost_copy_handled() {
        let mut f = parse(
            "func @lost {
entry:
  %one = make 1
  %n = input
  jump head
head:
  %x = phi [entry: %one], [head: %x2]
  %x2 = addi %x, 1
  %c = cmplt %x2, %n
  br %c, head, exit
exit:
  ret %x
}",
        );
        let orig = f.clone();
        let _ = sreedhar_out_of_ssa(&mut f);
        f.validate().unwrap();
        for n in [0, 2, 5] {
            assert_eq!(
                interp::run(&orig, &[n], 10_000).unwrap().outputs,
                interp::run(&f, &[n], 10_000).unwrap().outputs,
                "n={n}\n{f}"
            );
        }
    }

    #[test]
    fn swap_handled() {
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
        let _ = sreedhar_out_of_ssa(&mut f);
        f.validate().unwrap();
        for n in [1, 2, 5] {
            assert_eq!(
                interp::run(&orig, &[7, 9, n], 10_000).unwrap().outputs,
                interp::run(&f, &[7, 9, n], 10_000).unwrap().outputs,
                "n={n}\n{f}"
            );
        }
    }

    #[test]
    fn chained_phis_stay_conventional() {
        let mut f = parse(
            "func @chain {
entry:
  %p, %q = input
  jump head
head:
  %x = phi [entry: %p], [body: %y2]
  %y = phi [entry: %q], [body: %x2]
  %x2 = addi %x, 1
  %y2 = addi %y, -1
  %c = cmplt %x2, %y2
  br %c, body, exit
body:
  jump head
exit:
  ret %x, %y
}",
        );
        let orig = f.clone();
        let mut g = f.clone();
        to_cssa(&mut g);
        cssa_is_conventional(&g);
        let _ = sreedhar_out_of_ssa(&mut f);
        f.validate().unwrap();
        assert_eq!(
            interp::run(&orig, &[0, 10], 10_000).unwrap().outputs,
            interp::run(&f, &[0, 10], 10_000).unwrap().outputs
        );
    }
}
