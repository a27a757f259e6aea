//! The analysis manager: one [`AnalysisCache`] per function pipeline,
//! lazily computing and memoizing every analysis for the current
//! *revision* of the function, with explicit invalidation when a pass
//! mutates code.
//!
//! # Architecture
//!
//! The pipeline's passes after the front end (Sreedhar's conversion, the
//! coalescer, reconstruction's cleanup, Chaitin's coalescing and the
//! allocator's spill rounds) do not call `Liveness::compute` /
//! `DomTree::compute` & co. directly; they ask the cache, which computes
//! each analysis at most once per mutation epoch and hands out cheap
//! [`Rc`] handles. Handles stay valid (and shareable) even while later
//! passes request further analyses, so a pass can hold `DomTree`,
//! `Liveness`, and `LiveAtDefs` simultaneously without borrow
//! gymnastics.
//!
//! Three kinds of caller compute analyses themselves, on purpose:
//!
//! * the SSA front end (`to_ssa`, `gvn`, and if-conversion's CFG). It
//!   runs before any pipeline cache exists, and each result has one
//!   reader before the pass rewrites the function, so a cache would only
//!   add bookkeeping;
//! * the checkers (`verify_ssa`, `verify_cssa` and the allocator's
//!   `verify_allocation`). A check recomputes from the code it is given
//!   rather than trust an answer the pass under check may have left
//!   stale;
//! * `tossa_regalloc::intervals::build`, the cache-free entry point its
//!   unit tests use (the allocator itself calls `build_cached`).
//!
//! # Invalidation rules
//!
//! * Any structural mutation — adding/removing instructions or blocks,
//!   rewriting operands, splitting edges — requires
//!   [`AnalysisCache::invalidate`] before the next analysis request.
//! * *Pinning* mutations (setting `var.pin`) change no analysis input:
//!   liveness, dominance, and definition sites are oblivious to resource
//!   assignment, so pinning passes keep the cache hot. This is the
//!   paper's own observation for `Program_pinning`: analyses are computed
//!   once and stay valid across all merges.
//! * In debug builds every access compares the function's structure with
//!   the epoch's first access and panics on a mismatch, so a missing
//!   `invalidate` is caught at the offending call site rather than as a
//!   silently stale answer. The structure is fingerprinted only when the
//!   function's [edit stamp](Function::edit_stamp) has moved since the
//!   last comparison: an unmoved stamp means no `&mut` access happened,
//!   so the fingerprint cannot have changed.

use crate::liveness::{DefMap, LiveAtDefs, Liveness};
use crate::loops::LoopInfo;
use crate::DomTree;
use std::fmt;
use std::rc::Rc;
use tossa_ir::cfg::Cfg;
use tossa_ir::Function;

/// A stale-analysis diagnostic: the function's structure changed since
/// the epoch's first access without an intervening
/// [`AnalysisCache::invalidate`]. Produced instead of a panic when the
/// cache runs in *deferred staleness* mode (checked pipelines), so the
/// violation can be reported per-function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaleAnalysis {
    /// The mutation epoch during which the mismatch was observed.
    pub revision: u64,
    /// Names of the analyses that were memoized — and therefore stale —
    /// at detection time.
    pub stale: Vec<&'static str>,
}

impl fmt::Display for StaleAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stale analyses {:?} at mutation epoch {}: function mutated \
             without invalidate()",
            self.stale, self.revision
        )
    }
}

impl std::error::Error for StaleAnalysis {}

/// Lazily computed, memoized analyses for one revision of a function.
#[derive(Default)]
pub struct AnalysisCache {
    revision: u64,
    cfg: Option<Rc<Cfg>>,
    domtree: Option<Rc<DomTree>>,
    liveness: Option<Rc<Liveness>>,
    defs: Option<Rc<DefMap>>,
    lad: Option<Rc<LiveAtDefs>>,
    loops: Option<Rc<LoopInfo>>,
    /// Structural fingerprint of the function at the first access of this
    /// epoch, and the edit stamp it was last compared at; checked on
    /// every access in debug builds and in deferred staleness mode.
    fingerprint: Option<(u64, (u64, u64))>,
    /// Deferred staleness mode: record [`StaleAnalysis`] and self-heal
    /// instead of panicking (and keep checking in release builds).
    deferred: bool,
    stale: Option<StaleAnalysis>,
}

/// Records one cache-accessor outcome on the trace sink (no-op when
/// tracing is disabled).
fn trace_access(hit: bool) {
    if hit {
        tossa_trace::count(tossa_trace::Counter::AnalysisCacheHits, 1);
    } else {
        tossa_trace::count(tossa_trace::Counter::AnalysisCacheMisses, 1);
    }
}

impl AnalysisCache {
    /// An empty cache at revision 0.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// The current mutation epoch (bumped by [`AnalysisCache::invalidate`]).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Drops the analyses that read instruction bodies (liveness,
    /// definition sites, live-after-def) but keeps the CFG-shape
    /// analyses (CFG, dominators, loops). Sound after mutations that
    /// insert, remove, or rewrite non-branch instructions without
    /// touching terminators or block structure — copy insertion, move
    /// coalescing, dead code elimination.
    pub fn invalidate_instructions(&mut self) {
        self.revision += 1;
        self.liveness = None;
        self.defs = None;
        self.lad = None;
        self.fingerprint = None;
    }

    /// Drops every memoized analysis and starts a new mutation epoch.
    /// Call after any structural change to the function.
    pub fn invalidate(&mut self) {
        self.revision += 1;
        self.cfg = None;
        self.domtree = None;
        self.liveness = None;
        self.defs = None;
        self.lad = None;
        self.loops = None;
        self.fingerprint = None;
    }

    /// Switches deferred staleness mode on or off. When on, a fingerprint
    /// mismatch records a [`StaleAnalysis`] diagnostic (retrievable with
    /// [`AnalysisCache::take_stale`]) and self-heals by invalidating, so
    /// the returned analyses are always fresh; the check also runs in
    /// release builds. When off (the default), a mismatch panics in debug
    /// builds and is not checked in release builds.
    pub fn set_deferred_staleness(&mut self, on: bool) {
        self.deferred = on;
    }

    /// Takes the recorded stale-analysis diagnostic, if a mismatch was
    /// observed in deferred mode since the last call.
    pub fn take_stale(&mut self) -> Option<StaleAnalysis> {
        self.stale.take()
    }

    /// The names of the currently memoized analyses.
    fn memoized(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        if self.cfg.is_some() {
            names.push("cfg");
        }
        if self.domtree.is_some() {
            names.push("domtree");
        }
        if self.liveness.is_some() {
            names.push("liveness");
        }
        if self.defs.is_some() {
            names.push("defs");
        }
        if self.lad.is_some() {
            names.push("live_at_defs");
        }
        if self.loops.is_some() {
            names.push("loops");
        }
        names
    }

    /// Staleness check: the function's structure must match the first
    /// access of this epoch. Runs in debug builds always and in release
    /// builds when deferred mode is on; fingerprints only when the edit
    /// stamp has moved since the last comparison.
    fn check_revision(&mut self, f: &Function) {
        if !self.deferred && !cfg!(debug_assertions) {
            return;
        }
        let stamp = f.edit_stamp();
        if self.fingerprint.is_some_and(|(_, seen)| seen == stamp) {
            return;
        }
        let fp = fingerprint(f);
        match self.fingerprint {
            None => self.fingerprint = Some((fp, stamp)),
            Some((expected, _)) if expected == fp => self.fingerprint = Some((fp, stamp)),
            Some(_) if self.deferred => {
                if self.stale.is_none() {
                    self.stale = Some(StaleAnalysis {
                        revision: self.revision,
                        stale: self.memoized(),
                    });
                }
                self.invalidate();
                self.fingerprint = Some((fp, stamp));
            }
            Some(_) => panic!(
                "AnalysisCache: function mutated without invalidate() \
                 (revision {}); call cache.invalidate() after structural \
                 changes",
                self.revision
            ),
        }
    }

    /// The control-flow graph (with its cached reverse postorder).
    pub fn cfg(&mut self, f: &Function) -> Rc<Cfg> {
        self.check_revision(f);
        trace_access(self.cfg.is_some());
        if self.cfg.is_none() {
            self.cfg = Some(tossa_trace::span("compute_cfg", || {
                Rc::new(Cfg::compute(f))
            }));
        }
        Rc::clone(self.cfg.as_ref().unwrap())
    }

    /// The dominator tree.
    pub fn domtree(&mut self, f: &Function) -> Rc<DomTree> {
        self.check_revision(f);
        trace_access(self.domtree.is_some());
        if self.domtree.is_none() {
            let cfg = self.cfg(f);
            self.domtree = Some(tossa_trace::span("compute_domtree", || {
                Rc::new(DomTree::compute(f, &cfg))
            }));
        }
        Rc::clone(self.domtree.as_ref().unwrap())
    }

    /// Liveness with the paper's φ conventions.
    pub fn liveness(&mut self, f: &Function) -> Rc<Liveness> {
        self.check_revision(f);
        trace_access(self.liveness.is_some());
        if self.liveness.is_none() {
            let cfg = self.cfg(f);
            self.liveness = Some(tossa_trace::span("compute_liveness", || {
                Rc::new(Liveness::compute(f, &cfg))
            }));
        }
        Rc::clone(self.liveness.as_ref().unwrap())
    }

    /// Definition sites.
    pub fn defs(&mut self, f: &Function) -> Rc<DefMap> {
        self.check_revision(f);
        trace_access(self.defs.is_some());
        if self.defs.is_none() {
            self.defs = Some(tossa_trace::span("compute_defs", || {
                Rc::new(DefMap::compute(f))
            }));
        }
        Rc::clone(self.defs.as_ref().unwrap())
    }

    /// The exact live-after-def interference oracle.
    pub fn live_at_defs(&mut self, f: &Function) -> Rc<LiveAtDefs> {
        self.check_revision(f);
        trace_access(self.lad.is_some());
        if self.lad.is_none() {
            let live = self.liveness(f);
            let defs = self.defs(f);
            self.lad = Some(tossa_trace::span("compute_live_at_defs", || {
                Rc::new(LiveAtDefs::compute(f, &live, &defs))
            }));
        }
        Rc::clone(self.lad.as_ref().unwrap())
    }

    /// Natural loops and nesting depths.
    pub fn loops(&mut self, f: &Function) -> Rc<LoopInfo> {
        self.check_revision(f);
        trace_access(self.loops.is_some());
        if self.loops.is_none() {
            let cfg = self.cfg(f);
            let dt = self.domtree(f);
            self.loops = Some(tossa_trace::span("compute_loops", || {
                Rc::new(LoopInfo::compute(f, &cfg, &dt))
            }));
        }
        Rc::clone(self.loops.as_ref().unwrap())
    }
}

/// A cheap structural hash of everything the analyses read: block
/// shapes, opcodes, operands, φ predecessor lists, and branch targets.
/// Deliberately excludes `var.pin` — pinning is not an analysis input
/// (see the module docs), so pinning passes don't trip the staleness
/// check.
fn fingerprint(f: &Function) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    f.num_blocks().hash(&mut h);
    f.num_vars().hash(&mut h);
    for b in f.blocks() {
        0xB10C_u16.hash(&mut h);
        for i in f.block_insts(b) {
            let inst = f.inst(i);
            (inst.opcode as u8).hash(&mut h);
            for d in inst.defs {
                d.var.index().hash(&mut h);
            }
            for u in inst.uses {
                u.var.index().hash(&mut h);
            }
            for &t in inst.targets {
                t.index().hash(&mut h);
            }
            for &p in inst.phi_preds {
                p.index().hash(&mut h);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    fn sample() -> Function {
        parse_function(
            "func @c {
entry:
  %n = input
  %z = make 0
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
            &Machine::dsp32(),
        )
        .unwrap()
    }

    #[test]
    fn analyses_are_memoized() {
        let f = sample();
        let mut cache = AnalysisCache::new();
        let a = cache.liveness(&f);
        let b = cache.liveness(&f);
        assert!(Rc::ptr_eq(&a, &b), "second access must hit the memo");
        let d1 = cache.domtree(&f);
        let d2 = cache.domtree(&f);
        assert!(Rc::ptr_eq(&d1, &d2));
    }

    #[test]
    fn invalidate_starts_a_new_epoch() {
        let mut f = sample();
        let mut cache = AnalysisCache::new();
        let before = cache.liveness(&f);
        assert_eq!(cache.revision(), 0);
        // Structural change + invalidation: fresh objects, same answers
        // recomputed from the new code.
        let exit = f.blocks().last().unwrap();
        let v = f.new_var("t");
        let at = f.block(exit).insts.len() - 1;
        f.insert_inst(
            exit,
            at,
            tossa_ir::InstData::new(tossa_ir::Opcode::Make)
                .with_defs(vec![v.into()])
                .with_imm(3),
        );
        cache.invalidate();
        assert_eq!(cache.revision(), 1);
        let after = cache.liveness(&f);
        assert!(!Rc::ptr_eq(&before, &after));
    }

    fn mutate(f: &mut Function) {
        let exit = f.blocks().last().unwrap();
        let v = f.new_var("t");
        let at = f.block(exit).insts.len() - 1;
        f.insert_inst(
            exit,
            at,
            tossa_ir::InstData::new(tossa_ir::Opcode::Make)
                .with_defs(vec![v.into()])
                .with_imm(3),
        );
    }

    #[test]
    fn deferred_mode_records_stale_and_self_heals() {
        let mut f = sample();
        let mut cache = AnalysisCache::new();
        cache.set_deferred_staleness(true);
        let before = cache.liveness(&f);
        let _ = cache.domtree(&f);
        mutate(&mut f); // no invalidate(): a pass forgot to tell the cache
        let after = cache.liveness(&f);
        let diag = cache.take_stale().expect("mismatch must be recorded");
        assert_eq!(diag.revision, 0);
        assert!(diag.stale.contains(&"liveness"), "{diag}");
        assert!(diag.stale.contains(&"domtree"), "{diag}");
        // Self-healed: the answer is fresh, not the stale memo.
        assert!(!Rc::ptr_eq(&before, &after));
        assert!(cache.take_stale().is_none(), "diagnostic is taken once");
    }

    #[test]
    fn deferred_mode_quiet_when_invalidation_is_correct() {
        let mut f = sample();
        let mut cache = AnalysisCache::new();
        cache.set_deferred_staleness(true);
        let _ = cache.liveness(&f);
        mutate(&mut f);
        cache.invalidate();
        let _ = cache.liveness(&f);
        assert!(cache.take_stale().is_none());
    }

    #[test]
    fn deferred_mode_sees_operand_rewrites_but_not_pin_writes() {
        let mut f = sample();
        let mut cache = AnalysisCache::new();
        cache.set_deferred_staleness(true);
        let _ = cache.liveness(&f);
        let var = |f: &Function, name: &str| f.vars().find(|&v| &*f.var(v).name == name).unwrap();
        let i = var(&f, "i");
        let r = f.resources.new_virt("r");
        f.set_pin(i, Some(r));
        let _ = cache.liveness(&f);
        assert!(cache.take_stale().is_none(), "a pin write is no code edit");
        // `ret %i` becomes `ret %n`, with no invalidate().
        let n = var(&f, "n");
        let exit = f.blocks().last().unwrap();
        let ret = f.terminator(exit).unwrap();
        f.inst_mut(ret).uses[0].var = n;
        let _ = cache.liveness(&f);
        let diag = cache
            .take_stale()
            .expect("operand rewrite must be recorded");
        assert!(diag.stale.contains(&"liveness"), "{diag}");
    }

    #[test]
    fn pinning_does_not_trip_the_staleness_check() {
        let mut f = sample();
        let mut cache = AnalysisCache::new();
        let _ = cache.liveness(&f);
        let i = f.vars().find(|&v| &*f.var(v).name == "i").unwrap();
        tossa_ir::function::pin_var_to_reg(&mut f, i, tossa_ir::PhysReg(0));
        // Pins are not analysis inputs; no invalidation required.
        let _ = cache.domtree(&f);
        let _ = cache.live_at_defs(&f);
    }
}
