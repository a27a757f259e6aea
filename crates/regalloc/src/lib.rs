//! # tossa-regalloc — register allocation on the DSP32 model
//!
//! The paper's whole argument for pinning-based coalescing is that fewer
//! φ-repair moves and constraint-aware pinning produce better code
//! *after* register allocation. This crate closes that loop: it maps
//! every variable of an out-of-SSA function onto a physical DSP32
//! resource (`R0`–`R15`, `P0`–`P3`, `SP`/`LR` only by precoloring),
//! spilling through the stack-slot opcodes
//! ([`tossa_ir::Opcode::SpillStore`] / [`tossa_ir::Opcode::SpillLoad`])
//! when the register file is exhausted.
//!
//! Pipeline:
//!
//! 1. [`prepare`] — live intervals from the worklist liveness, then
//!    liveness-driven linear scan ([`scan`]), the only assignment
//!    engine, repeated until it converges: each failing round rewrites
//!    its victims (rematerialization, live-range splitting or
//!    spill-everywhere) and rescans. Pre-existing register identities
//!    (`VarData::reg`, the out-of-SSA pinning results: ABI argument and
//!    return registers, `SP`, predicate/pointer webs) are preserved
//!    verbatim as precolored intervals.
//! 2. [`verify_allocation`] — independent recheck: no two
//!    simultaneously-live variables share a register, precolored
//!    variables kept their register, spill slots are written before they
//!    are read, every used variable has a definition. Violations are
//!    structured [`AllocError`]s (the checked-mode contract).
//! 3. [`finish`] — rewrites every variable to the canonical
//!    register-identity variable of its assigned register, producing a
//!    function the interpreter executes directly (wrong assignments
//!    surface as differential divergences, because distinct values
//!    merged onto one register clobber each other).
//!
//! [`allocate`] runs all three. Per-function [`AllocStats`] report
//! registers used, spills, reloads, and the moves surviving allocation —
//! the end-to-end quantity the paper's §5 move counts proxy for.

#![warn(missing_docs)]

pub mod cost;
pub mod intervals;
pub mod scan;
pub mod spill;
pub mod split;
pub mod verify;

use std::fmt;
use tossa_ir::ids::{Block, Var};
use tossa_ir::machine::{PhysReg, RegClass};
use tossa_ir::Function;
use tossa_trace::Counter;

pub use verify::verify_allocation;

/// Allocator configuration. It has no field: the allocator runs in one
/// configuration, cost-driven victims ([`cost::SpillCosts`]) over
/// per-range intervals. The struct and the `opts` parameter of
/// [`allocate`] and [`prepare`] stay only because the repository
/// benchmark calls both with `&AllocOptions::default()`; they go with
/// the next revision of the benchmark.
#[derive(Clone, Debug, Default)]
pub struct AllocOptions {}

/// Per-function allocation statistics (the end-to-end table columns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Distinct physical registers used by the final assignment.
    pub regs_used: usize,
    /// Variables evicted to the spill frame (== stack slots allocated).
    pub spilled_vars: usize,
    /// `spillld` instructions inserted.
    pub reloads: usize,
    /// `spillst` instructions inserted.
    pub stores: usize,
    /// `mov`s surviving allocation (self-moves under the assignment
    /// vanish and are not counted).
    pub moves_after: usize,
    /// Always `false`: scan is the only engine, so no fallback engine
    /// ever produces the assignment. Kept so readers of the statistics
    /// (the benchmark's `regalloc.fallbacks` metric) stay unchanged.
    pub fallback: bool,
    /// Spill-and-retry rounds taken.
    pub rounds: usize,
    /// `make` defs re-issued by rematerialization (no slot, no memory
    /// traffic; not counted in `spilled_vars`).
    pub remats: usize,
    /// Webs split at a loop-region boundary instead of spilled
    /// everywhere (each consumes one slot and counts in `spilled_vars`).
    pub splits: usize,
    /// Split sub-webs rescued by the second-chance pass: evicted during
    /// a scan round but re-assigned a register left free across their
    /// ranges once the round's full assignment was known (no spill code
    /// at all).
    pub second_chances: usize,
}

impl AllocStats {
    /// Spills plus reloads plus surviving moves: the scalar the
    /// end-to-end comparison tables rank experiments by.
    pub fn spill_move_total(&self) -> usize {
        self.stores + self.reloads + self.moves_after
    }

    /// Accumulates `other` (suite-level folding).
    pub fn add_assign(&mut self, other: &AllocStats) {
        self.regs_used = self.regs_used.max(other.regs_used);
        self.spilled_vars += other.spilled_vars;
        self.reloads += other.reloads;
        self.stores += other.stores;
        self.moves_after += other.moves_after;
        self.fallback |= other.fallback;
        self.rounds = self.rounds.max(other.rounds);
        self.remats += other.remats;
        self.splits += other.splits;
        self.second_chances += other.second_chances;
    }
}

/// A structured allocation failure (checked-mode contract: misallocations
/// become errors, never silent miscompiles).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// The input still holds a φ; allocation runs after out-of-SSA only.
    ResidualPhi {
        /// The block holding the φ.
        block: Block,
    },
    /// Two precolored variables with overlapping intervals carry the
    /// same register — an upstream pinning bug the allocator cannot fix.
    PinConflict {
        /// The register both variables are precolored to.
        reg: PhysReg,
        /// First variable.
        a: Var,
        /// Second variable.
        b: Var,
    },
    /// No register is free for `var` and it cannot be spilled (a spill
    /// temporary squeezed out by other unspillable webs).
    OutOfRegisters {
        /// The unassignable variable.
        var: Var,
    },
    /// A variable appears in the code but received no register.
    Unassigned {
        /// The unassigned variable.
        var: Var,
    },
    /// A precolored variable was moved off its pinned register.
    PinClobbered {
        /// The variable.
        var: Var,
        /// The register it is pinned to.
        pinned: PhysReg,
        /// The register the assignment gave it.
        got: PhysReg,
    },
    /// Two simultaneously-live variables share one register.
    RegisterOverlap {
        /// The shared register.
        reg: PhysReg,
        /// First variable.
        a: Var,
        /// Second variable.
        b: Var,
    },
    /// A `spillld` can read a slot before any `spillst` wrote it.
    UnpairedSlot {
        /// The stack-slot index.
        slot: i64,
    },
    /// A variable is used but never defined (e.g. a dropped reload).
    UndefinedUse {
        /// The variable.
        var: Var,
    },
}

impl AllocError {
    /// Stable classification key for this error, independent of the
    /// variables/registers/blocks baked into the instance. Replay
    /// tooling (the compile service's failure reports, the reducer's
    /// "same structured error" predicate) compares keys, not Display
    /// strings, so shrinking a function is allowed to change *which*
    /// variable trips the invariant as long as the invariant class is
    /// preserved.
    pub fn class_key(&self) -> &'static str {
        match self {
            AllocError::ResidualPhi { .. } => "alloc.residual_phi",
            AllocError::PinConflict { .. } => "alloc.pin_conflict",
            AllocError::OutOfRegisters { .. } => "alloc.out_of_registers",
            AllocError::Unassigned { .. } => "alloc.unassigned",
            AllocError::PinClobbered { .. } => "alloc.pin_clobbered",
            AllocError::RegisterOverlap { .. } => "alloc.register_overlap",
            AllocError::UnpairedSlot { .. } => "alloc.unpaired_slot",
            AllocError::UndefinedUse { .. } => "alloc.undefined_use",
        }
    }
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::ResidualPhi { block } => {
                write!(
                    f,
                    "block {block} still holds a φ; allocate after out-of-SSA"
                )
            }
            AllocError::PinConflict { reg, a, b } => {
                write!(
                    f,
                    "{a} and {b} are both precolored to register {reg:?} and overlap"
                )
            }
            AllocError::OutOfRegisters { var } => {
                write!(f, "no register assignable to {var}")
            }
            AllocError::Unassigned { var } => write!(f, "{var} received no register"),
            AllocError::PinClobbered { var, pinned, got } => {
                write!(f, "{var} is pinned to {pinned:?} but was assigned {got:?}")
            }
            AllocError::RegisterOverlap { reg, a, b } => {
                write!(f, "{a} and {b} are simultaneously live in register {reg:?}")
            }
            AllocError::UnpairedSlot { slot } => {
                write!(f, "spill slot {slot} can be reloaded before any store")
            }
            AllocError::UndefinedUse { var } => {
                write!(f, "{var} is used but never defined")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// The register map produced by the scan, indexed by [`Var`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Assignment {
    regs: Vec<Option<PhysReg>>,
}

impl Assignment {
    /// An empty assignment sized for `num_vars` variables.
    pub fn new(num_vars: usize) -> Assignment {
        Assignment {
            regs: vec![None; num_vars],
        }
    }

    /// The register assigned to `v`, if any.
    pub fn get(&self, v: Var) -> Option<PhysReg> {
        self.regs.get(v.index()).copied().flatten()
    }

    /// Sets (or, for fault injection, overrides) the register of `v`.
    pub fn set(&mut self, v: Var, r: PhysReg) {
        if self.regs.len() <= v.index() {
            self.regs.resize(v.index() + 1, None);
        }
        self.regs[v.index()] = Some(r);
    }

    /// Removes the register of `v` (eviction: the partial assignment a
    /// failed round reports must not claim registers for its victims).
    pub fn clear(&mut self, v: Var) {
        if let Some(slot) = self.regs.get_mut(v.index()) {
            *slot = None;
        }
    }

    /// Distinct registers in use.
    pub fn regs_used(&self) -> usize {
        let mut seen: Vec<PhysReg> = self.regs.iter().copied().flatten().collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }
}

/// A set of variables: one flag per [`Var`], indexed by the id. It grows
/// on insertion, since the spill rewrites keep creating variables.
#[derive(Clone, Debug, Default)]
pub struct VarSet {
    flags: Vec<bool>,
}

impl VarSet {
    /// Adds `v`.
    pub fn insert(&mut self, v: Var) {
        if self.flags.len() <= v.index() {
            self.flags.resize(v.index() + 1, false);
        }
        self.flags[v.index()] = true;
    }

    /// Whether `v` is in the set.
    pub fn contains(&self, v: Var) -> bool {
        self.flags.get(v.index()).copied().unwrap_or(false)
    }
}

/// The state between assignment and the physical rewrite: the
/// fault-injection point of checked mode.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The register map (complete over every variable that appears).
    pub assignment: Assignment,
    /// Statistics so far (spills, rounds, rescues).
    pub stats: AllocStats,
}

/// Runs assignment and spill insertion, mutating `f` with spill code but
/// leaving it in virtual-register form.
///
/// Linear scan is the only engine. It runs round after round until it
/// returns an assignment; each failing round rewrites its victims
/// (rematerialize, split, or spill everywhere) and rescans. No round
/// budget is needed, because every failing round removes a web from the
/// function:
///
/// - the second-chance pass cannot rescue every victim of a failing
///   round (if it could, the round would succeed), so at least one
///   victim is rewritten;
/// - remat and spill-everywhere replace each occurrence of the victim by
///   an unspillable one-instruction temporary; a split does the same
///   outside its region and renames the inside to a fresh sub-web that
///   is never split again.
///
/// Counting two units per original web and one per split sub-web, every
/// failing round lowers the count, so scan succeeds or fails hard by
/// round `2 · num_vars + 1`. The loop keeps that bound only as a cap
/// guarding the argument.
///
/// # Errors
/// [`AllocError::ResidualPhi`] on φ-bearing input, [`AllocError::PinConflict`]
/// on contradictory precoloring, [`AllocError::OutOfRegisters`] when an
/// unspillable web finds no register (or, should the argument above
/// break, when the cap is reached; it names a victim of the last round).
pub fn prepare(f: &mut Function, _opts: &AllocOptions) -> Result<Prepared, AllocError> {
    for (b, i) in f.all_insts() {
        if f.inst(i).is_phi() {
            return Err(AllocError::ResidualPhi { block: b });
        }
    }
    let mut stats = AllocStats::default();
    let mut next_slot: i64 = 0;
    let mut temps = VarSet::default();
    // Hot sub-webs created by region splitting. They are never split
    // again; when one comes back as a victim, the second-chance pass
    // probes the round's partial assignment for a register before the
    // terminal spill-everywhere fallback.
    let mut split_webs = VarSet::default();
    // One analysis manager for every round: spill rewriting invalidates
    // instructions only, keeping the CFG hot.
    let mut cache = tossa_analysis::AnalysisCache::new();
    // The termination bound above, kept only as a guard.
    let max_rounds = 2 * f.num_vars() + 1;
    loop {
        stats.rounds += 1;
        let ivs = intervals::build_cached(f, &mut cache);
        // Round-scoped analyses, pulled from the cache *before* any
        // rewrite mutates `f`.
        let cfg = cache.cfg(f);
        let live = cache.liveness(f);
        let loops = cache.loops(f);
        let costs = cost::SpillCosts::compute(f, &loops);
        let (reqs, partial) = match scan::scan(f, &ivs, &temps, &costs) {
            Ok(assignment) => return Ok(Prepared { assignment, stats }),
            Err(scan::ScanFail::Spill { reqs, partial }) => (reqs, partial),
            Err(scan::ScanFail::Hard(e)) => return Err(e),
        };
        // Second chance: scan batches a whole round's evictions, so by
        // the end of the round the pressure that evicted a web is often
        // over-relieved. A split sub-web back on the victim list would
        // fall terminally to spill-everywhere — probe the round's
        // finished partial assignment for a register free across its
        // ranges first. The rescue stands only when *every* victim of
        // the round is rescued (the assignment is then complete);
        // otherwise the other victims force a rewrite-and-rescan anyway
        // and the rescued webs simply skip this round's spill code.
        let mut rescue_asg = partial;
        let mut rescues: Vec<(Var, PhysReg)> = Vec::new();
        if reqs.iter().any(|r| split_webs.contains(r.var)) {
            if let Ok(blocked) = scan::Blocked::collect(&ivs) {
                for req in reqs.iter().filter(|r| split_webs.contains(r.var)) {
                    let Some(iv) = ivs.find(req.var) else {
                        continue;
                    };
                    let free = pools(f, iv.ptr_pref).into_iter().find(|&r| {
                        !blocked.conflicts(&ivs, r, iv)
                            && !ivs.items.iter().any(|other| {
                                other.var != iv.var
                                    && rescue_asg.get(other.var) == Some(r)
                                    && ivs.overlap(other, iv)
                            })
                    });
                    if let Some(r) = free {
                        rescue_asg.set(iv.var, r);
                        rescues.push((iv.var, r));
                    }
                }
            }
        }
        if !rescues.is_empty() && rescues.len() == reqs.len() {
            for &(v, r) in &rescues {
                let cause = format!("second-chance:{}", f.machine.reg_name(r));
                record_spill_cause(f, &ivs, v, &cause);
            }
            stats.second_chances += rescues.len();
            return Ok(Prepared {
                assignment: rescue_asg,
                stats,
            });
        }
        let rescued = |v: Var| rescues.iter().any(|&(r, _)| r == v);
        if stats.rounds == max_rounds {
            if let Some(req) = reqs.iter().find(|r| !rescued(r.var)) {
                return Err(AllocError::OutOfRegisters { var: req.var });
            }
        }
        // Disposition per victim: rematerialize, split, or spill
        // everywhere. Remat and split run first so the batched
        // everywhere-rewrite sees the final shape.
        let mut everywhere: Vec<(Var, i64)> = Vec::new();
        for req in &reqs {
            let v = req.var;
            if rescued(v) {
                continue;
            }
            if let Some(imm) = costs.remat_imm(v) {
                record_spill_cause(f, &ivs, v, "remat:make");
                let n = spill::rematerialize(f, v, imm, costs.occurrence_blocks(v), &mut temps);
                stats.remats += n;
                continue;
            }
            if let Some(out) = split::try_split(
                f,
                v,
                req.at,
                &ivs,
                &loops,
                &live,
                &cfg,
                &costs,
                next_slot,
                &mut temps,
                &mut split_webs,
            ) {
                next_slot += 1;
                stats.splits += 1;
                stats.spilled_vars += 1;
                stats.stores += out.stores;
                stats.reloads += out.reloads;
                tossa_trace::count(Counter::AllocSpilledVars, 1);
                tossa_trace::count(Counter::AllocStores, out.stores as u64);
                tossa_trace::count(Counter::AllocReloads, out.reloads as u64);
                continue;
            }
            everywhere.push((v, next_slot));
            next_slot += 1;
        }
        if !everywhere.is_empty() {
            // The blocks the victims occur in, in increasing index order,
            // so temporaries are created in program order.
            let mut blocks: Vec<Block> = everywhere
                .iter()
                .flat_map(|&(v, _)| costs.occurrence_blocks(v).iter().copied())
                .collect();
            blocks.sort_unstable();
            blocks.dedup();
            let (st, rl) = spill::rewrite_spills_in(f, &everywhere, &blocks, &mut temps);
            stats.spilled_vars += everywhere.len();
            stats.stores += st;
            stats.reloads += rl;
            tossa_trace::count(Counter::AllocSpilledVars, everywhere.len() as u64);
            tossa_trace::count(Counter::AllocStores, st as u64);
            tossa_trace::count(Counter::AllocReloads, rl as u64);
        }
        cache.invalidate_instructions();
    }
}

/// Records a `Spill` provenance entry for `v` with the given cause,
/// using its hull interval for the range.
fn record_spill_cause(f: &Function, ivs: &intervals::Intervals, v: Var, cause: &str) {
    tossa_trace::provenance::record(|| {
        let (start, end) = ivs
            .items
            .iter()
            .find(|iv| iv.var == v)
            .map(|iv| (iv.start, iv.end))
            .unwrap_or((0, 0));
        tossa_trace::provenance::Kind::Spill {
            var: tossa_ir::print::var_str(f, v),
            start,
            end,
            cause: cause.to_string(),
        }
    });
}

/// Rewrites `f` into physical form: every variable becomes the canonical
/// register-identity variable of its assigned register. Returns the
/// completed statistics.
pub fn finish(f: &mut Function, prep: Prepared) -> AllocStats {
    let mut stats = prep.stats;
    let asg = &prep.assignment;
    // Canonical variable per register (indexed by register id): prefer
    // an existing reg-identity variable assigned to its own register, so
    // SP/LR keep their interpreter-visible identity.
    let mut canon: [Option<Var>; 256] = [None; 256];
    for v in f.vars() {
        if let (Some(r), Some(have)) = (asg.get(v), f.var(v).reg) {
            if r == have {
                canon[r.0 as usize].get_or_insert(v);
            }
        }
    }
    let mut used = [false; 256];
    for (_, i) in f.all_insts() {
        for o in f.inst(i).operands() {
            if let Some(r) = asg.get(o.var) {
                used[r.0 as usize] = true;
            }
        }
    }
    stats.regs_used = 0;
    for r in (0..=u8::MAX).map(PhysReg) {
        if !used[r.0 as usize] {
            continue;
        }
        stats.regs_used += 1;
        if canon[r.0 as usize].is_none() {
            let name = f.machine.reg_name(r).to_string();
            let v = f.new_var(name);
            f.var_mut(v).reg = Some(r);
            canon[r.0 as usize] = Some(v);
        }
    }
    f.rewrite_vars(|v| match asg.get(v) {
        Some(r) => canon[r.0 as usize].expect("every used register has a canonical variable"),
        None => v,
    });
    stats.moves_after = f.count_moves();
    tossa_trace::count(Counter::AllocMovesAfter, stats.moves_after as u64);
    stats
}

/// Full allocation: [`prepare`], [`verify_allocation`], [`finish`].
///
/// # Errors
/// Propagates every [`AllocError`] of the two phases.
pub fn allocate(f: &mut Function, opts: &AllocOptions) -> Result<AllocStats, AllocError> {
    tossa_trace::span("alloc", || {
        let prep = prepare(f, opts)?;
        verify_allocation(f, &prep.assignment)?;
        Ok(finish(f, prep))
    })
}

/// Registers an unpinned variable may be assigned to, in preference
/// order: `Special`-class registers are reserved for precoloring.
pub(crate) fn pools(f: &Function, ptr_first: bool) -> Vec<PhysReg> {
    let mut gpr = Vec::new();
    let mut ptr = Vec::new();
    for r in f.machine.regs() {
        match f.machine.reg_class(r) {
            RegClass::Gpr => gpr.push(r),
            RegClass::Ptr => ptr.push(r),
            RegClass::Special => {}
        }
    }
    if ptr_first {
        ptr.extend(gpr);
        ptr
    } else {
        gpr.extend(ptr);
        gpr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::interp;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    fn alloc_text(text: &str, opts: &AllocOptions) -> (Function, AllocStats) {
        let mut f = parse_function(text, &Machine::dsp32()).unwrap();
        f.validate().unwrap();
        let stats = allocate(&mut f, opts).unwrap();
        f.validate().unwrap();
        (f, stats)
    }

    #[test]
    fn straightline_allocates_without_spills() {
        let (f, stats) = alloc_text(
            "func @s {\nentry:\n  %a, %b = input\n  %c = add %a, %b\n  ret %c\n}",
            &AllocOptions::default(),
        );
        assert_eq!(stats.spilled_vars, 0);
        assert!(stats.regs_used >= 2, "{stats:?}\n{f}");
        assert_eq!(interp::run(&f, &[3, 4], 100).unwrap().outputs, vec![7]);
    }

    #[test]
    fn precolored_identities_survive() {
        let text = "func @p {\nentry:\n  R0, %b = input\n  %c = add R0, %b\n  ret %c\n}";
        let (f, _) = alloc_text(text, &AllocOptions::default());
        // The R0 variable still prints as R0.
        assert!(f.to_string().contains("R0"), "{f}");
        assert_eq!(interp::run(&f, &[5, 6], 100).unwrap().outputs, vec![11]);
    }

    #[test]
    fn mov_hints_erase_copies() {
        let (f, stats) = alloc_text(
            "func @m {\nentry:\n  %a = input\n  %b = mov %a\n  ret %b\n}",
            &AllocOptions::default(),
        );
        assert_eq!(stats.moves_after, 0, "{f}");
        assert_eq!(interp::run(&f, &[9], 100).unwrap().outputs, vec![9]);
    }

    #[test]
    fn counted_loop_allocates_and_runs() {
        let text = "
func @g {
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
}";
        let (f, _) = alloc_text(text, &AllocOptions::default());
        assert_eq!(interp::run(&f, &[4], 1000).unwrap().outputs, vec![4], "{f}");
    }

    #[test]
    fn residual_phi_is_an_error() {
        let text = "
func @r {
entry:
  %a = make 1
  jump m
m:
  %x = phi [entry: %a]
  ret %x
}";
        let mut f = parse_function(text, &Machine::dsp32()).unwrap();
        let e = allocate(&mut f, &AllocOptions::default()).unwrap_err();
        assert!(matches!(e, AllocError::ResidualPhi { .. }), "{e}");
    }

    #[test]
    fn high_pressure_spills_and_stays_correct() {
        // 24 simultaneously-live values exceed the 20 allocatable
        // registers, forcing spills; the sum must still be exact.
        let mut text = String::from("func @hp {\nentry:\n  %i = input\n");
        for k in 0..24 {
            text.push_str(&format!("  %v{k} = addi %i, {k}\n"));
        }
        text.push_str("  %s = make 0\n");
        for k in 0..24 {
            text.push_str(&format!("  %s = add %s, %v{k}\n"));
        }
        text.push_str("  ret %s\n}\n");
        let (f, stats) = alloc_text(&text, &AllocOptions::default());
        assert!(stats.spilled_vars > 0, "{stats:?}");
        assert!(stats.stores > 0 && stats.reloads > 0);
        let expected: i64 = (0..24).map(|k| 10 + k).sum();
        assert_eq!(
            interp::run(&f, &[10], 10_000).unwrap().outputs,
            vec![expected],
            "{f}"
        );
    }

    #[test]
    fn allocated_form_roundtrips_through_text() {
        let (f, _) = alloc_text(
            "func @rt {\nentry:\n  %a, %b = input\n  %c = add %a, %b\n  %d = mul %c, %a\n  ret %d\n}",
            &AllocOptions::default(),
        );
        let printed = f.to_string();
        let f2 = parse_function(&printed, &Machine::dsp32()).unwrap();
        assert_eq!(
            interp::run(&f, &[2, 5], 100).unwrap().outputs,
            interp::run(&f2, &[2, 5], 100).unwrap().outputs,
        );
    }
}
