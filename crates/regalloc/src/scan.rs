//! Liveness-driven linear scan over per-range live intervals.
//!
//! Precolored intervals (out-of-SSA pinnings) are fixed: their register
//! is reserved wherever their ranges are live, and an unpinned candidate
//! may only take a register whose precolored reservations it does not
//! overlap. Interference is range-accurate ([`Intervals::overlap`]):
//! several webs may hold one register simultaneously as long as each
//! lives inside the others' lifetime holes. When no register is free an
//! eviction is forced; the caller rewrites the evicted variables through
//! spill slots and re-runs the scan. Spill-reload temporaries are
//! unspillable, which bounds the iteration: each round strictly shrinks
//! the set of long intervals.
//!
//! The victim is the candidate with the *lowest* loop-weighted spill
//! cost ([`crate::cost`]), normalized by the positions its ranges
//! actually cover, ties broken toward the furthest end, so hot
//! loop-carried webs stay in registers while cold webs take the slots.
//!
//! A failed round returns the eviction set *and* the partial assignment
//! of everything that did fit — the driver's second-chance pass re-tests
//! split sub-webs against that assignment before falling back to
//! spill-everywhere.

use tossa_ir::ids::Var;
use tossa_ir::machine::{PhysReg, RegClass};
use tossa_ir::print::var_str;
use tossa_ir::Function;
use tossa_trace::provenance;

use crate::cost::SpillCosts;
use crate::intervals::{Interval, Intervals};
use crate::{pools, AllocError, Assignment, VarSet};

/// One eviction decision: which web to spill and the linear position of
/// the pressure point that forced it (the spill layer uses the position
/// to decide whether live-range splitting can move the conflict out of
/// a loop).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpillReq {
    /// The web to rewrite through a slot (or remat / split / rescue).
    pub var: Var,
    /// Linear position of the conflict that evicted it.
    pub at: u32,
}

/// Why a scan round did not produce an assignment.
#[derive(Clone, Debug)]
pub enum ScanFail {
    /// These variables must be rewritten through spill slots, then the
    /// scan re-run.
    Spill {
        /// The eviction set, one request per web.
        reqs: Vec<SpillReq>,
        /// The registers everything *else* received this round (evicted
        /// and spilled webs are unassigned). The driver's second-chance
        /// pass probes this for registers left free across a victim's
        /// ranges.
        partial: Assignment,
    },
    /// Unrecoverable failure (pin conflict, out of registers).
    Hard(AllocError),
}

/// Per-register reservations made by precolored intervals.
pub(crate) struct Blocked {
    /// Item indices of precolored intervals, indexed by register id.
    by_reg: Vec<Vec<usize>>,
}

impl Blocked {
    /// Collects precolored reservations; errors when two precolored
    /// intervals on one register have overlapping ranges (sharing a
    /// register across disjoint ranges is legal). Registers are checked
    /// in increasing id order.
    pub(crate) fn collect(ivs: &Intervals) -> Result<Blocked, AllocError> {
        let mut by_reg: Vec<Vec<usize>> = Vec::new();
        for (idx, iv) in ivs.items.iter().enumerate() {
            if let Some(r) = iv.pre {
                let r = r.0 as usize;
                if by_reg.len() <= r {
                    by_reg.resize_with(r + 1, Vec::new);
                }
                by_reg[r].push(idx);
            }
        }
        for (reg, idxs) in by_reg.iter().enumerate() {
            for (i, &a) in idxs.iter().enumerate() {
                for &b in &idxs[i + 1..] {
                    if ivs.overlap(&ivs.items[a], &ivs.items[b]) {
                        return Err(AllocError::PinConflict {
                            reg: PhysReg(reg as u8),
                            a: ivs.items[a].var,
                            b: ivs.items[b].var,
                        });
                    }
                }
            }
        }
        Ok(Blocked { by_reg })
    }

    /// Does register `r` carry a precolored reservation whose ranges
    /// overlap `iv`'s?
    pub(crate) fn conflicts(&self, ivs: &Intervals, r: PhysReg, iv: &Interval) -> bool {
        self.by_reg
            .get(r.0 as usize)
            .is_some_and(|v| v.iter().any(|&i| ivs.overlap(&ivs.items[i], iv)))
    }
}

/// One linear-scan round.
///
/// # Errors
/// [`ScanFail::Spill`] with the eviction set and partial assignment, or
/// [`ScanFail::Hard`] on pin conflicts / unspillable pressure.
pub fn scan(
    f: &Function,
    ivs: &Intervals,
    temps: &VarSet,
    costs: &SpillCosts,
) -> Result<Assignment, ScanFail> {
    let blocked = Blocked::collect(ivs).map_err(ScanFail::Hard)?;
    // Covered lengths for weight normalization: the cost-driven victim
    // rule compares spill cost *per position of relief*, so a long cold
    // web beats many short cheap webs (which would each relieve only
    // one pressure point). Holes do not relieve anything, so they do
    // not count.
    let mut len_of: Vec<u64> = vec![1; f.num_vars()];
    for iv in &ivs.items {
        len_of[iv.var.index()] = ivs.covered_len(iv).max(1);
    }
    let norm = |w: u64, v: Var| -> (u128, u128) { (u128::from(w), u128::from(len_of[v.index()])) };
    let mut asg = Assignment::new(f.num_vars());
    // (hull end, reg, item index, spillable)
    let mut active: Vec<(u32, PhysReg, usize, bool)> = Vec::new();
    let mut spills: Vec<SpillReq> = Vec::new();
    // Candidate pools are interval-independent apart from the pointer
    // preference; computed once per scan, not once per interval.
    let pool_gpr_first = pools(f, false);
    let pool_ptr_first = pools(f, true);
    // Per-register pressure against the current interval's ranges:
    // how many active holders overlap it, and (when exactly one does)
    // which active entry that is. Reset via `touched` between items.
    let mut over_count = [0u32; 256];
    let mut sole = [usize::MAX; 256];
    let mut touched: Vec<u8> = Vec::new();

    for (idx, iv) in ivs.items.iter().enumerate() {
        active.retain(|&(end, _, _, _)| end >= iv.start);
        if let Some(r) = iv.pre {
            asg.set(iv.var, r);
            active.push((iv.end, r, idx, false));
            continue;
        }
        let spillable = !temps.contains(iv.var);
        let hinted = iv.hint.and_then(|h| {
            asg.get(h)
                .filter(|&r| f.machine.reg_class(r) != RegClass::Special)
        });
        let pool = if iv.ptr_pref {
            &pool_ptr_first
        } else {
            &pool_gpr_first
        };
        let usable = |r: PhysReg| !blocked.conflicts(ivs, r, iv);
        for &t in &touched {
            over_count[t as usize] = 0;
        }
        touched.clear();
        for (ai, &(_, r, aidx, _)) in active.iter().enumerate() {
            if ivs.overlap(&ivs.items[aidx], iv) {
                if over_count[r.0 as usize] == 0 {
                    touched.push(r.0);
                }
                over_count[r.0 as usize] += 1;
                sole[r.0 as usize] = ai;
            }
        }
        // `over_count` is a table lookup and `usable` walks precolored
        // ranges; both are pure, so testing the cheap one first picks
        // the same register.
        let chosen = hinted
            .into_iter()
            .chain(pool.iter().copied())
            .find(|&r| over_count[r.0 as usize] == 0 && usable(r));
        if let Some(r) = chosen {
            asg.set(iv.var, r);
            active.push((iv.end, r, idx, spillable));
            continue;
        }
        // No free register: evict a spillable *sole* overlapping holder
        // of a register this interval could use — or the interval
        // itself. (A register whose pressure comes from two hole-sharing
        // holders cannot be freed by one eviction.) The victim is the
        // cheapest holder by loop weight per covered position, ties
        // toward the furthest end.
        let victim = active
            .iter()
            .enumerate()
            .filter(|&(ai, &(_, r, _, sp))| {
                sp && over_count[r.0 as usize] == 1 && sole[r.0 as usize] == ai && usable(r)
            })
            .map(|(ai, &(end, r, aidx, _))| (ai, end, r, ivs.items[aidx].var))
            .min_by(|&(_, enda, _, va), &(_, endb, _, vb)| {
                let (wa, la) = norm(costs.cost(va).weight, va);
                let (wb, lb) = norm(costs.cost(vb).weight, vb);
                // wa/la vs wb/lb, cross-multiplied; ties prefer the
                // furthest end (most relief), then the lowest index.
                (wa * lb)
                    .cmp(&(wb * la))
                    .then(endb.cmp(&enda))
                    .then(va.index().cmp(&vb.index()))
            });
        // Evict a holder whose normalized cost (spill weight per
        // position of relief) is below our own; on a tie, one reaching
        // further than we do (progress at the pressure point).
        let evict = |v: Var, end: u32| {
            !spillable || {
                let (vw, vl) = norm(costs.cost(v).weight, v);
                let (sw, sl) = norm(costs.cost(iv.var).weight, iv.var);
                vw * sl < sw * vl || (vw * sl == sw * vl && end > iv.end)
            }
        };
        match victim {
            Some((ai, end, r, v)) if evict(v, end) => {
                active.remove(ai);
                asg.clear(v);
                spills.push(SpillReq {
                    var: v,
                    at: iv.start,
                });
                provenance::record(|| {
                    let (vs, ve) = ivs.find(v).map(|x| (x.start, x.end)).unwrap_or((0, end));
                    provenance::Kind::Spill {
                        var: var_str(f, v),
                        start: vs,
                        end: ve,
                        cause: costs.rationale(v),
                    }
                });
                asg.set(iv.var, r);
                active.push((iv.end, r, idx, spillable));
            }
            _ if spillable => {
                spills.push(SpillReq {
                    var: iv.var,
                    at: iv.start,
                });
                provenance::record(|| provenance::Kind::Spill {
                    var: var_str(f, iv.var),
                    start: iv.start,
                    end: iv.end,
                    cause: costs.rationale(iv.var),
                });
            }
            _ => return Err(ScanFail::Hard(AllocError::OutOfRegisters { var: iv.var })),
        }
    }
    if spills.is_empty() {
        Ok(asg)
    } else {
        // One request per web: keep the first pressure point.
        spills.sort_by_key(|s| s.var.index());
        spills.dedup_by_key(|s| s.var);
        Err(ScanFail::Spill {
            reqs: spills,
            partial: asg,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::intervals;
    use tossa_analysis::AnalysisCache;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    /// One scan round over `f` with its own spill costs.
    pub(crate) fn scan_once(f: &Function) -> Result<Assignment, ScanFail> {
        let ivs = intervals::build(f);
        let costs = SpillCosts::compute(f, &AnalysisCache::new().loops(f));
        scan(f, &ivs, &VarSet::default(), &costs)
    }

    #[test]
    fn overlapping_precolored_pair_is_a_pin_conflict() {
        // Two variables precolored to R5 with overlapping lifetimes.
        let mut f = parse_function(
            "func @pc {\nentry:\n  %a = input\n  %b = mov %a\n  %c = add %a, %b\n  ret %c\n}",
            &Machine::dsp32(),
        )
        .unwrap();
        let r5 = Machine::dsp32().reg_by_name("R5").unwrap();
        let (va, vb) = {
            let mut it = f.vars().filter(|&v| {
                let n = &f.var(v).name;
                n == "a" || n == "b"
            });
            (it.next().unwrap(), it.next().unwrap())
        };
        f.var_mut(va).reg = Some(r5);
        f.var_mut(vb).reg = Some(r5);
        let err = scan_once(&f).unwrap_err();
        assert!(
            matches!(err, ScanFail::Hard(AllocError::PinConflict { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn disjoint_precolored_pair_on_one_register_is_fine() {
        // %a dies at the mov; %b reuses R5 afterwards.
        let mut f = parse_function(
            "func @dp {\nentry:\n  %a = input\n  %b = mov %a\n  ret %b\n}",
            &Machine::dsp32(),
        )
        .unwrap();
        let r5 = Machine::dsp32().reg_by_name("R5").unwrap();
        let vars: Vec<_> = f.vars().collect();
        for v in vars {
            if f.var(v).name == "a" || f.var(v).name == "b" {
                f.var_mut(v).reg = Some(r5);
            }
        }
        let asg = scan_once(&f).unwrap();
        for iv in &intervals::build(&f).items {
            if iv.pre.is_some() {
                assert_eq!(asg.get(iv.var), Some(r5));
            }
        }
    }

    /// Two precolored lives of one register whose *hulls* overlap but
    /// whose ranges do not (one sits in the other's hole) must be
    /// accepted.
    #[test]
    fn precolored_hole_sharing_is_not_a_pin_conflict() {
        let text = "func @ph {
entry:
  %a = input
  %b = add %a, %a
  %c = add %b, %b
  %a = make 1
  %r = add %a, %c
  ret %r
}";
        let mut f = parse_function(text, &Machine::dsp32()).unwrap();
        let r5 = Machine::dsp32().reg_by_name("R5").unwrap();
        let vars: Vec<_> = f.vars().collect();
        for v in vars {
            if f.var(v).name == "a" || f.var(v).name == "b" {
                f.var_mut(v).reg = Some(r5);
            }
        }
        let ivs = intervals::build(&f);
        let by_name = |n: &str| ivs.items.iter().find(|iv| f.var(iv.var).name == n).unwrap();
        assert!(by_name("a").overlaps(by_name("b")), "the hulls overlap");
        assert!(
            Blocked::collect(&ivs).is_ok(),
            "%b lives in %a's hole — no pin conflict"
        );
    }
}
