//! Aggressive Chaitin-style register coalescing \[3\] on non-SSA code — the
//! paper's `Coalescing` pass (a "repeated register coalescing" \[5\] used
//! outside register allocation, hence aggressive: it ignores
//! colorability).
//!
//! Each round builds liveness and the interference graph, then coalesces
//! every `mov d = s` whose variables do not interfere by merging the
//! vertices (cheap edge union) and rewriting the program; rounds repeat
//! until a fixpoint, since coalescing shortens live ranges and can unlock
//! further coalescing.
//!
//! The coalescer only ever asks about move operands, so each round's
//! graph is one bit matrix over those variables
//! ([`InterferenceGraph::build_among`]): `m ≤ 2·moves` rows of `m` bits.
//! The round's merge aliases are a `Vec` indexed by variable.

use tossa_analysis::{AnalysisCache, BitSet, InterferenceGraph};
use tossa_ir::ids::Var;
use tossa_ir::Function;

/// Statistics of a coalescing run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoalesceRunStats {
    /// Moves deleted by coalescing.
    pub coalesced: usize,
    /// Rounds (liveness + graph rebuilds) executed.
    pub rounds: usize,
}

/// Whether the pair may be merged at all: never two distinct machine
/// registers; a register variable absorbs a plain one.
fn mergeable(f: &Function, a: Var, b: Var) -> bool {
    match (f.var(a).reg, f.var(b).reg) {
        (Some(ra), Some(rb)) => ra == rb,
        _ => true,
    }
}

/// Chooses the survivor of a merge (the register-carrying side if any).
fn survivor(f: &Function, a: Var, b: Var) -> (Var, Var) {
    if f.var(b).reg.is_some() && f.var(a).reg.is_none() {
        (b, a)
    } else {
        (a, b)
    }
}

/// Runs repeated aggressive coalescing to a fixpoint. Returns statistics.
pub fn aggressive_coalesce(f: &mut Function) -> CoalesceRunStats {
    aggressive_coalesce_cached(f, &mut AnalysisCache::new())
}

/// [`aggressive_coalesce`] against a shared [`AnalysisCache`]. Mutating
/// rounds invalidate the cache; the final (fixpoint) round leaves its
/// liveness memoized for downstream consumers.
pub fn aggressive_coalesce_cached(f: &mut Function, cache: &mut AnalysisCache) -> CoalesceRunStats {
    tossa_trace::span("chaitin_coalesce", || {
        let stats = aggressive_coalesce_inner(f, cache);
        tossa_trace::count(
            tossa_trace::Counter::CopiesCoalesced,
            stats.coalesced as u64,
        );
        stats
    })
}

fn aggressive_coalesce_inner(f: &mut Function, cache: &mut AnalysisCache) -> CoalesceRunStats {
    let mut stats = CoalesceRunStats::default();
    loop {
        stats.rounds += 1;
        // Collect the move sites first: a function without moves needs
        // neither liveness nor an interference graph.
        let moves: Vec<(tossa_ir::ids::Block, tossa_ir::ids::Inst)> = f
            .all_insts()
            .filter(|&(_, i)| f.inst(i).opcode.is_move())
            .collect();
        if moves.is_empty() {
            break;
        }
        let cfg = cache.cfg(f);
        let live = cache.liveness(f);
        // The coalescer only ever queries (and merges) move-operand
        // pairs, so build the graph restricted to those variables.
        let mut movevars: BitSet<Var> = BitSet::new(f.num_vars());
        for &(_, i) in &moves {
            movevars.insert(f.inst(i).defs[0].var);
            movevars.insert(f.inst(i).uses[0].var);
        }
        let mut graph = InterferenceGraph::build_among(f, &cfg, &live, &movevars);
        // Merges performed this round: `alias[v]` is the variable `v` was
        // merged into, or `v` itself.
        let mut alias: Vec<Var> = f.vars().collect();
        fn resolve(alias: &[Var], mut v: Var) -> Var {
            while alias[v.index()] != v {
                v = alias[v.index()];
            }
            v
        }
        let mut merged_this_round = 0;
        let mut blocked_by_interference = 0;
        for &(_, i) in &moves {
            let inst = f.inst(i);
            let d = resolve(&alias, inst.defs[0].var);
            let s = resolve(&alias, inst.uses[0].var);
            if d == s {
                continue; // becomes a self-move; cleanup deletes it
            }
            if !mergeable(f, d, s) {
                continue;
            }
            if graph.interferes(d, s) {
                blocked_by_interference += 1;
                continue;
            }
            let (keep, gone) = survivor(f, d, s);
            graph.merge(keep, gone);
            alias[gone.index()] = keep;
            merged_this_round += 1;
        }
        if merged_this_round == 0 {
            break;
        }
        stats.coalesced += merged_this_round;
        f.rewrite_vars(|v| resolve(&alias, v));
        cache.invalidate_instructions();
        // Delete the now-trivial self-moves, with one pass over each
        // block that has any.
        for b in f.blocks() {
            if f.block_insts(b).any(|i| f.inst(i).is_self_move()) {
                let mut list = std::mem::take(&mut f.block_mut(b).insts);
                list.retain(|&i| !f.inst(i).is_self_move());
                f.block_mut(b).insts = list;
            }
        }
        // Early fixpoint: merging only ever *shortens* live ranges, so a
        // later round can only unlock moves this round rejected for
        // interference. If none were, the next round is guaranteed empty —
        // skip its liveness + graph rebuild.
        if blocked_by_interference == 0 {
            break;
        }
    }
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
        f
    }

    #[test]
    fn coalesces_simple_chain() {
        let mut f = parse(
            "func @c {
entry:
  %a = make 1
  %b = mov %a
  %c = mov %b
  %d = addi %c, 1
  ret %d
}",
        );
        let before = interp::run(&f, &[], 100).unwrap();
        let stats = aggressive_coalesce(&mut f);
        assert_eq!(stats.coalesced, 2);
        assert_eq!(f.count_moves(), 0);
        assert_eq!(interp::run(&f, &[], 100).unwrap().outputs, before.outputs);
    }

    #[test]
    fn keeps_interfering_move() {
        let mut f = parse(
            "func @k {
entry:
  %a = make 1
  %b = mov %a
  %a = make 2
  %s = add %a, %b
  ret %s
}",
        );
        let before = interp::run(&f, &[], 100).unwrap();
        let stats = aggressive_coalesce(&mut f);
        assert_eq!(stats.coalesced, 0);
        assert_eq!(f.count_moves(), 1);
        assert_eq!(interp::run(&f, &[], 100).unwrap().outputs, before.outputs);
    }

    #[test]
    fn never_merges_two_registers() {
        let mut f = parse(
            "func @r {
entry:
  R1 = make 5
  R0 = mov R1
  ret R0
}",
        );
        let stats = aggressive_coalesce(&mut f);
        assert_eq!(stats.coalesced, 0);
        assert_eq!(f.count_moves(), 1);
    }

    #[test]
    fn register_side_survives() {
        let mut f = parse(
            "func @s {
entry:
  %a = make 5
  R0 = mov %a
  ret R0
}",
        );
        let before = interp::run(&f, &[], 100).unwrap();
        aggressive_coalesce(&mut f);
        assert_eq!(f.count_moves(), 0);
        // The make now writes R0 directly.
        let make = f.block_insts(f.entry).next().unwrap();
        assert!(f.var(f.inst(make).defs[0].var).reg.is_some());
        assert_eq!(interp::run(&f, &[], 100).unwrap().outputs, before.outputs);
    }

    #[test]
    fn repeated_rounds_unlock_more() {
        // b = mov a blocked by c's range in round 1? Construct a case
        // where coalescing y/z first removes the overlap blocking x/y.
        let mut f = parse(
            "func @rounds {
entry:
  %x = make 1
  %y = mov %x
  %z = mov %y
  %u = add %z, %z
  ret %u
}",
        );
        let before = interp::run(&f, &[], 100).unwrap();
        let stats = aggressive_coalesce(&mut f);
        assert_eq!(f.count_moves(), 0);
        assert!(stats.rounds >= 1);
        assert_eq!(interp::run(&f, &[], 100).unwrap().outputs, before.outputs);
    }
}
