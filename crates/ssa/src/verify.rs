//! SSA and CSSA form verifiers.

use std::fmt;
use tossa_analysis::{DefMap, DomTree, LiveAtDefs, Liveness};
use tossa_ir::cfg::Cfg;
use tossa_ir::ids::{Block, Var};
use tossa_ir::machine::RegClass;
use tossa_ir::Function;

/// A violation of SSA invariants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SsaError {
    /// Description of the violation.
    pub message: String,
}

impl fmt::Display for SsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SsaError {}

/// Checks that `f` is in valid SSA form:
///
/// * every variable has at most one definition;
/// * every (reachable) non-φ use is dominated by its definition;
/// * every φ argument's definition dominates the end of the corresponding
///   predecessor block;
/// * no use of a never-defined variable in reachable code.
///
/// Variables carrying a dedicated (special-class) register identity, such
/// as `SP`, are live-in at function entry with a well-defined incoming
/// value (mirroring the interpreter), so an undefined use of one is
/// legal: it reads the incoming register value.
///
/// # Errors
/// Returns the first violation found.
pub fn verify_ssa(f: &Function) -> Result<(), SsaError> {
    let err = |m: String| Err(SsaError { message: m });
    // Single definitions.
    let mut seen = vec![false; f.num_vars()];
    for (_, i) in f.all_insts() {
        for d in f.inst(i).defs {
            if seen[d.var.index()] {
                return err(format!("{} has multiple definitions", d.var));
            }
            seen[d.var.index()] = true;
        }
    }

    let cfg = Cfg::compute(f);
    let dt = DomTree::compute(f, &cfg);
    let defs = DefMap::compute(f);

    // Dedicated registers (SP, LR) hold a well-defined value on entry, so
    // a use with no def site reads the incoming register value.
    let entry_live = |v: Var| -> bool {
        f.var(v)
            .reg
            .is_some_and(|r| f.machine.reg_class(r) == RegClass::Special)
    };

    let def_dominates_point = |v: Var, b: Block, pos: usize| -> bool {
        match defs.site(v) {
            None => false,
            Some(site) => {
                if site.block == b {
                    site.pos < pos
                } else {
                    dt.strictly_dominates(site.block, b)
                }
            }
        }
    };

    for b in f.blocks() {
        if !dt.is_reachable(b) {
            continue;
        }
        for (pos, i) in f.block_insts(b).enumerate() {
            let inst = f.inst(i);
            if inst.is_phi() {
                for (k, op) in inst.uses.iter().enumerate() {
                    let pred = inst.phi_preds[k];
                    if !dt.is_reachable(pred) {
                        continue; // the edge can never execute
                    }
                    let Some(site) = defs.site(op.var) else {
                        if entry_live(op.var) {
                            continue;
                        }
                        return err(format!("phi arg {} (from {pred}) is never defined", op.var));
                    };
                    // Must dominate the end of pred.
                    if !dt.dominates(site.block, pred) {
                        return err(format!(
                            "phi arg {} def in {} does not dominate pred {pred} exit",
                            op.var, site.block
                        ));
                    }
                }
            } else {
                for op in inst.uses {
                    if defs.site(op.var).is_none() {
                        if entry_live(op.var) {
                            continue;
                        }
                        return err(format!("{} used in {b} but never defined", op.var));
                    }
                    if !def_dominates_point(op.var, b, pos) {
                        return err(format!(
                            "use of {} at {b}:{pos} not dominated by its definition",
                            op.var
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Checks that `f` is in *conventional* SSA (CSSA): valid SSA whose
/// φ-congruence classes (the transitive closure of {φ def} ∪ {φ args}
/// across all φs) are interference-free — the invariant Sreedhar et
/// al.'s conversion establishes and the pinning-based coalescer relies
/// on when replacing a whole class by one name.
///
/// Interference is exact live-range interference: two variables
/// interfere when one is live after the other's definition, when they
/// are defined by one instruction, or when both are φ definitions of one
/// block (parallel φ semantics).
///
/// # Errors
/// Returns the SSA violation or the first interfering class pair.
pub fn verify_cssa(f: &Function) -> Result<(), SsaError> {
    verify_ssa(f)?;

    // φ-congruence classes by union-find.
    let n = f.num_vars();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    for (_, i) in f.all_insts() {
        let inst = f.inst(i);
        if inst.is_phi() {
            let d = find(&mut parent, inst.defs[0].var.index());
            for u in inst.uses {
                let a = find(&mut parent, u.var.index());
                parent[a] = d;
            }
        }
    }
    // Members by class root; classes are checked in root order, so the
    // pair reported is the same on every call.
    let mut classes: Vec<Vec<Var>> = vec![Vec::new(); n];
    for v in f.vars() {
        let r = find(&mut parent, v.index());
        classes[r].push(v);
    }

    let cfg = Cfg::compute(f);
    let live = Liveness::compute(f, &cfg);
    let defs = DefMap::compute(f);
    let lad = LiveAtDefs::compute(f, &live, &defs);
    let interferes = |x: Var, y: Var| -> bool {
        let (Some(sx), Some(sy)) = (defs.site(x), defs.site(y)) else {
            return false;
        };
        if sx.inst == sy.inst {
            return true;
        }
        lad.after_def(y).is_some_and(|s| s.contains(x))
            || lad.after_def(x).is_some_and(|s| s.contains(y))
            || (sx.block == sy.block && sx.is_phi && sy.is_phi)
    };
    for members in classes.iter().filter(|m| m.len() >= 2) {
        for (k, &x) in members.iter().enumerate() {
            for &y in &members[k + 1..] {
                if interferes(x, y) {
                    return Err(SsaError {
                        message: format!(
                            "not CSSA: φ-congruence class members {x} and {y} interfere"
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    fn parse(text: &str) -> Function {
        parse_function(text, &Machine::dsp32()).unwrap()
    }

    #[test]
    fn accepts_valid_ssa() {
        let f = parse(
            "func @v {
entry:
  %a = make 1
  %b = addi %a, 2
  ret %b
}",
        );
        assert!(verify_ssa(&f).is_ok());
    }

    #[test]
    fn rejects_double_definition() {
        let f = parse(
            "func @d {
entry:
  %a = make 1
  %a = make 2
  ret %a
}",
        );
        let e = verify_ssa(&f).unwrap_err();
        assert!(e.message.contains("multiple definitions"), "{e}");
    }

    #[test]
    fn rejects_use_not_dominated() {
        let f = parse(
            "func @u {
entry:
  %c = input
  br %c, l, m
l:
  %x = make 1
  jump m
m:
  ret %x
}",
        );
        let e = verify_ssa(&f).unwrap_err();
        assert!(e.message.contains("not dominated"), "{e}");
    }

    #[test]
    fn rejects_undefined_use() {
        let f = parse("func @z {\nentry:\n  ret %ghost\n}");
        let e = verify_ssa(&f).unwrap_err();
        assert!(e.message.contains("never defined"), "{e}");
    }

    #[test]
    fn phi_arg_must_dominate_pred_exit() {
        // x defined only in r, but claimed to flow in from l.
        let f = parse(
            "func @p {
entry:
  %c = input
  br %c, l, r
l:
  jump m
r:
  %x = make 2
  jump m
m:
  %y = phi [l: %x], [r: %x]
  ret %y
}",
        );
        let e = verify_ssa(&f).unwrap_err();
        assert!(e.message.contains("does not dominate pred"), "{e}");
    }

    #[test]
    fn cssa_accepts_disjoint_phi_webs() {
        // The classic diamond: a and b die into the φ; the class
        // {x, a, b} is interference-free.
        let f = parse(
            "func @c {
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
        verify_cssa(&f).unwrap();
    }

    #[test]
    fn cssa_rejects_interfering_class() {
        // a stays live past the φ (returned alongside x), so {x, a, b}
        // is not interference-free: valid SSA but not CSSA.
        let f = parse(
            "func @t {
entry:
  %a = make 1
  %b = make 2
  %c = input
  br %c, l, r
l:
  jump m
r:
  jump m
m:
  %x = phi [l: %a], [r: %b]
  ret %x, %a
}",
        );
        verify_ssa(&f).unwrap();
        let e = verify_cssa(&f).unwrap_err();
        assert!(e.message.contains("not CSSA"), "{e}");
    }

    #[test]
    fn cssa_rejects_swap_phis() {
        // Two φs of one block exchanging values: their args are live out
        // of the latch simultaneously, and the lost-copy/swap web
        // {x, y, a, b} collapses into one class that self-interferes.
        let f = parse(
            "func @s {
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
        let e = verify_cssa(&f).unwrap_err();
        assert!(e.message.contains("not CSSA"), "{e}");
    }

    #[test]
    fn cssa_blames_the_same_class_on_every_call() {
        // Two lost-copy classes, {one, x, x2} and {zero, y, y2}: each
        // loop's φ value stays live past the next iteration's def.
        // Classes are checked in root order, so x's is reported every
        // time.
        let f = parse(
            "func @lost2 {
entry:
  %one = make 1
  %n = input
  jump h1
h1:
  %x = phi [entry: %one], [h1: %x2]
  %x2 = addi %x, 1
  %c = cmplt %x2, %x
  br %c, h1, mid
mid:
  %zero = make 0
  jump h2
h2:
  %y = phi [mid: %zero], [h2: %y2]
  %y2 = addi %y, 1
  %d = cmplt %y2, %y
  br %d, h2, exit
exit:
  %s = add %x, %y
  ret %s, %n
}",
        );
        let var = |name: &str| f.vars().find(|&v| &*f.var(v).name == name).unwrap();
        let first = verify_cssa(&f).unwrap_err();
        assert_eq!(
            first.message,
            format!(
                "not CSSA: φ-congruence class members {} and {} interfere",
                var("x"),
                var("x2")
            )
        );
        for _ in 1..32 {
            assert_eq!(verify_cssa(&f).unwrap_err().message, first.message);
        }
    }

    #[test]
    fn phi_def_dominates_same_block_uses() {
        let f = parse(
            "func @ok {
entry:
  %a = make 1
  jump m
m:
  %x = phi [entry: %a]
  %y = addi %x, 1
  ret %y
}",
        );
        assert!(verify_ssa(&f).is_ok());
    }
}
