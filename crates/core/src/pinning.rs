//! Pinning bookkeeping and the correct-pinning checker (paper §2.2,
//! Fig. 4).

use crate::interfere::{InterferenceEnv, ResourceSet};
use std::fmt;
use tossa_ir::ids::{EntityVec, Resource, Var};
use tossa_ir::Function;

/// An incorrect pinning (one of Fig. 4's forbidden cases).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PinError {
    /// Description of the violated rule.
    pub message: String,
}

impl fmt::Display for PinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for PinError {}

/// Collects, for every resource, the variables whose *definition* is
/// pinned to it (§3: "we identify the notion of resource with the set of
/// variables pinned to it"), in variable order; one entry per resource of
/// `f`, empty when nothing is pinned to it.
pub fn resource_members(f: &Function) -> EntityVec<Resource, Vec<Var>> {
    let mut members: EntityVec<Resource, Vec<Var>> =
        EntityVec::filled(f.resources.len(), Vec::new());
    for v in f.vars() {
        if let Some(r) = f.var(v).pin {
            members[r].push(v);
        }
    }
    members
}

/// Builds the [`ResourceSet`] view of resource `r`.
pub fn resource_set(
    f: &Function,
    members: &EntityVec<Resource, Vec<Var>>,
    r: Resource,
) -> ResourceSet {
    ResourceSet {
        members: members.get(r).cloned().unwrap_or_default(),
        is_phys: f.resources.as_phys(r).is_some(),
    }
}

/// Checks the pinning of `f` against Fig. 4:
///
/// * Case 1 — two *different* variables defined by one instruction pinned
///   to one resource;
/// * Case 2 — two different variables used by one instruction with use
///   pins on one resource;
/// * Case 3 — two φ definitions of one block pinned to one resource;
/// * Case 5 — a φ argument use-pinned to a resource other than the φ
///   result's (φ arguments are implicitly pinned to the result's
///   resource);
/// * Case 6 / Fig. 2 — definition pinnings whose variables strongly
///   interfere (cross-φ swaps like the SP example).
///
/// Case 4 (a definition and a use of one instruction pinned together —
/// the two-operand constraint) is legal and accepted.
///
/// # Errors
/// Returns the first violation found.
pub fn check_pinning(f: &Function, env: &InterferenceEnv<'_>) -> Result<(), PinError> {
    let err = |m: String| Err(PinError { message: m });
    for (b, i) in f.all_insts() {
        let inst = f.inst(i);
        // Case 1: defs of one instruction.
        for (k, d1) in inst.defs.iter().enumerate() {
            for d2 in &inst.defs[k + 1..] {
                if d1.var != d2.var {
                    if let (Some(r1), Some(r2)) = (f.var(d1.var).pin, f.var(d2.var).pin) {
                        if r1 == r2 {
                            return err(format!(
                                "case 1: defs {} and {} of {i} pinned to {}",
                                d1.var,
                                d2.var,
                                f.resources.name(r1)
                            ));
                        }
                    }
                }
            }
        }
        // Case 2: uses of one instruction (operand pins).
        for (k, u1) in inst.uses.iter().enumerate() {
            for u2 in &inst.uses[k + 1..] {
                if u1.var != u2.var {
                    if let (Some(r1), Some(r2)) = (u1.pin, u2.pin) {
                        if r1 == r2 {
                            return err(format!(
                                "case 2: uses {} and {} of {i} pinned to {}",
                                u1.var,
                                u2.var,
                                f.resources.name(r1)
                            ));
                        }
                    }
                }
            }
        }
        // Case 5: φ argument pinned elsewhere than the φ result.
        if inst.is_phi() {
            let def_pin = f.var(inst.defs[0].var).pin;
            for u in inst.uses {
                if let Some(s) = u.pin {
                    if Some(s) != def_pin {
                        return err(format!(
                            "case 5: φ argument {} of {i} in {b} pinned to {} ≠ result pin",
                            u.var,
                            f.resources.name(s)
                        ));
                    }
                }
            }
        }
    }
    // Case 3: φ defs of one block sharing a resource.
    for b in f.blocks() {
        let phis: Vec<_> = f.phis(b).collect();
        for (k, &p1) in phis.iter().enumerate() {
            for &p2 in &phis[k + 1..] {
                let v1 = f.inst(p1).defs[0].var;
                let v2 = f.inst(p2).defs[0].var;
                if let (Some(r1), Some(r2)) = (f.var(v1).pin, f.var(v2).pin) {
                    if r1 == r2 {
                        return err(format!(
                            "case 3: φ defs {v1} and {v2} of {b} pinned to {}",
                            f.resources.name(r1)
                        ));
                    }
                }
            }
        }
    }
    // Case 6 / Fig. 2: strong interference inside one resource, checked
    // in resource order so the first violation reported is stable.
    let members = resource_members(f);
    for (r, vars) in members.iter() {
        for (k, &x) in vars.iter().enumerate() {
            for &y in &vars[k + 1..] {
                if env.strongly_interfere(x, y) {
                    return err(format!(
                        "case 6: {x} and {y} pinned to {} strongly interfere",
                        f.resources.name(r)
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interfere::EnvHandles;
    use crate::interfere::InterferenceMode;
    use tossa_analysis::AnalysisCache;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    struct Setup {
        f: Function,
        handles: EnvHandles,
    }

    fn setup(text: &str) -> Setup {
        let f = parse_function(text, &Machine::dsp32()).unwrap();
        f.validate().unwrap();
        let handles = EnvHandles::from_cache(&f, &mut AnalysisCache::new());
        Setup { f, handles }
    }

    impl Setup {
        fn env(&self) -> InterferenceEnv<'_> {
            self.handles.env(&self.f, InterferenceMode::Exact)
        }
    }

    #[test]
    fn accepts_two_operand_pinning_case4() {
        let s = setup(
            "func @ok {
entry:
  %p = input
  %q!$a = autoadd %p!$a, 1
  ret %q
}",
        );
        assert!(check_pinning(&s.f, &s.env()).is_ok());
    }

    #[test]
    fn rejects_case1_same_inst_defs() {
        let s = setup(
            "func @c1 {
entry:
  %a!R0, %b!R0 = input
  ret %a
}",
        );
        let e = check_pinning(&s.f, &s.env()).unwrap_err();
        assert!(e.message.contains("case 1"), "{e}");
    }

    #[test]
    fn rejects_case2_same_inst_uses() {
        let s = setup(
            "func @c2 {
entry:
  %a = make 1
  %b = make 2
  %d = call f(%a!R0, %b!R0)
  ret %d
}",
        );
        let e = check_pinning(&s.f, &s.env()).unwrap_err();
        assert!(e.message.contains("case 2"), "{e}");
    }

    #[test]
    fn rejects_case3_same_block_phis() {
        let s = setup(
            "func @c3 {
entry:
  %a = make 1
  %b = make 2
  jump m
m:
  %x!$r = phi [entry: %a]
  %y!$r = phi [entry: %b]
  ret %x, %y
}",
        );
        let e = check_pinning(&s.f, &s.env()).unwrap_err();
        // Case 3 and case 6 both apply; the per-block check fires first.
        assert!(e.message.contains("case 3"), "{e}");
    }

    #[test]
    fn rejects_case5_arg_pinned_elsewhere() {
        let s = setup(
            "func @c5 {
entry:
  %a = make 1
  jump m
m:
  %x = phi [entry: %a!R1]
  ret %x
}",
        );
        let e = check_pinning(&s.f, &s.env()).unwrap_err();
        assert!(e.message.contains("case 5"), "{e}");
    }

    #[test]
    fn rejects_case6_cross_phi_swap() {
        // Fig. 2: two φs in different blocks pinned to SP with
        // disagreeing arguments in a shared predecessor.
        let s = setup(
            "func @c6 {
entry:
  %sp1!SP = make 1
  %x1 = make 2
  %c = input
  br %c, l, r
l:
  %sp3!SP = phi [entry: %sp1]
  ret %sp3
r:
  %sp4!SP = phi [entry: %x1]
  ret %sp4
}",
        );
        let e = check_pinning(&s.f, &s.env()).unwrap_err();
        assert!(e.message.contains("case 6"), "{e}");
    }

    #[test]
    fn case6_blames_the_same_pair_on_every_call() {
        // Two Class-3 violations: x/y pinned to $r and x2/y2 to $s (the
        // φ arguments disagree in the shared predecessor). Resources are
        // checked in index order, so $r's pair is reported every time.
        let s = setup(
            "func @two {
entry:
  %a = make 1
  %b = make 2
  %c = input
  br %c, m1, m2
m1:
  %x!$r = phi [entry: %a]
  %x2!$s = phi [entry: %b]
  ret %x, %x2
m2:
  %y!$r = phi [entry: %b]
  %y2!$s = phi [entry: %a]
  ret %y, %y2
}",
        );
        let first = check_pinning(&s.f, &s.env()).unwrap_err();
        assert!(first.message.starts_with("case 6"), "{first}");
        assert!(
            first.message.ends_with("pinned to r strongly interfere"),
            "{first}"
        );
        for _ in 1..32 {
            assert_eq!(check_pinning(&s.f, &s.env()).unwrap_err(), first);
        }
    }

    #[test]
    fn members_map_collects_def_pins() {
        let s = setup(
            "func @m {
entry:
  %a!R0 = make 1
  %b!R0 = addi %a, 1
  %c!$v = make 3
  ret %b
}",
        );
        let members = resource_members(&s.f);
        assert_eq!(members.values().filter(|m| !m.is_empty()).count(), 2);
        let r0 = s.f.resources.by_name("R0").unwrap();
        assert_eq!(members[r0].len(), 2);
        let set = resource_set(&s.f, &members, r0);
        assert!(set.is_phys);
        assert_eq!(set.members.len(), 2);
    }
}
