//! Exhaustive φ-pinning oracle for small functions.
//!
//! The paper proves the φ coalescing problem NP-complete (\[10\], \[LIM3\]),
//! so `Program_pinning` is a heuristic. For functions whose affinity
//! edge count is small this module enumerates *every* subset of
//! coalescing decisions, materializes each legal pinning, runs the real
//! reconstruction, and reports the true minimum move count — an oracle
//! used by tests and ablations to measure how far the greedy pruning is
//! from optimal.

use crate::interfere::{InterferenceEnv, InterferenceMode};
use crate::reconstruct::out_of_pinned_ssa;
use std::collections::HashMap;
use tossa_analysis::AnalysisCache;
use tossa_ir::ids::{Resource, Var};
use tossa_ir::Function;

/// Result of the exhaustive search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExhaustiveResult {
    /// Minimum move count over all legal pinning subsets.
    pub best_moves: usize,
    /// Number of legal assignments evaluated.
    pub evaluated: usize,
    /// Number of candidate affinity edges.
    pub edges: usize,
}

/// Maximum number of affinity edges the search will enumerate (2^N
/// reconstructions).
pub const MAX_EDGES: usize = 12;

/// Runs the exhaustive search on a pinned SSA function (constraints
/// collected, φ coalescing **not** yet applied). Returns `None` when the
/// function has more than [`MAX_EDGES`] candidate edges.
pub fn exhaustive_phi_pinning(f: &Function) -> Option<ExhaustiveResult> {
    // Candidate edges: (φ def var, argument var) pairs whose current
    // resources differ.
    let mut edges: Vec<(Var, Var)> = Vec::new();
    for (_, i) in f.all_insts() {
        let inst = f.inst(i);
        if !inst.is_phi() {
            continue;
        }
        let x = inst.defs[0].var;
        for u in inst.uses {
            if u.var == x {
                continue;
            }
            let same = match (f.var(x).pin, f.var(u.var).pin) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            };
            if !same && !edges.contains(&(x, u.var)) {
                edges.push((x, u.var));
            }
        }
    }
    if edges.len() > MAX_EDGES {
        return None;
    }

    let mut cache = AnalysisCache::new();
    let dt = cache.domtree(f);
    let live = cache.liveness(f);
    let defs = cache.defs(f);
    let lad = cache.live_at_defs(f);
    let env = InterferenceEnv {
        f,
        dt: &dt,
        live: &live,
        defs: &defs,
        lad: &lad,
        mode: InterferenceMode::Exact,
    };

    let mut best: Option<usize> = None;
    let mut evaluated = 0;
    for mask in 0u32..(1 << edges.len()) {
        let chosen: Vec<(Var, Var)> = edges
            .iter()
            .enumerate()
            .filter(|&(k, _)| mask & (1 << k) != 0)
            .map(|(_, &e)| e)
            .collect();
        let Some(groups) = build_groups(f, &chosen) else {
            continue;
        };
        if !legal(f, &env, &groups) {
            continue;
        }
        let mut candidate = f.clone();
        apply_groups(&mut candidate, &groups);
        let _ = out_of_pinned_ssa(&mut candidate);
        let moves = candidate.count_moves();
        evaluated += 1;
        best = Some(best.map_or(moves, |b: usize| b.min(moves)));
    }
    Some(ExhaustiveResult {
        best_moves: best.expect("the empty assignment is always legal"),
        evaluated,
        edges: edges.len(),
    })
}

/// Groups of variables induced by existing pins plus chosen edges.
/// Returns `None` if a group would contain two distinct physical
/// resources.
fn build_groups(f: &Function, chosen: &[(Var, Var)]) -> Option<Vec<Vec<Var>>> {
    let n = f.num_vars();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(p: &mut [usize], mut x: usize) -> usize {
        while p[x] != x {
            p[x] = p[p[x]];
            x = p[x];
        }
        x
    }
    // Union existing resource co-members.
    let mut by_res: HashMap<Resource, Var> = HashMap::new();
    for v in f.vars() {
        if let Some(r) = f.var(v).pin {
            match by_res.get(&r) {
                Some(&head) => {
                    let (a, b) = (
                        find(&mut parent, head.index()),
                        find(&mut parent, v.index()),
                    );
                    if a != b {
                        parent[a] = b;
                    }
                }
                None => {
                    by_res.insert(r, v);
                }
            }
        }
    }
    for &(a, b) in chosen {
        let (ra, rb) = (find(&mut parent, a.index()), find(&mut parent, b.index()));
        if ra != rb {
            parent[ra] = rb;
        }
    }
    // Check physical-resource clashes and collect groups.
    let mut phys_of: HashMap<usize, Resource> = HashMap::new();
    let mut groups: HashMap<usize, Vec<Var>> = HashMap::new();
    for v in f.vars() {
        let root = find(&mut parent, v.index());
        if let Some(r) = f.var(v).pin {
            if f.resources.as_phys(r).is_some() {
                if let Some(&prev) = phys_of.get(&root) {
                    if prev != r {
                        return None;
                    }
                }
                phys_of.insert(root, r);
            }
        }
        groups.entry(root).or_default().push(v);
    }
    Some(groups.into_values().filter(|g| g.len() > 1).collect())
}

/// A grouping is legal when no two members strongly interfere (simple
/// interferences are allowed — they only cost repairs).
fn legal(_f: &Function, env: &InterferenceEnv<'_>, groups: &[Vec<Var>]) -> bool {
    for g in groups {
        for (k, &a) in g.iter().enumerate() {
            for &b in &g[k + 1..] {
                if env.strongly_interfere(a, b) {
                    return false;
                }
            }
        }
    }
    true
}

/// Writes the grouping back as definition pinnings.
fn apply_groups(f: &mut Function, groups: &[Vec<Var>]) {
    for g in groups {
        // Reuse the group's physical or existing resource, else fresh.
        let existing = g
            .iter()
            .find_map(|&v| f.var(v).pin.filter(|&r| f.resources.as_phys(r).is_some()));
        let any = g.iter().find_map(|&v| f.var(v).pin);
        let r = existing.or(any).unwrap_or_else(|| {
            let name = f.var(g[0]).name.clone();
            f.resources.new_virt(name)
        });
        for &v in g {
            f.set_pin(v, Some(r));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::program_pinning;
    use crate::collect::{pinning_abi, pinning_sp};
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;
    use tossa_ssa::to_ssa;

    fn prepared(text: &str) -> Function {
        let mut f = parse_function(text, &Machine::dsp32()).unwrap();
        f.validate().unwrap();
        if !tossa_ssa::construct::has_phis(&f) {
            to_ssa(&mut f);
        }
        pinning_sp(&mut f);
        pinning_abi(&mut f);
        f
    }

    fn heuristic_moves(f: &Function) -> usize {
        let mut g = f.clone();
        program_pinning(&mut g, &Default::default());
        let _ = out_of_pinned_ssa(&mut g);
        g.count_moves()
    }

    #[test]
    fn heuristic_is_optimal_on_diamond() {
        let f = prepared(
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
        let opt = exhaustive_phi_pinning(&f).expect("small");
        assert_eq!(heuristic_moves(&f), opt.best_moves);
        assert!(opt.evaluated >= 2);
    }

    #[test]
    fn heuristic_is_optimal_on_loop() {
        let f = prepared(
            "func @sum {
entry:
  %n = input
  %acc = make 0
  %i = make 0
  jump head
head:
  %c = cmplt %i, %n
  br %c, body, exit
body:
  %acc = add %acc, %i
  %i = addi %i, 1
  jump head
exit:
  ret %acc
}",
        );
        let opt = exhaustive_phi_pinning(&f).expect("small");
        assert_eq!(heuristic_moves(&f), opt.best_moves);
    }

    #[test]
    fn heuristic_close_to_optimal_on_fig9_shape() {
        let f = prepared(
            "func @fig9 {
entry:
  %cc = input
  br %cc, p1, p2
p1:
  %x = make 1
  %y = make 2
  jump m
p2:
  %z = make 3
  %y2 = make 4
  jump m
m:
  %bigx = phi [p1: %x], [p2: %z]
  %bigy = phi [p1: %y], [p2: %y2]
  %s = add %bigx, %bigy
  ret %s
}",
        );
        let opt = exhaustive_phi_pinning(&f).expect("small");
        let h = heuristic_moves(&f);
        assert!(
            h <= opt.best_moves + 1,
            "heuristic {h} vs optimal {}",
            opt.best_moves
        );
    }

    #[test]
    fn refuses_large_functions() {
        // 13+ edges: a φ with many arguments times several joins.
        let mut text = String::from("func @big {\nentry:\n  %c = input\n");
        for k in 0..14 {
            text.push_str(&format!("  %v{k} = make {k}\n"));
        }
        text.push_str("  jump m0\n");
        for k in 0..14 {
            text.push_str(&format!(
                "m{k}:\n  %p{k} = phi [{}: %v{k}]\n  jump m{}\n",
                if k == 0 {
                    "entry".to_string()
                } else {
                    format!("m{}", k - 1)
                },
                k + 1
            ));
        }
        text.push_str("m14:\n  ret %p13\n}\n");
        let f = parse_function(&text, &Machine::dsp32()).unwrap();
        assert!(exhaustive_phi_pinning(&f).is_none());
    }

    #[test]
    fn empty_assignment_always_evaluated() {
        let f = prepared("func @s {\nentry:\n  %a = make 1\n  ret %a\n}");
        let opt = exhaustive_phi_pinning(&f).expect("no edges");
        assert_eq!(opt.edges, 0);
        assert_eq!(opt.evaluated, 1);
    }
}
