//! `Program_pinning` (paper Algorithm 1): the pinning-based φ coalescer.
//!
//! For each confluence point, visited inner-to-outer by loop depth, the
//! affinity graph is built, pruned (initial + weighted bipartite), and
//! each surviving connected component is merged onto a reference resource
//! (`PrunedGraph_pinning`, §3.5). Merging only ever *pins definitions*;
//! Leung–George's mark/reconstruct phases then translate out of SSA with
//! no φ copy for any argument sharing its φ's resource.

use crate::affinity::{
    bipartite_pruning, components, create_affinity_graph, initial_pruning, PrunedEdge, RVertex,
    VertexInterference,
};
use crate::interfere::{InterferenceEnv, InterferenceMode};
use crate::pinning::resource_members;
use tossa_analysis::{AnalysisCache, DefMap};
use tossa_ir::ids::{Block, EntityVec, Resource, Var};
use tossa_ir::print::{res_str, var_str};
use tossa_ir::Function;
use tossa_trace::provenance;

/// Display form of an affinity-graph vertex for provenance records.
fn vert_str(f: &Function, v: RVertex) -> String {
    match v {
        RVertex::Res(r) => res_str(f, r),
        RVertex::Bare(x) => var_str(f, x),
    }
}

/// The witness pair of a pruned edge as display strings: the reason's
/// variable pair when it has one, else the offending vertices
/// themselves (the physical-pair rule).
fn witness_strs(f: &Function, p: &PrunedEdge) -> (String, String) {
    match p.reason.witness {
        Some((a, b)) => (var_str(f, a), var_str(f, b)),
        None => (vert_str(f, p.offenders.0), vert_str(f, p.offenders.1)),
    }
}

/// Tuning knobs of the coalescer (the paper's Table 5 variants plus one
/// ablation of this implementation).
#[derive(Clone, Copy, Debug)]
pub struct CoalesceOptions {
    /// Class 1 interference rule (`base`/`opt`/`pess`).
    pub mode: InterferenceMode,
    /// Algorithm 3: prioritize by the depth of the *move* a φ argument
    /// would generate rather than the φ's own depth (`depth` variant).
    pub depth_priority: bool,
    /// Gain refinement (\[LIM1\]): do not count φ arguments that are
    /// already killed within their own resource as coalescing gain —
    /// their copy cannot be elided anyway. `false` reverts to the
    /// paper's literal gain definition (the `paper-gain` ablation).
    pub refine_gain: bool,
}

impl Default for CoalesceOptions {
    fn default() -> Self {
        CoalesceOptions {
            mode: InterferenceMode::default(),
            depth_priority: false,
            refine_gain: true,
        }
    }
}

/// Statistics of one coalescing run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Confluence blocks processed.
    pub blocks: usize,
    /// Affinity edges seen before pruning.
    pub initial_edges: usize,
    /// Edges removed by initial pruning.
    pub pruned_initial: usize,
    /// Edges removed by bipartite pruning.
    pub pruned_bipartite: usize,
    /// Connected components merged.
    pub merges: usize,
    /// Variables whose definitions were newly pinned.
    pub pinned_vars: usize,
}

impl CoalesceStats {
    /// Publishes the run's totals on the trace sink (no-op when tracing
    /// is disabled).
    fn flush_trace(&self) {
        use tossa_trace::{count, Counter};
        count(Counter::CongruenceClasses, self.merges as u64);
        count(Counter::CoalesceMerges, self.pinned_vars as u64);
        count(Counter::AffinityEdges, self.initial_edges as u64);
        count(Counter::AffinityPrunedInitial, self.pruned_initial as u64);
        count(
            Counter::AffinityPrunedBipartite,
            self.pruned_bipartite as u64,
        );
        count(Counter::PinsPhi, self.pinned_vars as u64);
    }
}

/// Runs the coalescer over the whole function with a private
/// [`AnalysisCache`]. Prefer [`program_pinning_cached`] inside a
/// pipeline that already owns a cache.
pub fn program_pinning(f: &mut Function, opts: &CoalesceOptions) -> CoalesceStats {
    program_pinning_cached(f, opts, &mut AnalysisCache::new())
}

/// Runs the coalescer over the whole function.
///
/// Pinning never changes liveness, dominance, or definition sites, so
/// the analyses are computed once (or reused from `cache` if an earlier
/// pass left them hot) and remain valid across all merges — and for
/// whatever pass runs next.
pub fn program_pinning_cached(
    f: &mut Function,
    opts: &CoalesceOptions,
    cache: &mut AnalysisCache,
) -> CoalesceStats {
    tossa_trace::span("coalesce", || program_pinning_inner(f, opts, cache))
}

fn program_pinning_inner(
    f: &mut Function,
    opts: &CoalesceOptions,
    cache: &mut AnalysisCache,
) -> CoalesceStats {
    let dt = cache.domtree(f);
    let live = cache.liveness(f);
    let defs = cache.defs(f);
    let lad = cache.live_at_defs(f);
    let loops = cache.loops(f);
    let order: Vec<Block> = loops
        .blocks_inner_to_outer(&dt)
        .into_iter()
        .filter(|&b| f.phis(b).next().is_some())
        .collect();

    let mut members = resource_members(f);
    tossa_trace::count(
        tossa_trace::Counter::PinnedVars,
        members.values().map(|m| m.len() as u64).sum(),
    );
    let mut stats = CoalesceStats::default();
    // Merged (virtual) resources become aliases of the reference; operand
    // pins are rewritten once at the end (§3.5: "the update of pinning
    // can be performed only once, just before the mark phase").
    let mut alias: EntityVec<Resource, Option<Resource>> =
        EntityVec::filled(f.resources.len(), None);

    let depth_of_def =
        |defs: &DefMap, v: Var| -> u32 { defs.site(v).map(|s| loops.depth(s.block)).unwrap_or(0) };

    let depths: Vec<Option<u32>> = if opts.depth_priority {
        let mut ds: Vec<u32> = (0..=loops.max_depth()).collect();
        ds.reverse();
        ds.into_iter().map(Some).collect()
    } else {
        vec![None]
    };

    for depth in depths {
        for &b in &order {
            stats.blocks += 1;
            // Snapshot the pinning state for this block's optimization;
            // the borrow of `f` ends before components are merged.
            let comps = {
                let env = InterferenceEnv {
                    f,
                    dt: &dt,
                    live: &live,
                    defs: &defs,
                    lad: &lad,
                    mode: opts.mode,
                };
                let mut oracle = VertexInterference::new(&env, &members);
                let depth_fn = |v: Var| depth_of_def(&defs, v);
                let filter: Option<(&dyn Fn(Var) -> u32, u32)> =
                    depth.map(|d| (&depth_fn as &dyn Fn(Var) -> u32, d));
                // An argument already killed within its own resource keeps
                // its copy no matter what (it is restored from a repair
                // variable), so it offers no gain. The killed set of a
                // resource is memoized for the block (several φ arguments
                // often share one resource).
                let killed_memo: std::cell::RefCell<EntityVec<Resource, Option<Vec<Var>>>> =
                    std::cell::RefCell::new(EntityVec::filled(f.resources.len(), None));
                let avoidable = |v: Var| {
                    if !opts.refine_gain {
                        return true;
                    }
                    match f.var(v).pin {
                        Some(r) => !killed_memo.borrow_mut()[r]
                            .get_or_insert_with(|| {
                                crate::pinning::resource_set(f, &members, r).killed_within(&env)
                            })
                            .contains(&v),
                        None => !env.variable_kills(v, v),
                    }
                };
                let mut g = tossa_trace::span("affinity_build", || {
                    create_affinity_graph(f, b, filter, &avoidable)
                });
                stats.initial_edges += g.num_edges();
                let pruned_i = initial_pruning(&mut g, &mut oracle);
                let pruned_b = bipartite_pruning(&mut g, &mut oracle);
                stats.pruned_initial += pruned_i.len();
                stats.pruned_bipartite += pruned_b.len();
                // Survivors, in deterministic order, so their coalesced
                // verdicts can be recorded once the merge fixes the
                // reference resource.
                let survivors: Vec<(RVertex, RVertex, u32)> = if tossa_trace::verbose() {
                    let mut s: Vec<_> = g.edges().collect();
                    s.sort_by_key(|&(a, b, _)| {
                        (crate::affinity::vkey(a), crate::affinity::vkey(b))
                    });
                    s
                } else {
                    Vec::new()
                };
                (components(&g), pruned_i, pruned_b, survivors)
            };
            let (comps, pruned_i, pruned_b, survivors) = comps;
            for (p, bipartite) in pruned_i
                .iter()
                .map(|p| (p, false))
                .chain(pruned_b.iter().map(|p| (p, true)))
            {
                provenance::record(|| {
                    let class = p.reason.class.provenance();
                    let witness = witness_strs(f, p);
                    provenance::Kind::Edge {
                        block: f.block(b).name.to_string(),
                        a: vert_str(f, p.a),
                        b: vert_str(f, p.b),
                        weight: p.weight,
                        verdict: if bipartite {
                            provenance::Verdict::PrunedBipartite { class, witness }
                        } else {
                            provenance::Verdict::PrunedInitial { class, witness }
                        },
                    }
                });
            }
            for comp in comps {
                stats.merges += 1;
                stats.pinned_vars += merge_component(f, &mut members, &mut alias, &comp);
            }
            // Every surviving edge's endpoints now share a reference
            // resource: record the coalesced verdicts.
            for (va, vb, w) in survivors {
                provenance::record(|| {
                    let into = match va {
                        RVertex::Bare(x) => f.var(x).pin,
                        RVertex::Res(r) => Some(resolve(&alias, r)),
                    };
                    provenance::Kind::Edge {
                        block: f.block(b).name.to_string(),
                        a: vert_str(f, va),
                        b: vert_str(f, vb),
                        weight: w,
                        verdict: provenance::Verdict::Coalesced {
                            into: into.map_or_else(|| "?".to_string(), |r| res_str(f, r)),
                        },
                    }
                });
            }
        }
    }

    // Final pinning update: resolve merged resources in operand pins.
    if alias.values().any(Option::is_some) {
        for bb in f.blocks() {
            for pos in 0..f.block(bb).insts.len() {
                let i = f.block(bb).insts[pos];
                let ndefs = f.inst(i).defs.len();
                for k in 0..f.inst(i).uses.len() {
                    if let Some(p) = f.inst(i).uses[k].pin {
                        f.set_operand_pin(i, ndefs + k, Some(resolve(&alias, p)));
                    }
                }
            }
        }
        for v in f.vars() {
            if let Some(p) = f.var(v).pin {
                f.set_pin(v, Some(resolve(&alias, p)));
            }
        }
    }
    stats.flush_trace();
    stats
}

/// The reference resource `r` was merged into (`r` itself if none).
fn resolve(alias: &EntityVec<Resource, Option<Resource>>, mut r: Resource) -> Resource {
    while let Some(n) = alias[r] {
        r = n;
    }
    r
}

/// `PrunedGraph_pinning` (§3.5): merges one connected component onto its
/// reference resource — the physical one if present (unique, since two
/// physical resources always interfere), else an existing virtual
/// resource, else a fresh one. Returns the number of newly pinned defs.
fn merge_component(
    f: &mut Function,
    members: &mut EntityVec<Resource, Vec<Var>>,
    alias: &mut EntityVec<Resource, Option<Resource>>,
    comp: &[RVertex],
) -> usize {
    // Pick the reference resource.
    let phys = comp.iter().find_map(|&v| match v {
        RVertex::Res(r) if f.resources.as_phys(r).is_some() => Some(r),
        _ => None,
    });
    let existing_virt = comp.iter().find_map(|&v| match v {
        RVertex::Res(r) if f.resources.as_phys(r).is_none() => Some(r),
        _ => None,
    });
    let reference = phys.or(existing_virt).unwrap_or_else(|| {
        let name = comp
            .iter()
            .find_map(|&v| match v {
                RVertex::Bare(x) => Some(f.var(x).name.clone()),
                _ => None,
            })
            .unwrap_or_else(|| "coalesced".into());
        f.resources.new_virt(name)
    });
    members.grow_to(f.resources.len(), Vec::new());
    alias.grow_to(f.resources.len(), None);

    let mut pinned = 0;
    let mut new_members: Vec<Var> = std::mem::take(&mut members[reference]);
    for &v in comp {
        match v {
            RVertex::Res(r) if r != reference => {
                // Absorb the whole resource.
                for x in std::mem::take(&mut members[r]) {
                    f.set_pin(x, Some(reference));
                    provenance::record(|| provenance::Kind::Pin {
                        var: var_str(f, x),
                        resource: res_str(f, reference),
                        cause: "coalesce".into(),
                    });
                    new_members.push(x);
                }
                alias[r] = Some(reference);
            }
            RVertex::Bare(x) => {
                f.set_pin(x, Some(reference));
                provenance::record(|| provenance::Kind::Pin {
                    var: var_str(f, x),
                    resource: res_str(f, reference),
                    cause: "coalesce".into(),
                });
                new_members.push(x);
                pinned += 1;
            }
            _ => {}
        }
    }
    members[reference] = new_members;
    pinned
}

/// The paper's *gain* for the φs of the function: the number of φ
/// arguments pinned to the same resource as their φ's result — each such
/// argument is one avoided copy.
pub fn phi_gain(f: &Function) -> usize {
    let mut gain = 0;
    for (_, i) in f.all_insts() {
        let inst = f.inst(i);
        if !inst.is_phi() {
            continue;
        }
        let Some(rx) = f.var(inst.defs[0].var).pin else {
            continue;
        };
        for u in inst.uses {
            if f.var(u.var).pin == Some(rx) || u.var == inst.defs[0].var {
                gain += 1;
            }
        }
    }
    gain
}

#[cfg(test)]
mod tests {
    use super::*;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    fn parse(text: &str) -> Function {
        let f = parse_function(text, &Machine::dsp32()).unwrap();
        f.validate().unwrap();
        f
    }

    fn var(f: &Function, name: &str) -> Var {
        f.vars().find(|&v| &*f.var(v).name == name).unwrap()
    }

    #[test]
    fn diamond_fully_coalesced() {
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
        let stats = program_pinning(&mut f, &CoalesceOptions::default());
        assert_eq!(stats.merges, 1);
        assert_eq!(stats.pinned_vars, 3);
        let (a, b, x) = (var(&f, "a"), var(&f, "b"), var(&f, "x"));
        assert!(f.var(x).pin.is_some());
        assert_eq!(f.var(a).pin, f.var(x).pin);
        assert_eq!(f.var(b).pin, f.var(x).pin);
        assert_eq!(phi_gain(&f), 2);
    }

    #[test]
    fn fig5_interfering_arg_left_out() {
        // Paper Fig. 5: x1 interferes with x (x1 used after the φ would
        // be... here: a used below the φ). Only the other argument is
        // coalesced — one copy remains (Fig. 5(c)), not a repair
        // (Fig. 5(b)).
        let mut f = parse(
            "func @fig5 {
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
        program_pinning(&mut f, &CoalesceOptions::default());
        let (a, b, x) = (var(&f, "a"), var(&f, "b"), var(&f, "x"));
        assert!(f.var(x).pin.is_some());
        assert_eq!(f.var(b).pin, f.var(x).pin);
        assert_ne!(f.var(a).pin, f.var(x).pin);
        assert_eq!(phi_gain(&f), 1);
    }

    #[test]
    fn loop_phi_coalesced_with_iterated_value() {
        let mut f = parse(
            "func @loop {
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
        );
        program_pinning(&mut f, &CoalesceOptions::default());
        let (z, i, i2) = (var(&f, "z"), var(&f, "i"), var(&f, "i2"));
        // i and i2 never overlap (i dies at the addi; i2 dies at the φ
        // copy): full coalescing of the induction web.
        assert!(f.var(i).pin.is_some());
        assert_eq!(f.var(i2).pin, f.var(i).pin);
        assert_eq!(f.var(z).pin, f.var(i).pin);
        assert_eq!(phi_gain(&f), 2);
    }

    #[test]
    fn physical_resource_is_the_reference() {
        let mut f = parse(
            "func @phys {
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
  %x!R0 = phi [l: %a], [r: %b]
  ret %x!R0
}",
        );
        program_pinning(&mut f, &CoalesceOptions::default());
        let r0 = f.resources.by_name("R0").unwrap();
        assert_eq!(f.var(var(&f, "a")).pin, Some(r0));
        assert_eq!(f.var(var(&f, "b")).pin, Some(r0));
    }

    #[test]
    fn merged_resources_rewrite_use_pins() {
        // A two-operand use pin on a merged virtual resource must be
        // rewritten to the reference resource.
        let mut f = parse(
            "func @twoop {
entry:
  %c = input
  br %c, l, r
l:
  %p = make 100
  jump m
r:
  %p2 = make 200
  jump m
m:
  %q = phi [l: %p], [r: %p2]
  %q2!$qq = autoadd %q!$qq, 1
  ret %q2
}",
        );
        // The autoadd pre-pins q2 (def) and the use of q to $qq.
        // Coalescing should merge the φ web with... q's use pin stays on
        // whatever resource survives.
        program_pinning(&mut f, &CoalesceOptions::default());
        let autoadd = f
            .all_insts()
            .find(|&(_, i)| f.inst(i).opcode == tossa_ir::Opcode::AutoAdd)
            .map(|(_, i)| i)
            .unwrap();
        let use_pin = f.inst(autoadd).uses[0].pin.unwrap();
        let q2_pin = f.var(var(&f, "q2")).pin.unwrap();
        assert_eq!(use_pin, q2_pin, "use pin follows the merged resource");
    }

    #[test]
    fn depth_variant_runs() {
        let mut f = parse(
            "func @dv {
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
        );
        let stats = program_pinning(
            &mut f,
            &CoalesceOptions {
                depth_priority: true,
                ..Default::default()
            },
        );
        assert!(stats.pinned_vars >= 2);
        assert_eq!(phi_gain(&f), 2);
    }
}
