//! Reference tests for the interference structures over liveness:
//! the aggressive coalescer's interference graph (`InterferenceGraph`,
//! one bit matrix over the variables it tracks) and the paper's exact
//! oracle, the live-after-def sets (`LiveAtDefs`, one flat row per
//! variable).
//!
//! Over post-reconstruct code of the fuzz population and of the SPECint
//! shape, for seeded samples of both:
//!
//! - the graph over every variable (`build`) matches a naive definition
//!   computed from the round-robin reference liveness: `x` and `y`
//!   interfere when an instruction defines one while the other is live
//!   after it (unless the instruction is a `mov` reading that other
//!   variable), or defines both;
//! - the graph over the move operands (`build_among`, what the coalescer
//!   builds) is exactly that graph's restriction;
//!
//! on `interferes`, `degree` and `neighbors`, and again after every
//! merge of a coalescing sequence replayed the way the coalescer does it.
//!
//! Over SSA code of the same shapes after the front end, after Sreedhar's
//! CSSA conversion and after pinning, `after_def(v)` is, for every
//! variable, the set a naive backward scan from the reference liveness
//! gives at `v`'s first definition, and `None` for an undefined one. A
//! variable created after the analyses ran is live nowhere and has no
//! live-after-def set.

use std::collections::BTreeSet;
use tossa::analysis::liveness::Liveness;
use tossa::analysis::{BitSet, DefMap, InterferenceGraph, LiveAtDefs};
use tossa::baselines::to_cssa;
use tossa::bench::checked::fuzz_suite;
use tossa::bench::runner::{front_end, run_experiment};
use tossa::bench::suites::synth::{generate_function, SynthConfig};
use tossa::core::coalesce::CoalesceOptions;
use tossa::core::collect::pinning_abi;
use tossa::core::{program_pinning, Experiment};
use tossa::ir::cfg::Cfg;
use tossa::ir::rng::SplitMix64;
use tossa::ir::{Block, Function, Opcode, Var};

/// Adjacency sets of the naive definition, indexed by variable.
type Adjacency = Vec<BTreeSet<Var>>;

fn naive_adjacency(f: &Function) -> Adjacency {
    let cfg = Cfg::compute(f);
    let live = Liveness::compute_reference(f, &cfg);
    let mut adj: Adjacency = vec![BTreeSet::new(); f.num_vars()];
    let mut edge = |a: Var, b: Var| {
        if a != b {
            adj[a.index()].insert(b);
            adj[b.index()].insert(a);
        }
    };
    for b in f.blocks() {
        let insts = &f.block(b).insts;
        for (p, &i) in insts.iter().enumerate() {
            let inst = f.inst(i);
            if inst.is_phi() {
                continue;
            }
            let after = live_after(f, &live, b, p);
            let move_src = (inst.opcode == Opcode::Mov).then(|| inst.uses[0].var);
            for d in inst.defs {
                for l in after.iter() {
                    if Some(l) != move_src {
                        edge(d.var, l);
                    }
                }
                for d2 in inst.defs {
                    edge(d.var, d2.var);
                }
            }
        }
    }
    adj
}

/// The variables live after the instruction at position `p` of block
/// `b`, recomputed from the block's exit.
fn live_after(f: &Function, live: &Liveness, b: Block, p: usize) -> BitSet<Var> {
    let mut after = live.live_exit(f, b);
    for &j in f.block(b).insts[p + 1..].iter().rev() {
        let later = f.inst(j);
        if later.is_phi() {
            continue;
        }
        for d in later.defs {
            after.remove(d.var);
        }
        for u in later.uses {
            after.insert(u.var);
        }
    }
    after
}

/// The variables of the function's moves, as the coalescer collects them.
fn move_operands(f: &Function) -> BitSet<Var> {
    let mut among = BitSet::new(f.num_vars());
    for (_, i) in f.all_insts() {
        let inst = f.inst(i);
        if inst.opcode.is_move() {
            among.insert(inst.defs[0].var);
            among.insert(inst.uses[0].var);
        }
    }
    among
}

/// Asserts that `g` holds exactly the edges of `model` between members
/// of `tracked`, and none for any other variable.
fn assert_matches(g: &InterferenceGraph, model: &Adjacency, tracked: &BitSet<Var>, what: &str) {
    let n = model.len();
    for x in (0..n).map(Var::new) {
        let expected: Vec<Var> = if tracked.contains(x) {
            model[x.index()]
                .iter()
                .copied()
                .filter(|&y| tracked.contains(y))
                .collect()
        } else {
            Vec::new()
        };
        let got: Vec<Var> = g.neighbors(x).collect();
        assert_eq!(got, expected, "{what}: neighbors of {x}");
        assert_eq!(g.degree(x), expected.len(), "{what}: degree of {x}");
        for y in (0..n).map(Var::new) {
            assert_eq!(
                g.interferes(x, y),
                expected.contains(&y),
                "{what}: interferes({x}, {y})"
            );
        }
    }
}

/// The naive merge: `a` takes `b`'s neighbors and `b` becomes isolated.
fn model_merge(model: &mut Adjacency, a: Var, b: Var) {
    let nb = std::mem::take(&mut model[b.index()]);
    for n in nb {
        model[n.index()].remove(&b);
        if n != a {
            model[a.index()].insert(n);
            model[n.index()].insert(a);
        }
    }
}

/// Checks one function; returns the number of merges replayed.
fn check(f: &Function, what: &str) -> usize {
    let cfg = Cfg::compute(f);
    let live = Liveness::compute(f, &cfg);
    let mut model = naive_adjacency(f);
    let mut all = BitSet::new(f.num_vars());
    for v in f.vars() {
        all.insert(v);
    }
    let among = move_operands(f);
    let mut full = InterferenceGraph::build(f, &cfg, &live);
    let mut restricted = InterferenceGraph::build_among(f, &cfg, &live, &among);
    assert_matches(&full, &model, &all, &format!("{what}: build"));
    assert_matches(&restricted, &model, &among, &format!("{what}: build_among"));

    // Replay one coalescing round: every move whose (aliased) operands
    // do not interfere is merged, in program order.
    let mut alias: Vec<Var> = f.vars().collect();
    let resolve = |alias: &[Var], mut v: Var| {
        while alias[v.index()] != v {
            v = alias[v.index()];
        }
        v
    };
    let mut merges = 0;
    for (_, i) in f.all_insts() {
        let inst = f.inst(i);
        if !inst.opcode.is_move() {
            continue;
        }
        let d = resolve(&alias, inst.defs[0].var);
        let s = resolve(&alias, inst.uses[0].var);
        if d == s || model[d.index()].contains(&s) {
            continue;
        }
        full.merge(d, s);
        restricted.merge(d, s);
        model_merge(&mut model, d, s);
        alias[s.index()] = d;
        merges += 1;
        assert_matches(
            &full,
            &model,
            &all,
            &format!("{what}: build, merge {merges}"),
        );
        assert_matches(
            &restricted,
            &model,
            &among,
            &format!("{what}: build_among, merge {merges}"),
        );
    }
    merges
}

fn seeds(stream: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(0x1F_E4E ^ stream);
    (0..n).map(|_| rng.random_range(0u64..10_000)).collect()
}

/// Post-reconstruct code (no Chaitin yet) of each experiment that leaves
/// moves for the coalescer.
const EXPERIMENTS: [Experiment; 2] = [Experiment::LphiAbi, Experiment::Sphi];

#[test]
fn graph_matches_the_naive_definition_on_fuzz_code() {
    let opts = CoalesceOptions::default();
    let mut merges = 0;
    for seed in seeds(1, 4) {
        for bf in fuzz_suite(6, seed).functions {
            for exp in EXPERIMENTS {
                let f = run_experiment(&bf.func, exp, &opts).func;
                merges += check(&f, &format!("fuzz seed {seed} {} {exp:?}", bf.func.name));
            }
        }
    }
    assert!(merges > 0, "the sample replays no merge");
}

#[test]
fn graph_matches_the_naive_definition_on_specint_code() {
    let opts = CoalesceOptions::default();
    let shape = SynthConfig {
        functions: 1,
        ..Default::default()
    };
    let mut merges = 0;
    for seed in seeds(2, 12) {
        let bf = generate_function(seed, &shape);
        for exp in EXPERIMENTS {
            let f = run_experiment(&bf.func, exp, &opts).func;
            merges += check(&f, &format!("SPECint seed {seed} {exp:?}"));
        }
    }
    assert!(merges > 0, "the sample replays no merge");
}

/// Checks `LiveAtDefs` on one function against the naive scan, then
/// queries every analysis for variables created after it ran.
fn check_live_at_defs(mut f: Function, what: &str) {
    let cfg = Cfg::compute(&f);
    let reference = Liveness::compute_reference(&f, &cfg);
    let live = Liveness::compute(&f, &cfg);
    let lad = LiveAtDefs::compute(&f, &live, &DefMap::compute(&f));
    let mut naive: Vec<Option<Vec<Var>>> = vec![None; f.num_vars()];
    for b in f.blocks() {
        for (p, &i) in f.block(b).insts.iter().enumerate() {
            let inst = f.inst(i);
            for d in inst.defs {
                if naive[d.var.index()].is_some() {
                    continue; // not the first definition
                }
                // A φ is defined on entry to its block.
                let after = if inst.is_phi() {
                    reference.live_in(b).iter().collect()
                } else {
                    live_after(&f, &reference, b, p).iter().collect()
                };
                naive[d.var.index()] = Some(after);
            }
        }
    }
    for v in f.vars() {
        let got = lad.after_def(v).map(|row| row.iter().collect::<Vec<_>>());
        assert_eq!(got, naive[v.index()], "{what}: after_def({v})");
    }
    // Past the last word of every row, and inside it.
    let late: Vec<Var> = (0..65).map(|k| f.new_var(format!("late{k}"))).collect();
    for &v in &late {
        for b in f.blocks() {
            assert!(!live.live_in(b).contains(v), "{what}: {v} live into {b}");
            assert!(!live.live_out(b).contains(v), "{what}: {v} live out of {b}");
        }
        assert_eq!(lad.after_def(v), None, "{what}: after_def({v})");
    }
}

/// SSA code after the front end, after `to_cssa`, and after ABI and φ
/// pinning.
fn check_live_at_defs_pipeline(src: &Function, what: &str) {
    let ssa = front_end(src);
    check_live_at_defs(ssa.clone(), &format!("{what}: front end"));
    let mut cssa = ssa.clone();
    to_cssa(&mut cssa);
    check_live_at_defs(cssa, &format!("{what}: to_cssa"));
    let mut pinned = ssa;
    pinning_abi(&mut pinned);
    program_pinning(&mut pinned, &CoalesceOptions::default());
    check_live_at_defs(pinned, &format!("{what}: pinning"));
}

#[test]
fn live_at_defs_match_the_naive_scan() {
    for seed in seeds(3, 4) {
        for bf in fuzz_suite(6, seed).functions {
            check_live_at_defs_pipeline(&bf.func, &format!("fuzz seed {seed} {}", bf.func.name));
        }
    }
    let shape = SynthConfig {
        functions: 1,
        ..Default::default()
    };
    for seed in seeds(4, 12) {
        let bf = generate_function(seed, &shape);
        check_live_at_defs_pipeline(&bf.func, &format!("SPECint seed {seed}"));
    }
}
