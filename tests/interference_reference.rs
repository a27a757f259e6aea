//! Reference test for the aggressive coalescer's interference graph
//! (`InterferenceGraph`, one bit matrix over the variables it tracks).
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

use std::collections::BTreeSet;
use tossa::analysis::liveness::Liveness;
use tossa::analysis::{BitSet, InterferenceGraph};
use tossa::bench::checked::fuzz_suite;
use tossa::bench::runner::run_experiment;
use tossa::bench::suites::synth::{generate_function, SynthConfig};
use tossa::core::coalesce::CoalesceOptions;
use tossa::core::Experiment;
use tossa::ir::cfg::Cfg;
use tossa::ir::rng::SplitMix64;
use tossa::ir::{Function, Opcode, Var};

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
            // Live after `i`, recomputed from the block's exit each time.
            let mut after = live.live_exit(f, b);
            for &j in insts[p + 1..].iter().rev() {
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
