//! Reference test for the dominance frontiers, the iterated frontier and
//! the dominator-tree children (`DomFrontiers`, `DomTree::children`).
//!
//! Over the five suites at SPECint scale 12 and 40 fuzz functions, each
//! taken as source, after the front end, after reconstruction and after
//! splitting the reconstructed code's critical edges, three answers must
//! equal references built from `naive_dominators` (iterative set
//! intersection):
//!
//! - `frontier(x)`, compared as a set, is the definition DF(x) = {y : x
//!   dominates a predecessor of y and does not strictly dominate y};
//! - `iterated(S)`, compared as a set, is the least fixpoint of
//!   IDF = DF(S ∪ IDF), for every single block and for the definition
//!   blocks of every variable, with one scratch serving every call;
//! - `children(b)` lists the blocks whose immediate dominator is `b`, in
//!   decreasing reverse-postorder position.

use std::collections::BTreeSet;
use tossa::analysis::domtree::naive_dominators;
use tossa::analysis::{DomFrontiers, DomTree, IdfScratch};
use tossa::bench::checked::fuzz_suite;
use tossa::bench::runner::{front_end, run_experiment};
use tossa::bench::suites::all_suites;
use tossa::core::coalesce::CoalesceOptions;
use tossa::core::Experiment;
use tossa::ir::cfg::{split_critical_edges, Cfg};
use tossa::ir::machine::Machine;
use tossa::ir::parse::parse_function;
use tossa::ir::{Block, Function};

fn check(f: &Function, what: &str) {
    let cfg = Cfg::compute(f);
    let dt = DomTree::compute(f, &cfg);
    let df = DomFrontiers::compute(f, &cfg, &dt);
    let dom = naive_dominators(f, &cfg);
    let mut reachable = vec![false; f.num_blocks()];
    for &b in cfg.rpo() {
        reachable[b.index()] = true;
    }
    // The naive sets of unreachable blocks are never narrowed; only
    // reachable blocks dominate or are dominated.
    let dominates =
        |a: Block, b: Block| reachable[a.index()] && reachable[b.index()] && dom[b].contains(a);

    let reference_df: Vec<BTreeSet<Block>> = f
        .blocks()
        .map(|x| {
            f.blocks()
                .filter(|&y| {
                    cfg.preds(y).iter().any(|&p| dominates(x, p)) && !(x != y && dominates(x, y))
                })
                .collect()
        })
        .collect();
    for x in f.blocks() {
        let got: BTreeSet<Block> = df.frontier(x).iter().copied().collect();
        assert_eq!(
            got.len(),
            df.frontier(x).len(),
            "{what}: frontier({x}) repeats a block"
        );
        assert_eq!(got, reference_df[x.index()], "{what}: frontier({x})");
    }

    let reference_idf = |seeds: &[Block]| {
        let mut idf: BTreeSet<Block> = BTreeSet::new();
        loop {
            let next: BTreeSet<Block> = seeds
                .iter()
                .chain(&idf)
                .flat_map(|b| reference_df[b.index()].iter().copied())
                .collect();
            if next == idf {
                return idf;
            }
            idf = next;
        }
    };
    let mut seed_sets: Vec<Vec<Block>> = f.blocks().map(|b| vec![b]).collect();
    let mut def_blocks: Vec<Vec<Block>> = vec![Vec::new(); f.num_vars()];
    for (b, i) in f.all_insts() {
        for d in f.defs(i) {
            let blocks = &mut def_blocks[d.var.index()];
            if blocks.last() != Some(&b) {
                blocks.push(b);
            }
        }
    }
    seed_sets.extend(def_blocks.into_iter().filter(|s| !s.is_empty()));
    let mut scratch = IdfScratch::default();
    for seeds in &seed_sets {
        let got = df.iterated(seeds.iter().copied(), &mut scratch);
        let set: BTreeSet<Block> = got.iter().copied().collect();
        assert_eq!(
            set.len(),
            got.len(),
            "{what}: iterated({seeds:?}) repeats a block"
        );
        assert_eq!(set, reference_idf(seeds), "{what}: iterated({seeds:?})");
    }

    // The immediate dominator of `c`: the strict dominator that every
    // other strict dominator dominates, i.e. the one with most dominators.
    let idom = |c: Block| {
        if !reachable[c.index()] {
            return None;
        }
        dom[c]
            .iter()
            .filter(|&d| d != c)
            .max_by_key(|&d| dom[d].count())
    };
    for b in f.blocks() {
        let want: Vec<Block> = cfg
            .rpo()
            .iter()
            .rev()
            .copied()
            .filter(|&c| idom(c) == Some(b))
            .collect();
        assert_eq!(dt.children(b), want, "{what}: children({b})");
    }
}

/// The four pipeline points of one source function.
fn check_pipeline(src: &Function, what: &str) {
    let opts = CoalesceOptions::default();
    check(src, &format!("{what}: source"));
    check(&front_end(src), &format!("{what}: front end"));
    // `Lφ,ABI` stops after reconstruction (no Chaitin pass).
    let mut out = run_experiment(src, Experiment::LphiAbi, &opts).func;
    check(&out, &format!("{what}: reconstruction"));
    split_critical_edges(&mut out);
    check(&out, &format!("{what}: split_critical_edges"));
}

#[test]
fn dominance_matches_the_naive_reference_on_every_suite() {
    for suite in all_suites(12) {
        for bf in &suite.functions {
            check_pipeline(&bf.func, &format!("{} {}", suite.name, bf.func.name));
        }
    }
    for bf in fuzz_suite(40, 7).functions {
        check_pipeline(&bf.func, &format!("fuzz {}", bf.func.name));
    }
}

#[test]
fn irreducible_loops_repeated_targets_and_unreachable_blocks() {
    let f = parse_function(
        "func @shapes {
entry:
  %c = input
  br %c, a, b
a:
  br %c, b, b
b:
  br %c, a, done
done:
  ret %c
dead:
  jump a
}",
        &Machine::dsp32(),
    )
    .expect("the function parses");
    check(&f, "shapes");
    let cfg = Cfg::compute(&f);
    let dt = DomTree::compute(&f, &cfg);
    let df = DomFrontiers::compute(&f, &cfg, &dt);
    let [entry, a, b, done, dead] = [0, 1, 2, 3, 4].map(Block::new);
    // Both enter the irreducible loop: each is in the other's frontier.
    assert_eq!(df.frontier(a), [b]);
    assert_eq!(df.frontier(b), [a]);
    assert_eq!(df.iterated([a], &mut IdfScratch::default()), [b, a]);
    assert_eq!(df.frontier(dead), [] as [Block; 0]);
    assert_eq!(dt.children(entry), [b, a]);
    assert_eq!(dt.children(b), [done]);
    assert_eq!(dt.children(dead), [] as [Block; 0]);
}
