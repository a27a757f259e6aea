//! Reference test for the CFG's compressed sparse row maps (`Cfg`).
//!
//! Over the fuzz population, the SPECint shape and the hand-written
//! suites, at four points of the pipeline (the source, after the front
//! end, after reconstruction, and after `split_critical_edges`), every
//! map the CFG serves must equal a naive definition read straight from
//! the terminators:
//!
//! - `succs(b)` is `b`'s terminator's target list;
//! - `preds(b)` lists every block whose terminator targets `b`, in block
//!   creation order, once per target slot (`br %c, x, x` lists its block
//!   twice);
//! - `rpo()` is `reverse_postorder(f)`.

use tossa::bench::checked::fuzz_suite;
use tossa::bench::runner::{front_end, run_experiment};
use tossa::bench::suites::all_suites;
use tossa::core::coalesce::CoalesceOptions;
use tossa::core::Experiment;
use tossa::ir::cfg::{reverse_postorder, split_critical_edges, Cfg};
use tossa::ir::machine::Machine;
use tossa::ir::parse::parse_function;
use tossa::ir::{Block, Function};

/// The target list of `b`'s terminator (empty without one).
fn targets(f: &Function, b: Block) -> Vec<Block> {
    f.terminator(b)
        .map_or_else(Vec::new, |t| f.inst(t).targets.to_vec())
}

fn check(f: &Function, what: &str) {
    let cfg = Cfg::compute(f);
    assert_eq!(cfg.num_blocks(), f.num_blocks(), "{what}: num_blocks");
    for b in f.blocks() {
        assert_eq!(cfg.succs(b), targets(f, b), "{what}: succs({b})");
        let preds: Vec<Block> = f
            .blocks()
            .flat_map(|p| {
                targets(f, p)
                    .into_iter()
                    .filter(move |&t| t == b)
                    .map(move |_| p)
            })
            .collect();
        assert_eq!(cfg.preds(b), preds, "{what}: preds({b})");
    }
    assert_eq!(cfg.rpo(), reverse_postorder(f), "{what}: rpo");
    let po: Vec<Block> = cfg.postorder().collect();
    assert!(po.iter().rev().eq(cfg.rpo()), "{what}: postorder");
}

/// The four pipeline points of one source function.
fn check_pipeline(src: &Function, what: &str) {
    let opts = CoalesceOptions::default();
    check(src, &format!("{what}: source"));
    let ssa = front_end(src);
    check(&ssa, &format!("{what}: front end"));
    // `Lφ,ABI` stops after reconstruction (no Chaitin pass).
    let out = run_experiment(src, Experiment::LphiAbi, &opts).func;
    check(&out, &format!("{what}: reconstruction"));
    let mut split = ssa;
    split_critical_edges(&mut split);
    check(&split, &format!("{what}: split_critical_edges"));
}

#[test]
fn csr_maps_match_the_terminators_on_every_suite() {
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
fn repeated_targets_self_loops_and_unreachable_blocks() {
    let f = parse_function(
        "func @shapes {
entry:
  %c = input
  br %c, x, x
x:
  br %c, x, done
done:
  ret %c
dead:
  jump done
}",
        &Machine::dsp32(),
    )
    .expect("the function parses");
    check(&f, "shapes");
    let cfg = Cfg::compute(&f);
    let [entry, x, done, dead] = [0, 1, 2, 3].map(Block::new);
    assert_eq!(cfg.succs(entry), [x, x]);
    assert_eq!(cfg.preds(x), [entry, entry, x]);
    assert_eq!(cfg.preds(done), [x, dead]);
    assert_eq!(cfg.preds(dead), [] as [Block; 0]);
    assert_eq!(cfg.rpo(), [entry, x, done]);
}
