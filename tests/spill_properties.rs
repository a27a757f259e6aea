//! Property-style tests for the cost-driven spill pipeline — remat,
//! live-range splitting, and victim ordering — over randomly generated
//! structured programs plus two fixed loop-pressure specimens that
//! guarantee the remat and split paths fire (so no property passes
//! vacuously).
//!
//! Like `alloc_properties.rs`, the invariants are independent
//! re-derivations: the must-written check re-implements the slot
//! dataflow rather than calling the allocator's verifier, and the
//! boundary check recomputes loops from scratch on the final function.

use std::collections::{HashMap, HashSet};
use tossa::analysis::{AnalysisCache, DomTree, LoopInfo};
use tossa::bench::runner::run_experiment;
use tossa::bench::suites::synth::{generate_function, SynthConfig};
use tossa::core::coalesce::CoalesceOptions;
use tossa::core::Experiment;
use tossa::ir::cfg::Cfg;
use tossa::ir::ids::{Block, Var};
use tossa::ir::machine::Machine;
use tossa::ir::parse::parse_function;
use tossa::ir::rng::SplitMix64;
use tossa::ir::{Function, Opcode};
use tossa::regalloc::cost::SpillCosts;
use tossa::regalloc::intervals;
use tossa::regalloc::scan::{scan, ScanFail};
use tossa::regalloc::{prepare, AllocOptions, AllocStats, VarSet};

const CASES: usize = 24;

/// Deterministic seed sample, mirroring `alloc_properties.rs`.
fn seeds(stream: u64) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(0x70_55A ^ stream);
    (0..CASES).map(|_| rng.random_range(0u64..10_000)).collect()
}

/// High register pressure with loops, so the cost-driven decisions
/// (victim choice, remat, splitting) all have sites.
fn pressure_config() -> SynthConfig {
    SynthConfig {
        functions: 1,
        pool: 32,
        max_depth: 2,
        body_len: 12,
    }
}

fn pipelined(seed: u64, cfg: &SynthConfig) -> Function {
    let bf = generate_function(seed, cfg);
    run_experiment(&bf.func, Experiment::LphiAbiC, &CoalesceOptions::default()).func
}

/// Fixed specimen that must split (see the derivation in
/// `tossa-core`'s chaos tests): six loop-crossing webs against sixteen
/// heavier short webs overflow the register file outside the loop.
fn split_specimen() -> Function {
    let mut text = String::from("func @sp {\nentry:\n  %n = input\n");
    for k in 0..6 {
        text.push_str(&format!("  %h{k} = addi %n, {k}\n"));
    }
    text.push_str("  %t = make 0\n");
    for k in 0..16 {
        text.push_str(&format!("  %c{k} = addi %n, {}\n", 100 + k));
    }
    for k in 0..16 {
        for _ in 0..8 {
            text.push_str(&format!("  %t = add %t, %c{k}\n"));
        }
    }
    text.push_str("  %z = mov %t\n  jump head\nhead:\n");
    text.push_str("  %cc = cmplt %z, %n\n  br %cc, body, mid\nbody:\n");
    for k in 0..6 {
        text.push_str(&format!("  %z = add %z, %h{k}\n"));
    }
    text.push_str("  jump head\nmid:\n  %s = mov %z\n");
    for k in 0..6 {
        text.push_str(&format!("  %s = add %s, %h{k}\n"));
    }
    text.push_str("  ret %s\n}\n");
    parse_function(&text, &Machine::dsp32()).unwrap()
}

/// Fixed specimen that must rematerialize: long-lived `make` constants
/// under pressure are always cheaper to re-issue than to reload.
fn remat_specimen() -> Function {
    let n = 14;
    let mut text = String::from("func @rp {\nentry:\n  %n = input\n");
    for i in 0..n {
        text.push_str(&format!("  %c{i} = addi %n, {i}\n"));
        text.push_str(&format!("  %m{i} = make {}\n", 100 + i));
    }
    text.push_str("  %k = make 77\n  %z = make 0\n  jump head\nhead:\n");
    text.push_str("  %cc = cmplt %z, %n\n  br %cc, body, exit\nbody:\n");
    text.push_str("  %z = add %z, %k\n  jump head\nexit:\n  %acc = mov %z\n");
    for i in 0..n {
        text.push_str(&format!("  %acc = add %acc, %c{i}\n"));
        text.push_str(&format!("  %acc = add %acc, %m{i}\n"));
    }
    text.push_str("  ret %acc\n}\n");
    parse_function(&text, &Machine::dsp32()).unwrap()
}

fn prepared(f: &mut Function, label: &str) -> AllocStats {
    prepare(f, &AllocOptions::default())
        .unwrap_or_else(|e| panic!("{label}: {e}"))
        .stats
}

/// Rematerialized defs never reach a `spillld`: every `.m` temporary a
/// remat inserts is defined by `make` alone — never reloaded from a
/// slot, never stored to one — and each of its defs immediately
/// precedes the use it feeds (within the same block).
#[test]
fn rematerialized_defs_never_reach_a_spill_load() {
    let mut cases: Vec<(String, Function)> = seeds(20)
        .into_iter()
        .map(|s| (format!("seed {s}"), pipelined(s, &pressure_config())))
        .collect();
    cases.push(("remat specimen".into(), remat_specimen()));
    let mut remats = 0usize;
    for (label, f) in &mut cases {
        let stats = prepared(f, label);
        remats += stats.remats;
        for v in f.vars() {
            if !f.var(v).name.ends_with(".m") {
                continue;
            }
            for (_, i) in f.all_insts() {
                let inst = f.inst(i);
                if inst.defs.iter().any(|o| o.var == v) {
                    assert_eq!(
                        inst.opcode,
                        Opcode::Make,
                        "{label}: remat temp {} defined by {:?}",
                        f.var(v).name,
                        inst.opcode
                    );
                }
                assert!(
                    !(inst.opcode == Opcode::SpillStore && inst.uses.iter().any(|o| o.var == v)),
                    "{label}: remat temp {} spilled to a slot",
                    f.var(v).name
                );
            }
        }
    }
    assert!(remats > 0, "no case ever rematerialized — vacuous");
}

/// Every split boundary copy lands on a region boundary: a boundary
/// reload (`spillld` defining a `.s` hot sub-web) sits in a block
/// branching into the hot web's home region — a loop body, or the
/// single block of a non-loop region split — and a boundary store
/// (`spillst` of a `.s` web) sits inside that region in a block with a
/// successor outside it.
#[test]
fn split_points_land_on_region_boundaries() {
    let mut cases: Vec<(String, Function)> = seeds(21)
        .into_iter()
        .map(|s| (format!("seed {s}"), pipelined(s, &pressure_config())))
        .collect();
    cases.push(("split specimen".into(), split_specimen()));
    let mut splits = 0usize;
    for (label, f) in &mut cases {
        splits += prepared(f, label).splits;
        let cfg = Cfg::compute(f);
        let dt = DomTree::compute(f, &cfg);
        let loops = LoopInfo::compute(f, &cfg, &dt);
        let hot_vars: Vec<Var> = f
            .vars()
            .filter(|&v| f.var(v).name.ends_with(".s"))
            .collect();
        for hv in hot_vars {
            // The hot web's home region: the loop body holding its
            // non-boundary occurrences.
            let occ: Vec<Block> = f
                .blocks()
                .filter(|&b| {
                    f.block_insts(b).any(|i| {
                        let inst = f.inst(i);
                        !matches!(inst.opcode, Opcode::SpillLoad | Opcode::SpillStore)
                            && inst.operands().any(|o| o.var == hv)
                    })
                })
                .collect();
            // Candidate home regions: every loop body holding all the
            // occurrences (nested loops give several), plus the single
            // occurrence block itself (a non-loop region split — which
            // may also sit inside a loop body, so region inference is
            // ambiguous and the property quantifies over candidates).
            let mut regions: Vec<Vec<Block>> = loops
                .headers()
                .iter()
                .filter_map(|&h| loops.body(h))
                .filter(|body| occ.iter().all(|b| body.contains(b)))
                .map(<[Block]>::to_vec)
                .collect();
            if occ.len() == 1 {
                regions.push(vec![occ[0]]);
            }
            assert!(
                !regions.is_empty(),
                "{label}: hot web {} occurs outside any single region",
                f.var(hv).name
            );
            let fits = |body: &[Block]| -> bool {
                f.blocks().all(|b| {
                    f.block_insts(b).all(|i| {
                        let inst = f.inst(i);
                        if inst.opcode == Opcode::SpillLoad && inst.defs.iter().any(|o| o.var == hv)
                        {
                            // A boundary reload sits outside the region
                            // in a block branching into it.
                            !body.contains(&b) && f.succs(b).iter().any(|s| body.contains(s))
                        } else if inst.opcode == Opcode::SpillStore
                            && inst.uses.iter().any(|o| o.var == hv)
                        {
                            // A boundary store sits inside the region
                            // in a block with an exit successor.
                            body.contains(&b) && f.succs(b).iter().any(|s| !body.contains(s))
                        } else {
                            true
                        }
                    })
                })
            };
            assert!(
                regions.iter().any(|r| fits(r)),
                "{label}: no candidate region explains the boundary copies of {}",
                f.var(hv).name
            );
        }
    }
    assert!(splits > 0, "no case ever split — vacuous");
}

/// The scan engine's victim choice respects the normalized cost order:
/// every round-1 spill request is an unpinned web no costlier (weight
/// per *covered* position — holes relieve nothing and do not count)
/// than the interval whose start position triggered the conflict.
#[test]
fn spill_requests_respect_the_cost_order() {
    let mut conflicts = 0usize;
    for seed in seeds(22) {
        let f = pipelined(seed, &pressure_config());
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let loops = LoopInfo::compute(&f, &cfg, &dt);
        let costs = SpillCosts::compute(&f, &loops);
        let ivs = intervals::build(&f);
        let reqs = match scan(&f, &ivs, &VarSet::default(), &mut AnalysisCache::new()) {
            Ok(_) => continue,
            Err(ScanFail::Spill { reqs, .. }) => reqs,
            Err(ScanFail::Hard(e)) => panic!("seed {seed}: {e}"),
        };
        let norm = |v: Var| -> (u128, u128) {
            let iv = ivs.items.iter().find(|iv| iv.var == v).unwrap();
            (
                u128::from(costs.cost(v).weight),
                u128::from(ivs.covered_len(iv).max(1)),
            )
        };
        for req in &reqs {
            conflicts += 1;
            assert!(
                f.var(req.var).reg.is_none(),
                "seed {seed}: pinned {} spilled",
                f.var(req.var).name
            );
            // The interval(s) starting at the conflict position are the
            // blocked candidates the victim had to undercut (or be).
            let blocked: Vec<_> = ivs
                .items
                .iter()
                .filter(|iv| iv.start == req.at && iv.pre.is_none())
                .collect();
            assert!(
                !blocked.is_empty(),
                "seed {seed}: conflict at {} matches no interval start",
                req.at
            );
            let (vw, vl) = norm(req.var);
            assert!(
                blocked.iter().any(|s| {
                    let (sw, sl) = norm(s.var);
                    vw * sl <= sw * vl
                }),
                "seed {seed}: victim {} (weight {vw}/{vl}) costlier than every \
                 blocked interval at {}",
                f.var(req.var).name,
                req.at
            );
        }
    }
    assert!(
        conflicts > 0,
        "the pressure population never spilled — vacuous"
    );
}

/// The verifier's must-written-slot dataflow, re-derived by hand, holds
/// after splitting: every `spillld` of a slot is preceded by a
/// `spillst` of the same slot on all paths from entry.
#[test]
fn every_reload_is_must_written_after_splitting() {
    let mut cases: Vec<(String, Function)> = seeds(23)
        .into_iter()
        .map(|s| (format!("seed {s}"), pipelined(s, &pressure_config())))
        .collect();
    cases.push(("split specimen".into(), split_specimen()));
    let mut splits = 0usize;
    for (label, f) in &mut cases {
        splits += prepared(f, label).splits;
        let cfg = Cfg::compute(f);
        let loaded: HashSet<i64> = f
            .all_insts()
            .filter(|&(_, i)| f.inst(i).opcode == Opcode::SpillLoad)
            .map(|(_, i)| f.inst(i).imm)
            .collect();
        // One pass: per block, the ordered list of spill ops (is_store,
        // slot), so the per-slot dataflow never rescans instructions.
        let mut spill_ops: HashMap<Block, Vec<(bool, i64)>> = HashMap::new();
        for (b, i) in f.all_insts() {
            let inst = f.inst(i);
            match inst.opcode {
                Opcode::SpillStore => spill_ops.entry(b).or_default().push((true, inst.imm)),
                Opcode::SpillLoad => spill_ops.entry(b).or_default().push((false, inst.imm)),
                _ => {}
            }
        }
        let empty: Vec<(bool, i64)> = Vec::new();
        for slot in loaded {
            let gen = |b: Block| {
                spill_ops
                    .get(&b)
                    .unwrap_or(&empty)
                    .iter()
                    .any(|&(st, s)| st && s == slot)
            };
            let mut inb: HashMap<Block, bool> = f.blocks().map(|b| (b, true)).collect();
            inb.insert(f.entry, false);
            let mut changed = true;
            while changed {
                changed = false;
                for b in f.blocks() {
                    if b == f.entry {
                        continue;
                    }
                    let preds = cfg.preds(b);
                    let v = !preds.is_empty() && preds.iter().all(|&p| inb[&p] || gen(p));
                    if v != inb[&b] {
                        inb.insert(b, v);
                        changed = true;
                    }
                }
            }
            for b in f.blocks() {
                let mut written = inb[&b];
                for &(is_store, s) in spill_ops.get(&b).unwrap_or(&empty) {
                    if s != slot {
                        continue;
                    }
                    if is_store {
                        written = true;
                    } else {
                        assert!(
                            written,
                            "{label}: reload of slot {slot} in {} not written on all paths",
                            f.block(b).name
                        );
                    }
                }
            }
        }
    }
    assert!(splits > 0, "no case ever split — vacuous");
}
