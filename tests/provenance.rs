//! Decision-provenance validation: the paper's worked examples run
//! under trace capture and the recorded pin/edge/copy/spill rationales
//! are pinned exactly, plus population-level completeness properties
//! (every inserted copy carries a provenance record; every spill has a
//! rationale).

use tossa::bench::suites::synth::{generate_function, SynthConfig};
use tossa::core::coalesce::program_pinning;
use tossa::core::collect::{pinning_abi, pinning_sp};
use tossa::core::reconstruct::out_of_pinned_ssa;
use tossa::ir::{machine::Machine, parse::parse_function, Function};
use tossa::regalloc::{allocate, AllocOptions};
use tossa::ssa::to_ssa;
use tossa::trace::capture;
use tossa::trace::provenance::{Kind, Record, Verdict};

fn parse(text: &str) -> Function {
    let f = parse_function(text, &Machine::dsp32()).unwrap();
    f.validate().unwrap();
    f
}

fn edges(records: &[Record]) -> Vec<(&str, &str, &str, &Verdict)> {
    records
        .iter()
        .filter_map(|r| match &r.kind {
            Kind::Edge {
                block,
                a,
                b,
                verdict,
                ..
            } => Some((block.as_str(), a.as_str(), b.as_str(), verdict)),
            _ => None,
        })
        .collect()
}

/// Strips the SSA version index: `%x1.4` -> `%x1`.
fn base(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(head, _)| head)
}

const FIG5B: &str = "
func @fig5b {
entry:
  %c = input
  %x1 = make 1
  br %c, l, r
l:
  jump m
r:
  %x2 = make 2
  jump m
m:
  %x = phi [l: %x1], [r: %x2]
  %s = add %x, %x1
  ret %s
}";

/// Fig. 5: x1 stays live past the φ (the later `add` reads it), so the
/// (x, x1) affinity edge must be pruned — by Class 1 (dominance with
/// overlapping live ranges), witnessed by the (x, x1) pair itself —
/// while (x, x2) coalesces.
#[test]
fn fig5b_pruned_edge_is_class1_with_the_interfering_pair_as_witness() {
    let mut f = parse(FIG5B);
    let ((), trace) = capture(|| {
        program_pinning(&mut f, &Default::default());
    });
    let es = edges(&trace.records);
    assert_eq!(es.len(), 2, "{es:?}");
    let pruned: Vec<_> = es
        .iter()
        .filter(|(_, _, _, v)| !matches!(v, Verdict::Coalesced { .. }))
        .collect();
    assert_eq!(pruned.len(), 1, "{es:?}");
    let (block, a, b, verdict) = pruned[0];
    assert_eq!(*block, "m");
    assert_eq!((base(a), base(b)), ("%x", "%x1"));
    let Verdict::PrunedInitial { class, witness } = verdict else {
        panic!("expected initial pruning, got {verdict:?}");
    };
    assert_eq!(class.name(), "class1");
    assert_eq!(
        (base(&witness.0), base(&witness.1)),
        ("%x", "%x1"),
        "the witness is the interfering pair itself"
    );
    // The surviving edge coalesces x with x2.
    let coalesced: Vec<_> = es
        .iter()
        .filter(|(_, _, _, v)| matches!(v, Verdict::Coalesced { .. }))
        .collect();
    assert_eq!(coalesced.len(), 1);
    assert_eq!((base(coalesced[0].1), base(coalesced[0].2)), ("%x", "%x2"));
}

const FIG9: &str = "
func @fig9 {
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
}";

/// Fig. 9: x/y interfere and z/y2 interfere, but each pair feeds
/// *different* φs, so the joint block optimization coalesces all four
/// argument edges — the provenance stream must show four coalesced
/// verdicts and zero pruned ones.
#[test]
fn fig9_joint_optimization_coalesces_every_edge() {
    let mut f = parse(FIG9);
    let ((), trace) = capture(|| {
        program_pinning(&mut f, &Default::default());
    });
    let es = edges(&trace.records);
    assert_eq!(es.len(), 4, "{es:?}");
    for (block, a, b, v) in &es {
        assert_eq!(*block, "m");
        assert!(
            matches!(v, Verdict::Coalesced { .. }),
            "({a}, {b}) should coalesce: {v:?}"
        );
    }
}

const FIG3: &str = "
func @fig3 {
entry:
  %x0, %y0 = input
  %k = make 40
  jump head
head:
  %cond = cmplt %x0, %k
  br %cond, body, exit
body:
  %x0 = addi %x0, 1
  %y0 = add %y0, %k
  %x0 = call g(%x0, %y0)
  jump head
exit:
  ret %x0
}";

/// Fig. 3: x0's web is constrained through input (R0 def pin), call
/// (R0 result pin, R0/R1 argument use-pins), and return (R0 use-pin) —
/// each constraint must surface as a Pin record with its cause, and the
/// single copy the paper deems necessary (`x0+1` into the call's R0
/// slot) must surface as an `abi:R0` Copy record and nothing else.
#[test]
fn fig3_pin_causes_cover_the_abi_constraints() {
    let mut f = parse(FIG3);
    let ((), trace) = capture(|| {
        to_ssa(&mut f);
        pinning_sp(&mut f);
        pinning_abi(&mut f);
        program_pinning(&mut f, &Default::default());
        out_of_pinned_ssa(&mut f);
    });
    let pin = |cause: &str| -> Vec<(&str, &str)> {
        trace
            .records
            .iter()
            .filter_map(|r| match &r.kind {
                Kind::Pin {
                    var,
                    resource,
                    cause: c,
                } if c == cause => Some((base(var), resource.as_str())),
                _ => None,
            })
            .collect()
    };
    assert_eq!(pin("abi:input"), [("%x0", "R0"), ("%y0", "R1")]);
    assert_eq!(pin("abi:call"), [("%x0", "R0")]);
    assert_eq!(pin("abi:call-arg"), [("%x0", "R0"), ("%y0", "R1")]);
    assert_eq!(pin("abi:ret"), [("%x0", "R0")]);
    // The paper's one necessary copy: the incremented x0 cannot share
    // R0 with the loop-carried φ web, so it is moved into the call's
    // argument slot — and that is the *only* copy in the function.
    let copies: Vec<(&str, &str, &str)> = trace
        .records
        .iter()
        .filter_map(|r| match &r.kind {
            Kind::Copy { dst, src, cause } => Some((dst.as_str(), base(src), cause.as_str())),
            _ => None,
        })
        .collect();
    assert_eq!(copies, [("R0", "%x0", "abi:R0")]);
}

/// Causes a reconstruct-phase copy record can carry.
fn is_reconstruct_cause(cause: &str) -> bool {
    cause.starts_with("phi-edge:")
        || cause.starts_with("abi:")
        || cause.starts_with("repair:")
        || cause == "cycle"
}

/// Every `mov` the reconstruction inserts must carry a provenance
/// record: over a seeded random population, the number of
/// reconstruct-cause Copy records equals the stats' total copy count,
/// function by function.
#[test]
fn every_reconstruct_copy_has_a_provenance_record() {
    for seed in 0..24u64 {
        let bf = generate_function(
            seed,
            &SynthConfig {
                functions: 1,
                ..Default::default()
            },
        );
        let mut f = bf.func;
        to_ssa(&mut f);
        let (stats, trace) = capture(|| {
            pinning_sp(&mut f);
            pinning_abi(&mut f);
            program_pinning(&mut f, &Default::default());
            out_of_pinned_ssa(&mut f)
        });
        let recorded = trace
            .records
            .iter()
            .filter(|r| matches!(&r.kind, Kind::Copy { cause, .. } if is_reconstruct_cause(cause)))
            .count();
        assert_eq!(
            recorded,
            stats.total_copies(),
            "seed {seed}: {} copies counted, {recorded} recorded\n{f}",
            stats.total_copies()
        );
    }
}

/// A register file of 16 cannot hold 24 simultaneously-live values:
/// the allocator must spill, and every spill decision must carry a
/// rationale record in the documented grammar.
#[test]
fn spill_decisions_carry_rationales() {
    let n = 24;
    let mut text = String::from("func @pressure {\nentry:\n  %seed = input\n");
    for i in 0..n {
        text.push_str(&format!("  %v{i} = addi %seed, {i}\n"));
    }
    text.push_str("  %acc = make 0\n");
    for i in 0..n {
        let src = if i == 0 {
            "%acc".to_string()
        } else {
            format!("%acc{}", i - 1)
        };
        text.push_str(&format!("  %acc{i} = add {src}, %v{i}\n"));
    }
    text.push_str(&format!("  ret %acc{}\n}}\n", n - 1));
    let mut f = parse(&text);
    let (stats, trace) = capture(|| allocate(&mut f, &AllocOptions::default()).unwrap());
    assert!(stats.spilled_vars > 0, "no pressure: {stats:?}");
    let spills: Vec<(&str, &str)> = trace
        .records
        .iter()
        .filter_map(|r| match &r.kind {
            Kind::Spill { var, cause, .. } => Some((var.as_str(), cause.as_str())),
            _ => None,
        })
        .collect();
    assert!(
        spills.len() >= stats.spilled_vars,
        "{} spilled vars but only {} rationales: {spills:?}",
        stats.spilled_vars,
        spills.len()
    );
    for (var, cause) in &spills {
        assert!(var.starts_with('%'), "{var}");
        assert_spill_cause_grammar(cause);
    }
}

/// The documented `Kind::Spill` cause grammar:
/// `cost:weight=<w>,depth=<d>` / `remat:<opcode>` / `split-at:<block>` /
/// `second-chance:<reg>`.
fn assert_spill_cause_grammar(cause: &str) {
    if let Some(rest) = cause.strip_prefix("cost:") {
        let (w, d) = rest
            .split_once(',')
            .unwrap_or_else(|| panic!("malformed cost cause {cause:?}"));
        let w = w
            .strip_prefix("weight=")
            .unwrap_or_else(|| panic!("{cause:?}"));
        let d = d
            .strip_prefix("depth=")
            .unwrap_or_else(|| panic!("{cause:?}"));
        w.parse::<u64>().unwrap_or_else(|_| panic!("{cause:?}"));
        d.parse::<u32>().unwrap_or_else(|_| panic!("{cause:?}"));
    } else if let Some(op) = cause.strip_prefix("remat:") {
        assert!(!op.is_empty(), "{cause:?}");
    } else if let Some(block) = cause.strip_prefix("split-at:") {
        assert!(!block.is_empty(), "{cause:?}");
    } else {
        let reg = cause
            .strip_prefix("second-chance:")
            .unwrap_or_else(|| panic!("undocumented spill cause {cause:?}"));
        assert!(!reg.is_empty(), "{cause:?}");
    }
}

/// Golden pin of the PR9 `second-chance:<reg>` cause: on a seeded
/// pipeline output under heavy pressure (the same deterministic seed
/// the differential battery uses), a scan round evicts split sub-webs
/// that the second-chance pass then re-assigns — one grammar-conforming
/// `second-chance:` record per rescue, each naming a register that
/// exists on the machine, with no spill code behind it.
#[test]
fn second_chance_rescues_carry_register_rationales() {
    use tossa::bench::runner::run_experiment;
    use tossa::core::coalesce::CoalesceOptions;
    use tossa::core::Experiment;
    let bf = generate_function(
        187,
        &SynthConfig {
            functions: 1,
            pool: 48,
            max_depth: 2,
            body_len: 16,
        },
    );
    let mut f = run_experiment(&bf.func, Experiment::LphiAbiC, &CoalesceOptions::default()).func;
    let (stats, trace) = capture(|| allocate(&mut f, &AllocOptions::default()).unwrap());
    assert!(
        stats.second_chances > 0,
        "seed 187 must take the second-chance path: {stats:?}"
    );
    let rescues: Vec<(&str, &str)> = trace
        .records
        .iter()
        .filter_map(|r| match &r.kind {
            Kind::Spill { var, cause, .. } if cause.starts_with("second-chance:") => {
                Some((var.as_str(), cause.as_str()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        rescues.len(),
        stats.second_chances,
        "one record per rescue: {rescues:?}"
    );
    for (var, cause) in &rescues {
        assert_spill_cause_grammar(cause);
        // Split sub-webs carry the `.s` suffix; `var_str` sanitizes the
        // dot to `_s` before appending the variable index.
        assert!(
            base(var).ends_with("_s"),
            "{var}: only split sub-webs are rescue candidates"
        );
        let reg = cause.strip_prefix("second-chance:").unwrap();
        assert!(
            f.machine.reg_by_name(reg).is_some(),
            "{cause:?} names no machine register"
        );
    }
}

/// A loop-shaped pressure function where the allocator's spill
/// decision kinds provably fire: 28 webs live across the loop (14
/// rematerializable `make` constants interleaved with 14 computed
/// values) plus `%n`/`%k`/`%z` against a 16-register file force at
/// least 15 webs out of registers, so by pigeonhole at least one
/// `make` is rematerialized and at least one computed web takes the
/// cost-eviction path.
fn loop_pressure_text() -> String {
    let n = 14;
    let mut text = String::from("func @looppressure {\nentry:\n  %n = input\n");
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
    text
}

/// Captures the spill decisions of one allocation run as
/// `explain --diff` keys them: `"spill <var>" -> "[start, end] [cause]"`.
fn spill_decisions() -> Vec<(String, String)> {
    let mut f = parse(&loop_pressure_text());
    let (_, trace) = capture(|| allocate(&mut f, &AllocOptions::default()).unwrap());
    trace
        .records
        .iter()
        .filter_map(|r| match &r.kind {
            Kind::Spill {
                var,
                start,
                end,
                cause,
            } => Some((
                format!("spill {var}"),
                format!("[{start}, {end}] [{cause}]"),
            )),
            _ => None,
        })
        .collect()
}

/// Golden claim of the cost-driven victim rule: every spill record
/// carries a grammar-conforming cost rationale (`cost:`/`remat:`/
/// `split-at:`; no split sub-web is rescued here), and the decision
/// kinds are all exercised on the canonical loop-pressure function.
#[test]
fn cost_driven_spills_carry_cost_rationales() {
    let decisions = spill_decisions();
    assert!(!decisions.is_empty(), "the pressure function never spilled");
    for (key, value) in &decisions {
        let cause = value
            .rsplit_once('[')
            .map(|(_, c)| c.trim_end_matches(']'))
            .unwrap();
        assert_spill_cause_grammar(cause);
        assert!(
            cause.starts_with("cost:")
                || cause.starts_with("remat:")
                || cause.starts_with("split-at:"),
            "{key}: unexpected cause {cause:?}"
        );
    }
    assert!(
        decisions.iter().any(|(_, v)| v.contains("[remat:make]")),
        "no remat decision recorded: {decisions:?}"
    );
    assert!(
        decisions.iter().any(|(_, v)| v.contains("[cost:weight=")),
        "no cost eviction recorded: {decisions:?}"
    );
}
