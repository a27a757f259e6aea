//! The perf-trajectory ratchet: the checks behind what each checked-in
//! `BENCH_pr*.json` snapshot claims, about its predecessor and about
//! itself. A snapshot is written by
//! `cargo run --release -p tossa-bench --bin perf -- --out FILE`.
//!
//! Three tables drive it: the schema tag of every snapshot, the relation
//! of every snapshot to the one before it, and the snapshots that carry
//! a throughput object. Each `tests/bench_prN.rs` names the rows of its
//! snapshot, one test per claim; the claims that hold for one snapshot
//! only live in that snapshot's file.

// Every snapshot file uses a subset of these checks.
#![allow(dead_code)]

use std::collections::BTreeMap;

use tossa::trace::json::{parse_json, Json};

/// Every snapshot with the schema tag it must carry.
const SCHEMAS: [(&str, &str); 7] = [
    ("BENCH_pr4.json", "tossa-bench-trajectory/3"),
    ("BENCH_pr5.json", "tossa-bench-trajectory/3"),
    ("BENCH_pr6.json", "tossa-bench-trajectory/3"),
    ("BENCH_pr7.json", "tossa-bench-trajectory/4"),
    ("BENCH_pr8.json", "tossa-bench-trajectory/4"),
    ("BENCH_pr9.json", "tossa-bench-trajectory/4"),
    ("BENCH_pr10.json", "tossa-bench-trajectory/5"),
];

/// How a snapshot's deterministic cells relate to its predecessor's.
#[derive(Clone, Copy, Debug)]
enum Relation {
    /// Every field is identical, the cache counters included.
    Exact,
    /// Every field is identical apart from the [`ADVISORY`] counters.
    Identical,
    /// Only the allocator changed. Non-alloc fields are identical apart
    /// from the [`ADVISORY`] counters and the set of alloc fields stays
    /// fixed. `alloc.spill_move_total` may only fall, and falls strictly
    /// on all ten SPECint cells. `regs_used_fixed` also pins
    /// `alloc.regs_used`.
    AllocImproves { regs_used_fixed: bool },
}

/// Each step of the series: predecessor, snapshot, relation.
const STEPS: [(&str, &str, Relation); 6] = [
    ("BENCH_pr4.json", "BENCH_pr5.json", Relation::Exact),
    ("BENCH_pr5.json", "BENCH_pr6.json", Relation::Identical),
    ("BENCH_pr6.json", "BENCH_pr7.json", Relation::Identical),
    (
        "BENCH_pr7.json",
        "BENCH_pr8.json",
        Relation::AllocImproves {
            regs_used_fixed: true,
        },
    ),
    (
        "BENCH_pr8.json",
        "BENCH_pr9.json",
        Relation::AllocImproves {
            regs_used_fixed: false,
        },
    ),
    ("BENCH_pr9.json", "BENCH_pr10.json", Relation::Identical),
];

/// Snapshots with a `throughput` object, and whether it must carry the
/// compile-latency percentiles.
const THROUGHPUT: [(&str, bool); 4] = [
    ("BENCH_pr7.json", false),
    ("BENCH_pr8.json", false),
    ("BENCH_pr9.json", false),
    ("BENCH_pr10.json", true),
];

/// Cache-policy counters: how often the analysis cache hits is a
/// property of the invalidation policy, not of the translation, so a
/// faster invalidation path may shift them. `bench-diff` exempts the
/// same two fields.
const ADVISORY: [&str; 2] = [
    "counter.analysis_cache_hits",
    "counter.analysis_cache_misses",
];

/// Deterministic scalars per (suite, experiment) cell.
pub type Cells = BTreeMap<(String, String), BTreeMap<String, u64>>;

fn read(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

pub fn snapshot(name: &str) -> Json {
    parse_json(&read(name)).unwrap_or_else(|e| panic!("parsing {name}: {e}"))
}

/// Every deterministic scalar of every (suite × experiment) cell:
/// moves, weighted, the alloc object (`alloc.*`) and the counters object
/// (`counter.*`). Timing fields are left out.
pub fn cells(doc: &Json) -> Cells {
    let mut out = BTreeMap::new();
    for s in doc.get("suites").and_then(Json::as_arr).unwrap_or_default() {
        let suite = s.get("suite").and_then(Json::as_str).unwrap_or("?");
        for e in s
            .get("experiments")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            let exp = e.get("experiment").and_then(Json::as_str).unwrap_or("?");
            let mut fields = BTreeMap::new();
            for key in ["moves", "weighted"] {
                if let Some(v) = e.get(key).and_then(Json::as_u64) {
                    fields.insert(key.to_string(), v);
                }
            }
            for (group, prefix) in [("alloc", "alloc."), ("counters", "counter.")] {
                if let Some(obj) = e.get(group).and_then(Json::as_obj) {
                    for (k, v) in obj {
                        if let Some(v) = v.as_u64() {
                            fields.insert(format!("{prefix}{k}"), v);
                        }
                    }
                }
            }
            out.insert((suite.to_string(), exp.to_string()), fields);
        }
    }
    out
}

/// The [`SCHEMAS`] row of `name`: well-formed JSON with its schema tag
/// and the allocation stage timing.
pub fn well_formed(name: &str) {
    let (_, schema) = SCHEMAS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} has no SCHEMAS row"));
    let text = read(name);
    tossa::trace::validate_json(&text)
        .unwrap_or_else(|e| panic!("{name} is not well-formed JSON: {e}"));
    assert!(
        text.contains(&format!("\"schema\": \"{schema}\"")),
        "{name} must use the {schema} schema"
    );
    assert!(text.contains("\"alloc_ns\""), "{name} lacks alloc_ns");
}

/// The [`STEPS`] row ending at `name`, with both sides' cells.
fn step(name: &str) -> (String, Relation, Cells, Cells) {
    let (old_name, _, relation) = STEPS
        .iter()
        .find(|(_, n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} has no STEPS row"));
    let label = format!("{old_name} -> {name} ({relation:?})");
    let old = cells(&snapshot(old_name));
    let new = cells(&snapshot(name));
    assert_eq!(
        old.keys().collect::<Vec<_>>(),
        new.keys().collect::<Vec<_>>(),
        "{label}: suite × experiment matrix changed shape"
    );
    (label, *relation, old, new)
}

/// The identity half of `name`'s [`STEPS`] row: every field its
/// relation does not exempt equals the predecessor's.
pub fn pinned_cells_unchanged(name: &str) {
    let (label, relation, old, new) = step(name);
    let exempt = |field: &str| match relation {
        Relation::Exact => false,
        Relation::Identical => ADVISORY.contains(&field),
        Relation::AllocImproves { .. } => ADVISORY.contains(&field) || field.starts_with("alloc."),
    };
    let pinned = |c: &BTreeMap<String, u64>| {
        c.iter()
            .filter(|(f, _)| !exempt(f))
            .map(|(f, v)| (f.clone(), *v))
            .collect::<BTreeMap<_, _>>()
    };
    for (key, o) in &old {
        assert_eq!(
            pinned(o),
            pinned(&new[key]),
            "{label}: {}/{}: deterministic drift",
            key.0,
            key.1
        );
    }
}

/// The one-sided half of an [`Relation::AllocImproves`] row: the alloc
/// field set is fixed, no spill+move total rises, every SPECint total
/// falls, and `regs_used` holds where the row fixes it.
pub fn alloc_cells_improve(name: &str) {
    let (label, relation, old, new) = step(name);
    let Relation::AllocImproves { regs_used_fixed } = relation else {
        panic!("{label}: not an AllocImproves step");
    };
    let alloc_keys = |c: &BTreeMap<String, u64>| {
        c.keys()
            .filter(|k| k.starts_with("alloc."))
            .cloned()
            .collect::<Vec<_>>()
    };
    let total = |c: &BTreeMap<String, u64>| c["alloc.spill_move_total"];
    let mut specint_cells = 0usize;
    for (key, o) in &old {
        let n = &new[key];
        assert_eq!(
            alloc_keys(o),
            alloc_keys(n),
            "{label}: {}/{}: the alloc field set changed shape",
            key.0,
            key.1
        );
        assert!(
            total(n) <= total(o),
            "{label}: {}/{}: spill+move total regressed ({} > {})",
            key.0,
            key.1,
            total(n),
            total(o)
        );
        if regs_used_fixed {
            assert_eq!(
                n["alloc.regs_used"], o["alloc.regs_used"],
                "{label}: {}/{}: register usage shifted",
                key.0, key.1
            );
        }
        if key.0 == "SPECint" {
            specint_cells += 1;
            assert!(
                total(n) < total(o),
                "{label}: {}/{}: the loop-heavy suite must improve strictly ({} vs {})",
                key.0,
                key.1,
                total(n),
                total(o)
            );
        }
    }
    assert_eq!(
        specint_cells, 10,
        "{label}: SPECint must cover the full experiment matrix"
    );
}

/// With lifetime holes visible no cell of `name` spills, so every
/// `spill_move_total` is the pure parallel-copy move count.
pub fn spills_nothing(name: &str) {
    let cells = cells(&snapshot(name));
    assert!(!cells.is_empty(), "{name} has no cells");
    for (key, c) in &cells {
        for field in ["alloc.spilled_vars", "alloc.reloads", "alloc.stores"] {
            assert_eq!(c[field], 0, "{name}: {}/{}: {field}", key.0, key.1);
        }
        assert_eq!(
            c["alloc.spill_move_total"], c["alloc.moves_after"],
            "{name}: {}/{}: with zero spill traffic the total must be the move count",
            key.0, key.1
        );
    }
}

/// The [`THROUGHPUT`] row of `name`: the object carries enough metadata
/// to reproduce it, and its functions/sec figure agrees with its own
/// numerator and denominator (the formatter keeps three decimals).
/// Where the row requires them, the compile-latency percentiles are in
/// increasing order.
pub fn throughput_consistent(name: &str) {
    let (_, with_latency) = THROUGHPUT
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} has no THROUGHPUT row"));
    let doc = snapshot(name);
    let t = doc
        .get("throughput")
        .unwrap_or_else(|| panic!("{name} lacks the throughput object"));
    for key in ["experiment", "threads", "functions", "wall_ns", "target_ms"] {
        assert!(t.get(key).is_some(), "{name}: throughput lacks {key:?}");
    }
    let fps = t
        .get("functions_per_sec")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name}: functions_per_sec is not a number"));
    assert!(fps > 0.0, "{name}: throughput must be positive: {fps}");
    let functions = t.get("functions").and_then(Json::as_u64).unwrap_or(0);
    let wall_ns = t.get("wall_ns").and_then(Json::as_u64).unwrap_or(0);
    assert!(functions > 0 && wall_ns > 0, "{name}");
    let recomputed = functions as f64 * 1e9 / wall_ns as f64;
    assert!(
        (recomputed - fps).abs() / recomputed < 0.01,
        "{name}: functions_per_sec {fps} inconsistent with {functions} fns / {wall_ns} ns"
    );
    if !with_latency {
        return;
    }
    let pick = |key: &str| {
        t.get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{name}: throughput lacks {key}"))
    };
    let (p50, p90, p99) = (
        pick("latency_p50_ns"),
        pick("latency_p90_ns"),
        pick("latency_p99_ns"),
    );
    assert!(p50 > 0, "{name}: p50 latency must be positive");
    assert!(
        p50 <= p90 && p90 <= p99,
        "{name}: latency percentiles must increase: {p50} / {p90} / {p99}"
    );
}
