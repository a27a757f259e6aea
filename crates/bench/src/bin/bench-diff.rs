//! Exact regression gate over `BENCH_*.json` trajectories.
//!
//! Usage: `bench-diff OLD.json NEW.json`
//!
//! Every (suite × experiment) cell's deterministic fields — `moves`,
//! `weighted`, the `alloc` statistics and the `counters` — are compared
//! exactly: any drift is reported cell by cell, since a changed count
//! means the *translation* changed, which a behaviour-preserving PR must
//! not do silently. Missing or extra cells are structural drift. Both
//! sides may be any trajectory schema from v3 on; the clock keys of
//! v3–v5 documents (`wall_ns`, `stages`, `throughput`, ...) are ignored.
//! Timing belongs to the repository benchmark (`benchmark/`).
//!
//! Two counters are exempt from the exact gate:
//! `analysis_cache_hits` and `analysis_cache_misses` measure the
//! memoization layer (how often an analysis memo was reused vs
//! recomputed), not the translation — a caching-policy change such as
//! the instructions-only invalidation fast path legitimately shifts
//! them while every move count, spill count, and output program stays
//! byte-identical. They are compared and *reported* as advisory shifts,
//! but never affect the exit status.
//!
//! Exit status: 0 identical, 2 deterministic drift, 3 bad usage or an
//! unreadable document.

use std::collections::BTreeMap;
use tossa_trace::json::{parse_json, Json};

/// One (suite × experiment) cell reduced to the comparable parts.
#[derive(Clone, Debug, Default)]
struct Cell {
    /// Deterministic scalars: moves, weighted, alloc stats, counters —
    /// all compared exactly, keyed by field name.
    exact: BTreeMap<String, u64>,
    /// Cache-policy counters (see module docs): compared and reported,
    /// but shifts never affect the exit status.
    advisory: BTreeMap<String, u64>,
}

/// Counters that measure the analysis memoization layer rather than the
/// translation; their drift is advisory (see module docs).
const ADVISORY_COUNTERS: [&str; 2] = [
    "counter.analysis_cache_hits",
    "counter.analysis_cache_misses",
];

type Cells = BTreeMap<(String, String), Cell>;

fn load(path: &str) -> Cells {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("reading {path}: {e}");
        std::process::exit(3);
    });
    let doc = parse_json(&text).unwrap_or_else(|e| {
        eprintln!("parsing {path}: {e}");
        std::process::exit(3);
    });
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if !schema.starts_with("tossa-bench-trajectory/") {
        eprintln!("{path}: not a tossa-bench-trajectory document (schema {schema:?})");
        std::process::exit(3);
    }
    let mut cells = Cells::new();
    for s in doc.get("suites").and_then(Json::as_arr).unwrap_or_default() {
        let suite = s.get("suite").and_then(Json::as_str).unwrap_or("?");
        for e in s
            .get("experiments")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            let exp = e.get("experiment").and_then(Json::as_str).unwrap_or("?");
            let mut cell = Cell::default();
            for key in ["moves", "weighted"] {
                if let Some(v) = e.get(key).and_then(Json::as_u64) {
                    cell.exact.insert(key.to_string(), v);
                }
            }
            for (group, prefix) in [("alloc", "alloc."), ("counters", "counter.")] {
                if let Some(obj) = e.get(group).and_then(Json::as_obj) {
                    for (k, v) in obj {
                        if let Some(v) = v.as_u64() {
                            let field = format!("{prefix}{k}");
                            if ADVISORY_COUNTERS.contains(&field.as_str()) {
                                cell.advisory.insert(field, v);
                            } else {
                                cell.exact.insert(field, v);
                            }
                        }
                    }
                }
            }
            cells.insert((suite.to_string(), exp.to_string()), cell);
        }
    }
    cells
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [old_path, new_path] = args.as_slice() else {
        eprintln!("usage: bench-diff OLD.json NEW.json");
        std::process::exit(3);
    };
    let old = load(old_path);
    let new = load(new_path);

    let mut drift: Vec<String> = Vec::new();
    let mut advisory: Vec<String> = Vec::new();
    for (key, o) in &old {
        let label = format!("{}/{}", key.0, key.1);
        let Some(n) = new.get(key) else {
            drift.push(format!("{label}: cell missing in {new_path}"));
            continue;
        };
        for (field, &ov) in &o.exact {
            match n.exact.get(field) {
                Some(&nv) if nv == ov => {}
                Some(&nv) => drift.push(format!("{label}: {field} {ov} -> {nv}")),
                None => drift.push(format!("{label}: {field} dropped ({ov} before)")),
            }
        }
        for (field, nv) in &n.exact {
            if !o.exact.contains_key(field) {
                drift.push(format!("{label}: {field} appeared ({nv} now)"));
            }
        }
        for (field, &ov) in &o.advisory {
            if let Some(&nv) = n.advisory.get(field) {
                if nv != ov {
                    advisory.push(format!("{label}: {field} {ov} -> {nv}"));
                }
            }
        }
    }
    for key in new.keys() {
        if !old.contains_key(key) {
            drift.push(format!(
                "{}/{}: new cell absent in {old_path}",
                key.0, key.1
            ));
        }
    }

    if !advisory.is_empty() {
        println!(
            "advisory cache-policy counter shifts ({} fields, never gating):",
            advisory.len()
        );
        for a in &advisory {
            println!("  {a}");
        }
    }
    if drift.is_empty() {
        println!("deterministic cells: identical");
    } else {
        println!("deterministic drift ({} fields):", drift.len());
        for d in &drift {
            println!("  {d}");
        }
        std::process::exit(2);
    }
}
