//! Exact regression gate over two trajectories (`perf --out`).
//!
//! Usage: `bench-diff OLD.json NEW.json`
//!
//! Every (suite × experiment) cell's deterministic fields — `moves`,
//! `weighted`, the `alloc` statistics and the `counters` — are compared
//! exactly: any drift is reported field by field, since a changed count
//! means the *translation* changed, which a behaviour-preserving change
//! must not do silently. Missing or extra cells are structural drift. A
//! change that moves a cell on purpose rewrites the checked-in
//! `BENCH_pr10.json` and says why. Timing belongs to the repository
//! benchmark (`benchmark/`).
//!
//! Exit status: 0 identical, 2 deterministic drift, 3 bad usage or an
//! unreadable document.

use std::collections::BTreeMap;
use tossa_trace::json::{parse_json, Json};

/// One (suite × experiment) cell reduced to its deterministic scalars
/// — moves, weighted, alloc stats, counters — keyed by field name.
type Cell = BTreeMap<String, u64>;

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
            let mut cell = Cell::new();
            for key in ["moves", "weighted"] {
                if let Some(v) = e.get(key).and_then(Json::as_u64) {
                    cell.insert(key.to_string(), v);
                }
            }
            for (group, prefix) in [("alloc", "alloc."), ("counters", "counter.")] {
                if let Some(obj) = e.get(group).and_then(Json::as_obj) {
                    for (k, v) in obj {
                        if let Some(v) = v.as_u64() {
                            cell.insert(format!("{prefix}{k}"), v);
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
    for (key, o) in &old {
        let label = format!("{}/{}", key.0, key.1);
        let Some(n) = new.get(key) else {
            drift.push(format!("{label}: cell missing in {new_path}"));
            continue;
        };
        for (field, &ov) in o {
            match n.get(field) {
                Some(&nv) if nv == ov => {}
                Some(&nv) => drift.push(format!("{label}: {field} {ov} -> {nv}")),
                None => drift.push(format!("{label}: {field} dropped ({ov} before)")),
            }
        }
        for (field, nv) in n {
            if !o.contains_key(field) {
                drift.push(format!("{label}: {field} appeared ({nv} now)"));
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
