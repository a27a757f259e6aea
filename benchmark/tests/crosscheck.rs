//! The `tables` population is the `BENCH_pr10.json` matrix: every
//! (suite × experiment) cell's `moves`, `weighted` and
//! `alloc.moves_after` must come out exactly as recorded there.

use std::collections::BTreeMap;
use std::path::Path;
use tossa_bench::runner::run_experiment;
use tossa_benchmark::workload::{by_name, population};
use tossa_core::CoalesceOptions;
use tossa_regalloc::{allocate, AllocOptions};
use tossa_trace::json::{parse_json, Json};

type Cells = BTreeMap<(String, String), (u64, u64, u64)>;

fn recorded() -> Cells {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCH_pr10.json");
    let doc = parse_json(&std::fs::read_to_string(path).expect("BENCH_pr10.json")).unwrap();
    let mut cells = Cells::new();
    for suite in doc.get("suites").and_then(Json::as_arr).unwrap() {
        let name = suite.get("suite").and_then(Json::as_str).unwrap();
        for e in suite.get("experiments").and_then(Json::as_arr).unwrap() {
            let n = |v: Option<&Json>| v.and_then(Json::as_u64).unwrap();
            cells.insert(
                (
                    name.to_string(),
                    e.get("experiment")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_string(),
                ),
                (
                    n(e.get("moves")),
                    n(e.get("weighted")),
                    n(e.get("alloc").and_then(|a| a.get("moves_after"))),
                ),
            );
        }
    }
    cells
}

#[test]
fn tables_reproduces_bench_pr10() {
    let w = by_name("tables").unwrap();
    let mut cells = Cells::new();
    for item in population(&w, false) {
        let mut r = run_experiment(&item.bf.func, item.exp, &CoalesceOptions::default());
        let a = allocate(&mut r.func, &AllocOptions::default()).unwrap();
        let cell = cells
            .entry((item.suite.to_string(), format!("{:?}", item.exp)))
            .or_insert((0, 0, 0));
        cell.0 += r.moves as u64;
        cell.1 += r.weighted;
        cell.2 += a.moves_after as u64;
    }
    assert_eq!(cells.len(), 50);
    assert_eq!(cells, recorded());
}
