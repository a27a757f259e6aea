//! Machine-readable trajectory: the document `perf` writes and the
//! checked-in `BENCH_pr10.json` holds, and the cells `tables` renders
//! Tables 2–6 from.
//!
//! Each record is one (suite × experiment) cell of the paper's tables
//! with its deterministic fields only — move counts, allocation
//! statistics and trace counters — so the document is a pure function
//! of the source tree and the `--spec` scale: two runs write the same
//! bytes. `tests/baseline.rs` compares a fresh document at scale 40
//! with `BENCH_pr10.json` byte for byte, and `bench-diff` names the
//! cells where two documents differ. Timing lives in the repository
//! benchmark (`benchmark/`), which repeats its runs and pairs them.
//!
//! The JSON is hand-rolled — the build has no serde — but the shape is
//! stable:
//!
//! ```json
//! {
//!   "schema": "tossa-bench-trajectory/6",
//!   "suites": [
//!     { "suite": "VALcc1", "functions": 18, "insts": 1234,
//!       "experiments": [
//!         { "experiment": "LphiC", "label": "Lphi+C", "moves": 42, "weighted": 130,
//!           "alloc": { "regs_used": ..., "spilled_vars": ..., "reloads": ...,
//!                      "stores": ..., "moves_after": ..., "spill_move_total": ... },
//!           "counters": { "congruence_classes": ..., "copies_phi": ..., "...": 0 } } ] } ]
//! }
//! ```
//!
//! v6 over v5: the clocks are gone — the top-level `unix_time`,
//! `threads`, `mode`, `throughput` and `end_to_end_wall_ns`, the
//! per-suite `front_end_ns`, and the per-cell `wall_ns` and `stages`.
//! The `counters` object lists every [`tossa_trace::Counter`], in
//! declaration order.

use crate::runner::{prepare_suite_counted, run_suite_each_prepared_counted, SuiteResult};
use crate::suites::Suite;
use std::fmt::Write as _;
use tossa_core::coalesce::CoalesceOptions;
use tossa_core::Experiment;
use tossa_regalloc::AllocStats;
use tossa_trace::CounterSet;

/// One (suite × experiment) record.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Suite name.
    pub suite: String,
    /// Stable experiment key (the enum variant name).
    pub experiment: String,
    /// Paper-table label (not unique: two experiments print as `C`).
    pub label: String,
    /// Total static move count.
    pub moves: usize,
    /// Total `5^depth`-weighted move count.
    pub weighted: u64,
    /// Aggregated register-allocation statistics across the suite.
    pub alloc: AllocStats,
    /// Aggregated trace counters across the suite: the pipeline portion
    /// of each run executes under a counters-only capture (allocation
    /// and verification outside it), plus the suite's once-computed
    /// front-end counters.
    pub counters: CounterSet,
}

/// A full trajectory: every suite crossed with every Table-1 experiment.
#[derive(Clone, Debug, Default)]
pub struct Trajectory {
    /// The cells, in (suite, experiment) order.
    pub cells: Vec<Cell>,
    /// Per-suite function/instruction counts, in suite order.
    pub suite_shapes: Vec<(String, usize, usize)>,
}

/// Runs the full experiment matrix over `suites` and collects the
/// trajectory. Every function of every cell is translated under a
/// counters-only capture, register-allocated, and verified against its
/// source by the interpreter (a divergence panics).
pub fn measure(suites: &[Suite]) -> Trajectory {
    let opts = CoalesceOptions::default();
    let mut t = Trajectory::default();
    for suite in suites {
        t.suite_shapes.push((
            suite.name.to_string(),
            suite.functions.len(),
            suite.num_insts(),
        ));
        let (prepared, fe_counters) = prepare_suite_counted(suite);
        for &exp in Experiment::all() {
            let pairs = run_suite_each_prepared_counted(suite, &prepared, exp, &opts);
            let (results, sets): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
            let folded = SuiteResult::fold(&results);
            // Front-end counters are experiment-independent; adding the
            // once-per-suite set reproduces exactly what a full
            // from-source traced run of this cell would count.
            let mut counters = fe_counters;
            for set in &sets {
                counters.merge(set);
            }
            t.cells.push(Cell {
                suite: suite.name.to_string(),
                experiment: format!("{exp:?}"),
                label: exp.label().to_string(),
                moves: folded.moves,
                weighted: folded.weighted,
                alloc: folded.alloc.unwrap_or_default(),
                counters,
            });
        }
    }
    t
}

impl Trajectory {
    /// Renders the trajectory as a `tossa-bench-trajectory/6` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"tossa-bench-trajectory/6\",");
        out.push_str("  \"suites\": [\n");
        for (si, (name, nfns, ninsts)) in self.suite_shapes.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{ \"suite\": \"{name}\", \"functions\": {nfns}, \"insts\": {ninsts},"
            );
            out.push_str("      \"experiments\": [\n");
            let cells: Vec<&Cell> = self.cells.iter().filter(|c| &c.suite == name).collect();
            for (ci, c) in cells.iter().enumerate() {
                let a = &c.alloc;
                let _ = write!(
                    out,
                    "        {{ \"experiment\": \"{}\", \"label\": \"{}\", \
                     \"moves\": {}, \"weighted\": {},\n          \
                     \"alloc\": {{ \"regs_used\": {}, \"spilled_vars\": {}, \
                     \"reloads\": {}, \"stores\": {}, \"moves_after\": {}, \
                     \"spill_move_total\": {} }},\n          \
                     \"counters\": {} }}",
                    c.experiment,
                    c.label,
                    c.moves,
                    c.weighted,
                    a.regs_used,
                    a.spilled_vars,
                    a.reloads,
                    a.stores,
                    a.moves_after,
                    a.spill_move_total(),
                    c.counters.to_json()
                );
                out.push_str(if ci + 1 < cells.len() { ",\n" } else { "\n" });
            }
            out.push_str("      ] }");
            out.push_str(if si + 1 < self.suite_shapes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites;

    #[test]
    fn trajectory_covers_the_matrix() {
        let suites = vec![suites::Suite {
            name: "example1-8",
            functions: suites::paper_examples::examples(),
        }];
        let t = measure(&suites);
        assert_eq!(t.cells.len(), Experiment::all().len());
        let json = t.to_json();
        tossa_trace::validate_json(&json).expect("trajectory is well-formed JSON");
        assert!(json.contains("\"schema\": \"tossa-bench-trajectory/6\""));
        // Every cell carries its allocation statistics and counters.
        assert_eq!(json.matches("\"alloc\"").count(), t.cells.len());
        assert_eq!(json.matches("\"counters\"").count(), t.cells.len());
        // No clock survives into the document.
        assert!(!json.contains("_ns\""));
        assert!(!json.contains("unix_time"));
        // A pure function of the input: a second run writes the same bytes.
        assert_eq!(measure(&suites).to_json(), json);
    }
}
