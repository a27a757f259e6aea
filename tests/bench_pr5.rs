//! Pins the checked-in `BENCH_pr5.json` claims: the decision-provenance
//! layer changed nothing about the translation, so every deterministic
//! cell, the cache counters included, equals `BENCH_pr4.json`'s. The
//! shared checks live in `ratchet/mod.rs`.

mod ratchet;

#[test]
fn snapshot_is_well_formed_v3() {
    ratchet::well_formed("BENCH_pr5.json");
}

#[test]
fn deterministic_cells_are_identical_to_the_pr4_baseline() {
    ratchet::pinned_cells_unchanged("BENCH_pr5.json");
}
