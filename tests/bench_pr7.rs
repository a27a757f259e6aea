//! Pins the checked-in `BENCH_pr7.json` claims: the compile-service
//! envelope left every deterministic cell of `BENCH_pr6.json` unchanged
//! apart from the two advisory cache counters, and the snapshot gains a
//! self-consistent `throughput` object. The shared checks live in
//! `ratchet/mod.rs`.

mod ratchet;

#[test]
fn snapshot_is_well_formed_v4() {
    ratchet::well_formed("BENCH_pr7.json");
}

#[test]
fn deterministic_cells_are_identical_to_the_pr6_baseline() {
    ratchet::pinned_cells_unchanged("BENCH_pr7.json");
}

#[test]
fn snapshot_carries_the_throughput_dimension() {
    ratchet::throughput_consistent("BENCH_pr7.json");
}
