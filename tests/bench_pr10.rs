//! Pins the checked-in `BENCH_pr10.json` claims: service telemetry left
//! every deterministic cell of `BENCH_pr9.json` unchanged apart from the
//! two advisory cache counters, zero spilling carries over, and the
//! throughput object gains compile-latency percentiles in increasing
//! order. The shared checks live in `ratchet/mod.rs`.

mod ratchet;

#[test]
fn snapshot_is_well_formed_v5() {
    ratchet::well_formed("BENCH_pr10.json");
}

#[test]
fn all_deterministic_cells_are_identical_to_the_pr9_baseline() {
    ratchet::pinned_cells_unchanged("BENCH_pr10.json");
}

#[test]
fn zero_spilling_carries_over_from_pr9() {
    ratchet::spills_nothing("BENCH_pr10.json");
}

#[test]
fn snapshot_carries_throughput_with_latency_percentiles() {
    ratchet::throughput_consistent("BENCH_pr10.json");
}
