//! Pins the checked-in `BENCH_pr9.json` claims: per-range intervals
//! change only the allocation post-pass. Every non-alloc cell equals
//! `BENCH_pr8.json`'s (the advisory cache counters aside); the alloc
//! cells may only improve, every SPECint cell strictly, while register
//! usage may shift either way. With lifetime holes visible no cell
//! spills at all. The shared checks live in `ratchet/mod.rs`.

mod ratchet;

#[test]
fn snapshot_is_well_formed_v4() {
    ratchet::well_formed("BENCH_pr9.json");
}

#[test]
fn non_alloc_cells_are_identical_to_the_pr8_baseline() {
    ratchet::pinned_cells_unchanged("BENCH_pr9.json");
}

#[test]
fn alloc_cells_only_improve_and_specint_improves_strictly() {
    ratchet::alloc_cells_improve("BENCH_pr9.json");
}

#[test]
fn hole_precision_dissolves_all_spilling_at_trajectory_scale() {
    ratchet::spills_nothing("BENCH_pr9.json");
}

#[test]
fn snapshot_carries_the_throughput_dimension() {
    ratchet::throughput_consistent("BENCH_pr9.json");
}
