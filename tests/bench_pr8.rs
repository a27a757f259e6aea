//! Pins the checked-in `BENCH_pr8.json` claims: the cost-driven spiller
//! changes only the allocation post-pass. Every non-alloc cell equals
//! `BENCH_pr7.json`'s (the advisory cache counters aside); the alloc
//! cells may only improve, with register usage unchanged and every
//! SPECint cell improving strictly. The shared checks live in
//! `ratchet/mod.rs`.

mod ratchet;

#[test]
fn snapshot_is_well_formed_v4() {
    ratchet::well_formed("BENCH_pr8.json");
}

#[test]
fn non_alloc_cells_are_identical_to_the_pr7_baseline() {
    ratchet::pinned_cells_unchanged("BENCH_pr8.json");
}

#[test]
fn alloc_cells_only_improve_and_specint_improves_strictly() {
    ratchet::alloc_cells_improve("BENCH_pr8.json");
}

#[test]
fn snapshot_carries_the_throughput_dimension() {
    ratchet::throughput_consistent("BENCH_pr8.json");
}
