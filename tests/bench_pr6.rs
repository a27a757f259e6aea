//! Pins the checked-in `BENCH_pr6.json` claims: the flat-IR layout work
//! left every deterministic cell of `BENCH_pr5.json` unchanged apart
//! from the two advisory cache counters, and the allocated end-to-end
//! wall is at or below the unallocated wall of `BENCH_pr1.json`. The
//! shared checks live in `ratchet/mod.rs`.

mod ratchet;

use tossa::trace::json::Json;

#[test]
fn snapshot_is_well_formed_v3() {
    ratchet::well_formed("BENCH_pr6.json");
}

/// `BENCH_pr1.json` ran no allocation at all.
#[test]
fn allocated_wall_is_at_or_below_the_unallocated_pr1_wall() {
    let wall = |name| {
        ratchet::snapshot(name)
            .get("end_to_end_wall_ns")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{name}: missing end_to_end_wall_ns"))
    };
    let (unallocated, allocated) = (wall("BENCH_pr1.json"), wall("BENCH_pr6.json"));
    assert!(
        allocated <= unallocated,
        "BENCH_pr6 wall {allocated} ns exceeds the BENCH_pr1 wall {unallocated} ns"
    );
}

#[test]
fn deterministic_cells_are_identical_to_the_pr5_baseline() {
    ratchet::pinned_cells_unchanged("BENCH_pr6.json");
}
