//! Pins the checked-in `BENCH_pr4.json` claims: the first snapshot with
//! allocation, where on the paper's focus suites (kernels + vocoder) the
//! pinning pipeline's post-allocation spill+move total is no worse than
//! either naive baseline's. The shared checks live in `ratchet/mod.rs`.

mod ratchet;

#[test]
fn snapshot_is_well_formed_v3() {
    ratchet::well_formed("BENCH_pr4.json");
}

/// On the focus suites the pinning pipeline's post-allocation
/// spill+move total is no worse than either naive Table-4 baseline's
/// (Briggs-style φ replacement, naive ABI handling, no coalescing), and
/// within one of the Sreedhar pipeline's.
#[test]
fn pipeline_allocates_no_worse_than_naive_on_focus_suites() {
    let cells = ratchet::cells(&ratchet::snapshot("BENCH_pr4.json"));
    for suite in ["VALcc1", "VALcc2", "LAI Large"] {
        let get = |exp: &str| {
            cells
                .get(&(suite.to_string(), exp.to_string()))
                .and_then(|c| c.get("alloc.spill_move_total"))
                .copied()
                .unwrap_or_else(|| panic!("{suite}/{exp} missing from BENCH_pr4.json"))
        };
        let pipeline = get("LphiAbiC");
        for naive in ["Sphi", "Labi"] {
            assert!(
                pipeline <= get(naive),
                "{suite}: pipeline post-alloc total {pipeline} worse than naive {naive} {}",
                get(naive)
            );
        }
        assert!(
            pipeline <= get("SphiLabiC") + 1,
            "{suite}: pipeline {pipeline} vs Sreedhar {}",
            get("SphiLabiC")
        );
    }
}
