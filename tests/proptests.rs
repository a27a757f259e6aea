//! Property-style tests over randomly generated structured programs and
//! random parallel copies. Seeds are drawn from a deterministic local
//! generator (the repo builds offline, so there is no proptest crate);
//! every failure message names the seed for direct replay.

use tossa::analysis::domtree::{naive_dominators, DomTree};
use tossa::bench::runner::{run_experiment, verify};
use tossa::bench::suites::synth::{generate_function, SynthConfig};
use tossa::core::coalesce::CoalesceOptions;
use tossa::core::interfere::InterferenceMode;
use tossa::core::Experiment;
use tossa::ir::cfg::Cfg;
use tossa::ir::parallel_copy::{eval_sequential, sequentialize};
use tossa::ir::rng::SplitMix64;
use tossa::ir::Var;
use tossa::ssa::{to_ssa, verify_ssa};

const CASES: usize = 24;

/// Deterministic seed sample, mirroring the old proptest configuration
/// (24 cases over `0..10_000`).
fn seeds(stream: u64) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(0x70_55A ^ stream);
    (0..CASES).map(|_| rng.random_range(0u64..10_000)).collect()
}

/// SSA construction preserves semantics and produces valid SSA on
/// arbitrary generated programs.
#[test]
fn ssa_construction_sound() {
    for seed in seeds(1) {
        let bf = generate_function(
            seed,
            &SynthConfig {
                functions: 1,
                ..Default::default()
            },
        );
        let mut ssa = bf.func.clone();
        to_ssa(&mut ssa);
        ssa.validate().unwrap();
        verify_ssa(&ssa).unwrap();
        verify(&bf.func, &ssa, &bf.inputs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// The full pinning pipeline (our algorithm, with ABI constraints and
/// Chaitin cleanup) is an observable no-op on arbitrary programs.
#[test]
fn pinning_pipeline_sound() {
    for seed in seeds(2) {
        let bf = generate_function(
            seed,
            &SynthConfig {
                functions: 1,
                ..Default::default()
            },
        );
        let r = run_experiment(&bf.func, Experiment::LphiAbiC, &CoalesceOptions::default());
        r.func.validate().unwrap();
        verify(&bf.func, &r.func, &bf.inputs)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", r.func));
    }
}

/// The optimistic and pessimistic interference variants stay sound.
#[test]
fn interference_variants_sound() {
    for seed in seeds(3) {
        let bf = generate_function(
            seed,
            &SynthConfig {
                functions: 1,
                ..Default::default()
            },
        );
        for mode in [InterferenceMode::Optimistic, InterferenceMode::Pessimistic] {
            let opts = CoalesceOptions {
                mode,
                ..Default::default()
            };
            let r = run_experiment(&bf.func, Experiment::LphiAbi, &opts);
            verify(&bf.func, &r.func, &bf.inputs)
                .unwrap_or_else(|e| panic!("seed {seed} {mode:?}: {e}\n{}", r.func));
        }
    }
}

/// The Sreedhar baseline is an observable no-op on arbitrary programs.
#[test]
fn sreedhar_pipeline_sound() {
    for seed in seeds(4) {
        let bf = generate_function(
            seed,
            &SynthConfig {
                functions: 1,
                ..Default::default()
            },
        );
        let r = run_experiment(&bf.func, Experiment::SphiLabiC, &CoalesceOptions::default());
        verify(&bf.func, &r.func, &bf.inputs)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", r.func));
    }
}

/// Cooper–Harvey–Kennedy dominators agree with the naive O(n²) dataflow
/// on random CFGs.
#[test]
fn dominators_match_naive() {
    for seed in seeds(5) {
        let bf = generate_function(
            seed,
            &SynthConfig {
                functions: 1,
                ..Default::default()
            },
        );
        let f = &bf.func;
        let cfg = Cfg::compute(f);
        let dt = DomTree::compute(f, &cfg);
        let naive = naive_dominators(f, &cfg);
        for a in f.blocks() {
            for b in f.blocks() {
                assert_eq!(
                    dt.dominates(a, b),
                    naive[b].contains(a),
                    "seed {seed}: dominates({a}, {b})"
                );
            }
        }
    }
}

/// Sequentializing a random parallel copy preserves its semantics.
#[test]
fn parallel_copy_semantics() {
    let mut rng = SplitMix64::seed_from_u64(0xC0FFEE);
    for case in 0..CASES {
        let npairs = rng.random_range(0usize..10);
        let pairs: Vec<(usize, usize)> = (0..npairs)
            .map(|_| (rng.random_range(0usize..12), rng.random_range(0usize..12)))
            .collect();
        // Make destinations unique, keeping the first occurrence.
        let mut seen = std::collections::HashSet::new();
        let moves: Vec<(Var, Var)> = pairs
            .into_iter()
            .filter(|&(d, _)| seen.insert(d))
            .map(|(d, s)| (Var::new(d), Var::new(s)))
            .collect();
        let mut next = 100;
        let seq = sequentialize(&moves, || {
            next += 1;
            Var::new(next)
        });
        let env = eval_sequential(&seq, |v| v.index() as i64);
        for &(d, s) in &moves {
            let got = env.get(&d).copied().unwrap_or(d.index() as i64);
            assert_eq!(got, s.index() as i64, "case {case}: dst {d} src {s}");
        }
        // No more temps than cycles can exist (at most |moves| / 2).
        assert!(next - 100 <= (moves.len() / 2).max(1), "case {case}");
    }
}

/// Deterministic regression corner: a seed sweep for the coalescer
/// post-condition — no component of the pruned affinity graph may
/// contain an interfering pair, observable as zero repair copies when no
/// constraint pass ran.
#[test]
fn coalescer_creates_no_repairs_without_abi() {
    for seed in 0..40u64 {
        let bf = generate_function(
            seed,
            &SynthConfig {
                functions: 1,
                ..Default::default()
            },
        );
        let r = run_experiment(&bf.func, Experiment::LphiC, &CoalesceOptions::default());
        assert_eq!(
            r.recon.repair_copies, 0,
            "seed {seed}: φ pinning must not create repairs\n{}",
            r.func
        );
    }
}

/// Trace counters are internally consistent on arbitrary programs:
/// inserted-vs-coalesced copy accounting never goes negative, every
/// coalescing decision is backed by an affinity edge, the oracle's memo
/// arithmetic holds, and the reconstruction stats agree with the trace.
#[test]
fn trace_counter_invariants() {
    use tossa::trace::{capture, Counter};
    for seed in seeds(8) {
        let bf = generate_function(
            seed,
            &SynthConfig {
                functions: 1,
                ..Default::default()
            },
        );
        let opts = CoalesceOptions::default();
        let (r, data) = capture(|| run_experiment(&bf.func, Experiment::LphiAbiC, &opts));
        let c = &data.counters;
        // The cleanup cannot delete more copies than the pipeline put in.
        assert!(
            c.copies_inserted() >= c.get(Counter::CopiesCoalesced),
            "seed {seed}: inserted {} < coalesced {}",
            c.copies_inserted(),
            c.get(Counter::CopiesCoalesced)
        );
        // Every coalesce event traces back to a pin or an affinity edge.
        if c.get(Counter::CongruenceClasses) > 0 {
            assert!(c.get(Counter::AffinityEdges) > 0, "seed {seed}");
        }
        assert!(
            c.get(Counter::CongruenceClasses) <= c.get(Counter::AffinityEdges),
            "seed {seed}: each congruence class needs at least one affinity edge"
        );
        assert!(
            c.get(Counter::CoalesceMerges) <= c.get(Counter::PinsPhi),
            "seed {seed}: merges pin the variables they merge"
        );
        assert!(
            c.get(Counter::AffinityPrunedInitial) + c.get(Counter::AffinityPrunedBipartite)
                <= c.get(Counter::AffinityEdges),
            "seed {seed}: cannot prune more edges than were built"
        );
        assert!(
            c.get(Counter::OracleCacheHits) <= c.get(Counter::OracleQueries),
            "seed {seed}"
        );
        assert!(
            c.get(Counter::ParallelCopyCycles) <= c.get(Counter::ParallelCopyGroups),
            "seed {seed}"
        );
        // The runner's own stats and the trace must tell one story.
        assert_eq!(
            c.get(Counter::CopiesPhi),
            r.recon.phi_copies as u64,
            "seed {seed}"
        );
        assert_eq!(
            c.get(Counter::CopiesRepair),
            r.recon.repair_copies as u64,
            "seed {seed}"
        );
        assert_eq!(
            c.get(Counter::CopiesTemp),
            r.recon.temp_copies as u64,
            "seed {seed}"
        );
        assert_eq!(
            c.get(Counter::PhisRemoved),
            r.recon.phis_removed as u64,
            "seed {seed}"
        );
        assert_eq!(
            c.get(Counter::EdgesSplit),
            r.recon.edges_split as u64,
            "seed {seed}"
        );
        assert_eq!(
            c.get(Counter::CopiesCoalesced),
            r.coalesced as u64,
            "seed {seed}"
        );
    }
}

/// The span tree of a traced run is well nested, and two runs of the
/// same pipeline on the same input record identical counters.
#[test]
fn trace_spans_nest_and_counters_replay() {
    use tossa::trace::capture;
    for seed in seeds(9) {
        let bf = generate_function(
            seed,
            &SynthConfig {
                functions: 1,
                ..Default::default()
            },
        );
        let opts = CoalesceOptions::default();
        let (_, first) = capture(|| run_experiment(&bf.func, Experiment::LphiAbiC, &opts));
        first
            .check_well_nested()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            !first.spans.is_empty(),
            "seed {seed}: pipeline recorded no spans"
        );
        let (_, second) = capture(|| run_experiment(&bf.func, Experiment::LphiAbiC, &opts));
        assert_eq!(
            first.counters, second.counters,
            "seed {seed}: counters must be deterministic across identical runs"
        );
        // The span *structure* replays too: same names in the same order.
        let names = |d: &tossa::trace::TraceData| {
            d.spans
                .iter()
                .map(|s| (s.name, s.depth))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&first), names(&second), "seed {seed}");
    }
}

/// Recording provenance must be invisible to the translation: running
/// the pipeline under capture yields the same move counts as running it
/// untraced, and an untraced run emits no records at all.
#[test]
fn tracing_does_not_perturb_the_translation() {
    use tossa::trace::capture;
    for seed in [3u64, 11, 19] {
        let bf = generate_function(
            seed,
            &SynthConfig {
                functions: 1,
                ..Default::default()
            },
        );
        let opts = Default::default();
        let untraced = run_experiment(&bf.func, Experiment::LphiAbiC, &opts);
        let (traced, trace) = capture(|| run_experiment(&bf.func, Experiment::LphiAbiC, &opts));
        assert_eq!(untraced.moves, traced.moves, "seed {seed}");
        assert_eq!(untraced.weighted, traced.weighted, "seed {seed}");
        assert!(
            !trace.records.is_empty(),
            "seed {seed}: traced run should carry provenance"
        );
    }
}

/// The trajectory's timed pass now runs under a counters-only capture.
/// That capture must be invisible twice over: the translation is
/// unchanged relative to an untraced run, and the counter totals are
/// identical to what a full (span + provenance) capture counts.
#[test]
fn counters_only_capture_matches_the_full_capture() {
    use tossa::trace::{capture, capture_counters};
    for seed in [3u64, 11, 19] {
        let bf = generate_function(
            seed,
            &SynthConfig {
                functions: 1,
                ..Default::default()
            },
        );
        let opts = Default::default();
        let untraced = run_experiment(&bf.func, Experiment::LphiAbiC, &opts);
        let (counted, set) =
            capture_counters(|| run_experiment(&bf.func, Experiment::LphiAbiC, &opts));
        let (_, full) = capture(|| run_experiment(&bf.func, Experiment::LphiAbiC, &opts));
        assert_eq!(untraced.moves, counted.moves, "seed {seed}");
        assert_eq!(untraced.weighted, counted.weighted, "seed {seed}");
        assert_eq!(
            set, full.counters,
            "seed {seed}: counters-only capture disagrees with full capture"
        );
        assert!(
            !full.records.is_empty(),
            "seed {seed}: full capture should still carry provenance"
        );
    }
}
