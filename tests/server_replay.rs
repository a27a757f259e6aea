//! Deterministic replay of service failures (PR7 satellite).
//!
//! Every failure report carries the chaos *site* seed, the drawn fault
//! class, the experiment key, and the input seeds — enough to rebuild
//! the exact failing `run_checked` call offline with no access to the
//! service or its config. The round-trip proven here:
//!
//! 1. the service runs under chaos and emits a failure report;
//! 2. the report alone reconstructs a failing predicate (same function,
//!    same corruption, same site seed → same structured error *class*);
//! 3. `tossa_bench::reduce` shrinks the function under that predicate,
//!    and the reduced case still fails with the same class.
//!
//! Classes (not `Display` strings) are the replay contract: shrinking
//! may move the failure site, but it must stay the same kind of bug.

use std::time::Duration;
use tossa::bench::checked::{fuzz_suite, run_checked, CheckedOptions};
use tossa::bench::reduce::reduce;
use tossa::bench::suites::BenchFunction;
use tossa::core::chaos::{AllocCorruption, Corruption};
use tossa::core::coalesce::CoalesceOptions;
use tossa::core::Experiment;
use tossa::ir::Function;
use tossa::server::proto::default_inputs;
use tossa::server::report::JobReport;
use tossa::server::service::{run_batch, Job, ServiceConfig};
use tossa::server::{Budget, ChaosConfig, JobRequest};

const SEED: u64 = 0x5EED_0007;
const N: usize = 48;

/// Runs a chaos batch and returns (reports, the suite that fed it).
fn chaos_batch() -> Vec<JobReport> {
    let jobs: Vec<Job> = fuzz_suite(N, SEED)
        .functions
        .into_iter()
        .enumerate()
        .map(|(k, bf)| {
            let id = k as u64 + 1;
            let inputs = default_inputs(&bf.func, id);
            Job {
                req: JobRequest {
                    id,
                    func: bf.func,
                    experiment: None,
                    inputs,
                    inputs_seed: Some(id),
                },
                generator_seed: Some(SEED.wrapping_add(k as u64)),
            }
        })
        .collect();
    let config = ServiceConfig {
        queue_cap: N,
        chaos: Some(ChaosConfig {
            seed: 0xBAD_CA11,
            rate_pct: 100,
        }),
        // Injected deadline blowouts sleep just past the deadline; keep
        // it short so the harvest is fast (spurious blowouts only cost
        // retries, and this test ignores quarantines anyway).
        budget: Budget {
            deadline: Duration::from_millis(400),
            ..Budget::default()
        },
        ..ServiceConfig::default()
    };
    run_batch(config, jobs).0
}

/// Rebuilds the corruption class named by a report's `chaos_class`.
fn corruption_from_class(class: &str) -> (Option<Corruption>, Option<AllocCorruption>) {
    if let Some(name) = class.strip_prefix("pipeline.") {
        let c = Corruption::all()
            .iter()
            .copied()
            .find(|c| format!("{c:?}") == name);
        (c, None)
    } else if let Some(name) = class.strip_prefix("alloc.") {
        let c = AllocCorruption::all()
            .iter()
            .copied()
            .find(|c| format!("{c:?}") == name);
        (None, c)
    } else {
        (None, None)
    }
}

/// The replayed failure predicate a report defines: "the checked
/// pipeline, corrupted exactly as recorded, reports this error class on
/// this function".
fn replay_fails_with_class(func: &Function, inputs: &[Vec<i64>], report: &JobReport) -> bool {
    let Some(want) = report.error_class.as_deref() else {
        return false;
    };
    let Some(chaos_class) = report.chaos_class.as_deref() else {
        return false;
    };
    let (chaos, alloc_chaos) = corruption_from_class(chaos_class);
    let copts = CheckedOptions {
        chaos,
        alloc_chaos,
        chaos_seed: report.chaos_seed.unwrap_or(0),
        alloc: true,
        ..CheckedOptions::default()
    };
    let exp = match Experiment::from_key(&report.experiment) {
        Some(e) => e,
        None => return false,
    };
    let bf = BenchFunction {
        func: func.clone(),
        inputs: inputs.to_vec(),
    };
    let outcome = run_checked(&bf, exp, &CoalesceOptions::default(), &copts);
    outcome.error.as_ref().map(|e| e.class_key()) == Some(want)
}

#[test]
fn failure_reports_replay_and_shrink_to_the_same_class() {
    let reports = chaos_batch();
    let suite = fuzz_suite(N, SEED);

    // Harvest reports whose final attempt drew a pipeline/alloc
    // corruption that landed and was caught as a structured error.
    let candidates: Vec<&JobReport> = reports
        .iter()
        .filter(|r| {
            r.error_class.is_some()
                && r.chaos_class
                    .as_deref()
                    .is_some_and(|c| c.starts_with("pipeline.") || c.starts_with("alloc."))
        })
        .collect();
    assert!(
        !candidates.is_empty(),
        "full-rate chaos over {N} jobs landed no pipeline corruption — \
         the harvest is broken"
    );

    let mut round_tripped = 0;
    for report in candidates {
        let src = &suite.functions[(report.id - 1) as usize].func;
        let inputs = default_inputs(src, report.inputs_seed.unwrap_or(report.id));

        // (1) The report alone reproduces the failure class.
        if !replay_fails_with_class(src, &inputs, report) {
            // The service's draw corrupted a *different attempt* than
            // the one that produced the decisive error (e.g. the final
            // attempt's fault was transient). Such reports aren't
            // pipeline replays; skip them.
            continue;
        }

        // (2) Shrink under the replayed predicate.
        let failing = |f: &Function| replay_fails_with_class(f, &inputs, report);
        let (reduced, stats) = reduce(src, &failing);

        // (3) The reduced case still fails with the same class.
        assert!(
            replay_fails_with_class(&reduced, &inputs, report),
            "job {}: reduction lost the failure class {:?}",
            report.id,
            report.error_class
        );
        assert!(
            stats.final_size <= stats.initial_size,
            "job {}: reducer grew the case: {stats:?}",
            report.id
        );
        round_tripped += 1;
        if round_tripped >= 3 {
            break; // three full round-trips is plenty for tier-1
        }
    }
    assert!(
        round_tripped > 0,
        "no harvested report replayed — seeds are not round-tripping"
    );
}

#[test]
fn replay_is_deterministic_across_runs() {
    // The same report-shaped parameters must reproduce the same outcome
    // twice — the property the JSONL artifact relies on.
    let suite = fuzz_suite(8, SEED);
    let bf = &suite.functions[0];
    let copts = CheckedOptions {
        chaos: Some(Corruption::MergeInterferingWebs),
        chaos_seed: tossa::server::site_seed(0xBAD_CA11, 1),
        alloc: true,
        ..CheckedOptions::default()
    };
    let exp = Experiment::from_key("LphiAbiC").expect("known key");
    let a = run_checked(bf, exp, &CoalesceOptions::default(), &copts);
    let b = run_checked(bf, exp, &CoalesceOptions::default(), &copts);
    assert_eq!(
        a.error.as_ref().map(|e| e.class_key()),
        b.error.as_ref().map(|e| e.class_key()),
    );
    assert_eq!(a.fell_back, b.fell_back);
    assert_eq!(a.moves, b.moves);
}
