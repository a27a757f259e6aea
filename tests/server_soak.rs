//! Tier-1 chaos soak through the compile service (PR7 gate, scaled to
//! test size; CI runs the full 500-function release soak via the `serve`
//! binary).
//!
//! Invariants the service must uphold under fault injection:
//!
//! * no unwind escapes a worker (the soak itself completing proves the
//!   process survived; the contained-panic counter proves panics
//!   actually happened);
//! * an attempt that overruns its wall-clock deadline is caught (the
//!   blown-deadline counter proves overruns actually happened);
//! * the thread-local trace collector never leaks across a contained
//!   panic (the PR5 drop guards restore it mid-unwind);
//! * every failure is a structured error with a stable class;
//! * the degradation ladder never skips a rung;
//! * every completed function passed differential execution, and its
//!   report round-trips: the code text re-parses and re-verifies.

use tossa::bench::checked::fuzz_suite;
use tossa::bench::runner;
use tossa::ir::machine::Machine;
use tossa::ir::parse::parse_function;
use tossa::server::proto::default_inputs;
use tossa::server::report::{JobOutcome, SoakSummary};
use tossa::server::service::{run_batch, Job, ServiceConfig};
use tossa::server::{steps_are_contiguous, ChaosConfig, JobCounter, JobRequest, Rung};

const SOAK_N: usize = 300;
const SEED: u64 = 0x50AC;

fn soak_jobs() -> Vec<Job> {
    fuzz_suite(SOAK_N, SEED)
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
        .collect()
}

#[test]
fn chaos_soak_upholds_every_service_invariant() {
    assert!(
        !tossa::trace::enabled(),
        "test starts with no trace collector installed"
    );
    let config = ServiceConfig {
        queue_cap: SOAK_N,
        chaos: Some(ChaosConfig {
            seed: 0xC4A0_5EED,
            rate_pct: 30,
        }),
        // Injected blowouts sleep just past the deadline, so a short one
        // keeps the soak fast; fuzz functions compile in milliseconds
        // even in debug, so genuine work stays far inside it.
        budget: tossa::server::Budget {
            deadline: std::time::Duration::from_secs(1),
            ..Default::default()
        },
        ..ServiceConfig::default()
    };
    let (reports, counters) = run_batch(config, soak_jobs());

    // The process survived and every job reported exactly once.
    assert_eq!(reports.len(), SOAK_N);
    let ids: std::collections::BTreeSet<u64> = reports.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), SOAK_N, "duplicate or missing job ids");

    // The soak gate proper.
    let summary = SoakSummary::from_reports(&reports);
    assert!(summary.holds(), "soak invariants violated:\n{summary}");
    assert_eq!(summary.total, SOAK_N);

    // Chaos actually exercised the envelope: faults landed and panics
    // were contained (rate 30% over 300 jobs makes both overwhelmingly
    // likely; the draw is deterministic, so this cannot flake).
    assert!(
        counters.get(JobCounter::ServiceFaultsInjected) > 0,
        "no faults injected — the soak tested nothing"
    );
    assert!(
        counters.get(JobCounter::PanicsContained) > 0,
        "no panic was ever contained — the containment boundary is untested"
    );
    assert!(
        counters.get(JobCounter::DeadlinesBlown) > 0,
        "no attempt blew its deadline — the deadline verdict is untested"
    );
    assert!(
        !tossa::trace::enabled(),
        "a contained panic leaked a trace collector into the main thread"
    );

    for r in &reports {
        // Ladder discipline: one rung at a time, causes recorded.
        assert!(
            steps_are_contiguous(&r.ladder),
            "job {}: ladder skipped a rung: {:?}",
            r.id,
            r.ladder
        );
        for step in &r.ladder {
            assert!(!step.cause.is_empty(), "job {}: uncaused transition", r.id);
        }
        // Structured failures only.
        if r.outcome != JobOutcome::Completed || r.rung != Rung::Checked {
            assert!(
                r.error_class.is_some(),
                "job {}: {:?} failure without a class",
                r.id,
                r.outcome
            );
        }
        // Reports are machine-readable.
        tossa::trace::validate_json(&r.to_json())
            .unwrap_or_else(|e| panic!("job {}: bad report JSON: {e}", r.id));
    }

    // Completed jobs: the differential seal already ran in the service
    // (`verified`, gated by the summary); independently prove the report
    // is a usable artifact by re-parsing and re-verifying the code text.
    let suite = fuzz_suite(SOAK_N, SEED);
    let mut rechecked = 0;
    for r in reports
        .iter()
        .filter(|r| r.outcome == JobOutcome::Completed)
    {
        let code = r.code.as_deref().expect("completed job carries code");
        let func = parse_function(code, &Machine::dsp32())
            .unwrap_or_else(|e| panic!("job {}: code does not re-parse: {e}", r.id));
        let src = &suite.functions[(r.id - 1) as usize].func;
        let inputs = default_inputs(src, r.id);
        runner::verify(src, &func, &inputs)
            .unwrap_or_else(|e| panic!("job {}: re-verification failed: {e}", r.id));
        rechecked += 1;
    }
    assert!(
        rechecked > SOAK_N / 2,
        "only {rechecked} completions — chaos rate is drowning the pipeline"
    );

    // Counter bookkeeping adds up.
    assert_eq!(counters.get(JobCounter::JobsSubmitted), SOAK_N as u64);
    assert_eq!(
        counters.get(JobCounter::JobsCompletedChecked),
        summary.completed_checked as u64
    );
    assert_eq!(
        counters.get(JobCounter::JobsCompletedFallback),
        summary.completed_fallback as u64
    );
    assert_eq!(
        counters.get(JobCounter::JobsQuarantined),
        summary.quarantined as u64
    );
    tossa::trace::validate_json(&counters.to_json()).expect("counter JSON well-formed");
}

#[test]
fn clean_soak_is_all_checked_completions() {
    // Chaos off: the same population must complete entirely on the top
    // rung — the envelope adds robustness, not false degradation.
    let n = 60;
    let config = ServiceConfig {
        queue_cap: n,
        budget: tossa::server::Budget {
            deadline: std::time::Duration::from_secs(20),
            ..Default::default()
        },
        ..ServiceConfig::default()
    };
    let jobs: Vec<Job> = soak_jobs().into_iter().take(n).collect();
    let (reports, counters) = run_batch(config, jobs);
    assert_eq!(reports.len(), n);
    for r in &reports {
        assert_eq!(
            r.outcome,
            JobOutcome::Completed,
            "job {}: {:?}",
            r.id,
            r.error
        );
        assert_eq!(
            r.rung,
            Rung::Checked,
            "job {} degraded: {:?}",
            r.id,
            r.error
        );
        assert!(r.verified, "job {} did not verify", r.id);
        assert_eq!(r.attempts, 1, "job {} retried without chaos", r.id);
    }
    assert_eq!(counters.get(JobCounter::JobsCompletedChecked), n as u64);
    assert_eq!(counters.get(JobCounter::PanicsContained), 0);
}
