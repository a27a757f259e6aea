//! Schedule independence: a job's result does not depend on how many
//! workers the service runs.
//!
//! One seeded fuzz population runs through the compile service at 1, 2
//! and 4 workers, once clean and once under chaos. Every report field
//! that describes the job — outcome, rung, ladder, attempts, error and
//! chaos class, `verified`, moves, code, and the metered allocation
//! events and bytes — must be identical in every configuration; only
//! the clocks may differ. After shutdown the service must be at rest:
//! an empty queue and no busy worker.
//!
//! This binary installs [`ServiceAlloc`] as its global allocator, so the
//! allocation meter counts (without it every meter reads 0 and the
//! allocation fields would compare vacuously).

use std::time::Duration;

use tossa::bench::checked::fuzz_suite;
use tossa::server::proto::default_inputs;
use tossa::server::report::{JobOutcome, JobReport};
use tossa::server::service::{CompileService, Job, ServiceConfig};
use tossa::server::{Budget, ChaosConfig, JobRequest, ServiceAlloc};

#[global_allocator]
static A: ServiceAlloc = ServiceAlloc;

const SEED: u64 = 7;

fn jobs(n: usize) -> Vec<Job> {
    fuzz_suite(n, SEED)
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

/// The report fields that must not depend on the schedule, by name:
/// everything but the clocks.
fn fields(r: &JobReport) -> [(&'static str, String); 11] {
    [
        ("outcome", format!("{:?}", r.outcome)),
        ("rung", format!("{:?}", r.rung)),
        ("ladder", format!("{:?}", r.ladder)),
        ("attempts", r.attempts.to_string()),
        ("error_class", format!("{:?}", r.error_class)),
        ("chaos_class", format!("{:?}", r.chaos_class)),
        ("verified", r.verified.to_string()),
        ("moves", format!("{:?}", r.moves)),
        ("code", format!("{:?}", r.code)),
        ("alloc_events", r.alloc_events.to_string()),
        ("alloc_bytes", r.alloc_bytes.to_string()),
    ]
}

/// Runs the first `n` jobs at `workers` workers and returns their
/// reports in id order, after checking that the service came to rest.
fn run(config: ServiceConfig, workers: usize, n: usize) -> Vec<JobReport> {
    let (service, rx) = CompileService::start(ServiceConfig {
        workers,
        queue_cap: n,
        ..config
    });
    let metrics = service.metrics();
    let collector = std::thread::spawn(move || rx.iter().collect::<Vec<JobReport>>());
    for job in jobs(n) {
        service.submit(job);
    }
    service.shutdown();
    let mut reports = collector.join().expect("the report collector finishes");
    reports.sort_by_key(|r| r.id);
    assert_eq!(reports.len(), n, "{workers} workers: every job reports");
    assert_eq!(
        metrics.queue_depth.get(),
        0,
        "{workers} workers: queue at rest"
    );
    assert_eq!(
        metrics.workers_busy.get(),
        0,
        "{workers} workers: a worker stayed busy"
    );
    reports
}

/// Requires every report at 2 and 4 workers to match its report at 1
/// worker field for field, naming each field that differs.
fn assert_schedule_independent(config: ServiceConfig, n: usize) -> Vec<JobReport> {
    let base = run(config, 1, n);
    for workers in [2, 4] {
        let other = run(config, workers, n);
        let mut differing = Vec::new();
        for (a, b) in base.iter().zip(&other) {
            for ((name, x), (_, y)) in fields(a).iter().zip(&fields(b)) {
                if x != y {
                    differing.push(format!(
                        "job {}: {name} {x} at 1 worker, {y} at {workers}",
                        a.id
                    ));
                }
            }
        }
        assert!(
            differing.is_empty(),
            "results changed at {workers} workers:\n{}",
            differing.join("\n")
        );
    }
    base
}

#[test]
fn clean_results_do_not_depend_on_the_worker_count() {
    let base = assert_schedule_independent(ServiceConfig::default(), 200);
    assert!(
        base.iter()
            .all(|r| r.outcome == JobOutcome::Completed && r.alloc_events > 0),
        "a clean job failed or its allocations went unmetered"
    );
}

#[test]
fn chaos_results_do_not_depend_on_the_worker_count() {
    // Injected blowouts sleep just past the deadline, so a short one
    // keeps the run fast; fuzz functions compile in milliseconds even
    // in the dev profile, so genuine work stays far inside it. No job
    // here is quarantined, so no report shows a panicking attempt: the
    // default panic hook's output, billed to the attempt that panics,
    // lands only on attempts that are retried.
    let config = ServiceConfig {
        chaos: Some(ChaosConfig {
            seed: SEED,
            rate_pct: 35,
        }),
        budget: Budget {
            deadline: Duration::from_millis(300),
            ..Budget::default()
        },
        ..ServiceConfig::default()
    };
    let base = assert_schedule_independent(config, 100);
    assert!(
        base.iter().any(|r| r.attempts > 1),
        "chaos retried nothing — the comparison covered no transient failure"
    );
    assert!(
        base.iter().all(|r| r.outcome != JobOutcome::Quarantined),
        "a quarantined job reports an attempt that may have panicked"
    );
}
