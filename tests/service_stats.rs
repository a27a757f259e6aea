//! Golden tests for the service telemetry surface: the exact
//! bytes of the `tossa-service-stats/1` stats document, the Prometheus
//! exposition and the `tossa-job-counters/1` line, the closed metric
//! name set, the flight-recorder lifecycle trail, and the
//! reconciliation identities that tie every histogram back to the
//! [`JobCounter`] totals. Names and schema fields pinned here are wire
//! format — dashboards, the CI smoke and the benchmark's stats parser
//! read them verbatim, so a rename must fail a test before it reaches
//! a scrape.

use std::collections::BTreeSet;

use tossa::bench::checked::fuzz_suite;
use tossa::server::metrics::{AttemptResult, Stage};
use tossa::server::proto::default_inputs;
use tossa::server::report::JobReport;
use tossa::server::service::{CompileService, Job, ServiceConfig};
use tossa::server::{
    ChaosConfig, JobCounter, JobCounterSet, JobRequest, Rung, ServiceMetrics, FLIGHT_STAGES,
};
use tossa::trace::json::{parse_json, Json};

const SEED: u64 = 0x0005_7A75;

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

/// `run_batch`, but keeping the telemetry handle alive past shutdown
/// so the tests can interrogate the final instrument state.
fn run_instrumented(
    config: ServiceConfig,
    jobs: Vec<Job>,
) -> (
    Vec<JobReport>,
    JobCounterSet,
    std::sync::Arc<ServiceMetrics>,
) {
    let (service, rx) = CompileService::start(config);
    let metrics = service.metrics();
    let collector = std::thread::spawn(move || {
        let mut reports: Vec<JobReport> = rx.iter().collect();
        reports.sort_by_key(|r| r.id);
        reports
    });
    for job in jobs {
        service.submit(job);
    }
    let counters = service.shutdown();
    let reports = collector.join().unwrap_or_default();
    (reports, counters, metrics)
}

fn chaos_config() -> ServiceConfig {
    ServiceConfig {
        queue_cap: 64,
        chaos: Some(ChaosConfig {
            seed: 0xC4A0_5EED,
            rate_pct: 30,
        }),
        budget: tossa::server::Budget {
            deadline: std::time::Duration::from_secs(1),
            ..Default::default()
        },
        ..ServiceConfig::default()
    }
}

fn hist_count(doc: &Json, full_name: &str) -> u64 {
    doc.get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get(full_name))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats lacks histogram {full_name:?}"))
}

/// A fresh [`ServiceMetrics`] holding fixed values: every job counter
/// (`2k + 1` for the `k`-th), both gauges, the I/O counter, and at
/// least one non-empty histogram per family, labelled ones included.
fn golden_metrics() -> ServiceMetrics {
    let m = ServiceMetrics::new();
    for (k, c) in JobCounter::ALL.into_iter().enumerate() {
        for _ in 0..2 * k + 1 {
            m.count(c);
        }
    }
    m.queue_depth.set(3);
    m.workers_busy.set(2);
    m.report_io_errors.add(5);
    m.queue_wait_ns.record(100);
    m.queue_wait_ns.record(250);
    m.queue_latency_ns.record(7);
    m.job_latency(Rung::Checked).record(5_000);
    m.job_latency(Rung::Checked).record(12_345);
    m.job_latency(Rung::Reject).record(1);
    m.attempt_latency(AttemptResult::Panic).record(42);
    m.attempt_latency(AttemptResult::Ok).record(900);
    m.stage_latency(Stage::Verify).record(64);
    m.fuel_used.record(0);
    m.fuel_used.record(17);
    m.alloc_events.record(603);
    m.alloc_bytes.record(43_492);
    m.flight.record(1, 0, "submit", "f");
    m.flight.record(1, 0, "dequeue", "f");
    m
}

/// `json` with the value of `"uptime_ns"`, the stats document's only
/// clock, replaced by `UPTIME`.
fn mask_uptime(json: &str) -> String {
    let key = "\"uptime_ns\": ";
    let start = json.find(key).expect("stats carries uptime_ns") + key.len();
    let end = start
        + json[start..]
            .find(',')
            .expect("uptime_ns is followed by a field");
    format!("{}UPTIME{}", &json[..start], &json[end..])
}

/// The stats document `golden_metrics` renders, its clock masked.
const GOLDEN_STATS: &str = concat!(
    r#"{"schema": "tossa-service-stats/1", "uptime_ns": UPTIME, "#,
    r#""jobs": {"jobs_submitted": 1, "jobs_completed_checked": 3, "jobs_completed_fallback": 5, "jobs_rejected": 7, "#,
    r#""jobs_shed": 9, "jobs_retried": 11, "jobs_quarantined": 13, "panics_contained": 15, "deadlines_blown": 17, "#,
    r#""fuel_exhausted": 19, "alloc_budget_exceeded": 21, "frames_malformed": 23, "service_faults_injected": 25}, "#,
    r#""metrics": {"counters": {"service_report_io_errors": 5}, "#,
    r#""gauges": {"service_queue_depth": 3, "service_workers_busy": 2}, "histograms": {"#,
    r#""service_alloc_bytes": {"count": 1, "sum": 43492, "min": 43492, "max": 43492, "p50": 43492, "p90": 43492, "p99": 43492, "buckets": [[45055, 1]]}, "#,
    r#""service_alloc_events": {"count": 1, "sum": 603, "min": 603, "max": 603, "p50": 603, "p90": 603, "p99": 603, "buckets": [[639, 1]]}, "#,
    r#""service_attempt_latency_ns{result=\"alloc_budget\"}": {"count": 0, "sum": 0, "min": null, "max": null, "p50": null, "p90": null, "p99": null, "buckets": []}, "#,
    r#""service_attempt_latency_ns{result=\"deadline\"}": {"count": 0, "sum": 0, "min": null, "max": null, "p50": null, "p90": null, "p99": null, "buckets": []}, "#,
    r#""service_attempt_latency_ns{result=\"ok\"}": {"count": 1, "sum": 900, "min": 900, "max": 900, "p50": 900, "p90": 900, "p99": 900, "buckets": [[959, 1]]}, "#,
    r#""service_attempt_latency_ns{result=\"panic\"}": {"count": 1, "sum": 42, "min": 42, "max": 42, "p50": 42, "p90": 42, "p99": 42, "buckets": [[43, 1]]}, "#,
    r#""service_fuel_used": {"count": 2, "sum": 17, "min": 0, "max": 17, "p50": 0, "p90": 17, "p99": 17, "buckets": [[0, 1], [17, 1]]}, "#,
    r#""service_job_latency_ns{rung=\"checked\"}": {"count": 2, "sum": 17345, "min": 5000, "max": 12345, "p50": 5119, "p90": 12345, "p99": 12345, "buckets": [[5119, 1], [13311, 1]]}, "#,
    r#""service_job_latency_ns{rung=\"naive_fallback\"}": {"count": 0, "sum": 0, "min": null, "max": null, "p50": null, "p90": null, "p99": null, "buckets": []}, "#,
    r#""service_job_latency_ns{rung=\"reject\"}": {"count": 1, "sum": 1, "min": 1, "max": 1, "p50": 1, "p90": 1, "p99": 1, "buckets": [[1, 1]]}, "#,
    r#""service_queue_latency_ns": {"count": 1, "sum": 7, "min": 7, "max": 7, "p50": 7, "p90": 7, "p99": 7, "buckets": [[7, 1]]}, "#,
    r#""service_queue_wait_ns": {"count": 2, "sum": 350, "min": 100, "max": 250, "p50": 103, "p90": 250, "p99": 250, "buckets": [[103, 1], [255, 1]]}, "#,
    r#""service_stage_latency_ns{stage=\"compile\"}": {"count": 0, "sum": 0, "min": null, "max": null, "p50": null, "p90": null, "p99": null, "buckets": []}, "#,
    r#""service_stage_latency_ns{stage=\"verify\"}": {"count": 1, "sum": 64, "min": 64, "max": 64, "p50": 64, "p90": 64, "p99": 64, "buckets": [[71, 1]]}}}, "#,
    r#""flight": {"capacity": 4096, "recorded": 2, "dropped": 0}}"#,
);

/// The Prometheus exposition `golden_metrics` renders.
const GOLDEN_PROMETHEUS: &str = r#"# TYPE tossa_jobs_submitted counter
tossa_jobs_submitted 1
# TYPE tossa_jobs_completed_checked counter
tossa_jobs_completed_checked 3
# TYPE tossa_jobs_completed_fallback counter
tossa_jobs_completed_fallback 5
# TYPE tossa_jobs_rejected counter
tossa_jobs_rejected 7
# TYPE tossa_jobs_shed counter
tossa_jobs_shed 9
# TYPE tossa_jobs_retried counter
tossa_jobs_retried 11
# TYPE tossa_jobs_quarantined counter
tossa_jobs_quarantined 13
# TYPE tossa_panics_contained counter
tossa_panics_contained 15
# TYPE tossa_deadlines_blown counter
tossa_deadlines_blown 17
# TYPE tossa_fuel_exhausted counter
tossa_fuel_exhausted 19
# TYPE tossa_alloc_budget_exceeded counter
tossa_alloc_budget_exceeded 21
# TYPE tossa_frames_malformed counter
tossa_frames_malformed 23
# TYPE tossa_service_faults_injected counter
tossa_service_faults_injected 25
# TYPE tossa_service_alloc_bytes histogram
tossa_service_alloc_bytes_bucket{le="45055"} 1
tossa_service_alloc_bytes_bucket{le="+Inf"} 1
tossa_service_alloc_bytes_sum 43492
tossa_service_alloc_bytes_count 1
# TYPE tossa_service_alloc_events histogram
tossa_service_alloc_events_bucket{le="639"} 1
tossa_service_alloc_events_bucket{le="+Inf"} 1
tossa_service_alloc_events_sum 603
tossa_service_alloc_events_count 1
# TYPE tossa_service_attempt_latency_ns histogram
tossa_service_attempt_latency_ns_bucket{result="alloc_budget",le="+Inf"} 0
tossa_service_attempt_latency_ns_sum{result="alloc_budget"} 0
tossa_service_attempt_latency_ns_count{result="alloc_budget"} 0
tossa_service_attempt_latency_ns_bucket{result="deadline",le="+Inf"} 0
tossa_service_attempt_latency_ns_sum{result="deadline"} 0
tossa_service_attempt_latency_ns_count{result="deadline"} 0
tossa_service_attempt_latency_ns_bucket{result="ok",le="959"} 1
tossa_service_attempt_latency_ns_bucket{result="ok",le="+Inf"} 1
tossa_service_attempt_latency_ns_sum{result="ok"} 900
tossa_service_attempt_latency_ns_count{result="ok"} 1
tossa_service_attempt_latency_ns_bucket{result="panic",le="43"} 1
tossa_service_attempt_latency_ns_bucket{result="panic",le="+Inf"} 1
tossa_service_attempt_latency_ns_sum{result="panic"} 42
tossa_service_attempt_latency_ns_count{result="panic"} 1
# TYPE tossa_service_fuel_used histogram
tossa_service_fuel_used_bucket{le="0"} 1
tossa_service_fuel_used_bucket{le="17"} 2
tossa_service_fuel_used_bucket{le="+Inf"} 2
tossa_service_fuel_used_sum 17
tossa_service_fuel_used_count 2
# TYPE tossa_service_job_latency_ns histogram
tossa_service_job_latency_ns_bucket{rung="checked",le="5119"} 1
tossa_service_job_latency_ns_bucket{rung="checked",le="13311"} 2
tossa_service_job_latency_ns_bucket{rung="checked",le="+Inf"} 2
tossa_service_job_latency_ns_sum{rung="checked"} 17345
tossa_service_job_latency_ns_count{rung="checked"} 2
tossa_service_job_latency_ns_bucket{rung="naive_fallback",le="+Inf"} 0
tossa_service_job_latency_ns_sum{rung="naive_fallback"} 0
tossa_service_job_latency_ns_count{rung="naive_fallback"} 0
tossa_service_job_latency_ns_bucket{rung="reject",le="1"} 1
tossa_service_job_latency_ns_bucket{rung="reject",le="+Inf"} 1
tossa_service_job_latency_ns_sum{rung="reject"} 1
tossa_service_job_latency_ns_count{rung="reject"} 1
# TYPE tossa_service_queue_depth gauge
tossa_service_queue_depth 3
# TYPE tossa_service_queue_latency_ns histogram
tossa_service_queue_latency_ns_bucket{le="7"} 1
tossa_service_queue_latency_ns_bucket{le="+Inf"} 1
tossa_service_queue_latency_ns_sum 7
tossa_service_queue_latency_ns_count 1
# TYPE tossa_service_queue_wait_ns histogram
tossa_service_queue_wait_ns_bucket{le="103"} 1
tossa_service_queue_wait_ns_bucket{le="255"} 2
tossa_service_queue_wait_ns_bucket{le="+Inf"} 2
tossa_service_queue_wait_ns_sum 350
tossa_service_queue_wait_ns_count 2
# TYPE tossa_service_report_io_errors counter
tossa_service_report_io_errors 5
# TYPE tossa_service_stage_latency_ns histogram
tossa_service_stage_latency_ns_bucket{stage="compile",le="+Inf"} 0
tossa_service_stage_latency_ns_sum{stage="compile"} 0
tossa_service_stage_latency_ns_count{stage="compile"} 0
tossa_service_stage_latency_ns_bucket{stage="verify",le="71"} 1
tossa_service_stage_latency_ns_bucket{stage="verify",le="+Inf"} 1
tossa_service_stage_latency_ns_sum{stage="verify"} 64
tossa_service_stage_latency_ns_count{stage="verify"} 1
# TYPE tossa_service_workers_busy gauge
tossa_service_workers_busy 2
"#;

/// The `tossa-job-counters/1` line of `golden_metrics`.
const GOLDEN_JOB_COUNTERS: &str = concat!(
    r#"{"schema": "tossa-job-counters/1", "jobs_submitted": 1, "jobs_completed_checked": 3, "jobs_completed_fallback": 5, "jobs_rejected": 7, "#,
    r#""jobs_shed": 9, "jobs_retried": 11, "jobs_quarantined": 13, "panics_contained": 15, "deadlines_blown": 17, "#,
    r#""fuel_exhausted": 19, "alloc_budget_exceeded": 21, "frames_malformed": 23, "service_faults_injected": 25}"#,
);

/// Every byte the service exports, against literals captured before
/// the telemetry became one store: a refactor of the telemetry must
/// leave all three exports byte-identical.
#[test]
fn exports_match_the_golden_bytes() {
    let m = golden_metrics();
    let stats = m.stats_json();
    tossa::trace::validate_json(&stats).expect("stats snapshot is well-formed JSON");
    assert_eq!(mask_uptime(&stats), GOLDEN_STATS);
    assert_eq!(m.prometheus(), GOLDEN_PROMETHEUS);
    let counters = m.job_counters().to_json();
    tossa::trace::validate_json(&counters).expect("counter line is well-formed JSON");
    assert_eq!(counters, GOLDEN_JOB_COUNTERS);
}

/// The complete instrument set, by full name: the keys of the stats
/// document's `counters`, `gauges` and `histograms` objects. Wire
/// format: the CI smoke and the EXPERIMENTS.md walkthrough grep for
/// these strings.
#[test]
fn metric_name_set_is_pinned_and_closed() {
    let (_, _, metrics) = run_instrumented(ServiceConfig::default(), jobs(8));
    let doc = parse_json(&metrics.stats_json()).expect("stats frame parses");
    let got: BTreeSet<String> = ["counters", "gauges", "histograms"]
        .iter()
        .flat_map(|kind| {
            doc.get("metrics")
                .and_then(|m| m.get(kind))
                .and_then(Json::as_obj)
                .unwrap_or_else(|| panic!("stats lacks metrics.{kind}"))
        })
        .map(|(name, _)| name.clone())
        .collect();
    let want: BTreeSet<String> = [
        "service_alloc_bytes",
        "service_alloc_events",
        "service_attempt_latency_ns{result=\"alloc_budget\"}",
        "service_attempt_latency_ns{result=\"deadline\"}",
        "service_attempt_latency_ns{result=\"ok\"}",
        "service_attempt_latency_ns{result=\"panic\"}",
        "service_fuel_used",
        "service_job_latency_ns{rung=\"checked\"}",
        "service_job_latency_ns{rung=\"naive_fallback\"}",
        "service_job_latency_ns{rung=\"reject\"}",
        "service_queue_depth",
        "service_queue_latency_ns",
        "service_queue_wait_ns",
        "service_report_io_errors",
        "service_stage_latency_ns{stage=\"compile\"}",
        "service_stage_latency_ns{stage=\"verify\"}",
        "service_workers_busy",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    assert_eq!(
        got, want,
        "the instrument set changed — update DESIGN.md §16, the CI smoke \
         greps, and this golden list together"
    );
}

/// The stats document is schema-tagged, machine-readable, embeds the
/// job counters verbatim, and its histograms reconcile with them.
#[test]
fn stats_frame_reconciles_with_final_counters() {
    let (reports, counters, metrics) = run_instrumented(chaos_config(), jobs(120));
    assert_eq!(reports.len(), 120);
    let json = metrics.stats_json();
    tossa::trace::validate_json(&json).expect("stats frame is well-formed JSON");
    let doc = parse_json(&json).expect("stats frame parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("tossa-service-stats/1")
    );
    assert!(doc.get("uptime_ns").and_then(Json::as_u64).is_some());

    // The jobs object is the counter set verbatim: every name, every
    // total, nothing else.
    let jobs_obj = doc
        .get("jobs")
        .and_then(Json::as_obj)
        .expect("stats carries a jobs object");
    assert_eq!(jobs_obj.len(), JobCounter::COUNT);
    for c in JobCounter::ALL {
        assert_eq!(
            doc.get("jobs")
                .and_then(|j| j.get(c.name()))
                .and_then(Json::as_u64),
            Some(counters.get(c)),
            "jobs.{} diverged from the final counter set",
            c.name()
        );
    }

    // Reconciliation identities: each latency series counts exactly the
    // population its label names.
    let submitted = counters.get(JobCounter::JobsSubmitted);
    let shed = counters.get(JobCounter::JobsShed);
    assert_eq!(
        hist_count(&doc, "service_queue_wait_ns"),
        submitted + shed,
        "every admission attempt waits on the queue exactly once"
    );
    assert_eq!(
        hist_count(&doc, "service_queue_latency_ns"),
        submitted,
        "every accepted job is dequeued exactly once"
    );
    assert_eq!(
        hist_count(&doc, "service_attempt_latency_ns{result=\"panic\"}"),
        counters.get(JobCounter::PanicsContained),
        "panic-attempt latencies must count the contained panics"
    );
    assert_eq!(
        hist_count(&doc, "service_attempt_latency_ns{result=\"deadline\"}"),
        counters.get(JobCounter::DeadlinesBlown)
    );
    assert_eq!(
        hist_count(&doc, "service_attempt_latency_ns{result=\"alloc_budget\"}"),
        counters.get(JobCounter::AllocBudgetExceeded)
    );
    let worker_reports = counters.get(JobCounter::JobsCompletedChecked)
        + counters.get(JobCounter::JobsCompletedFallback)
        + counters.get(JobCounter::JobsRejected)
        + counters.get(JobCounter::JobsQuarantined);
    let job_latency_total: u64 = [
        "service_job_latency_ns{rung=\"checked\"}",
        "service_job_latency_ns{rung=\"naive_fallback\"}",
        "service_job_latency_ns{rung=\"reject\"}",
    ]
    .iter()
    .map(|n| hist_count(&doc, n))
    .sum();
    assert_eq!(
        job_latency_total, worker_reports,
        "every worker-delivered report lands in exactly one rung series"
    );
    // Chaos actually drove the envelope, so the identities above are
    // non-vacuous.
    assert!(counters.get(JobCounter::PanicsContained) > 0);

    // Flight summary: ring capacity and a recorded-count floor (at
    // least submit + dequeue + attempt + outcome per worker report).
    let flight = doc.get("flight").expect("stats carries a flight object");
    assert_eq!(
        flight.get("capacity").and_then(Json::as_u64),
        Some(metrics.flight.capacity() as u64)
    );
    let recorded = flight
        .get("recorded")
        .and_then(Json::as_u64)
        .expect("flight.recorded");
    assert!(recorded >= 4 * worker_reports, "flight trail too sparse");

    // Gauges settle: no worker is busy and the queue is empty after
    // shutdown.
    let gauge = |name: &str| {
        doc.get("metrics")
            .and_then(|m| m.get("gauges"))
            .and_then(|g| g.get(name))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("stats lacks gauge {name:?}"))
    };
    assert_eq!(gauge("service_workers_busy"), 0.0);
    assert_eq!(gauge("service_queue_depth"), 0.0);
}

#[test]
fn prometheus_exposition_covers_jobs_and_instruments() {
    let (_, counters, metrics) = run_instrumented(ServiceConfig::default(), jobs(10));
    let text = metrics.prometheus();
    assert!(text.contains("# TYPE tossa_jobs_submitted counter"));
    assert!(text.contains(&format!(
        "tossa_jobs_submitted {}",
        counters.get(JobCounter::JobsSubmitted)
    )));
    assert!(text.contains("# TYPE tossa_service_queue_depth gauge"));
    assert!(text.contains("# TYPE tossa_service_queue_latency_ns histogram"));
    assert!(text.contains("tossa_service_queue_latency_ns_bucket{le=\"+Inf\"} 10"));
    assert!(text.contains("tossa_service_queue_latency_ns_count 10"));
    assert!(text.contains("tossa_service_job_latency_ns_bucket{rung=\"checked\",le="));
    // The cumulative bucket series is monotone for every histogram.
    for family in ["tossa_service_queue_latency_ns", "tossa_service_fuel_used"] {
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with(&format!("{family}_bucket")))
        {
            let v: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("bad exposition line {line:?}"));
            assert!(v >= last, "non-cumulative bucket series: {line}");
            last = v;
        }
        assert!(last > 0, "{family} recorded nothing");
    }
}

/// A clean job leaves the canonical trail: submit → dequeue → attempt
/// → outcome, in order, with the documented details.
#[test]
fn flight_recorder_captures_the_job_lifecycle_in_order() {
    let (reports, _, metrics) = run_instrumented(ServiceConfig::default(), jobs(4));
    assert_eq!(reports.len(), 4);
    for id in 1..=4u64 {
        let trail = metrics.flight.for_job(id);
        let stages: Vec<&str> = trail.iter().map(|e| e.stage).collect();
        assert_eq!(
            stages,
            ["submit", "dequeue", "attempt", "outcome"],
            "job {id}: unexpected lifecycle trail"
        );
        for e in &trail {
            assert!(FLIGHT_STAGES.contains(&e.stage));
            assert_eq!(e.job, id);
        }
        assert_eq!(
            trail[2].detail, "clean",
            "attempt detail records chaos class"
        );
        assert_eq!(trail[3].detail, "completed/checked");
        assert!(
            trail.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
            "job {id}: trail timestamps not monotone"
        );
    }
    // The dump is schema-tagged, machine-readable JSON.
    let dump = metrics.flight.to_json();
    tossa::trace::validate_json(&dump).expect("flight dump is well-formed JSON");
    assert!(dump.contains("\"schema\": \"tossa-flight-recorder/1\""));
    let doc = parse_json(&dump).expect("flight dump parses");
    let events = doc
        .get("events")
        .and_then(Json::as_arr)
        .expect("dump carries events");
    assert_eq!(events.len() as u64, metrics.flight.recorded());
    assert_eq!(metrics.flight.dropped(), 0);
}
