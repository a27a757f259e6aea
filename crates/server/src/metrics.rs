//! Service-level telemetry: the one store of everything the compile
//! service counts, and every export rendered from it — the
//! `tossa-service-stats/1` JSON snapshot, the Prometheus text
//! exposition, and the `tossa-job-counters/1` line.
//!
//! [`ServiceMetrics`] keeps the 13 [`JobCounter`] totals and 17
//! instruments, all lock-free atomics on every write path. Both sets
//! are **closed**: the names are pinned by the golden tests in
//! `tests/service_stats.rs`, so a rename is a deliberate schema change,
//! exactly like the pipeline counters. The compile pipeline itself is
//! untouched: all recording happens in the service layer (admission,
//! worker loop, attempt boundary), so trajectory cells stay
//! byte-identical whether or not a service is running.
//!
//! Instrument map:
//!
//! | name | kind | written from |
//! |------|------|--------------|
//! | `service_queue_depth` | gauge | `submit` raises it on acceptance, the worker lowers it after `pop` |
//! | `service_workers_busy` | gauge | worker loop |
//! | `service_queue_wait_ns` | histogram | backpressure wait of the push in `submit` (one record per push, shed or accepted) |
//! | `service_queue_latency_ns` | histogram | admission → dequeue |
//! | `service_job_latency_ns{rung=…}` | histogram | admission → terminal report, keyed by final ladder rung |
//! | `service_attempt_latency_ns{result=…}` | histogram | each attempt's wall clock, keyed by how it ended |
//! | `service_stage_latency_ns{stage=…}` | histogram | compile (the contained pipeline run) and verify (output seal) |
//! | `service_fuel_used` | histogram | interpreter steps per completed attempt |
//! | `service_alloc_events` | histogram | metered heap events per attempt |
//! | `service_alloc_bytes` | histogram | metered heap bytes per attempt |
//! | `service_report_io_errors` | counter | responder write failures (file or socket) |

use crate::flight::FlightRecorder;
use crate::ladder::Rung;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tossa_trace::metrics::{Gauge, Histogram, MetricCounter};

/// Every structured job-outcome counter the compile service records.
///
/// The pipeline's `tossa_trace::Counter`s are *translation* facts,
/// compared cell by cell against the checked-in trajectory, so that set
/// is closed: a new field would read as deterministic drift to
/// `bench-diff`. Job outcomes depend on scheduling, chaos injection and
/// load, and aggregate across the worker threads of one process, so
/// they are their own closed set with their own export schema,
/// `tossa-job-counters/1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum JobCounter {
    /// Jobs accepted into the queue.
    JobsSubmitted,
    /// Jobs that completed on the checked pipeline (rung 0).
    JobsCompletedChecked,
    /// Jobs that completed on the naive fallback (rung 1).
    JobsCompletedFallback,
    /// Jobs that ended as a structured reject (rung 2).
    JobsRejected,
    /// Jobs shed at admission because the bounded queue stayed full.
    JobsShed,
    /// Retry attempts spent on transiently-failed jobs.
    JobsRetried,
    /// Jobs quarantined as poison after exhausting their attempts.
    JobsQuarantined,
    /// Worker panics contained by `catch_unwind` (never escaped).
    PanicsContained,
    /// Attempts whose wall clock reached the deadline.
    DeadlinesBlown,
    /// Jobs that exhausted their interpreter fuel budget.
    FuelExhausted,
    /// Jobs that exceeded their heap-allocation budget.
    AllocBudgetExceeded,
    /// Input frames rejected as malformed before reaching a worker.
    FramesMalformed,
    /// Service-level chaos faults injected.
    ServiceFaultsInjected,
}

impl JobCounter {
    /// Number of job counters.
    pub const COUNT: usize = 13;

    /// Every job counter, in declaration (= export) order.
    pub const ALL: [JobCounter; JobCounter::COUNT] = [
        JobCounter::JobsSubmitted,
        JobCounter::JobsCompletedChecked,
        JobCounter::JobsCompletedFallback,
        JobCounter::JobsRejected,
        JobCounter::JobsShed,
        JobCounter::JobsRetried,
        JobCounter::JobsQuarantined,
        JobCounter::PanicsContained,
        JobCounter::DeadlinesBlown,
        JobCounter::FuelExhausted,
        JobCounter::AllocBudgetExceeded,
        JobCounter::FramesMalformed,
        JobCounter::ServiceFaultsInjected,
    ];

    /// Stable snake_case key used in JSON exports and tables.
    pub fn name(self) -> &'static str {
        match self {
            JobCounter::JobsSubmitted => "jobs_submitted",
            JobCounter::JobsCompletedChecked => "jobs_completed_checked",
            JobCounter::JobsCompletedFallback => "jobs_completed_fallback",
            JobCounter::JobsRejected => "jobs_rejected",
            JobCounter::JobsShed => "jobs_shed",
            JobCounter::JobsRetried => "jobs_retried",
            JobCounter::JobsQuarantined => "jobs_quarantined",
            JobCounter::PanicsContained => "panics_contained",
            JobCounter::DeadlinesBlown => "deadlines_blown",
            JobCounter::FuelExhausted => "fuel_exhausted",
            JobCounter::AllocBudgetExceeded => "alloc_budget_exceeded",
            JobCounter::FramesMalformed => "frames_malformed",
            JobCounter::ServiceFaultsInjected => "service_faults_injected",
        }
    }
}

/// The job counters frozen at one instant
/// ([`ServiceMetrics::job_counters`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobCounterSet {
    vals: [u64; JobCounter::COUNT],
}

impl JobCounterSet {
    /// Reads one counter.
    pub fn get(&self, c: JobCounter) -> u64 {
        self.vals[c as usize]
    }

    /// `"name": total` for every counter, in export order.
    fn fields(&self) -> String {
        let fields: Vec<String> = JobCounter::ALL
            .iter()
            .map(|&c| format!("\"{}\": {}", c.name(), self.get(c)))
            .collect();
        fields.join(", ")
    }

    /// Renders the set as a one-line `tossa-job-counters/1` JSON object
    /// with every counter present (stable key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\": \"tossa-job-counters/1\", {}}}",
            self.fields()
        )
    }
}

/// How an attempt ended: the key of `service_attempt_latency_ns`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptResult {
    /// The attempt produced a `CheckedOutcome` within budget.
    Ok,
    /// The attempt unwound and was contained.
    Panic,
    /// The attempt blew its wall-clock deadline.
    Deadline,
    /// The attempt exceeded its allocation budget.
    AllocBudget,
}

/// The key of `service_stage_latency_ns`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// The contained pipeline run (`run_checked` inside
    /// `catch_unwind`).
    Compile,
    /// The service's output-side differential seal.
    Verify,
}

/// One exported instrument, borrowed from the store.
enum Instrument<'a> {
    Counter(&'a MetricCounter),
    Gauge(&'a Gauge),
    Histogram(&'a Histogram),
}

/// Everything the service counts, plus its flight recorder. One
/// instance per [`crate::service::CompileService`], shared by the
/// service, its workers and its monitors through one `Arc`.
pub struct ServiceMetrics {
    started: Instant,
    jobs: [AtomicU64; JobCounter::COUNT],
    /// `service_queue_depth`.
    pub queue_depth: Gauge,
    /// `service_workers_busy`.
    pub workers_busy: Gauge,
    /// `service_queue_wait_ns` — backpressure wait per push.
    pub queue_wait_ns: Histogram,
    /// `service_queue_latency_ns` — admission to dequeue.
    pub queue_latency_ns: Histogram,
    /// `service_job_latency_ns{rung=…}`, in [`Rung`] order.
    job_latency_ns: [Histogram; 3],
    /// `service_attempt_latency_ns{result=…}`, in [`AttemptResult`]
    /// order.
    attempt_latency_ns: [Histogram; 4],
    /// `service_stage_latency_ns{stage=…}`, in [`Stage`] order.
    stage_latency_ns: [Histogram; 2],
    /// `service_fuel_used` — interpreter steps per completed attempt.
    pub fuel_used: Histogram,
    /// `service_alloc_events` — heap events per attempt.
    pub alloc_events: Histogram,
    /// `service_alloc_bytes` — heap bytes per attempt.
    pub alloc_bytes: Histogram,
    /// `service_report_io_errors` — responder write failures.
    pub report_io_errors: MetricCounter,
    /// The lifecycle-event ring.
    pub flight: FlightRecorder,
}

impl Default for ServiceMetrics {
    fn default() -> ServiceMetrics {
        ServiceMetrics::new()
    }
}

impl ServiceMetrics {
    /// All-zero counters and empty instruments.
    pub fn new() -> ServiceMetrics {
        ServiceMetrics {
            started: Instant::now(),
            jobs: Default::default(),
            queue_depth: Gauge::new(),
            workers_busy: Gauge::new(),
            queue_wait_ns: Histogram::new(),
            queue_latency_ns: Histogram::new(),
            job_latency_ns: Default::default(),
            attempt_latency_ns: Default::default(),
            stage_latency_ns: Default::default(),
            fuel_used: Histogram::new(),
            alloc_events: Histogram::new(),
            alloc_bytes: Histogram::new(),
            report_io_errors: MetricCounter::new(),
            flight: FlightRecorder::default(),
        }
    }

    /// Adds one to a job counter.
    pub fn count(&self, c: JobCounter) {
        self.jobs[c as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// The job counters at this instant.
    pub fn job_counters(&self) -> JobCounterSet {
        JobCounterSet {
            vals: self.jobs.each_ref().map(|v| v.load(Ordering::Relaxed)),
        }
    }

    /// The job-latency histogram for a final rung.
    pub fn job_latency(&self, rung: Rung) -> &Histogram {
        &self.job_latency_ns[rung as usize]
    }

    /// The attempt-latency histogram for how an attempt ended.
    pub fn attempt_latency(&self, result: AttemptResult) -> &Histogram {
        &self.attempt_latency_ns[result as usize]
    }

    /// The per-stage latency histogram.
    pub fn stage_latency(&self, stage: Stage) -> &Histogram {
        &self.stage_latency_ns[stage as usize]
    }

    /// The 17 instruments as `(family, label, instrument)`, listed once
    /// in export order: sorted by full name, `family` or
    /// `family{label}`. Both the stats `metrics` object and the
    /// Prometheus text render from this list.
    #[rustfmt::skip]
    fn instruments(&self) -> [(&'static str, &'static str, Instrument<'_>); 17] {
        use Instrument::{Counter as C, Gauge as G, Histogram as H};
        let [checked, fallback, reject] = &self.job_latency_ns;
        let [ok, panic, deadline, alloc_budget] = &self.attempt_latency_ns;
        let [compile, verify] = &self.stage_latency_ns;
        [
            ("service_alloc_bytes", "", H(&self.alloc_bytes)),
            ("service_alloc_events", "", H(&self.alloc_events)),
            ("service_attempt_latency_ns", "result=\"alloc_budget\"", H(alloc_budget)),
            ("service_attempt_latency_ns", "result=\"deadline\"", H(deadline)),
            ("service_attempt_latency_ns", "result=\"ok\"", H(ok)),
            ("service_attempt_latency_ns", "result=\"panic\"", H(panic)),
            ("service_fuel_used", "", H(&self.fuel_used)),
            ("service_job_latency_ns", "rung=\"checked\"", H(checked)),
            ("service_job_latency_ns", "rung=\"naive_fallback\"", H(fallback)),
            ("service_job_latency_ns", "rung=\"reject\"", H(reject)),
            ("service_queue_depth", "", G(&self.queue_depth)),
            ("service_queue_latency_ns", "", H(&self.queue_latency_ns)),
            ("service_queue_wait_ns", "", H(&self.queue_wait_ns)),
            ("service_report_io_errors", "", C(&self.report_io_errors)),
            ("service_stage_latency_ns", "stage=\"compile\"", H(compile)),
            ("service_stage_latency_ns", "stage=\"verify\"", H(verify)),
            ("service_workers_busy", "", G(&self.workers_busy)),
        ]
    }

    /// Renders the live telemetry as one `tossa-service-stats/1` JSON
    /// line: uptime, the job counters, every instrument grouped by kind
    /// and keyed by full name, and the flight-recorder occupancy.
    pub fn stats_json(&self) -> String {
        let (mut counters, mut gauges, mut histograms) =
            (String::new(), String::new(), String::new());
        for (family, label, inst) in self.instruments() {
            let (buf, value) = match inst {
                Instrument::Counter(c) => (&mut counters, c.get().to_string()),
                Instrument::Gauge(g) => (&mut gauges, g.get().to_string()),
                Instrument::Histogram(h) => (&mut histograms, h.snapshot().to_json()),
            };
            if !buf.is_empty() {
                buf.push_str(", ");
            }
            let key = if label.is_empty() {
                family.to_string()
            } else {
                format!("{family}{{{label}}}")
            };
            let _ = write!(buf, "\"{}\": {value}", tossa_trace::escape_json(&key));
        }
        format!(
            "{{\"schema\": \"tossa-service-stats/1\", \"uptime_ns\": {}, \"jobs\": {{{}}}, \
             \"metrics\": {{\"counters\": {{{counters}}}, \"gauges\": {{{gauges}}}, \
             \"histograms\": {{{histograms}}}}}, \
             \"flight\": {{\"capacity\": {}, \"recorded\": {}, \"dropped\": {}}}}}",
            self.started.elapsed().as_nanos() as u64,
            self.job_counters().fields(),
            self.flight.capacity(),
            self.flight.recorded(),
            self.flight.dropped()
        )
    }

    /// Renders the live telemetry in the Prometheus text exposition
    /// format under the `tossa_` namespace: one counter per
    /// [`JobCounter`], then every instrument. Histograms emit
    /// cumulative `_bucket{le=…}` lines over their non-empty buckets
    /// plus `le="+Inf"`, `_sum` and `_count`.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let jobs = self.job_counters();
        for c in JobCounter::ALL {
            let _ = writeln!(out, "# TYPE tossa_{} counter", c.name());
            let _ = writeln!(out, "tossa_{} {}", c.name(), jobs.get(c));
        }
        let mut last_family = "";
        for (family, label, inst) in self.instruments() {
            if family != last_family {
                let kind = match inst {
                    Instrument::Counter(_) => "counter",
                    Instrument::Gauge(_) => "gauge",
                    Instrument::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE tossa_{family} {kind}");
                last_family = family;
            }
            // `{label}` on a plain line; `{label,le=…}` on a bucket line.
            let (labels, le_prefix) = if label.is_empty() {
                (String::new(), String::new())
            } else {
                (format!("{{{label}}}"), format!("{label},"))
            };
            let name = format!("tossa_{family}");
            match inst {
                Instrument::Counter(c) => {
                    let _ = writeln!(out, "{name}{labels} {}", c.get());
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(out, "{name}{labels} {}", g.get());
                }
                Instrument::Histogram(h) => {
                    let s = h.snapshot();
                    let mut cumulative = 0u64;
                    for (le, c) in s.nonzero_buckets() {
                        cumulative += c;
                        let _ =
                            writeln!(out, "{name}_bucket{{{le_prefix}le=\"{le}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{{le_prefix}le=\"+Inf\"}} {}", s.count);
                    let _ = writeln!(out, "{name}_sum{labels} {}", s.sum);
                    let _ = writeln!(out, "{name}_count{labels} {}", s.count);
                }
            }
        }
        out
    }
}
