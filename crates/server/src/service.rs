//! The compile service proper: worker pool, panic containment, retry
//! with backoff, poison quarantine, and report emission.
//!
//! # Containment boundary
//!
//! Each job attempt runs inside `catch_unwind`. The closure captures
//! only references the attempt owns (`&BenchFunction`, options by
//! value) — none of it is observable after an unwind, which is what
//! makes the `AssertUnwindSafe` sound: a torn `CheckedOutcome` is
//! simply dropped and the attempt is retried from the immutable
//! request. Trace state is safe across the boundary too: the attempt's
//! `capture_counters` installs its collector behind the PR5 drop
//! guards, so an unwinding attempt restores the thread's trace state on
//! the way out (the soak asserts no collector leaks).
//!
//! # Failure classes
//!
//! * **Deterministic** failures (verification, coalescing, allocation —
//!   anything with a `TossaError` class except `panic`) descend the
//!   degradation ladder *within* the attempt: `run_checked` already
//!   produced the verified naive fallback, and the report records the
//!   transition cause. Retrying them would redraw the same result.
//! * **Transient** failures (a contained panic, a blown wall-clock
//!   deadline, a busted allocation budget) discard the attempt and
//!   retry with exponential backoff; after
//!   [`ServiceConfig::max_attempts`] the job is **quarantined** as
//!   poison. Quarantine is the retry axis, orthogonal to the ladder —
//!   a quarantined report carries an empty ladder record and no code.

use crate::budget::{AllocMeter, Budget};
use crate::chaos::{site_seed, ChaosConfig, Fault, ServiceFault};
use crate::ladder::{Ladder, Rung};
use crate::metrics::{AttemptResult, JobCounter, JobCounterSet, ServiceMetrics, Stage};
use crate::proto::{job_from_json, parse_frame, FrameError, JobRequest};
use crate::queue::{BoundedQueue, PushOutcome};
use crate::report::{JobOutcome, JobReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tossa_bench::checked::{panic_message, run_checked, CheckedOptions};
use tossa_bench::runner;
use tossa_bench::suites::BenchFunction;
use tossa_core::coalesce::CoalesceOptions;
use tossa_core::error::{TossaError, VerifyError};
use tossa_core::Experiment;
use tossa_ir::interp::Trap;
use tossa_trace::json::Json;
use tossa_trace::Counter;

/// Service tuning.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads (0 = available parallelism).
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_cap: usize,
    /// How long admission waits for queue space before shedding.
    pub admission_grace: Duration,
    /// Per-attempt resource budgets.
    pub budget: Budget,
    /// Attempts before a transiently-failing job is quarantined.
    pub max_attempts: u32,
    /// Base of the exponential retry backoff.
    pub backoff_base: Duration,
    /// Chaos schedule (`None` = faults off).
    pub chaos: Option<ChaosConfig>,
    /// Experiment for frames that name none.
    pub default_experiment: Experiment,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 0,
            queue_cap: 64,
            admission_grace: Duration::from_millis(50),
            budget: Budget::default(),
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            chaos: None,
            default_experiment: Experiment::LphiAbiC,
        }
    }
}

/// One admitted unit of work.
pub struct Job {
    /// The parsed request.
    pub req: JobRequest,
    /// Seed that generated the function (soak mode), for replay.
    pub generator_seed: Option<u64>,
}

/// An accepted job plus its admission timestamp (the epoch the queue-
/// and job-latency histograms measure from). Internal: the queue holds
/// these so `Job` itself stays a plain constructible value.
struct Admitted {
    job: Job,
    submitted_at: Instant,
}

/// The running service. Create with [`CompileService::start`], feed with
/// [`CompileService::submit`] / [`CompileService::submit_frame`], stop
/// with [`CompileService::shutdown`]. Reports stream out of the
/// receiver `start` returned, in completion order.
pub struct CompileService {
    config: ServiceConfig,
    metrics: Arc<ServiceMetrics>,
    queue: Arc<BoundedQueue<Admitted>>,
    reports: mpsc::Sender<JobReport>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl CompileService {
    /// Starts the worker pool. The returned receiver yields one
    /// [`JobReport`] per job (including shed and frame-rejected ones)
    /// and disconnects after [`CompileService::shutdown`].
    pub fn start(config: ServiceConfig) -> (CompileService, mpsc::Receiver<JobReport>) {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            config.workers
        };
        let metrics = Arc::new(ServiceMetrics::new());
        let queue = Arc::new(BoundedQueue::<Admitted>::new(config.queue_cap));
        let (tx, rx) = mpsc::channel();
        let handles: Vec<_> = (0..workers)
            .map(|k| {
                let m = Arc::clone(&metrics);
                let queue = Arc::clone(&queue);
                let tx = tx.clone();
                std::thread::Builder::new()
                    .name(format!("tossa-worker-{k}"))
                    .spawn(move || {
                        while let Some(adm) = queue.pop() {
                            m.queue_depth.add(-1);
                            m.queue_latency_ns
                                .record(adm.submitted_at.elapsed().as_nanos() as u64);
                            m.flight.record(
                                adm.job.req.id,
                                0,
                                "dequeue",
                                adm.job.req.func.name.clone(),
                            );
                            m.workers_busy.add(1);
                            let report = process_job(&config, &m, &adm.job);
                            m.workers_busy.add(-1);
                            m.job_latency(report.rung)
                                .record(adm.submitted_at.elapsed().as_nanos() as u64);
                            m.flight.record(
                                report.id,
                                report.attempts,
                                "outcome",
                                format!("{}/{}", report.outcome.name(), report.rung.name()),
                            );
                            if tx.send(report).is_err() {
                                break;
                            }
                        }
                    })
            })
            .filter_map(Result::ok)
            .collect();
        (
            CompileService {
                config,
                metrics,
                queue,
                reports: tx,
                workers: handles,
                next_id: AtomicU64::new(1),
            },
            rx,
        )
    }

    /// The service's telemetry: every counter and instrument, plus the
    /// flight recorder. The handle outlives
    /// [`CompileService::shutdown`], so final percentiles and flight
    /// dumps stay readable after the workers join.
    pub fn metrics(&self) -> Arc<ServiceMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Submits an already-parsed job. A full queue applies backpressure
    /// for the admission grace, then sheds with a structured report.
    /// Every push records its wait, shed or accepted, so the wait
    /// histogram counts submitted + shed.
    pub fn submit(&self, job: Job) -> PushOutcome {
        let m = &self.metrics;
        m.flight
            .record(job.req.id, 0, "submit", job.req.func.name.clone());
        let shed_report = sketch_report(&job, &self.config);
        let submitted_at = Instant::now();
        let adm = Admitted { job, submitted_at };
        let outcome = self.queue.push(adm, self.config.admission_grace);
        m.queue_wait_ns
            .record(submitted_at.elapsed().as_nanos() as u64);
        match outcome {
            PushOutcome::Accepted => {
                m.queue_depth.add(1);
                m.count(JobCounter::JobsSubmitted);
            }
            PushOutcome::Shed => {
                m.count(JobCounter::JobsShed);
                m.flight
                    .record(shed_report.id, 0, "shed", "service.queue_full");
                let _ = self.reports.send(shed_report);
            }
        }
        outcome
    }

    /// Turns one job frame line, whose JSON [`parse_line`] has parsed
    /// into `doc`, into an admissible request, applying frame-level
    /// chaos and counting the refusal, but emitting **no** report:
    /// callers that route responses per-connection (the TCP front end)
    /// build the reject with [`CompileService::frame_rejection`] and
    /// deliver it themselves. The error carries the admission id
    /// assigned to the line. Only a line the `MalformedFrame` fault
    /// corrupts is parsed again, from its corrupted text.
    ///
    /// [`parse_line`]: crate::proto::parse_line
    pub fn admit_frame(
        &self,
        line: &str,
        doc: Result<Json, FrameError>,
    ) -> Result<JobRequest, (u64, FrameError)> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let admitted = match self.config.chaos.and_then(|c| c.draw(id, 0)) {
            Some(Fault::Service(ServiceFault::MalformedFrame)) => {
                self.metrics.count(JobCounter::ServiceFaultsInjected);
                parse_frame(&corrupt_frame(line), id)
            }
            _ => doc.and_then(|doc| job_from_json(&doc, id)),
        };
        admitted.map_err(|e| {
            self.metrics.count(JobCounter::FramesMalformed);
            self.metrics
                .flight
                .record(id, 0, "frame_rejected", e.class_key());
            (id, e)
        })
    }

    /// Builds the structured `FrameRejected` report for a refusal from
    /// [`CompileService::admit_frame`] (or a malformed control frame).
    pub fn frame_rejection(&self, id: u64, e: &FrameError) -> JobReport {
        frame_reject_report(id, e, &self.config)
    }

    /// Refuses a line that never reached frame parsing (an unknown
    /// control verb): assigns an id, counts it as malformed, and
    /// returns the report for the caller to deliver.
    pub fn refuse_frame(&self, e: &FrameError) -> JobReport {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.metrics.count(JobCounter::FramesMalformed);
        self.metrics
            .flight
            .record(id, 0, "frame_rejected", e.class_key());
        frame_reject_report(id, e, &self.config)
    }

    /// Injects a report into the service's response stream (used by
    /// front ends for refusals they synthesize themselves).
    pub fn emit_report(&self, report: JobReport) {
        let _ = self.reports.send(report);
    }

    /// Admits ([`CompileService::admit_frame`]) and submits one job
    /// frame line. Malformed frames (including chaos-corrupted ones) are
    /// refused with a `FrameRejected` report — admission never panics
    /// and never silently drops a line.
    pub fn submit_frame(
        &self,
        line: &str,
        doc: Result<Json, FrameError>,
    ) -> Result<u64, FrameError> {
        match self.admit_frame(line, doc) {
            Ok(req) => {
                let id = req.id;
                self.submit(Job {
                    req,
                    generator_seed: None,
                });
                Ok(id)
            }
            Err((id, e)) => {
                let _ = self.reports.send(frame_reject_report(id, &e, &self.config));
                Err(e)
            }
        }
    }

    /// Stops admission, drains the queue, joins the workers, and
    /// returns the final counter totals. The report receiver
    /// disconnects once the last in-flight report is delivered.
    pub fn shutdown(self) -> JobCounterSet {
        self.queue.close();
        for h in self.workers {
            let _ = h.join();
        }
        drop(self.reports);
        self.metrics.job_counters()
    }
}

/// Convenience driver for tests and the soak gate: starts a service,
/// submits every job, shuts down, and returns all reports (sorted by
/// job id) plus the counter totals.
pub fn run_batch(config: ServiceConfig, jobs: Vec<Job>) -> (Vec<JobReport>, JobCounterSet) {
    let (service, rx) = CompileService::start(config);
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
    (reports, counters)
}

/// Deterministically mangles a frame line (the `MalformedFrame` chaos
/// fault): truncating mid-JSON guarantees a parse failure.
fn corrupt_frame(line: &str) -> String {
    let keep = line.len() / 2;
    let mut out: String = line.chars().take(keep.max(1)).collect();
    out.push_str("<<chaos:malformed>>");
    out
}

/// A pre-admission report skeleton, completed as a shed record if the
/// queue refuses the job.
fn sketch_report(job: &Job, config: &ServiceConfig) -> JobReport {
    JobReport {
        id: job.req.id,
        function: job.req.func.name.clone(),
        experiment: format!(
            "{:?}",
            job.req.experiment.unwrap_or(config.default_experiment)
        ),
        outcome: JobOutcome::Shed,
        rung: Rung::Reject,
        ladder: Vec::new(),
        error_class: Some("service.queue_full".into()),
        error: Some("admission queue full past the backpressure grace".into()),
        attempts: 0,
        chaos_seed: config.chaos.map(|c| site_seed(c.seed, job.req.id)),
        chaos_class: None,
        inputs_seed: job.req.inputs_seed,
        generator_seed: job.generator_seed,
        wall_ns: 0,
        alloc_events: 0,
        alloc_bytes: 0,
        panics_contained: 0,
        deadline_blown: false,
        verified: false,
        moves: None,
        code: None,
        counters_json: None,
    }
}

fn frame_reject_report(id: u64, e: &FrameError, config: &ServiceConfig) -> JobReport {
    JobReport {
        id,
        function: String::new(),
        experiment: format!("{:?}", config.default_experiment),
        outcome: JobOutcome::FrameRejected,
        rung: Rung::Reject,
        ladder: Vec::new(),
        error_class: Some(e.class_key().into()),
        error: Some(e.to_string()),
        attempts: 0,
        chaos_seed: config.chaos.map(|c| site_seed(c.seed, id)),
        chaos_class: None,
        inputs_seed: None,
        generator_seed: None,
        wall_ns: 0,
        alloc_events: 0,
        alloc_bytes: 0,
        panics_contained: 0,
        deadline_blown: false,
        verified: false,
        moves: None,
        code: None,
        counters_json: None,
    }
}

/// Is this error the fuel budget tripping (as opposed to a genuine
/// divergence)?
fn is_fuel_exhaustion(e: &TossaError) -> bool {
    matches!(
        e,
        TossaError::Verify {
            error: VerifyError::Trap {
                trap: Trap::OutOfFuel,
                ..
            },
            ..
        }
    )
}

/// Why a transient attempt failed; decides retry vs quarantine cause.
enum Transient {
    Panic(String),
    Deadline,
    AllocBudget(u64),
}

impl Transient {
    fn class(&self) -> &'static str {
        match self {
            Transient::Panic(_) => "panic",
            Transient::Deadline => "budget.deadline",
            Transient::AllocBudget(_) => "budget.alloc_events",
        }
    }

    fn message(&self) -> String {
        match self {
            Transient::Panic(m) => format!("contained worker panic: {m}"),
            Transient::Deadline => "attempt overran its wall-clock deadline".into(),
            Transient::AllocBudget(n) => {
                format!("attempt charged {n} allocation events, over budget")
            }
        }
    }
}

fn process_job(config: &ServiceConfig, m: &ServiceMetrics, job: &Job) -> JobReport {
    let exp = job.req.experiment.unwrap_or(config.default_experiment);
    let bf = BenchFunction {
        func: job.req.func.clone(),
        inputs: job.req.inputs.clone(),
    };
    let copts_base = CheckedOptions {
        fuel: config.budget.fuel,
        alloc: true,
        ..CheckedOptions::default()
    };
    let chaos_site_seed = config.chaos.map(|c| site_seed(c.seed, job.req.id));

    let mut panics_contained = 0u32;
    let mut attempt = 1u32;
    loop {
        let fault = config.chaos.and_then(|c| c.draw(job.req.id, attempt));
        if fault.is_some() {
            m.count(JobCounter::ServiceFaultsInjected);
        }
        m.flight.record(
            job.req.id,
            attempt,
            "attempt",
            fault.map_or_else(|| "clean".to_string(), |f| f.class()),
        );
        let mut copts = copts_base;
        match fault {
            Some(Fault::Pipeline(c)) => {
                copts.chaos = Some(c);
                copts.chaos_seed = chaos_site_seed.unwrap_or(0);
            }
            Some(Fault::Alloc(c)) => {
                copts.alloc_chaos = Some(c);
                copts.chaos_seed = chaos_site_seed.unwrap_or(0);
            }
            _ => {}
        }

        let meter = AllocMeter::arm();
        let started = Instant::now();
        // Containment boundary. AssertUnwindSafe is sound here: the
        // closure borrows only `bf`/`copts`/`fault`, and on unwind the
        // attempt's partial state is dropped unobserved — the retry
        // starts over from the immutable request. The trace collector
        // installed by capture_counters restores itself via its drop
        // guard even when the closure unwinds.
        let result = catch_unwind(AssertUnwindSafe(|| {
            match fault {
                Some(Fault::Service(ServiceFault::WorkerPanic)) => {
                    // The chaos fault IS a panic; the soak proves this
                    // line never takes down a worker.
                    #[allow(clippy::panic)]
                    {
                        panic!("chaos: injected worker panic");
                    }
                }
                Some(Fault::Service(ServiceFault::DeadlineBlowout)) => {
                    std::thread::sleep(config.budget.deadline + Duration::from_millis(20));
                }
                _ => {}
            }
            tossa_trace::capture_counters(|| {
                run_checked(&bf, exp, &CoalesceOptions::default(), &copts)
            })
        }));
        let elapsed = started.elapsed();
        let alloc_events = meter.events();
        let alloc_bytes = meter.bytes();
        drop(meter);
        let wall_ns = elapsed.as_nanos() as u64;
        // Attempts are never cancelled (see `budget`), so the verdict
        // is read off the attempt's own clock once it has returned.
        let deadline_blown = elapsed >= config.budget.deadline;

        // Classify transient failures (attempt discarded, retried).
        let transient = match &result {
            Err(payload) => {
                panics_contained += 1;
                m.count(JobCounter::PanicsContained);
                Some(Transient::Panic(panic_message(&**payload)))
            }
            Ok(_) if deadline_blown => {
                m.count(JobCounter::DeadlinesBlown);
                Some(Transient::Deadline)
            }
            Ok(_) => match config.budget.max_alloc_events {
                Some(cap) if alloc_events > cap => {
                    m.count(JobCounter::AllocBudgetExceeded);
                    Some(Transient::AllocBudget(alloc_events))
                }
                _ => None,
            },
        };

        // Every attempt — transient or not — lands in exactly one
        // result-keyed latency histogram (so e.g. the `panic` series
        // count equals the PanicsContained counter) plus the compile
        // stage and allocation-consumption histograms.
        let attempt_result = match &transient {
            Some(Transient::Panic(_)) => AttemptResult::Panic,
            Some(Transient::Deadline) => AttemptResult::Deadline,
            Some(Transient::AllocBudget(_)) => AttemptResult::AllocBudget,
            None => AttemptResult::Ok,
        };
        m.attempt_latency(attempt_result).record(wall_ns);
        m.stage_latency(Stage::Compile).record(wall_ns);
        m.alloc_events.record(alloc_events);
        m.alloc_bytes.record(alloc_bytes);

        if let Some(t) = transient {
            if attempt >= config.max_attempts {
                m.count(JobCounter::JobsQuarantined);
                m.flight
                    .record(job.req.id, attempt, "quarantine", t.class());
                // The poisoned job's own trail goes to the log the
                // moment it quarantines — the post-mortem is in stderr
                // before anyone asks for a dump.
                eprintln!(
                    "tossa-serve: quarantined job {}: {}",
                    job.req.id,
                    m.flight.dump_json(&m.flight.for_job(job.req.id))
                );
                return JobReport {
                    id: job.req.id,
                    function: bf.func.name.clone(),
                    experiment: format!("{exp:?}"),
                    outcome: JobOutcome::Quarantined,
                    rung: Rung::Reject,
                    ladder: Vec::new(),
                    error_class: Some(t.class().into()),
                    error: Some(t.message()),
                    attempts: attempt,
                    chaos_seed: chaos_site_seed,
                    chaos_class: fault.map(|f| f.class()),
                    inputs_seed: job.req.inputs_seed,
                    generator_seed: job.generator_seed,
                    wall_ns,
                    alloc_events,
                    alloc_bytes,
                    panics_contained,
                    deadline_blown,
                    verified: false,
                    moves: None,
                    code: None,
                    counters_json: None,
                };
            }
            m.count(JobCounter::JobsRetried);
            m.flight.record(job.req.id, attempt, "retry", t.class());
            std::thread::sleep(backoff(config.backoff_base, attempt));
            attempt += 1;
            continue;
        }

        // Non-transient: the attempt produced a CheckedOutcome; walk
        // the degradation ladder from it.
        let Ok((outcome, counter_set)) = result else {
            unreachable!("transient classification covers the Err arm")
        };
        m.fuel_used.record(counter_set.get(Counter::InterpSteps));
        let mut ladder = Ladder::new();
        let mut error_class = None;
        let mut error_text = None;
        if let Some(e) = &outcome.error {
            if is_fuel_exhaustion(e) {
                m.count(JobCounter::FuelExhausted);
            }
            ladder.descend(e.class_key());
            error_class = Some(e.class_key().to_string());
            error_text = Some(e.to_string());
            if let Some(fe) = &outcome.fallback_error {
                // The fallback failed too: off the bottom of the ladder.
                ladder.descend(fe.class_key());
                m.count(JobCounter::JobsRejected);
                return JobReport {
                    id: job.req.id,
                    function: bf.func.name.clone(),
                    experiment: format!("{exp:?}"),
                    outcome: JobOutcome::Rejected,
                    rung: Rung::Reject,
                    ladder: ladder.into_steps(),
                    error_class: Some(fe.class_key().to_string()),
                    error: Some(fe.to_string()),
                    attempts: attempt,
                    chaos_seed: chaos_site_seed,
                    chaos_class: fault.map(|f| f.class()),
                    inputs_seed: job.req.inputs_seed,
                    generator_seed: job.generator_seed,
                    wall_ns,
                    alloc_events,
                    alloc_bytes,
                    panics_contained,
                    deadline_blown,
                    verified: false,
                    moves: None,
                    code: None,
                    counters_json: Some(counter_set.to_json()),
                };
            }
        }
        let rung = ladder.current();
        match rung {
            Rung::Checked => m.count(JobCounter::JobsCompletedChecked),
            _ => m.count(JobCounter::JobsCompletedFallback),
        }
        // Independent post-hoc differential check of the code actually
        // being returned (the pipeline's own guards already verified
        // it; this is the service's output-side seal), under the same
        // fuel budget as the guards.
        let verify_started = Instant::now();
        let verified =
            runner::verify_with_fuel(&bf.func, &outcome.func, &bf.inputs, config.budget.fuel)
                .is_ok();
        m.stage_latency(Stage::Verify)
            .record(verify_started.elapsed().as_nanos() as u64);
        return JobReport {
            id: job.req.id,
            function: bf.func.name.clone(),
            experiment: format!("{exp:?}"),
            outcome: JobOutcome::Completed,
            rung,
            ladder: ladder.into_steps(),
            error_class,
            error: error_text,
            attempts: attempt,
            chaos_seed: chaos_site_seed,
            chaos_class: fault.map(|f| f.class()),
            inputs_seed: job.req.inputs_seed,
            generator_seed: job.generator_seed,
            wall_ns,
            alloc_events,
            alloc_bytes,
            panics_contained,
            deadline_blown,
            verified,
            moves: Some(outcome.moves as u64),
            code: Some(outcome.func.to_string()),
            counters_json: Some(counter_set.to_json()),
        };
    }
}

fn backoff(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(10))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::proto::default_inputs;
    use tossa_ir::machine::Machine;
    use tossa_ir::parse::parse_function;

    fn job(id: u64, text: &str) -> Job {
        let func = parse_function(text, &Machine::dsp32()).unwrap();
        let inputs = default_inputs(&func, id);
        Job {
            req: JobRequest {
                id,
                func,
                experiment: None,
                inputs,
                inputs_seed: Some(id),
            },
            generator_seed: None,
        }
    }

    const ADD: &str = "func @add {\nentry:\n  %a, %b = input\n  %c = add %a, %b\n  ret %c\n}";

    /// Counts up to its input: a few interpreter steps per iteration.
    const COUNT: &str = "func @count {\nentry:\n  %n = input\n  %i = make 0\n  jump head\n\
        head:\n  %c = cmplt %i, %n\n  br %c, body, exit\n\
        body:\n  %i = addi %i, 1\n  jump head\nexit:\n  ret %i\n}";

    /// The report of one `COUNT` job on input 75 under `fuel`.
    fn count_job_report(fuel: u64) -> JobReport {
        let mut j = job(1, COUNT);
        j.req.inputs = vec![vec![75]];
        let config = ServiceConfig {
            workers: 1,
            budget: Budget {
                fuel,
                ..Budget::default()
            },
            ..ServiceConfig::default()
        };
        let (mut reports, _) = run_batch(config, vec![j]);
        reports.pop().unwrap()
    }

    #[test]
    fn output_seal_runs_under_the_job_fuel() {
        // About 300 steps: past a 50-step budget, well inside 10 000.
        let starved = count_job_report(50);
        assert_eq!(starved.outcome, JobOutcome::Completed);
        assert!(!starved.verified, "the seal ran past the job's fuel");
        let fed = count_job_report(10_000);
        assert_eq!(fed.rung, Rung::Checked);
        assert!(fed.verified);
    }

    #[test]
    fn clean_job_completes_checked_with_code_and_counters() {
        let config = ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        };
        let (reports, counters) = run_batch(config, vec![job(1, ADD), job(2, ADD)]);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!(r.outcome, JobOutcome::Completed);
            assert_eq!(r.rung, Rung::Checked);
            assert!(r.ladder.is_empty());
            assert!(r.verified);
            assert!(r.error.is_none());
            let code = r.code.as_deref().unwrap();
            // The artifact round-trips through the parser.
            parse_function(code, &Machine::dsp32()).unwrap();
            let cj = r.counters_json.as_deref().unwrap();
            tossa_trace::validate_json(cj).unwrap();
        }
        assert_eq!(counters.get(JobCounter::JobsSubmitted), 2);
        assert_eq!(counters.get(JobCounter::JobsCompletedChecked), 2);
    }

    #[test]
    fn worker_panic_fault_is_contained_and_retried_to_success() {
        // Rate 100 with WorkerPanic-heavy draws: some attempts panic,
        // retries eventually land (attempt participates in the draw) or
        // the job quarantines — either way no unwind escapes run_batch.
        let config = ServiceConfig {
            workers: 2,
            chaos: Some(ChaosConfig {
                seed: 3,
                rate_pct: 60,
            }),
            ..ServiceConfig::default()
        };
        let jobs: Vec<Job> = (1..=20).map(|k| job(k, ADD)).collect();
        let (reports, counters) = run_batch(config, jobs);
        assert_eq!(reports.len(), 20);
        for r in &reports {
            assert!(
                crate::ladder::steps_are_contiguous(&r.ladder),
                "job {}: ladder skipped a rung",
                r.id
            );
            if r.outcome != JobOutcome::Completed {
                assert!(r.error_class.is_some(), "job {}: unclassified", r.id);
            }
        }
        // At the 60% rate over 20 jobs × attempts something must land.
        assert!(counters.get(JobCounter::ServiceFaultsInjected) > 0);
    }

    #[test]
    fn a_job_quarantined_by_worker_panics_reports_the_panic_text() {
        let chaos = ChaosConfig {
            seed: 3,
            rate_pct: 100,
        };
        let config = ServiceConfig {
            workers: 1,
            chaos: Some(chaos),
            ..ServiceConfig::default()
        };
        let panic = Some(Fault::Service(ServiceFault::WorkerPanic));
        let id = (1..100_000u64)
            .find(|&id| (1..=config.max_attempts).all(|a| chaos.draw(id, a) == panic))
            .expect("a job that draws a worker panic on every attempt");
        let (mut reports, _) = run_batch(config, vec![job(id, ADD)]);
        let r = reports.pop().unwrap();
        assert_eq!(r.outcome, JobOutcome::Quarantined);
        assert_eq!(
            r.error.as_deref(),
            Some("contained worker panic: chaos: injected worker panic")
        );
    }

    #[test]
    fn a_job_that_blows_its_deadline_on_every_attempt_is_quarantined() {
        let chaos = ChaosConfig {
            seed: 3,
            rate_pct: 100,
        };
        let config = ServiceConfig {
            workers: 1,
            chaos: Some(chaos),
            budget: Budget {
                deadline: Duration::from_millis(20),
                ..Budget::default()
            },
            ..ServiceConfig::default()
        };
        let blowout = Some(Fault::Service(ServiceFault::DeadlineBlowout));
        let id = (1..100_000u64)
            .find(|&id| (1..=config.max_attempts).all(|a| chaos.draw(id, a) == blowout))
            .expect("a job that draws a deadline blowout on every attempt");
        let (mut reports, counters) = run_batch(config, vec![job(id, ADD)]);
        let r = reports.pop().unwrap();
        assert_eq!(r.outcome, JobOutcome::Quarantined);
        assert_eq!(r.error_class.as_deref(), Some("budget.deadline"));
        assert!(r.deadline_blown);
        assert_eq!(
            counters.get(JobCounter::DeadlinesBlown),
            u64::from(config.max_attempts)
        );
    }

    #[test]
    fn queue_overflow_sheds_with_structured_reports() {
        // One worker, capacity-1 queue, zero grace: flooding must shed
        // some jobs, and every shed job must still produce a report.
        let config = ServiceConfig {
            workers: 1,
            queue_cap: 1,
            admission_grace: Duration::ZERO,
            ..ServiceConfig::default()
        };
        let n = 30u64;
        let (reports, counters) = run_batch(config, (1..=n).map(|k| job(k, ADD)).collect());
        assert_eq!(reports.len() as u64, n, "every job reports, shed or not");
        let shed = reports
            .iter()
            .filter(|r| r.outcome == JobOutcome::Shed)
            .count() as u64;
        assert_eq!(counters.get(JobCounter::JobsShed), shed);
        assert_eq!(
            counters.get(JobCounter::JobsSubmitted) + shed,
            n,
            "accepted + shed covers the flood"
        );
        for r in reports.iter().filter(|r| r.outcome == JobOutcome::Shed) {
            assert_eq!(r.error_class.as_deref(), Some("service.queue_full"));
        }
    }

    #[test]
    fn malformed_frames_are_refused_structurally() {
        let (service, rx) = CompileService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let submit = |line: &str| match crate::proto::parse_line(line) {
            crate::proto::Frame::Job(doc) => service.submit_frame(line, doc),
            crate::proto::Frame::Control(c) => panic!("{line} is a control frame: {c:?}"),
        };
        assert!(submit("this is not a frame").is_err());
        let escaped = tossa_trace::escape_json(ADD);
        submit(&format!("{{\"func\": \"{escaped}\"}}")).unwrap();
        let counters = service.shutdown();
        let reports: Vec<JobReport> = rx.iter().collect();
        assert_eq!(reports.len(), 2);
        assert_eq!(counters.get(JobCounter::FramesMalformed), 1);
        let rejected = reports
            .iter()
            .find(|r| r.outcome == JobOutcome::FrameRejected)
            .unwrap();
        assert_eq!(rejected.error_class.as_deref(), Some("frame.json"));
        assert!(reports
            .iter()
            .any(|r| r.outcome == JobOutcome::Completed && r.verified));
    }
}
