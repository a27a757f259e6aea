//! Job-outcome counters for the long-running compile service.
//!
//! The pipeline counters in [`crate::Counter`] are *translation* facts:
//! they are deterministic for a given input and compared cell by cell
//! against the checked-in `BENCH_pr10.json` trajectory, so the set is
//! closed — adding a field would read as deterministic drift to
//! `bench-diff`. Service outcomes (how many jobs completed, degraded,
//! were shed, hit a budget) are a different dimension: they depend on
//! scheduling, chaos injection, and load, and they aggregate across
//! worker threads of one process rather than inside one single-threaded
//! capture. They therefore live in their own closed enum with their own
//! export schema, `tossa-job-counters/1`.
//!
//! Two containers:
//!
//! * [`JobCounterSet`] — a plain dense bag, for reports and JSON;
//! * [`SharedJobCounters`] — the same shape over `AtomicU64`, safe to
//!   bump from every worker thread without a lock; [`snapshot`] freezes
//!   it into a [`JobCounterSet`].
//!
//! [`snapshot`]: SharedJobCounters::snapshot

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Every structured job-outcome counter the compile service records.
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
    /// Jobs whose wall-clock deadline blew (watchdog-observed).
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
    /// Number of job counters (the [`JobCounterSet`] array length).
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

/// A dense fixed-size bag of job-counter totals.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct JobCounterSet {
    vals: [u64; JobCounter::COUNT],
}

impl std::fmt::Debug for JobCounterSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut m = f.debug_map();
        for c in JobCounter::ALL {
            if self.get(c) != 0 {
                m.entry(&c.name(), &self.get(c));
            }
        }
        m.finish()
    }
}

impl JobCounterSet {
    /// An all-zero set.
    pub fn new() -> JobCounterSet {
        JobCounterSet::default()
    }

    /// Reads one counter.
    pub fn get(&self, c: JobCounter) -> u64 {
        self.vals[c as usize]
    }

    /// Adds `n` to one counter.
    pub fn add(&mut self, c: JobCounter, n: u64) {
        self.vals[c as usize] += n;
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &JobCounterSet) {
        for i in 0..JobCounter::COUNT {
            self.vals[i] += other.vals[i];
        }
    }

    /// Jobs that produced usable output (either rung).
    pub fn completed(&self) -> u64 {
        self.get(JobCounter::JobsCompletedChecked) + self.get(JobCounter::JobsCompletedFallback)
    }

    /// Renders the set as a one-line `tossa-job-counters/1` JSON object
    /// with every counter present (stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\": \"tossa-job-counters/1\"");
        for c in JobCounter::ALL {
            let _ = write!(out, ", \"{}\": {}", c.name(), self.get(c));
        }
        out.push('}');
        out
    }
}

/// [`JobCounterSet`] over atomics: every worker thread of the service
/// bumps the shared instance lock-free; reporting threads snapshot it.
#[derive(Debug, Default)]
pub struct SharedJobCounters {
    vals: [AtomicU64; JobCounter::COUNT],
}

impl SharedJobCounters {
    /// A fresh all-zero shared set.
    pub fn new() -> SharedJobCounters {
        SharedJobCounters::default()
    }

    /// Adds `n` to one counter (relaxed; totals are read via
    /// [`SharedJobCounters::snapshot`] after the workers quiesce or as a
    /// monotone progress indicator).
    pub fn add(&self, c: JobCounter, n: u64) {
        self.vals[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Reads one counter.
    pub fn get(&self, c: JobCounter) -> u64 {
        self.vals[c as usize].load(Ordering::Relaxed)
    }

    /// Freezes the current totals into a plain set.
    pub fn snapshot(&self) -> JobCounterSet {
        let mut out = JobCounterSet::new();
        for c in JobCounter::ALL {
            out.add(c, self.get(c));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_counter_once() {
        let mut names: Vec<&str> = JobCounter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), JobCounter::COUNT);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), JobCounter::COUNT, "duplicate counter name");
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let mut set = JobCounterSet::new();
        set.add(JobCounter::JobsSubmitted, 10);
        set.add(JobCounter::JobsShed, 2);
        let json = set.to_json();
        crate::validate_json(&json).expect("well-formed");
        assert!(json.contains("\"schema\": \"tossa-job-counters/1\""));
        for c in JobCounter::ALL {
            assert!(json.contains(c.name()), "{} missing", c.name());
        }
        assert!(json.contains("\"jobs_submitted\": 10"));
        assert!(json.contains("\"jobs_shed\": 2"));
    }

    #[test]
    fn shared_counters_accumulate_across_threads() {
        let shared = SharedJobCounters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        shared.add(JobCounter::JobsSubmitted, 1);
                    }
                    shared.add(JobCounter::PanicsContained, 1);
                });
            }
        });
        let snap = shared.snapshot();
        assert_eq!(snap.get(JobCounter::JobsSubmitted), 400);
        assert_eq!(snap.get(JobCounter::PanicsContained), 4);
        assert_eq!(snap.completed(), 0);
    }

    #[test]
    fn merge_is_array_addition() {
        let mut a = JobCounterSet::new();
        a.add(JobCounter::JobsRetried, 3);
        let mut b = JobCounterSet::new();
        b.add(JobCounter::JobsRetried, 4);
        b.add(JobCounter::JobsQuarantined, 1);
        a.merge(&b);
        assert_eq!(a.get(JobCounter::JobsRetried), 7);
        assert_eq!(a.get(JobCounter::JobsQuarantined), 1);
    }
}
