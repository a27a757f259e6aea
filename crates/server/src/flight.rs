//! The flight recorder: a bounded ring of recent job lifecycle events.
//!
//! Metrics ([`crate::metrics`]) aggregate; the flight recorder keeps
//! the *sequence*. Every job writes a short event trail as it moves
//! through the service — `submit` → `dequeue` → `attempt` (one per
//! attempt, with the drawn fault class) → `retry`/`quarantine` →
//! `outcome` — timestamped against the recorder's epoch and carrying
//! the same stable class keys the reports use. The ring holds the last
//! [`FlightRecorder::capacity`] events; older ones are dropped (and
//! counted) rather than growing memory on a long-running server.
//!
//! Two dump paths, both `tossa-flight-recorder/1` JSON:
//!
//! * **quarantine** — the service dumps the poisoned job's own slice
//!   to stderr the moment it quarantines, so the post-mortem trail is
//!   in the log before anyone asks;
//! * **soak-gate failure / `--flight-path`** — the `serve` binary
//!   dumps the whole ring to a file for the CI artifact.
//!
//! Recording takes a mutex (the ring is not a hot path — a few events
//! per job, against thousands of allocator-level metric increments),
//! locked through the crate's poison-absorbing helper as in
//! [`crate::queue`].

use crate::lock_ignoring_poison;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tossa_trace::escape_json;

/// Default ring capacity (events, not jobs).
pub const FLIGHT_CAPACITY: usize = 4096;

/// The closed set of lifecycle stages a [`FlightEvent`] can record.
pub const FLIGHT_STAGES: [&str; 8] = [
    "submit",
    "shed",
    "frame_rejected",
    "dequeue",
    "attempt",
    "retry",
    "quarantine",
    "outcome",
];

/// One recorded lifecycle event.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Nanoseconds since the recorder's epoch (service start).
    pub at_ns: u64,
    /// Job id.
    pub job: u64,
    /// Attempt number in flight (0 = outside any attempt).
    pub attempt: u32,
    /// Lifecycle stage, from [`FLIGHT_STAGES`].
    pub stage: &'static str,
    /// Stage detail: a class key, rung name, or outcome key.
    pub detail: String,
}

impl FlightEvent {
    /// Renders the event as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"at_ns\": {}, \"job\": {}, \"attempt\": {}, \"stage\": \"{}\", \"detail\": \"{}\"}}",
            self.at_ns,
            self.job,
            self.attempt,
            self.stage,
            escape_json(&self.detail)
        )
    }
}

/// A bounded ring buffer of [`FlightEvent`]s shared by every service
/// thread.
pub struct FlightRecorder {
    epoch: Instant,
    cap: usize,
    ring: Mutex<VecDeque<FlightEvent>>,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A fresh recorder holding at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            epoch: Instant::now(),
            cap: cap.max(1),
            ring: Mutex::new(VecDeque::new()),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends one event, evicting the oldest when full.
    pub fn record(&self, job: u64, attempt: u32, stage: &'static str, detail: impl Into<String>) {
        let ev = FlightEvent {
            at_ns: self.epoch.elapsed().as_nanos() as u64,
            job,
            attempt,
            stage,
            detail: detail.into(),
        };
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = lock_ignoring_poison(&self.ring);
        if ring.len() >= self.cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(ev);
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events recorded over the recorder's lifetime.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently held, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        lock_ignoring_poison(&self.ring).iter().cloned().collect()
    }

    /// The still-buffered slice of one job's trail, oldest first.
    pub fn for_job(&self, job: u64) -> Vec<FlightEvent> {
        lock_ignoring_poison(&self.ring)
            .iter()
            .filter(|e| e.job == job)
            .cloned()
            .collect()
    }

    /// Renders `events` as a one-line `tossa-flight-recorder/1` dump.
    pub fn dump_json(&self, events: &[FlightEvent]) -> String {
        let mut out = String::from("{\"schema\": \"tossa-flight-recorder/1\"");
        let _ = write!(
            out,
            ", \"capacity\": {}, \"recorded\": {}, \"dropped\": {}, \"events\": [",
            self.cap,
            self.recorded(),
            self.dropped()
        );
        for (k, e) in events.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str(&e.to_json());
        }
        out.push_str("]}");
        out
    }

    /// The whole ring as a `tossa-flight-recorder/1` dump.
    pub fn to_json(&self) -> String {
        self.dump_json(&self.snapshot())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let fr = FlightRecorder::new(3);
        for k in 1..=5u64 {
            fr.record(k, 0, "submit", "f");
        }
        let events = fr.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events.iter().map(|e| e.job).collect::<Vec<_>>(), [3, 4, 5]);
        assert_eq!(fr.recorded(), 5);
        assert_eq!(fr.dropped(), 2);
    }

    #[test]
    fn job_slice_and_dump_are_well_formed() {
        let fr = FlightRecorder::new(16);
        fr.record(1, 0, "submit", "f");
        fr.record(2, 0, "submit", "g");
        fr.record(1, 1, "attempt", "clean");
        fr.record(1, 1, "outcome", "completed/checked");
        let slice = fr.for_job(1);
        assert_eq!(slice.len(), 3);
        assert!(slice.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        let dump = fr.dump_json(&slice);
        tossa_trace::validate_json(&dump).expect("flight dump is well-formed JSON");
        assert!(dump.contains("\"schema\": \"tossa-flight-recorder/1\""));
        assert!(dump.contains("\"stage\": \"outcome\""));
        for e in &slice {
            assert!(FLIGHT_STAGES.contains(&e.stage));
        }
    }
}
