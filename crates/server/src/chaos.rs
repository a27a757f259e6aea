//! Service-level chaos: fault injection through the whole job loop.
//!
//! PR2/PR4 chaos corrupts the *pipeline* (IR and assignment
//! corruptions, each caught by a specific verifier). The service adds
//! the faults a pipeline cannot see because they happen around it:
//!
//! * [`ServiceFault::WorkerPanic`] — the worker panics mid-job (the
//!   containment boundary must absorb it);
//! * [`ServiceFault::DeadlineBlowout`] — the job overruns its
//!   wall-clock budget (the deadline verdict must catch it);
//! * [`ServiceFault::MalformedFrame`] — the client sends garbage (the
//!   protocol layer must refuse it structurally).
//!
//! Faults are drawn deterministically from `(seed, job id, attempt)`:
//! replaying a report's recorded seed reproduces the exact fault
//! schedule. Because the attempt number participates, a transient fault
//! can vanish on retry (the retry ladder gets exercised) while an
//! unlucky job can draw faults on every attempt and end up quarantined
//! (the poison path gets exercised) — both from one seed.

use tossa_core::chaos::{AllocCorruption, Corruption};
use tossa_ir::rng::SplitMix64;

/// A fault injected around the pipeline rather than into it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceFault {
    /// Panic inside the worker's contained region.
    WorkerPanic,
    /// Sleep past the job's wall-clock deadline.
    DeadlineBlowout,
    /// Corrupt the request frame before parsing.
    MalformedFrame,
}

impl ServiceFault {
    /// Stable snake_case key for reports.
    pub fn name(self) -> &'static str {
        match self {
            ServiceFault::WorkerPanic => "worker_panic",
            ServiceFault::DeadlineBlowout => "deadline_blowout",
            ServiceFault::MalformedFrame => "malformed_frame",
        }
    }
}

/// One drawn fault: either a service fault or a pass-through to the
/// core pipeline/allocation corruption classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Injected around the pipeline by the worker/admission layer.
    Service(ServiceFault),
    /// Injected into the pipeline via `CheckedOptions::chaos`.
    Pipeline(Corruption),
    /// Injected into the allocation stage via
    /// `CheckedOptions::alloc_chaos`.
    Alloc(AllocCorruption),
}

impl Fault {
    /// Stable class string recorded in reports (`service.worker_panic`,
    /// `pipeline.DropPhiArg`, `alloc.DropReload`, ...).
    pub fn class(&self) -> String {
        match self {
            Fault::Service(s) => format!("service.{}", s.name()),
            Fault::Pipeline(c) => format!("pipeline.{c:?}"),
            Fault::Alloc(c) => format!("alloc.{c:?}"),
        }
    }
}

/// Derives the per-job corruption-site seed handed to
/// `CheckedOptions::chaos_seed`. Reports record the derived value, so
/// replaying a failure needs only the report (not the service config).
pub fn site_seed(base: u64, job: u64) -> u64 {
    base ^ job.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Deterministic fault schedule for a chaos run.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Base seed; recorded in every report for replay.
    pub seed: u64,
    /// Fault probability per attempt, in percent (0–100).
    pub rate_pct: u32,
}

impl ChaosConfig {
    /// Draws the fault (if any) for `(job, attempt)` under this config.
    /// Pure: equal arguments always draw equally.
    pub fn draw(&self, job: u64, attempt: u32) -> Option<Fault> {
        let mut rng = SplitMix64::seed_from_u64(
            self.seed ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt) << 17,
        );
        if rng.random_range(0u64..100) >= u64::from(self.rate_pct.min(100)) {
            return None;
        }
        // Weight the menu toward pipeline corruptions (the richer
        // taxonomy), with the three service faults well represented.
        const PIPELINE: &[Corruption] = &[
            Corruption::DropPhiArg,
            Corruption::DoubleDef,
            Corruption::UndefinedUse,
            Corruption::MergeInterferingWebs,
            Corruption::ReorderParallelCopy,
        ];
        const ALLOC: &[AllocCorruption] = &[
            AllocCorruption::AssignOverlappingInterval,
            AllocCorruption::ClobberPinnedResource,
            AllocCorruption::DropReload,
        ];
        const SERVICE: &[ServiceFault] = &[
            ServiceFault::WorkerPanic,
            ServiceFault::DeadlineBlowout,
            ServiceFault::MalformedFrame,
        ];
        let k = rng.random_range(0..(PIPELINE.len() + ALLOC.len() + SERVICE.len()));
        Some(if k < PIPELINE.len() {
            Fault::Pipeline(PIPELINE[k])
        } else if k < PIPELINE.len() + ALLOC.len() {
            Fault::Alloc(ALLOC[k - PIPELINE.len()])
        } else {
            Fault::Service(SERVICE[k - PIPELINE.len() - ALLOC.len()])
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_attempt_sensitive() {
        let cfg = ChaosConfig {
            seed: 99,
            rate_pct: 100,
        };
        for job in 0..50u64 {
            assert_eq!(cfg.draw(job, 1), cfg.draw(job, 1), "job {job}");
        }
        // Attempt participates: across many jobs, retries must not all
        // redraw the identical fault (that would make every transient
        // fault permanent).
        let differs = (0..50u64).any(|j| cfg.draw(j, 1) != cfg.draw(j, 2));
        assert!(differs, "attempt number never changed the draw");
    }

    #[test]
    fn rate_zero_never_draws_and_full_rate_covers_the_menu() {
        let off = ChaosConfig {
            seed: 1,
            rate_pct: 0,
        };
        assert!((0..100u64).all(|j| off.draw(j, 1).is_none()));
        let on = ChaosConfig {
            seed: 1,
            rate_pct: 100,
        };
        let classes: std::collections::HashSet<String> = (0..500u64)
            .filter_map(|j| on.draw(j, 1))
            .map(|f| f.class())
            .collect();
        assert!(
            classes.len() >= 8,
            "500 full-rate draws covered only {classes:?}"
        );
        assert!(classes.iter().any(|c| c.starts_with("service.")));
        assert!(classes.iter().any(|c| c.starts_with("pipeline.")));
        assert!(classes.iter().any(|c| c.starts_with("alloc.")));
    }
}
