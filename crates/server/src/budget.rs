//! Per-job resource budgets and the thread-local allocation meter.
//!
//! A job gets three independent budgets:
//!
//! * **fuel** — the interpreter step budget every differential
//!   execution runs under (threaded into
//!   `tossa_bench::checked::CheckedOptions::fuel`, and the budget of the
//!   output seal after the attempt); exhaustion surfaces as a structured
//!   `verify.trap` error inside the pipeline, so it descends the ladder
//!   rather than hanging the worker, and as `verified: false` in the
//!   seal;
//! * **deadline** — a wall-clock bound enforced *observationally*:
//!   because fuel already bounds every loop in the pipeline, an attempt
//!   always returns, so nothing is cancelled (no torn state) and the
//!   worker compares the attempt's own wall clock with the deadline
//!   once it has; a blown deadline is a transient failure — retried,
//!   then quarantined;
//! * **allocation events** — a cap on heap round-trips, metered by
//!   [`ServiceAlloc`], the service twin of the counting
//!   `#[global_allocator]` idiom from `tests/alloc_budget.rs`. Where
//!   the test's counter is a process-global `AtomicU64`, the service
//!   meter is **thread-local and armed per job**, so concurrent workers
//!   never bill each other.
//!
//! The allocator hook must never unwind and must work during TLS
//! teardown, so it charges through `try_with` and the cap is checked by
//! the worker *after* the attempt, not inside the hook.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

/// Resource budgets for one job attempt.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Interpreter step budget per differential execution.
    pub fuel: u64,
    /// Wall-clock deadline for one attempt.
    pub deadline: Duration,
    /// Cap on heap allocation events during one attempt; `None` turns
    /// the check off (the meter still reports the count).
    pub max_alloc_events: Option<u64>,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            fuel: 5_000_000,
            deadline: Duration::from_secs(2),
            // ~30k events cover a full VALcc1 sweep (see
            // tests/alloc_budget.rs); one pathological function should
            // stay well under a million.
            max_alloc_events: Some(1_000_000),
        }
    }
}

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static EVENTS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A counting wrapper around the system allocator. Install it as the
/// process `#[global_allocator]` (the `serve` binary and
/// `tests/service_schedule.rs` do); the library then meters per-job
/// allocation through [`AllocMeter`]. When it is *not* installed,
/// meters simply read 0 and the cap never fires — the service degrades
/// to unmetered, it does not break.
pub struct ServiceAlloc;

unsafe impl GlobalAlloc for ServiceAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            // Only the growth is new demand — a shrinking realloc
            // frees, it doesn't consume.
            charge((new_size - layout.size()) as u64);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Charges one allocation event and its requested bytes to the current
/// thread's meter, if armed. `try_with` keeps the hook total: during
/// thread teardown (TLS already destroyed) it silently skips rather
/// than aborting.
fn charge(bytes: u64) {
    let armed = ARMED.try_with(Cell::get).unwrap_or(false);
    if armed {
        let _ = EVENTS.try_with(|e| e.set(e.get().saturating_add(1)));
        let _ = BYTES.try_with(|b| b.set(b.get().saturating_add(bytes)));
    }
}

/// Arms the current thread's allocation meter for the scope of one job
/// attempt; reads the count with [`AllocMeter::events`] and disarms on
/// drop. Meters do not nest — arming while armed would double-bill the
/// outer scope — so construction while armed keeps the outer meter and
/// reports 0.
pub struct AllocMeter {
    owner: bool,
}

impl AllocMeter {
    /// Arms the meter (zeroing the thread's counts).
    pub fn arm() -> AllocMeter {
        let owner = ARMED.try_with(|a| !a.replace(true)).unwrap_or(false);
        if owner {
            let _ = EVENTS.try_with(|e| e.set(0));
            let _ = BYTES.try_with(|b| b.set(0));
        }
        AllocMeter { owner }
    }

    /// Allocation events charged since arming (0 when [`ServiceAlloc`]
    /// is not the process allocator, or for a non-owning nested meter).
    pub fn events(&self) -> u64 {
        if !self.owner {
            return 0;
        }
        EVENTS.try_with(Cell::get).unwrap_or(0)
    }

    /// Bytes requested by the charged events (growth only for
    /// reallocs). Same ownership/installation caveats as
    /// [`AllocMeter::events`].
    pub fn bytes(&self) -> u64 {
        if !self.owner {
            return 0;
        }
        BYTES.try_with(Cell::get).unwrap_or(0)
    }
}

impl Drop for AllocMeter {
    fn drop(&mut self) {
        if self.owner {
            let _ = ARMED.try_with(|a| a.set(false));
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    // ServiceAlloc is not this test binary's global allocator, so the
    // meter must read 0 — the degrade-to-unmetered contract.
    #[test]
    fn meter_without_installed_allocator_reads_zero() {
        let m = AllocMeter::arm();
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(m.events(), 0);
        drop(m);
        assert!(!v.is_empty());
    }

    #[test]
    fn nested_meters_do_not_double_bill() {
        let outer = AllocMeter::arm();
        {
            let inner = AllocMeter::arm();
            assert_eq!(inner.events(), 0);
        }
        // The inner drop must not have disarmed the outer meter.
        assert!(ARMED.with(Cell::get));
        drop(outer);
        assert!(!ARMED.with(Cell::get));
    }

    #[test]
    fn charge_counts_only_while_armed() {
        // Simulate allocator traffic by calling charge() directly; the
        // real hook path is exercised by `serve` and by
        // tests/service_schedule.rs, which install ServiceAlloc for the
        // whole process.
        let m = AllocMeter::arm();
        charge(16);
        charge(48);
        assert_eq!(m.events(), 2);
        assert_eq!(m.bytes(), 64);
        drop(m);
        charge(8);
        let m2 = AllocMeter::arm();
        assert_eq!(m2.events(), 0, "arming re-zeroes the count");
        assert_eq!(m2.bytes(), 0, "arming re-zeroes the byte total");
    }
}
