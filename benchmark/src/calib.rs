//! Host-speed calibration. On a shared host the same work runs up to
//! ~1.7× slower for stretches of a fraction of a second to minutes,
//! and every thread slows together. A fixed kernel (standard library
//! only: ordered-map inserts, string formatting, sorting; nothing from
//! the program under test) is timed every [`SLICE`] of measured work, and
//! CPU-bound timings are reported at the kernel's reference speed:
//! `reported = measured × REF_UNIT_NS / kernel ns per unit`. The raw
//! wall-clock figures stay in each result document's `extra` section.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Kernel time per unit on the reference host, ns: an uncontended
/// 2-vCPU VM at 2.1 GHz.
pub const REF_UNIT_NS: f64 = 37_000.0;

/// Measured work between two calibrations.
pub const SLICE: Duration = Duration::from_millis(50);

/// Kernel units per calibration (~1.5 ms).
const UNITS: u64 = 40;

#[inline(never)]
fn unit(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut m = BTreeMap::new();
    for _ in 0..200 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        m.insert(x % 100_000, format!("{x:x}"));
    }
    let mut v: Vec<&String> = m.values().collect();
    v.sort();
    v.iter().map(|s| s.len() as u64).sum::<u64>() + m.len() as u64
}

/// Times the kernel now: ns per unit.
pub fn measure() -> f64 {
    let t0 = Instant::now();
    let mut sink = 0u64;
    for k in 0..UNITS {
        sink = sink.wrapping_add(unit(k));
    }
    std::hint::black_box(sink);
    t0.elapsed().as_nanos() as f64 / UNITS as f64
}

/// The factor that scales a timing taken while the kernel ran at
/// `ns_per_unit` to the reference speed.
pub fn to_reference(ns_per_unit: f64) -> f64 {
    REF_UNIT_NS / ns_per_unit
}

/// Slice bookkeeping for a stream of timed samples: every [`SLICE`] the
/// kernel runs, and the samples of the closed slice get the factor of
/// the mean of the calibrations on either side of it.
pub struct Slices {
    before: f64,
    start: Instant,
    pending: Vec<usize>,
    /// Factor per sample index (filled as slices close).
    pub factors: Vec<f64>,
}

impl Default for Slices {
    fn default() -> Slices {
        Slices::new()
    }
}

impl Slices {
    /// Calibrates and opens the first slice.
    pub fn new() -> Slices {
        Slices {
            before: measure(),
            start: Instant::now(),
            pending: Vec::new(),
            factors: Vec::new(),
        }
    }

    /// Records sample `index` as finished; closes the slice once it is
    /// [`SLICE`] long.
    pub fn finished(&mut self, index: usize) {
        self.pending.push(index);
        if self.start.elapsed() >= SLICE {
            self.close();
        }
    }

    /// Records that sample `index` is about to start: closes the slice
    /// first if it is [`SLICE`] long, so the calibration falls between
    /// samples. Used where the sample's own timing is a span recorded
    /// elsewhere.
    pub fn starting(&mut self, index: usize) {
        if self.start.elapsed() >= SLICE {
            self.close();
        }
        self.pending.push(index);
    }

    /// The factor of sample `index` (1 before its slice closed).
    pub fn factor(&self, index: u64) -> f64 {
        self.factors.get(index as usize).copied().unwrap_or(1.0)
    }

    /// Closes the open slice (call once more after the last sample).
    pub fn close(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let after = measure();
        let f = to_reference((self.before + after) / 2.0);
        for &i in &self.pending {
            if self.factors.len() <= i {
                self.factors.resize(i + 1, f);
            }
            self.factors[i] = f;
        }
        self.pending.clear();
        self.before = after;
        self.start = Instant::now();
    }
}
