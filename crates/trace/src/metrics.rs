//! Lock-free service instruments: counters, gauges, and
//! log-linear-bucket histograms with deterministic boundaries.
//!
//! The pipeline counters in [`crate::Counter`] answer "what did this
//! compile do" — they are deterministic, captured thread-locally, and
//! compared cell by cell against the checked-in `BENCH_pr10.json`
//! trajectory. A long-running *service* needs a different instrument:
//! "what is this process doing right now, and how is it distributed" —
//! queue depths, latency percentiles, budget-consumption histograms —
//! written from every worker thread at once and read while the writers
//! keep going.
//!
//! This module provides those instruments with the same constraints as
//! the rest of the crate: **no dependencies**, and **no locks**. The
//! write path of every instrument is a handful of relaxed atomic RMWs;
//! histograms additionally stripe their buckets across [`SHARDS`]
//! shards keyed by thread so concurrent recorders don't contend on one
//! cache line. Which instruments exist, and how they are exported, is
//! the service's business (`tossa_server::metrics`).
//!
//! # Bucket scheme
//!
//! Histograms use HdrHistogram-style **log-linear** buckets: values
//! 0–7 get one bucket each, and every power-of-two octave above that
//! is split into [`SUB_BUCKETS`] = 8 linear sub-buckets. The bucket
//! for a value is a pure function of its bit pattern
//! ([`bucket_index`]), so boundaries are deterministic across runs,
//! machines, and merge orders — two snapshots taken anywhere can be
//! added bucket-wise ([`HistogramSnapshot::merge`] is associative and
//! commutative) and quantile estimates come out identical no matter
//! how the totals were assembled. Relative bucket error is bounded by
//! 1/8 ≈ 12.5%, plenty for latency percentiles. The full `u64` range
//! maps onto [`BUCKET_COUNT`] = 496 buckets.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Linear sub-buckets per power-of-two octave.
pub const SUB_BUCKETS: usize = 8;
const SUB_BITS: u32 = 3;

/// Total histogram buckets covering the full `u64` range.
pub const BUCKET_COUNT: usize = 496;

/// Histogram write stripes (power of two). Each recording thread is
/// pinned to one stripe; snapshots sum across all of them.
pub const SHARDS: usize = 8;

/// The bucket holding `v`: identity below [`SUB_BUCKETS`], then
/// [`SUB_BUCKETS`] linear sub-buckets per octave. Monotone in `v`.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let bits = 64 - v.leading_zeros();
    let shift = bits - SUB_BITS - 1;
    let mantissa = ((v >> shift) as usize) - SUB_BUCKETS;
    (shift as usize + 1) * SUB_BUCKETS + mantissa
}

/// Half-open value range `[lo, hi)` of bucket `i` (the top bucket
/// saturates at `u64::MAX`). Inverse of [`bucket_index`]:
/// `bucket_bounds(bucket_index(v)).0 <= v < bucket_bounds(bucket_index(v)).1`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB_BUCKETS {
        return (i as u64, i as u64 + 1);
    }
    let octave = i / SUB_BUCKETS;
    let mantissa = (i % SUB_BUCKETS) as u64;
    let shift = (octave - 1) as u32;
    let lo = (SUB_BUCKETS as u64 + mantissa) << shift;
    let hi = lo.saturating_add(1u64 << shift);
    (lo, hi)
}

/// Inclusive upper bound of bucket `i` — the `le` label in the
/// Prometheus exposition.
pub fn bucket_le(i: usize) -> u64 {
    let (_, hi) = bucket_bounds(i);
    if hi == u64::MAX {
        u64::MAX
    } else {
        hi - 1
    }
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The stripe this thread writes to: assigned round-robin on first
/// use. `try_with` keeps recording total during TLS teardown (falls
/// back to stripe 0).
fn shard_id() -> usize {
    SHARD
        .try_with(|s| {
            let mut k = s.get();
            if k == usize::MAX {
                k = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
                s.set(k);
            }
            k
        })
        .unwrap_or(0)
}

/// A monotone counter. All operations are relaxed atomics.
#[derive(Debug, Default)]
pub struct MetricCounter {
    v: AtomicU64,
}

impl MetricCounter {
    /// A fresh zero counter.
    pub fn new() -> MetricCounter {
        MetricCounter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A signed gauge (current level of something: queue depth, busy
/// workers). All operations are relaxed atomics.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the level.
    pub fn set(&self, n: i64) {
        self.v.store(n, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

struct HistogramShard {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKET_COUNT],
}

impl HistogramShard {
    fn new() -> HistogramShard {
        HistogramShard {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A lock-free log-linear histogram over `u64` values. Writers stripe
/// across [`SHARDS`] shards by thread; [`Histogram::snapshot`] sums the
/// stripes into an order-independent [`HistogramSnapshot`].
pub struct Histogram {
    shards: Box<[HistogramShard]>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            shards: (0..SHARDS).map(|_| HistogramShard::new()).collect(),
        }
    }

    /// Records one observation. Lock-free: five relaxed RMWs on this
    /// thread's stripe.
    pub fn record(&self, v: u64) {
        let shard = &self.shards[shard_id()];
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
        shard.min.fetch_min(v, Ordering::Relaxed);
        shard.max.fetch_max(v, Ordering::Relaxed);
        shard.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Sums the stripes into a plain snapshot. Safe to call while
    /// writers keep recording: each recorded value lands entirely in
    /// one stripe, so a snapshot taken after a writer quiesces never
    /// misses its increments (it may see a torn in-flight record as a
    /// count/bucket off-by-one, which the next snapshot resolves).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        for shard in self.shards.iter() {
            out.count += shard.count.load(Ordering::Relaxed);
            out.sum += shard.sum.load(Ordering::Relaxed);
            let min = shard.min.load(Ordering::Relaxed);
            let max = shard.max.load(Ordering::Relaxed);
            if min != u64::MAX || shard.count.load(Ordering::Relaxed) > 0 {
                out.min = Some(out.min.map_or(min, |m: u64| m.min(min)));
            }
            if shard.count.load(Ordering::Relaxed) > 0 {
                out.max = Some(out.max.map_or(max, |m: u64| m.max(max)));
            }
            for (k, b) in shard.buckets.iter().enumerate() {
                out.buckets[k] += b.load(Ordering::Relaxed);
            }
        }
        if out.count == 0 {
            out.min = None;
            out.max = None;
        }
        out
    }
}

/// A frozen histogram: dense bucket counts plus count/sum/min/max.
/// Merging is bucket-wise addition — associative, commutative, and
/// independent of the order observations were recorded or snapshots
/// combined.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (`None` when empty).
    pub min: Option<u64>,
    /// Largest observed value (`None` when empty).
    pub max: Option<u64>,
    /// Per-bucket observation counts, dense over [`BUCKET_COUNT`].
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: None,
            max: None,
            buckets: vec![0; BUCKET_COUNT],
        }
    }

    /// Accumulates `other` into `self` bucket-wise. `sum` wraps, to
    /// match the recorder's `fetch_add` semantics (so merge order can
    /// never change the result, even once the total overflows `u64`).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) as the inclusive upper
    /// bound of the bucket holding the rank-`ceil(q·count)`
    /// observation, clamped into the observed `[min, max]`. Purely a
    /// function of the bucket counts, so any merge order yields the
    /// same estimate. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let le = bucket_le(k);
                let lo = self.min.unwrap_or(0);
                let hi = self.max.unwrap_or(u64::MAX);
                return Some(le.clamp(lo, hi));
            }
        }
        self.max
    }

    /// Mean of the observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// The non-empty buckets as `(le, count)` pairs — `le` the
    /// inclusive upper bound, `count` the bucket's own (non-cumulative)
    /// observation count.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (bucket_le(k), c))
            .collect()
    }

    /// Renders the snapshot as a JSON object fragment:
    /// `{"count": …, "sum": …, "min": …, "max": …, "p50": …, "p90": …,
    /// "p99": …, "buckets": [[le, count], …]}` (nulls when empty,
    /// non-empty buckets only).
    pub fn to_json(&self) -> String {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |n| n.to_string());
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
            self.count,
            self.sum,
            opt(self.min),
            opt(self.max),
            opt(self.quantile(0.50)),
            opt(self.quantile(0.90)),
            opt(self.quantile(0.99)),
        );
        for (k, (le, c)) in self.nonzero_buckets().iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{le}, {c}]");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_invert_it() {
        let probes: Vec<u64> = (0..100)
            .chain([
                127,
                128,
                129,
                1023,
                1024,
                1 << 20,
                u64::MAX / 2,
                u64::MAX - 1,
                u64::MAX,
            ])
            .collect();
        let mut last = 0usize;
        for &v in &probes {
            let k = bucket_index(v);
            assert!(k >= last, "bucket_index not monotone at {v}");
            last = k;
            let (lo, hi) = bucket_bounds(k);
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "{v} outside [{lo}, {hi})"
            );
        }
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn record_lands_in_exactly_one_bucket() {
        let h = Histogram::new();
        for v in [0u64, 1, 7, 8, 100, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1_000_116);
        assert_eq!(s.min, Some(0));
        assert_eq!(s.max, Some(1_000_000));
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn quantiles_are_deterministic_and_ordered() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.50).unwrap();
        let p90 = s.quantile(0.90).unwrap();
        let p99 = s.quantile(0.99).unwrap();
        assert!(p50 <= p90 && p90 <= p99);
        // Log-linear error bound: within 12.5% above the true rank value.
        assert!((500..=563).contains(&p50), "p50 = {p50}");
        assert!((900..=1013).contains(&p90), "p90 = {p90}");
        assert_eq!(s.quantile(1.0), Some(1000));
    }
}
