//! The server's own telemetry as the benchmark reads it: one
//! `tossa-service-stats/1` snapshot per `{"control":"stats"}` frame, and
//! the per-step *delta* between two snapshots. Histograms arrive as their
//! non-empty log-linear buckets (`[[le, count], …]`) plus the exact
//! `count` and `sum`, so a delta is bucket-wise subtraction, its
//! percentiles are rank walks over the delta buckets, and its mean is the
//! exact `Δsum / Δcount`.

use std::collections::BTreeMap;
use tossa_trace::json::{parse_json, Json};
use tossa_trace::metrics::{bucket_bounds, bucket_index};

/// One histogram: exact count and sum, bucket counts keyed by the
/// bucket's inclusive upper bound.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Hist {
    /// Observations.
    pub count: u64,
    /// Exact sum of the observations.
    pub sum: u64,
    /// `le → count` over the non-empty buckets.
    pub buckets: BTreeMap<u64, u64>,
}

impl Hist {
    fn from_json(v: &Json) -> Option<Hist> {
        let mut h = Hist {
            count: v.get("count")?.as_u64()?,
            sum: v.get("sum")?.as_u64()?,
            buckets: BTreeMap::new(),
        };
        for pair in v.get("buckets")?.as_arr()? {
            let pair = pair.as_arr()?;
            h.buckets
                .insert(pair.first()?.as_u64()?, pair.get(1)?.as_u64()?);
        }
        Some(h)
    }

    /// What was recorded between `before` and `self` (a later snapshot
    /// of the same histogram).
    pub fn since(&self, before: &Hist) -> Hist {
        let mut buckets = BTreeMap::new();
        for (&le, &c) in &self.buckets {
            let d = c.saturating_sub(before.buckets.get(&le).copied().unwrap_or(0));
            if d > 0 {
                buckets.insert(le, d);
            }
        }
        Hist {
            count: self.count.saturating_sub(before.count),
            sum: self.sum.wrapping_sub(before.sum),
            buckets,
        }
    }

    /// Bucket-wise sum (the rung-keyed job-latency family merged).
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        for (&le, &c) in &other.buckets {
            *self.buckets.entry(le).or_insert(0) += c;
        }
    }

    /// The bucket holding the rank-`ceil(q·count)` observation: its
    /// `[lo, le]` value range, the observations in buckets below it, and
    /// its own count. `None` when empty.
    fn locate(&self, q: f64) -> Option<(u64, u64, u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut below = 0;
        for (&le, &c) in &self.buckets {
            if below + c >= rank {
                return Some((bucket_bounds(bucket_index(le)).0, le, below, c));
            }
            below += c;
        }
        None
    }

    /// The `[lo, le]` value range of the bucket holding the `q`-quantile
    /// (the exact nearest-rank value lies in it).
    pub fn quantile_range(&self, q: f64) -> Option<(u64, u64)> {
        self.locate(q).map(|(lo, le, _, _)| (lo, le))
    }

    /// The `q`-quantile estimated by spreading its bucket's observations
    /// evenly over the bucket's range: always inside
    /// [`quantile_range`](Self::quantile_range), and continuous in the
    /// rank, so two runs landing in one bucket still read apart.
    pub fn estimate(&self, q: f64) -> Option<f64> {
        let (lo, le, below, c) = self.locate(q)?;
        let rank = (q * self.count as f64).clamp(1.0, self.count as f64);
        let within = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
        Some(lo as f64 + within * (le - lo) as f64)
    }

    /// Exact mean, from the exact sum.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// One parsed `tossa-service-stats/1` snapshot.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// The job-outcome counters (`jobs_submitted`, `jobs_shed`, …).
    pub jobs: BTreeMap<String, u64>,
    /// Histograms by full name (`service_job_latency_ns{rung="checked"}`).
    pub hists: BTreeMap<String, Hist>,
}

impl ServerStats {
    /// Parses one stats line.
    ///
    /// # Errors
    /// The line is not a well-formed `tossa-service-stats/1` document.
    pub fn parse(line: &str) -> Result<ServerStats, String> {
        let doc = parse_json(line)?;
        if doc.get("schema").and_then(Json::as_str) != Some("tossa-service-stats/1") {
            return Err("not a tossa-service-stats/1 line".into());
        }
        let bad = |what: &str| format!("stats line: malformed {what}");
        let mut s = ServerStats::default();
        for (k, v) in doc
            .get("jobs")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("jobs"))?
        {
            s.jobs
                .insert(k.clone(), v.as_u64().ok_or_else(|| bad("job counter"))?);
        }
        let metrics = doc.get("metrics").ok_or_else(|| bad("metrics"))?;
        for (k, v) in metrics
            .get("histograms")
            .and_then(Json::as_obj)
            .unwrap_or(&[])
        {
            s.hists.insert(
                k.clone(),
                Hist::from_json(v).ok_or_else(|| bad("histogram"))?,
            );
        }
        Ok(s)
    }

    /// One histogram's recordings since `before`.
    pub fn hist_since(&self, before: &ServerStats, name: &str) -> Hist {
        match (self.hists.get(name), before.hists.get(name)) {
            (Some(a), Some(b)) => a.since(b),
            (Some(a), None) => a.clone(),
            _ => Hist::default(),
        }
    }

    /// Every histogram whose name starts with `family`, merged, since
    /// `before` (e.g. all rungs of `service_job_latency_ns`).
    pub fn family_since(&self, before: &ServerStats, family: &str) -> Hist {
        let mut out = Hist::default();
        for name in self.hists.keys().filter(|k| k.starts_with(family)) {
            out.merge(&self.hist_since(before, name));
        }
        out
    }

    /// A job counter's increase since `before`.
    pub fn jobs_since(&self, before: &ServerStats, name: &str) -> u64 {
        let now = self.jobs.get(name).copied().unwrap_or(0);
        now.saturating_sub(before.jobs.get(name).copied().unwrap_or(0))
    }
}
