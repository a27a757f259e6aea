//! `repeat` and `compare`: run-to-run spread against each metric's
//! bound, and the parent-versus-change decision rule (at least ten
//! pairs; a gain needs nine tenths of pair wins and a median difference
//! beyond the parent's interquartile range; a regression is a median
//! worse by more than the bound; a metric whose spread exceeds its bound
//! is unresolved).

use crate::report::{BenchSpec, Better, MetricSpec, RunResult};
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Runs grouped by workload, in input order.
fn by_workload(runs: &[RunResult]) -> BTreeMap<&str, Vec<&RunResult>> {
    let mut out: BTreeMap<&str, Vec<&RunResult>> = BTreeMap::new();
    for r in runs {
        out.entry(r.workload.as_str()).or_default().push(r);
    }
    out
}

fn values(runs: &[&RunResult], m: &MetricSpec) -> Vec<f64> {
    runs.iter().filter_map(|r| r.value(&m.name)).collect()
}

fn metrics_of<'a>(spec: &'a BenchSpec, runs: &[&RunResult]) -> &'a [MetricSpec] {
    spec.required(runs.first().is_some_and(|r| r.trace))
}

/// The `repeat` table: per workload and metric, the median and
/// quartiles over all runs, the spread against the bound, and the
/// agreement of two interleaved halves (even-numbered runs against
/// odd-numbered ones).
pub fn repeat_report(spec: &BenchSpec, runs: &[RunResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<22} {:>12} {:>12} {:>12} {:>8} {:>6} {:>9} {:>9}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict", "halves"
    );
    for (w, rs) in by_workload(runs) {
        for m in metrics_of(spec, &rs) {
            let v = values(&rs, m);
            let (Some(med), Some((q1, q3))) = (median(&v), quartiles(&v)) else {
                continue;
            };
            let sp = spread(&v).unwrap_or(0.0);
            let bound = m.bound.unwrap_or(f64::INFINITY);
            let verdict = if sp <= bound / 3.0 {
                "steady"
            } else if sp <= bound {
                "in-bound"
            } else {
                "too-wide"
            };
            let even: Vec<f64> = v.iter().step_by(2).copied().collect();
            let odd: Vec<f64> = v.iter().skip(1).step_by(2).copied().collect();
            let halves = match (median(&even), median(&odd)) {
                (Some(a), Some(b)) if a != 0.0 => {
                    let d = (b - a).abs() / a.abs();
                    format!("{:.1}%{}", d * 100.0, if d <= bound { "" } else { "!" })
                }
                _ => "-".into(),
            };
            let _ = writeln!(
                out,
                "{w:<10} {:<22} {q1:>12.4} {med:>12.4} {q3:>12.4} {:>7.1}% {:>6} {verdict:>9} {halves:>9}",
                m.name,
                sp * 100.0,
                m.bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
            );
        }
    }
    out
}

/// Verdict of one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better by the gain rule.
    Gain,
    /// The change's median is worse by more than the bound.
    Regression,
    /// The parent's own spread exceeds the bound.
    Unresolved,
    /// None of the above.
    Same,
}

/// Applies the decision rule to paired values (`parent[i]` with
/// `change[i]`).
pub fn verdict(m: &MetricSpec, parent: &[f64], change: &[f64]) -> Verdict {
    let (Some(mp), Some(mc)) = (median(parent), median(change)) else {
        return Verdict::Unresolved;
    };
    let better = |a: f64, b: f64| match m.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let worse_share = match m.better {
        Better::Lower => (mc - mp) / mp.abs(),
        Better::Higher => (mp - mc) / mp.abs(),
    };
    let bound = m.bound.unwrap_or(f64::INFINITY);
    if worse_share > bound {
        return Verdict::Regression;
    }
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if spread(parent).unwrap_or(f64::INFINITY) > bound && !all_better {
        return Verdict::Unresolved;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better(c, p))
        .count();
    let iqr = quartiles(parent).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    if pairs >= 10 && wins * 10 >= pairs * 9 && (mc - mp).abs() > iqr && better(mc, mp) {
        Verdict::Gain
    } else {
        Verdict::Same
    }
}

/// The `compare` table, one row per workload and metric. Runs pair by
/// seed. Returns the table and whether any metric regressed.
pub fn compare_report(
    spec: &BenchSpec,
    parent: &[RunResult],
    change: &[RunResult],
) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let change_by = by_workload(change);
    let _ = writeln!(
        out,
        "{:<10} {:<22} {:>5} {:>12} {:>12} {:>8} {:>5} {:>11}",
        "workload", "metric", "pairs", "parent", "change", "delta", "wins", "verdict"
    );
    for (w, ps) in by_workload(parent) {
        let Some(cs) = change_by.get(w) else {
            let _ = writeln!(out, "{w:<10} (no change runs)");
            continue;
        };
        let pairs: Vec<(&RunResult, &RunResult)> = ps
            .iter()
            .filter_map(|p| cs.iter().find(|c| c.seed == p.seed).map(|c| (*p, *c)))
            .collect();
        if pairs.len() < 10 {
            let _ = writeln!(
                out,
                "{w:<10} only {} seed-matched pairs; the rule needs 10",
                pairs.len()
            );
        }
        for m in metrics_of(spec, &ps) {
            let (pv, cv): (Vec<f64>, Vec<f64>) = pairs
                .iter()
                .filter_map(|(p, c)| Some((p.value(&m.name)?, c.value(&m.name)?)))
                .unzip();
            let v = verdict(m, &pv, &cv);
            regressed |= v == Verdict::Regression;
            let (mp, mc) = (median(&pv).unwrap_or(0.0), median(&cv).unwrap_or(0.0));
            let wins = pv
                .iter()
                .zip(&cv)
                .filter(|(&p, &c)| match m.better {
                    Better::Lower => c < p,
                    Better::Higher => c > p,
                })
                .count();
            let _ = writeln!(
                out,
                "{w:<10} {:<22} {:>5} {mp:>12.4} {mc:>12.4} {:>7.2}% {wins:>5} {:>11}",
                m.name,
                pv.len(),
                if mp != 0.0 {
                    (mc - mp) / mp.abs() * 100.0
                } else {
                    0.0
                },
                format!("{v:?}").to_lowercase(),
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(better: Better, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            better,
            bound: Some(bound),
        }
    }

    #[test]
    fn decision_rule() {
        let lower = spec(Better::Lower, 0.10);
        let parent: Vec<f64> = (0..10).map(|k| 100.0 + f64::from(k)).collect();
        // Every pair better, median gap far beyond the parent's IQR.
        let faster: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        assert_eq!(verdict(&lower, &parent, &faster), Verdict::Gain);
        // Eight of ten pair wins is not a gain.
        let mut mixed = faster.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert_eq!(verdict(&lower, &parent, &mixed), Verdict::Same);
        // Worse by more than the bound.
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(verdict(&lower, &parent, &slower), Verdict::Regression);
        // Fewer than ten pairs never make a gain.
        assert_eq!(verdict(&lower, &parent[..9], &faster[..9]), Verdict::Same);
        // A parent spread wider than the bound leaves small moves unresolved.
        let noisy = [
            50.0, 80.0, 100.0, 120.0, 150.0, 60.0, 90.0, 110.0, 140.0, 100.0,
        ];
        let close: Vec<f64> = noisy.iter().map(|p| p * 1.05).collect();
        assert_eq!(verdict(&lower, &noisy, &close), Verdict::Unresolved);
        // Higher-is-better metrics flip the direction.
        let higher = spec(Better::Higher, 0.10);
        assert_eq!(verdict(&higher, &parent, &faster), Verdict::Regression);
        // An exact count (bound 0): equal is the same, one more regresses.
        let exact = spec(Better::Lower, 0.0);
        let counts = [7376.0; 10];
        assert_eq!(verdict(&exact, &counts, &counts), Verdict::Same);
        let one_more = [7377.0; 10];
        assert_eq!(verdict(&exact, &counts, &one_more), Verdict::Regression);
    }
}
