//! Per-step histogram deltas: percentiles read from the difference of two
//! `tossa-service-stats/1` snapshots must equal the exact nearest-rank
//! percentiles of exactly the values recorded between them. Every value
//! recorded is some bucket's inclusive upper bound, where the log-linear
//! histogram is exact, so any mismatch is the delta arithmetic's fault.

use tossa_benchmark::hist::ServerStats;
use tossa_benchmark::stats::percentile;
use tossa_ir::rng::SplitMix64;
use tossa_trace::metrics::{bucket_le, Histogram, BUCKET_COUNT};

fn stats_line(h: &Histogram) -> String {
    format!(
        "{{\"schema\": \"tossa-service-stats/1\", \"uptime_ns\": 1, \"jobs\": {{\"jobs_shed\": 0}}, \
         \"metrics\": {{\"counters\": {{}}, \"gauges\": {{\"service_queue_depth\": 3}}, \
         \"histograms\": {{\"h\": {}}}}}}}",
        h.snapshot().to_json()
    )
}

#[test]
fn delta_percentiles_equal_exact_percentiles_of_the_step() {
    let mut rng = SplitMix64::seed_from_u64(42);
    // Bucket upper bounds from 1 ns to ~1 s: the range latencies live in.
    let les: Vec<u64> = (1..BUCKET_COUNT)
        .map(bucket_le)
        .filter(|&le| le < 2_000_000_000)
        .collect();
    let draw = |rng: &mut SplitMix64| les[rng.random_range(0..les.len())];

    for round in 0..20 {
        let h = Histogram::new();
        let before: Vec<u64> = (0..rng.random_range(0..500))
            .map(|_| draw(&mut rng))
            .collect();
        for &v in &before {
            h.record(v);
        }
        let a = ServerStats::parse(&stats_line(&h)).expect("snapshot parses");
        let mut step: Vec<u64> = (0..rng.random_range(1..2000))
            .map(|_| draw(&mut rng))
            .collect();
        for &v in &step {
            h.record(v);
        }
        let b = ServerStats::parse(&stats_line(&h)).expect("snapshot parses");
        let d = b.hist_since(&a, "h");
        step.sort_unstable();
        assert_eq!(d.count, step.len() as u64, "round {round}");
        assert_eq!(d.sum, step.iter().sum::<u64>(), "round {round}");
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = percentile(&step, q).unwrap();
            let (lo, le) = d.quantile_range(q).unwrap();
            assert_eq!(le, exact, "round {round} q {q}");
            let est = d.estimate(q).unwrap();
            assert!(
                lo as f64 <= est && est <= le as f64,
                "round {round} q {q}: {est} outside [{lo}, {le}]"
            );
        }
    }
}

#[test]
fn snapshot_fields_parse() {
    let h = Histogram::new();
    h.record(5);
    let s = ServerStats::parse(&stats_line(&h)).unwrap();
    assert_eq!(s.jobs["jobs_shed"], 0);
    assert!(ServerStats::parse("{\"schema\": \"other\"}").is_err());
}
