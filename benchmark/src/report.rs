//! Metric values, the `BENCHMARK.json` metric catalogue, and the per-run
//! result documents the `repeat` and `compare` commands read back.

use std::fmt::Write as _;
use tossa_trace::json::{parse_json, Json};

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// keeps (non-finite values, which JSON cannot hold, become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, …}`.
pub fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Reads a `{"name": {"value": v, "unit": "u"}, …}` object.
pub fn metrics_from_json(v: &Json) -> Vec<Metric> {
    v.as_obj()
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, m)| {
            Some(Metric::new(
                k,
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?,
            ))
        })
        .collect()
}

/// Which direction of a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies, counts of moves).
    Lower,
    /// Larger is better (throughputs).
    Higher,
}

/// One metric of the catalogue.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Better direction.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct BenchSpec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported by untraced runs).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (reported by traced runs).
    pub per_layer: Vec<MetricSpec>,
    /// Seconds one run measures.
    pub run_seconds: u64,
}

impl BenchSpec {
    /// Loads and checks `BENCHMARK.json`.
    ///
    /// # Errors
    /// The file is missing or malformed.
    pub fn load(path: &str) -> Result<BenchSpec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
        let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{path}: no {key} list"))?
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
                    Ok(MetricSpec {
                        name: s("name").ok_or("metric without a name")?,
                        unit: s("unit").ok_or("metric without a unit")?,
                        better: match s("better").as_deref() {
                            Some("higher") => Better::Higher,
                            Some("lower") => Better::Lower,
                            _ => return Err(format!("{path}: bad \"better\"")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(BenchSpec {
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{path}: no workloads"))?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
            run_seconds: doc.get("run_seconds").and_then(Json::as_u64).unwrap_or(30),
        })
    }

    /// The metric set a run with this `trace` setting must report.
    pub fn required(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// One run's result document (`benchmark/target/results/<workload>-<seed>.json`).
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Whether the run was traced.
    pub trace: bool,
    /// Every output checked out.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The reported metric set.
    pub metrics: Vec<Metric>,
    /// Every measured value, reported or not.
    pub extra: Vec<Metric>,
    /// Validity warnings and failure descriptions.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The result line every run prints last.
    pub fn summary_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    /// The full result document.
    pub fn to_json(&self) -> String {
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", tossa_trace::escape_json(n)))
            .collect();
        let mut out = String::from("{\"schema\": \"tossa-benchmark-run/1\"");
        let _ = write!(
            out,
            ", \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"metrics\": {}, \"extra\": {}, \"notes\": [{}]}}",
            self.workload,
            self.seed,
            self.trace,
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics),
            metrics_json(&self.extra),
            notes.join(", ")
        );
        out
    }

    /// Reads a result document back.
    ///
    /// # Errors
    /// The text is not a `tossa-benchmark-run/1` document.
    pub fn from_json(text: &str) -> Result<RunResult, String> {
        let doc = parse_json(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some("tossa-benchmark-run/1") {
            return Err("not a tossa-benchmark-run/1 document".into());
        }
        let b = |k: &str| doc.get(k) == Some(&Json::Bool(true));
        let n = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
        Ok(RunResult {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("no workload")?
                .to_string(),
            seed: n("seed"),
            trace: b("trace"),
            correct: b("correct"),
            attempted: n("attempted"),
            failed: n("failed"),
            metrics: doc
                .get("metrics")
                .map(metrics_from_json)
                .unwrap_or_default(),
            extra: doc.get("extra").map(metrics_from_json).unwrap_or_default(),
            notes: doc
                .get("notes")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect(),
        })
    }

    /// A reported metric's value.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}
