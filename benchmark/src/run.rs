//! One benchmark run of one workload: set-up, the batch phase in a
//! child process, the service phase against a fresh `serve`, and the
//! result document with every metric `BENCHMARK.json` names.

use crate::batch::BatchOutput;
use crate::calib;
use crate::report::{BenchSpec, Metric, RunResult};
use crate::service::{self, Jobs, C1_REQUESTS};
use crate::stats::median;
use crate::workload::{population, Item, Workload};
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Everything one run needs to know.
#[derive(Clone, Debug)]
pub struct RunPlan {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Report per-layer metrics from a traced pass.
    pub trace: bool,
    /// Smoke-run populations and step counts.
    pub quick: bool,
    /// Path of the `serve` binary.
    pub serve: String,
    /// Directory for result documents and traces.
    pub out_dir: String,
}

/// Set-up repetitions whose median `setup_s` reports.
const SETUP_REPS: usize = 9;

/// The batch phase's budget when set-up and the service phase leave
/// less, s.
const MIN_BATCH_S: f64 = 0.5;

fn batch_child(
    plan: &RunPlan,
    budget: Duration,
    traced: Option<Duration>,
) -> Result<BatchOutput, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "batch",
        "--workload",
        plan.workload.name,
        "--seed",
        &plan.seed.to_string(),
        "--budget-ms",
        &budget.as_millis().to_string(),
    ]);
    if let Some(t) = traced {
        let path = format!(
            "{}/trace_{}_{}.json",
            plan.out_dir, plan.workload.name, plan.seed
        );
        cmd.args([
            "--traced-ms",
            &t.as_millis().to_string(),
            "--trace-path",
            &path,
        ]);
    }
    if plan.quick {
        cmd.arg("--quick");
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start the batch child: {e}"))?;
    let mut text = String::new();
    let read = child.stdout.take().map(|mut s| s.read_to_string(&mut text));
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() || !matches!(read, Some(Ok(_))) {
        return Err(format!("batch child failed ({status})"));
    }
    BatchOutput::from_json(text.lines().last().unwrap_or(""))
}

/// Runs `f`, returning its wall time in s scaled to the reference host
/// speed by calibrations on either side.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = calib::measure();
    let t0 = Instant::now();
    let out = f();
    let s = t0.elapsed().as_secs_f64();
    (
        out,
        s * calib::to_reference((before + calib::measure()) / 2.0),
    )
}

/// Runs one workload and assembles its result. The run takes
/// `plan.seconds`: set-up and the service phase's planned time come out
/// of the batch phase's budget. Runs shorter than 30 s scale the service
/// steps down; longer ones give the batch phase the extra time.
pub fn run(spec: &BenchSpec, plan: &RunPlan) -> RunResult {
    let w = &plan.workload;
    let deadline = Instant::now() + Duration::from_secs_f64(plan.seconds);
    let unit = (plan.seconds / 30.0).min(1.0);
    let c1 = if plan.quick { 20 } else { C1_REQUESTS };
    let mut res = RunResult {
        workload: w.name.to_string(),
        seed: plan.seed,
        trace: plan.trace,
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        extra: Vec::new(),
        notes: Vec::new(),
    };
    let mut all: Vec<Metric> = Vec::new();

    // Set-up, part 1: input generation (population + job frames).
    let mut gen_s = Vec::new();
    let (mut items, mut frames) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (g, s) = timed(|| {
            let items = population(w, plan.quick);
            let frames: Vec<String> = items.iter().map(Item::frame_tail).collect();
            (items, frames)
        });
        gen_s.push(s);
        (items, frames) = g;
    }

    // Set-up, part 2: server spawn until the first stats reply; the last
    // server started serves the service phase and idles meanwhile.
    let mut spawn_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        server = None;
        match timed(|| service::spawn(&plan.serve)) {
            (Ok((s, conn)), secs) => {
                spawn_s.push(secs);
                server = Some((s, conn));
            }
            (Err(e), _) => {
                fail(&mut res, e);
                break;
            }
        }
    }
    let setup = median(&gen_s).unwrap_or(0.0) + median(&spawn_s).unwrap_or(0.0);
    all.push(Metric::new("setup_s", setup, "s"));

    // Batch phase, in its own process, with what the service phase
    // leaves of the run; a traced run gives 4/9 of it to the traced pass.
    let left = deadline
        .saturating_duration_since(Instant::now())
        .as_secs_f64();
    let budget = (left - service::planned_secs(unit, c1)).max(MIN_BATCH_S);
    let (budget, traced) = if plan.trace {
        (
            budget * 5.0 / 9.0,
            Some(Duration::from_secs_f64(budget * 4.0 / 9.0)),
        )
    } else {
        (budget, None)
    };
    let batch = match batch_child(plan, Duration::from_secs_f64(budget), traced) {
        Ok(b) => b,
        Err(e) => {
            fail(&mut res, e);
            BatchOutput::default()
        }
    };
    res.attempted += batch.attempted;
    if batch.failed > 0 {
        res.correct = false;
        res.failed += batch.failed;
        res.notes
            .extend(batch.notes.iter().map(|n| format!("batch: {n}")));
    }
    all.extend([
        Metric::new(
            "fns_per_s",
            batch.lat_samples as f64 / batch.fn_s.max(1e-9),
            "1/s",
        ),
        Metric::new("compile_p50_us", batch.lat_p50_ns as f64 / 1e3, "us"),
        Metric::new("compile_p95_us", batch.lat_p95_ns as f64 / 1e3, "us"),
        Metric::new("weighted_moves", batch.weighted_moves as f64, "count"),
        Metric::new("spill_move_total", batch.spill_move_total as f64, "count"),
        Metric::new("peak_rss_mb", batch.rss_mb, "MB"),
    ]);
    res.extra.push(Metric::new(
        "batch.functions",
        batch.lat_samples as f64,
        "count",
    ));
    res.extra.push(Metric::new(
        "batch.passes",
        batch.timed_fns as f64 / batch.lat_samples.max(1) as f64,
        "count",
    ));
    res.extra.push(Metric::new(
        "batch.host_speed_factor",
        batch.host_speed,
        "ratio",
    ));
    res.extra.push(Metric::new(
        "batch.wall_fns_per_s",
        batch.timed_fns as f64 / batch.timed_s.max(1e-9),
        "1/s",
    ));
    all.extend(batch.layers.iter().cloned());
    res.extra.extend(batch.extra.iter().cloned());

    if let Some((server, mut conn)) = server {
        if batch.item_smt.len() != items.len() {
            fail(&mut res, "batch phase returned no per-item counts".into());
        } else {
            let mut jobs = Jobs::new(&items, &frames, &batch.item_smt, plan.seed);
            let svc = service::run(&mut conn, &server, &mut jobs, unit, c1);
            res.attempted += svc.attempted;
            res.failed += svc.failed;
            res.correct &= svc.correct;
            res.notes
                .extend(svc.notes.iter().map(|n| format!("service: {n}")));
            all.extend(svc.e2e);
            all.extend(svc.layers);
            res.extra.extend(svc.extra);
        }
        drop(conn);
        drop(server);
    }

    let required = spec.required(plan.trace);
    for m in required {
        match all.iter().find(|x| x.name == m.name) {
            Some(x) if x.unit == m.unit => res.metrics.push(x.clone()),
            found => {
                let why = match found {
                    Some(x) => format!(
                        "metric {} is measured in {}, not {}",
                        m.name, x.unit, m.unit
                    ),
                    None => format!("metric {} was not measured", m.name),
                };
                fail(&mut res, why);
                res.metrics.push(Metric::new(&m.name, 0.0, &m.unit));
            }
        }
    }
    res.extra.extend(
        all.into_iter()
            .filter(|m| required.iter().all(|s| s.name != m.name)),
    );
    res.attempted = res.attempted.max(1);
    res
}

fn fail(res: &mut RunResult, note: String) {
    res.correct = false;
    res.failed += 1;
    res.notes.push(note);
}
