//! The batch phase, run in a child process of its own so its peak RSS
//! belongs to the workload: one untimed reference pass (library entry
//! points, every output checked by differential execution), timed
//! closed-loop passes on one thread until the budget runs out, and — in
//! traced runs — the traced pass over the same population plus an
//! in-process replay of the service path.

use crate::calib::Slices;
use crate::layers;
use crate::report::{num, Metric};
use crate::stats::{median, percentile};
use crate::trace::{chrome_json, Tracer};
use crate::workload::{population, Item, Workload, FUEL};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tossa_bench::checked::{run_checked, CheckedOptions};
use tossa_bench::runner;
use tossa_bench::suites::BenchFunction;
use tossa_core::{CoalesceOptions, Experiment};
use tossa_ir::machine::Machine;
use tossa_ir::parse::parse_function;
use tossa_ir::rng::SplitMix64;
use tossa_regalloc::{allocate, AllocOptions, AllocStats};
use tossa_server::ladder::Rung;
use tossa_server::proto::parse_frame;
use tossa_server::report::{JobOutcome, JobReport};
use tossa_trace::json::{parse_json, Json};
use tossa_trace::{capture_counters, Counter, CounterSet};

/// What the batch child is asked to do.
#[derive(Clone, Debug)]
pub struct BatchPlan {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Smoke-run populations.
    pub quick: bool,
    /// Wall-clock budget of the reference + timed passes.
    pub budget: Duration,
    /// Budget of the traced pass (`None` = untraced run).
    pub traced: Option<Duration>,
    /// Where the Chrome trace goes (traced runs).
    pub trace_path: Option<String>,
}

/// Deterministic per-item outcome of the reference pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counts {
    moves: usize,
    weighted: u64,
    spill_move_total: usize,
}

/// What the batch child reports back.
#[derive(Clone, Debug, Default)]
pub struct BatchOutput {
    /// Compilations attempted (all passes).
    pub attempted: u64,
    /// Compilations that failed a check.
    pub failed: u64,
    /// Failure descriptions (the first few).
    pub notes: Vec<String>,
    /// Functions completed in the timed passes.
    pub timed_fns: u64,
    /// Wall clock of the timed passes, s.
    pub timed_s: f64,
    /// Σ over distinct functions of each one's median time, s, at the
    /// reference host speed.
    pub fn_s: f64,
    /// Mean factor that scaled the timings (below 1: the host ran slower
    /// than the reference).
    pub host_speed: f64,
    /// p50 of per-function median times, ns, at the reference speed.
    pub lat_p50_ns: u64,
    /// p95 of per-function median times, ns, at the reference speed.
    pub lat_p95_ns: u64,
    /// Distinct functions behind the percentiles.
    pub lat_samples: u64,
    /// Σ weighted moves over the population (Table 5).
    pub weighted_moves: u64,
    /// Σ spill + reload + surviving moves (Table 6).
    pub spill_move_total: u64,
    /// Per-item Table-6 count, for the service-path cross-check.
    pub item_smt: Vec<u64>,
    /// Peak RSS of this process after the reference pass, MB.
    pub rss_mb: f64,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// Further traced-pass figures outside the catalogue.
    pub extra: Vec<Metric>,
}

/// Peak resident set (`VmHWM`) of `pid` (`"self"` for this process), MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Failures {
    failed: u64,
    notes: Vec<String>,
}

impl Failures {
    fn record(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 10 {
            self.notes.push(note);
        }
    }
}

fn library_compile(item: &Item) -> Result<(runner::RunResult, AllocStats), String> {
    let mut r = runner::run_experiment(&item.bf.func, item.exp, &CoalesceOptions::default());
    let stats = allocate(&mut r.func, &AllocOptions::default())
        .map_err(|e| format!("{} {:?}: allocation failed: {e}", r.func.name, item.exp))?;
    Ok((r, stats))
}

fn counts(r: &runner::RunResult, a: &AllocStats) -> Counts {
    Counts {
        moves: r.moves,
        weighted: r.weighted,
        spill_move_total: a.spill_move_total(),
    }
}

/// Runs the batch phase.
pub fn run(plan: &BatchPlan) -> BatchOutput {
    let start = Instant::now();
    let deadline = start + plan.budget;
    let items = population(&plan.workload, plan.quick);
    let mut fails = Failures {
        failed: 0,
        notes: Vec::new(),
    };
    let mut out = BatchOutput::default();

    // Reference pass: library entry points, every output verified.
    let mut reference: Vec<Option<Counts>> = Vec::with_capacity(items.len());
    let mut alloc_total = AllocStats::default();
    let (mut fallbacks, mut regs_used) = (0u64, 0u64);
    for item in &items {
        out.attempted += 1;
        let checked = library_compile(item).and_then(|(r, a)| {
            runner::verify(&item.bf.func, &r.func, &item.bf.inputs)
                .map_err(|e| format!("{:?} {e}", item.exp))?;
            Ok((r, a))
        });
        match checked {
            Ok((r, a)) => {
                let c = counts(&r, &a);
                out.weighted_moves += c.weighted;
                out.spill_move_total += c.spill_move_total as u64;
                out.item_smt.push(c.spill_move_total as u64);
                alloc_total.add_assign(&a);
                fallbacks += u64::from(a.fallback);
                regs_used += a.regs_used as u64;
                reference.push(Some(c));
            }
            Err(e) => {
                fails.record(e);
                out.item_smt.push(0);
                reference.push(None);
            }
        }
    }
    // Read before the timed passes, whose sample buffers grow with the
    // number of passes the host's speed allows.
    out.rss_mb = peak_rss_mb("self").unwrap_or(0.0);

    // Timed passes: closed loop, one thread, the population in a seeded
    // order, every timing scaled to the reference host speed by the
    // calibration around its slice; a function's time is the median
    // over the passes.
    let order = shuffled(items.len(), plan.seed);
    let mut raw: Vec<(usize, u64)> = Vec::new();
    let mut slices = Slices::new();
    let timed = Instant::now();
    'passes: loop {
        for &k in &order {
            if Instant::now() >= deadline && !raw.is_empty() {
                break 'passes;
            }
            let item = &items[k];
            let t0 = Instant::now();
            let got = library_compile(item);
            raw.push((k, t0.elapsed().as_nanos() as u64));
            slices.finished(raw.len() - 1);
            out.attempted += 1;
            match (got, &reference[k]) {
                (Ok((r, a)), Some(want)) if counts(&r, &a) == *want => {}
                (Ok(_), Some(_)) => fails.record(format!(
                    "{} {:?}: counts differ between repeats",
                    item.bf.func.name, item.exp
                )),
                (Err(e), _) => fails.record(e),
                (Ok(_), None) => {}
            }
        }
    }
    slices.close();
    out.timed_s = timed.elapsed().as_secs_f64();
    out.timed_fns = raw.len() as u64;
    let mut per_fn: Vec<Vec<f64>> = vec![Vec::new(); items.len()];
    for (i, &(k, ns)) in raw.iter().enumerate() {
        per_fn[k].push(ns as f64 * slices.factors[i]);
    }
    let mut lat: Vec<u64> = per_fn
        .iter()
        .filter_map(|v| median(v))
        .map(|t| t as u64)
        .collect();
    lat.sort_unstable();
    out.host_speed = slices.factors.iter().sum::<f64>() / slices.factors.len().max(1) as f64;
    out.fn_s = lat.iter().sum::<u64>() as f64 / 1e9;
    out.lat_p50_ns = percentile(&lat, 0.50).unwrap_or(0);
    out.lat_p95_ns = percentile(&lat, 0.95).unwrap_or(0);
    out.lat_samples = lat.len() as u64;

    if plan.traced.is_some() {
        let n = items.len().max(1) as f64;
        let a = &alloc_total;
        for (name, v) in [
            ("regalloc.spilled_vars", a.spilled_vars as f64),
            ("regalloc.reloads", a.reloads as f64),
            ("regalloc.stores", a.stores as f64),
            ("regalloc.splits", a.splits as f64),
            ("regalloc.remats", a.remats as f64),
            ("regalloc.second_chances", a.second_chances as f64),
            ("regalloc.fallbacks", fallbacks as f64),
            ("regalloc.regs_used", regs_used as f64 / n),
        ] {
            out.layers.push(Metric::new(name, v, "count"));
        }
        let untraced_ns = out.fn_s * 1e9 / out.lat_samples.max(1) as f64;
        traced_pass(plan, &items, &reference, untraced_ns, &mut fails, &mut out);
    }
    out.failed = fails.failed;
    out.notes = fails.notes;
    out
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Items in a seeded order, so a time-capped replay samples the whole
/// population instead of its first suite.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x7ACE);
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..i + 1));
    }
    order
}

fn traced_pass(
    plan: &BatchPlan,
    items: &[Item],
    reference: &[Option<Counts>],
    untraced_ns: f64,
    fails: &mut Failures,
    out: &mut BatchOutput,
) {
    let epoch = Instant::now();
    let deadline = epoch + plan.traced.unwrap_or_default();

    // Batch population, layer by layer, under a counters-only capture;
    // span times are scaled to the reference speed like the untimed
    // pass's. Calibration runs between functions, outside their spans.
    let mut tb = Tracer::new(epoch, 1);
    let mut counters = CounterSet::default();
    let mut slices_b = Slices::new();
    tb.span("workload", |t| {
        for (k, (item, want)) in items.iter().zip(reference).enumerate() {
            slices_b.starting(k);
            t.set_id(k as u64);
            out.attempted += 1;
            let (got, set) = capture_counters(|| {
                t.span("function", |t| layers::batch(t, &item.bf.func, item.exp))
            });
            counters.merge(&set);
            let same = match (&got, want) {
                (Ok(c), Some(w)) => {
                    c.moves == w.moves
                        && c.weighted == w.weighted
                        && c.alloc.spill_move_total() == w.spill_move_total
                }
                _ => false,
            };
            if !same {
                fails.record(format!(
                    "{} {:?}: sequenced layers disagree with run_experiment",
                    item.bf.func.name, item.exp
                ));
            }
        }
    });
    slices_b.close();
    let per_fn = items.len().max(1) as f64;
    let self_b = tb.self_times(|id| slices_b.factor(id));
    let traced_ns = self_b
        .iter()
        .filter(|(name, _)| **name != "workload")
        .map(|(_, v)| v)
        .sum::<f64>()
        / per_fn;
    let layer =
        |st: &BTreeMap<&str, f64>, name: &str, n: f64| us(st.get(name).copied().unwrap_or(0.0) / n);

    // Service path replayed in-process: frame parse, the library's
    // checked run, the same run sequenced layer by layer, the output
    // seal, report rendering, and the client-side parse of the code.
    let mut ts = Tracer::new(epoch, 2);
    let tails: Vec<String> = items.iter().map(Item::frame_tail).collect();
    let copts = CheckedOptions {
        fuel: FUEL,
        alloc: true,
        ..CheckedOptions::default()
    };
    let mut jobs = 0u64;
    let order = shuffled(items.len(), plan.seed);
    let mut slices_s = Slices::new();
    ts.span("workload", |t| {
        for &k in &order {
            if jobs > 0 && Instant::now() >= deadline {
                break;
            }
            let id = jobs;
            slices_s.starting(id as usize);
            jobs += 1;
            out.attempted += 1;
            let line = format!("{{\"id\": {id}{}", tails[k]);
            t.set_id(id);
            let r = t.span("job", |t| replay_job(t, &line, id, &copts));
            if let Err(e) = r {
                fails.record(format!("{}: replayed job {id}: {e}", items[k].bf.func.name));
            }
        }
    });
    slices_s.close();
    let self_s = ts.self_times(|id| slices_s.factor(id));
    let per_job = jobs.max(1) as f64;

    for (name, st, n) in [
        ("ssa.front_end_us", &self_b, per_fn),
        ("core.pinning_us", &self_b, per_fn),
        ("core.reconstruct_us", &self_b, per_fn),
        ("baselines.cleanup_us", &self_b, per_fn),
        ("bench.metrics_us", &self_b, per_fn),
        ("regalloc.prepare_us", &self_b, per_fn),
        ("regalloc.verify_us", &self_b, per_fn),
        ("regalloc.finish_us", &self_b, per_fn),
        ("core.guard_us", &self_s, per_job),
        ("ir.interp_us", &self_s, per_job),
        ("ir.parse_us", &self_s, per_job),
        ("server.parse_frame_us", &self_s, per_job),
        ("server.report_json_us", &self_s, per_job),
        ("bench.run_checked_us", &self_s, per_job),
    ] {
        let key = name.trim_end_matches("_us");
        out.layers.push(Metric::new(name, layer(st, key, n), "us"));
    }
    let c = |k: Counter| counters.get(k) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    for (name, v, unit) in [
        ("core.oracle_queries", c(Counter::OracleQueries), "count"),
        (
            "core.oracle_hit_ratio",
            ratio(c(Counter::OracleCacheHits), c(Counter::OracleQueries)),
            "ratio",
        ),
        ("core.affinity_edges", c(Counter::AffinityEdges), "count"),
        (
            "core.affinity_pruned",
            c(Counter::AffinityPrunedInitial) + c(Counter::AffinityPrunedBipartite),
            "count",
        ),
        ("core.coalesce_merges", c(Counter::CoalesceMerges), "count"),
        ("core.copies_phi", c(Counter::CopiesPhi), "count"),
        ("core.copies_abi", c(Counter::CopiesAbi), "count"),
        ("core.copies_repair", c(Counter::CopiesRepair), "count"),
        (
            "core.parallel_copy_cycles",
            c(Counter::ParallelCopyCycles),
            "count",
        ),
        (
            "analysis.liveness_iterations",
            c(Counter::LivenessIterations),
            "count",
        ),
        (
            "analysis.cache_hit_ratio",
            ratio(
                c(Counter::AnalysisCacheHits),
                c(Counter::AnalysisCacheHits) + c(Counter::AnalysisCacheMisses),
            ),
            "ratio",
        ),
        (
            "trace.overhead_pct",
            (traced_ns - untraced_ns) / untraced_ns * 100.0,
            "%",
        ),
    ] {
        out.layers.push(Metric::new(name, v, unit));
    }
    // Outside the catalogue: layers some workloads never reach, the
    // glue between layer calls, the service replay's pipeline split.
    out.extra.push(Metric::new(
        "batch.baselines.cssa_us",
        layer(&self_b, "baselines.cssa", per_fn),
        "us",
    ));
    out.extra.push(Metric::new(
        "batch.glue_us",
        layer(&self_b, "function", per_fn),
        "us",
    ));
    out.extra
        .push(Metric::new("batch.traced_fn_us", us(traced_ns), "us"));
    out.extra
        .push(Metric::new("batch.untraced_fn_us", us(untraced_ns), "us"));
    for name in [
        "ssa.front_end",
        "baselines.cssa",
        "core.pinning",
        "core.reconstruct",
        "baselines.cleanup",
        "regalloc.prepare",
        "regalloc.verify",
        "regalloc.finish",
        "job",
    ] {
        out.extra.push(Metric::new(
            &format!("replay.{name}_us"),
            layer(&self_s, name, per_job),
            "us",
        ));
    }
    out.extra
        .push(Metric::new("replay.jobs", jobs as f64, "count"));
    if let Some(path) = &plan.trace_path {
        if let Err(e) = std::fs::write(path, chrome_json(&[&tb, &ts])) {
            fails.record(format!("cannot write {path}: {e}"));
        }
    }
}

fn replay_job(t: &mut Tracer, line: &str, id: u64, copts: &CheckedOptions) -> Result<(), String> {
    let req = t
        .span("server.parse_frame", |_| parse_frame(line, id))
        .map_err(|e| e.to_string())?;
    let exp = req.experiment.unwrap_or(Experiment::LphiAbiC);
    let bf = BenchFunction {
        func: req.func,
        inputs: req.inputs,
    };
    let (outcome, set) = t.span("bench.run_checked", |_| {
        capture_counters(|| run_checked(&bf, exp, &CoalesceOptions::default(), copts))
    });
    if let Some(e) = &outcome.error {
        return Err(format!("checked run degraded: {e}"));
    }
    let sequenced = layers::checked(t, &bf.func, &bf.inputs, exp)?;
    layers::interp_seal(t, &bf.func, &outcome.func, &bf.inputs)?;
    let (json, code) = t.span("server.report_json", |_| {
        let code = outcome.func.to_string();
        let report = JobReport {
            id,
            function: bf.func.name.clone(),
            experiment: format!("{exp:?}"),
            outcome: JobOutcome::Completed,
            rung: Rung::Checked,
            ladder: Vec::new(),
            error_class: None,
            error: None,
            attempts: 1,
            chaos_seed: None,
            chaos_class: None,
            inputs_seed: None,
            generator_seed: None,
            wall_ns: 0,
            alloc_events: 0,
            alloc_bytes: 0,
            panics_contained: 0,
            deadline_blown: false,
            verified: true,
            moves: Some(outcome.moves as u64),
            code: Some(code.clone()),
            counters_json: Some(set.to_json()),
        };
        (report.to_json(), code)
    });
    let parsed = t
        .span("ir.parse", |_| parse_function(&code, &Machine::dsp32()))
        .map_err(|e| format!("returned code does not parse: {e}"))?;
    if sequenced.to_string() != code || parsed.count_moves() != outcome.moves || json.is_empty() {
        return Err("sequenced checked path disagrees with run_checked".into());
    }
    Ok(())
}

impl BatchOutput {
    /// One-line JSON for the parent.
    pub fn to_json(&self) -> String {
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", tossa_trace::escape_json(n)))
            .collect();
        let smt: Vec<String> = self.item_smt.iter().map(u64::to_string).collect();
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"notes\": [{}], \"timed_fns\": {}, \"timed_s\": {}, \
             \"fn_s\": {}, \"host_speed\": {}, \"lat_p50_ns\": {}, \"lat_p95_ns\": {}, \"lat_samples\": {}, \"weighted_moves\": {}, \
             \"spill_move_total\": {}, \"rss_mb\": {}, \"item_smt\": [{}], \"layers\": {}, \"extra\": {}}}",
            self.attempted,
            self.failed,
            notes.join(", "),
            self.timed_fns,
            num(self.timed_s),
            num(self.fn_s),
            num(self.host_speed),
            self.lat_p50_ns,
            self.lat_p95_ns,
            self.lat_samples,
            self.weighted_moves,
            self.spill_move_total,
            num(self.rss_mb),
            smt.join(", "),
            crate::report::metrics_json(&self.layers),
            crate::report::metrics_json(&self.extra),
        )
    }

    /// Reads the child's line back.
    ///
    /// # Errors
    /// The line is not a batch output document.
    pub fn from_json(line: &str) -> Result<BatchOutput, String> {
        let doc = parse_json(line)?;
        let n = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("batch output lacks {k}"))
        };
        Ok(BatchOutput {
            attempted: n("attempted")? as u64,
            failed: n("failed")? as u64,
            notes: doc
                .get("notes")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect(),
            timed_fns: n("timed_fns")? as u64,
            timed_s: n("timed_s")?,
            fn_s: n("fn_s")?,
            host_speed: n("host_speed")?,
            lat_p50_ns: n("lat_p50_ns")? as u64,
            lat_p95_ns: n("lat_p95_ns")? as u64,
            lat_samples: n("lat_samples")? as u64,
            weighted_moves: n("weighted_moves")? as u64,
            spill_move_total: n("spill_move_total")? as u64,
            rss_mb: n("rss_mb")?,
            item_smt: doc
                .get("item_smt")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_u64)
                .collect(),
            layers: doc
                .get("layers")
                .map(crate::report::metrics_from_json)
                .unwrap_or_default(),
            extra: doc
                .get("extra")
                .map(crate::report::metrics_from_json)
                .unwrap_or_default(),
        })
    }
}
