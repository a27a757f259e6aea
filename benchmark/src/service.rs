//! The service phase: drives the real `serve --tcp --workers 1` binary
//! with the workload's population as job frames — two fixed open-loop
//! rates, a step at the high rate with stats polled in-band, a
//! one-outstanding closed loop, and a capacity step of back-to-back
//! bursts — then checks every returned program off the timed path and
//! reads the server's own histograms per step.

use crate::batch::{peak_rss_mb, shuffled};
use crate::calib;
use crate::hist::{Hist, ServerStats};
use crate::loadgen::{Conn, Load, RealClock, StepOut};
use crate::report::Metric;
use crate::stats::{percentile, samples_beyond};
use crate::workload::{Item, FUEL};
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tossa_ir::interp::{self, Trap};
use tossa_ir::machine::Machine;
use tossa_ir::parse::parse_function;
use tossa_ir::Opcode;
use tossa_trace::json::{parse_json, Json};

/// Tail percentile reported at the fixed rates (`p90_ms_*`). With the
/// server's replies held until the client's next send, latency comes in
/// whole send gaps; p90 keeps twenty samples beyond it per step and stays
/// clear of the few percent of jobs a host stall pushes into a second gap.
pub const TAIL_Q: f64 = 0.90;
/// Requests of the one-outstanding closed loop.
pub const C1_REQUESTS: usize = 100;
/// Jobs per burst of the capacity step: below the server's queue
/// capacity (64), and about 20–50 ms of the worker's time.
const BURST_JOBS: usize = 48;
/// Length of the capacity step in a full-length run, s.
const CAPACITY_SECS: f64 = 4.0;
/// The fixed offered rates, jobs/s, the same on every workload: far
/// below capacity, and with send gaps (20 and 10 ms) that a job plus a
/// host stall rarely outlasts. A reply waits for the next send (see
/// `README.md`), so a job that outlasts one gap reads two, and at 5 ms
/// gaps on a noisy host more than a tenth did, moving the p90 by a gap.
const LOW_RATE: f64 = 50.0;
const HIGH_RATE: f64 = 100.0;
/// Jobs of the low and of the high fixed-rate step in a full-length run.
const LOW_JOBS: f64 = 200.0;
const HIGH_JOBS: f64 = 400.0;
/// Length of the polled step in a full-length run, s: 21 polls at
/// 10 Hz, so the stats round trip's median has ten beyond it.
const POLLED_SECS: f64 = 2.2;
/// A c1 round trip at most, s, for planning: the delayed-ACK floor reads
/// 44, 48 or 52 ms.
const C1_RTT_S: f64 = 0.052;
/// Per-step allowance for the stats snapshots and the drain, s.
const STEP_OVERHEAD_S: f64 = 0.1;
/// A step whose generator ran later than this at p99 is flagged invalid.
const MAX_LATE_NS: u64 = 1_000_000;

/// Seconds the service phase takes at most, so the batch phase can be
/// given the rest of the run.
pub fn planned_secs(unit: f64, c1_requests: usize) -> f64 {
    CAPACITY_SECS * unit
        + LOW_JOBS * unit / LOW_RATE
        + HIGH_JOBS * unit / HIGH_RATE
        + POLLED_SECS * unit
        + c1_requests as f64 * C1_RTT_S
        + 5.0 * STEP_OVERHEAD_S
}

/// A running `serve` child; killed and reaped on drop.
pub struct Server {
    child: Child,
}

impl Server {
    /// Its process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.port())
}

/// Starts `serve` on a free loopback port and waits for its first stats
/// reply. Returns the server and the connection.
///
/// # Errors
/// The binary cannot start or never answers.
pub fn spawn(serve: &str) -> Result<(Server, Conn), String> {
    let mut last = String::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let addr = format!("127.0.0.1:{}", free_port()?);
        let child = Command::new(serve)
            .args(["--tcp", &addr, "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {serve}: {e}"))?;
        let mut server = Server { child };
        while t0.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(status)) = server.child.try_wait() {
                last = format!("serve exited with {status}");
                break;
            }
            match TcpStream::connect(&addr) {
                Ok(s) => {
                    let mut conn = Conn::new(s).map_err(|e| e.to_string())?;
                    conn.stats()?;
                    return Ok((server, conn));
                }
                Err(e) => {
                    last = format!("connect {addr}: {e}");
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        drop(server);
    }
    Err(format!("serve never answered: {last}"))
}

/// What the service phase measured.
#[derive(Debug, Default)]
pub struct ServiceOutput {
    /// Jobs sent.
    pub attempted: u64,
    /// Jobs that failed (wrong, degraded, refused, shed, or never
    /// answered).
    pub failed: u64,
    /// Whether every returned program checked out.
    pub correct: bool,
    /// Failure descriptions and validity warnings.
    pub notes: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics.
    pub layers: Vec<Metric>,
    /// Further figures (per-step detail).
    pub extra: Vec<Metric>,
}

/// The population as the service phase sends and checks it.
pub struct Jobs<'a> {
    /// The population.
    pub items: &'a [Item],
    /// Frame body after the id, per item.
    pub frames: &'a [String],
    /// The seeded order jobs are drawn in, cycling.
    pub order: Vec<usize>,
    /// Source outputs per item.
    reference: Vec<Vec<Result<Vec<i64>, Trap>>>,
    /// Table-6 count per item from the batch phase.
    smt: &'a [u64],
    /// Code already checked per item.
    checked: BTreeMap<usize, String>,
}

impl<'a> Jobs<'a> {
    /// The service-phase view of `items`; `smt` is the batch phase's
    /// Table-6 count per item.
    pub fn new(items: &'a [Item], frames: &'a [String], smt: &'a [u64], seed: u64) -> Jobs<'a> {
        Jobs {
            items,
            frames,
            order: shuffled(items.len(), seed),
            reference: items.iter().map(Item::reference).collect(),
            smt,
            checked: BTreeMap::new(),
        }
    }

    /// Checks one returned program of item `k`.
    fn check_code(&mut self, k: usize, code: &str) -> Result<(), String> {
        if self.checked.get(&k).is_some_and(|c| c == code) {
            return Ok(());
        }
        let item = &self.items[k];
        let f = parse_function(code, &Machine::dsp32())
            .map_err(|e| format!("returned code does not parse: {e}"))?;
        for (ins, want) in item.bf.inputs.iter().zip(&self.reference[k]) {
            let got = interp::run(&f, ins, FUEL).map(|r| r.outputs);
            if want.is_err() || got != *want {
                return Err(format!("returned code diverges on {ins:?}"));
            }
        }
        let spills = f
            .all_insts()
            .filter(|&(_, i)| matches!(f.inst(i).opcode, Opcode::SpillLoad | Opcode::SpillStore))
            .count();
        let smt = (f.count_moves() + spills) as u64;
        if smt != self.smt[k] {
            return Err(format!(
                "returned code has {smt} spill+move instructions, the in-process run {}",
                self.smt[k]
            ));
        }
        self.checked.insert(k, code.to_string());
        Ok(())
    }
}

/// One step, analysed.
struct Step {
    name: String,
    out: StepOut,
    /// Client latency per answered job, ns, ascending.
    lat: Vec<u64>,
    /// Generator lateness per job, ns, ascending.
    late: Vec<u64>,
    failures: Vec<String>,
}

impl Step {
    fn q_ms(&self, q: f64) -> f64 {
        percentile(&self.lat, q).unwrap_or(0) as f64 / 1e6
    }

    fn hist(&self, name: &str) -> Hist {
        self.out.after.hist_since(&self.out.before, name)
    }

    fn job_hist(&self) -> Hist {
        self.out
            .after
            .family_since(&self.out.before, "service_job_latency_ns")
    }

    /// Mean queue + compile + verify against mean job latency: the share
    /// of job latency the stage histograms do not account for, %.
    fn unaccounted_pct(&self) -> f64 {
        let mean = |h: Hist| h.mean().unwrap_or(0.0);
        let job = mean(self.job_hist());
        let parts = mean(self.hist("service_queue_latency_ns"))
            + mean(self.hist("service_stage_latency_ns{stage=\"compile\"}"))
            + mean(self.hist("service_stage_latency_ns{stage=\"verify\"}"));
        if job > 0.0 {
            (job - parts) / job * 100.0
        } else {
            0.0
        }
    }
}

fn analyse(name: &str, out: StepOut, jobs: &mut Jobs) -> Step {
    let mut lat = Vec::new();
    let mut late = Vec::new();
    let mut failures = Vec::new();
    for &(id, item, due, sent) in &out.sent {
        late.push(sent - due);
        let Some((at, line)) = out.replies.get(&id) else {
            failures.push(format!("job {id}: never answered"));
            continue;
        };
        lat.push(at.saturating_sub(due));
        let doc = match parse_json(line) {
            Ok(d) => d,
            Err(e) => {
                failures.push(format!("job {id}: unreadable report: {e}"));
                continue;
            }
        };
        let s = |k: &str| doc.get(k).and_then(Json::as_str).unwrap_or("");
        match (s("outcome"), s("rung")) {
            ("completed", "checked") => {
                if let Err(e) = jobs.check_code(item, s("code")) {
                    failures.push(format!("job {id} ({}): {e}", jobs.items[item].bf.func.name));
                }
            }
            (outcome, rung) => failures.push(format!(
                "job {id}: {outcome} at rung {rung}: {}",
                s("error_class")
            )),
        }
    }
    lat.sort_unstable();
    late.sort_unstable();
    Step {
        name: name.to_string(),
        out,
        lat,
        late,
        failures,
    }
}

/// The worker's capacity from a burst step: jobs over its busy time
/// (admission to report minus queue wait, from the histograms' exact
/// sums), burst by burst between the step's idle poll snapshots, each
/// burst's busy time scaled to the reference host speed by the
/// calibrations on either side of it — the batch phase's slices, with the
/// worker's bursts as the measured work. Returns jobs/s at the reference
/// speed, jobs/s by the wall clock, and the mean speed factor.
///
/// # Errors
/// A poll reply does not parse, or the step finished no burst.
fn worker_capacity(s: &Step) -> Result<(f64, f64, f64), String> {
    let mut snaps = vec![s.out.before.clone()];
    for (_, _, line) in &s.out.polls {
        snaps.push(ServerStats::parse(line)?);
    }
    let bursts = (snaps.len() - 1).min(s.out.kernel_ns.len().saturating_sub(1));
    if bursts == 0 {
        return Err("the capacity step finished no burst".into());
    }
    let (mut jobs, mut busy_ns, mut busy_ref_ns, mut factors) = (0u64, 0u64, 0.0, 0.0);
    for b in 0..bursts {
        let (from, to) = (&snaps[b], &snaps[b + 1]);
        let job = to.family_since(from, "service_job_latency_ns");
        let busy = job
            .sum
            .saturating_sub(to.hist_since(from, "service_queue_latency_ns").sum);
        let f = calib::to_reference((s.out.kernel_ns[b] + s.out.kernel_ns[b + 1]) / 2.0);
        jobs += job.count;
        busy_ns += busy;
        busy_ref_ns += busy as f64 * f;
        factors += f;
    }
    Ok((
        jobs as f64 * 1e9 / busy_ref_ns.max(1.0),
        jobs as f64 * 1e9 / busy_ns.max(1) as f64,
        factors / bursts as f64,
    ))
}

/// Runs the service phase on an already-started server. `unit` scales
/// the fixed-rate, polled and capacity steps (1.0 = the full-length run).
pub fn run(
    conn: &mut Conn,
    server: &Server,
    jobs: &mut Jobs,
    unit: f64,
    c1_requests: usize,
) -> ServiceOutput {
    let clock = RealClock {
        epoch: Instant::now(),
    };
    let mut res = ServiceOutput {
        correct: true,
        ..ServiceOutput::default()
    };
    let mut offset = 0u64;
    let mut run_step = |name: &str, load: Load, res: &mut ServiceOutput| {
        let base = offset;
        let order = &jobs.order;
        let pick = move |k: u64| order[((base + k) % order.len() as u64) as usize];
        let out = match conn.step(&clock, jobs.frames, &pick, load) {
            Ok(o) => o,
            Err(e) => {
                res.notes.push(format!("{name}: {e}"));
                res.failed += 1;
                res.correct = false;
                return None;
            }
        };
        offset += out.sent.len() as u64;
        let step = analyse(name, out, jobs);
        res.attempted += step.out.sent.len() as u64;
        res.failed += step.failures.len() as u64;
        if !step.failures.is_empty() {
            res.correct = false;
        }
        for f in step.failures.iter().take(5) {
            res.notes.push(format!("{name}: {f}"));
        }
        Some(step)
    };

    let fixed = |rate: f64, jobs: f64| Load::Open {
        rate,
        secs: jobs * unit / rate,
        poll: false,
    };
    let low = run_step("low", fixed(LOW_RATE, LOW_JOBS), &mut res);
    let high = run_step("high", fixed(HIGH_RATE, HIGH_JOBS), &mut res);
    // Stats polled at 10 Hz beside the jobs' writes to the registry. A
    // poll's reply holds the jobs' replies behind it for a send gap, so
    // this step's client latencies are not reported.
    let polled = run_step(
        "polled",
        Load::Open {
            rate: HIGH_RATE,
            secs: POLLED_SECS * unit,
            poll: true,
        },
        &mut res,
    );
    let c1 = run_step("c1", Load::Closed { count: c1_requests }, &mut res);
    // Peak RSS before the capacity step queues whole bursts.
    let rss = peak_rss_mb(&server.pid().to_string()).unwrap_or(0.0);
    let capacity = run_step(
        "capacity",
        Load::Bursts {
            size: BURST_JOBS,
            secs: CAPACITY_SECS * unit,
        },
        &mut res,
    );

    let (Some(capacity), Some(low), Some(high), Some(polled), Some(c1)) =
        (capacity, low, high, polled, c1)
    else {
        res.correct = false;
        return res;
    };
    let steps = [&capacity, &low, &high, &polled, &c1];
    let (worker, wall_worker, host_speed) = match worker_capacity(&capacity) {
        Ok(w) => w,
        Err(e) => {
            res.notes.push(format!("capacity: {e}"));
            res.failed += 1;
            res.correct = false;
            (0.0, 0.0, 0.0)
        }
    };
    res.extra
        .push(Metric::new("capacity.wall_jobs_per_s", wall_worker, "1/s"));
    res.extra.push(Metric::new(
        "capacity.host_speed_factor",
        host_speed,
        "ratio",
    ));
    res.e2e = vec![
        Metric::new("worker_jobs_per_s", worker, "1/s"),
        Metric::new("p50_ms_low", low.q_ms(0.50), "ms"),
        Metric::new("p90_ms_low", low.q_ms(TAIL_Q), "ms"),
        Metric::new("p50_ms_high", high.q_ms(0.50), "ms"),
        Metric::new("p90_ms_high", high.q_ms(TAIL_Q), "ms"),
        Metric::new("rtt_c1_p50_ms", c1.q_ms(0.50), "ms"),
        Metric::new("rtt_c1_p90_ms", c1.q_ms(0.90), "ms"),
        Metric::new("serve_rss_mb", rss, "MB"),
    ];

    // Validity and reconciliation, per step.
    for s in [&low, &high] {
        if samples_beyond(s.lat.len(), TAIL_Q) < 10 {
            res.notes.push(format!(
                "{}: only {} samples, fewer than 10 beyond p90",
                s.name,
                s.lat.len()
            ));
        }
    }
    let mut open_late: Vec<u64> = Vec::new();
    for s in [&low, &high, &polled] {
        open_late.extend(&s.late);
        if percentile(&s.late, 0.99).unwrap_or(0) > MAX_LATE_NS {
            res.notes.push(format!(
                "{}: invalid, generator lateness p99 above 1 ms",
                s.name
            ));
        }
    }
    for s in steps {
        let unaccounted = s.unaccounted_pct();
        if unaccounted.abs() > 12.5 {
            res.notes.push(format!(
                "{}: stage histograms leave {unaccounted:.1}% of mean job latency unaccounted",
                s.name
            ));
        }
        let server_p50_lo = s.job_hist().quantile_range(0.5).map_or(0, |r| r.0);
        if percentile(&s.lat, 0.5).unwrap_or(0) < server_p50_lo {
            res.correct = false;
            res.failed += 1;
            res.notes
                .push(format!("{}: client p50 below the server's job p50", s.name));
        }
    }
    open_late.sort_unstable();

    let us = |h: &Hist, q: f64| h.estimate(q).unwrap_or(0.0) / 1e3;
    let queue = high.hist("service_queue_latency_ns");
    let compile = high.hist("service_stage_latency_ns{stage=\"compile\"}");
    let job = high.job_hist();
    let c1_job = c1.job_hist();
    let mut rtts: Vec<u64> = polled
        .out
        .polls
        .iter()
        .map(|(sent, at, _)| at - sent)
        .collect();
    rtts.sort_unstable();
    let count = |name: &str| high.out.after.jobs_since(&high.out.before, name) as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    res.layers = vec![
        Metric::new("server.queue_latency_p50_us", us(&queue, 0.50), "us"),
        Metric::new("server.queue_latency_p90_us", us(&queue, TAIL_Q), "us"),
        Metric::new("server.compile_p50_us", us(&compile, 0.50), "us"),
        Metric::new("server.compile_p90_us", us(&compile, TAIL_Q), "us"),
        Metric::new(
            "server.verify_p50_us",
            us(
                &high.hist("service_stage_latency_ns{stage=\"verify\"}"),
                0.50,
            ),
            "us",
        ),
        Metric::new("server.job_latency_p50_us", us(&job, 0.50), "us"),
        Metric::new("server.job_latency_p90_us", us(&job, TAIL_Q), "us"),
        Metric::new(
            "server.alloc_events_p50",
            high.hist("service_alloc_events")
                .estimate(0.5)
                .unwrap_or(0.0),
            "count",
        ),
        Metric::new(
            "server.alloc_bytes_p50",
            high.hist("service_alloc_bytes")
                .estimate(0.5)
                .unwrap_or(0.0),
            "B",
        ),
        Metric::new("server.retries", count("jobs_retried"), "count"),
        Metric::new(
            "server.fallbacks",
            count("jobs_completed_fallback"),
            "count",
        ),
        Metric::new("server.shed", count("jobs_shed"), "count"),
        Metric::new(
            "server.stats_rtt_ms",
            ms(percentile(&rtts, 0.5).unwrap_or(0)),
            "ms",
        ),
        Metric::new("server.unaccounted_pct", high.unaccounted_pct(), "%"),
        Metric::new(
            "net.overhead_p50_ms",
            c1.q_ms(0.50) - c1_job.estimate(0.50).unwrap_or(0.0) / 1e6,
            "ms",
        ),
        Metric::new(
            "net.overhead_p90_ms",
            c1.q_ms(0.90) - c1_job.estimate(0.90).unwrap_or(0.0) / 1e6,
            "ms",
        ),
        Metric::new(
            "loadgen.late_p99_ms",
            ms(percentile(&open_late, 0.99).unwrap_or(0)),
            "ms",
        ),
        Metric::new(
            "loadgen.late_max_ms",
            ms(open_late.last().copied().unwrap_or(0)),
            "ms",
        ),
    ];
    for s in steps {
        res.extra.push(Metric::new(
            &format!("{}.samples", s.name),
            s.lat.len() as f64,
            "count",
        ));
        res.extra.push(Metric::new(
            &format!("{}.p99_ms", s.name),
            s.q_ms(0.99),
            "ms",
        ));
    }
    res.extra.push(Metric::new(
        "polled.polls",
        polled.out.polls.len() as f64,
        "count",
    ));
    res.extra
        .push(Metric::new("c1.server_job_p50_us", us(&c1_job, 0.5), "us"));
    res.extra.push(Metric::new(
        "low.unaccounted_pct",
        low.unaccounted_pct(),
        "%",
    ));
    res
}
