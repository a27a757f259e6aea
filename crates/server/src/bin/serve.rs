//! `serve` — the tossa compile service front door.
//!
//! Three modes:
//!
//! * **stdin (default)** — read one JSON job frame per line from stdin,
//!   write one JSON job report per line to stdout; exit when stdin
//!   closes and the queue drains.
//! * **`--tcp ADDR`** — listen on `ADDR`; each connection is its own
//!   JSONL session: frames in, and the reports for *that connection's
//!   jobs* back down the same socket (reports for jobs whose connection
//!   has gone away fall back to stdout). A connection whose first line
//!   is `GET /metrics` gets a one-shot HTTP Prometheus exposition
//!   instead, so a scraper can point at the same port.
//! * **`--soak N`** — drive `N` deterministic fuzz functions through
//!   the service with chaos on, print the [`SoakSummary`] (now with
//!   p50/p90/p99 job latency and queue wait), and exit nonzero if any
//!   soak invariant is violated. This is the CI gate.
//!
//! Every mode answers the in-band `{"control": "stats"}` frame with one
//! `tossa-service-stats/1` snapshot line.
//!
//! Flags:
//!
//! * `--chaos RATE` — fault injection rate in percent (default 0;
//!   `--soak` defaults it to 35)
//! * `--seed S` — chaos base seed (default 7)
//! * `--workers N` — worker threads (default: available parallelism)
//! * `--deadline-ms MS` — per-attempt wall-clock budget (default 2000)
//! * `--fuel N` — interpreter fuel per differential execution
//! * `--max-allocs N` — per-attempt allocation-event budget (0 = off)
//! * `--report FILE` — also append every report line to `FILE` (JSONL)
//! * `--experiment KEY` — default experiment (default `LphiAbiC`)
//! * `--metrics-path FILE` — write the final Prometheus exposition to
//!   `FILE` on shutdown
//! * `--stats-path FILE` — append periodic `tossa-service-stats/1`
//!   snapshot lines to `FILE` while running (soak mode), plus one final
//!   snapshot at shutdown in every mode
//! * `--stats-interval-ms MS` — snapshot period (default 1000)
//! * `--flight-path FILE` — write the flight-recorder ring to `FILE` on
//!   shutdown (a failing soak gate dumps it to stderr regardless)
//!
//! Arguments are read left to right. An unknown argument, a value flag
//! without its value, or a malformed number prints the usage line to
//! stderr and exits 2 before anything runs; a bare `--soak` means 500.
//!
//! The binary installs [`ServiceAlloc`] as the global allocator so the
//! per-attempt allocation meter actually counts.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;
use tossa_core::Experiment;
use tossa_server::metrics::ServiceMetrics;
use tossa_server::report::{JobReport, SoakSummary};
use tossa_server::service::{CompileService, Job, ServiceConfig};
use tossa_server::{parse_line, ChaosConfig, Control, Frame, JobRequest, ServiceAlloc};

#[global_allocator]
static ALLOC: ServiceAlloc = ServiceAlloc;

const USAGE: &str =
    "usage: serve [--tcp ADDR | --soak [N]] [--chaos RATE] [--seed S] [--workers N]\n\
\x20            [--deadline-ms MS] [--fuel N] [--max-allocs N] [--report FILE]\n\
\x20            [--experiment KEY] [--metrics-path FILE] [--stats-path FILE]\n\
\x20            [--stats-interval-ms MS] [--flight-path FILE]";

/// A parsed command line.
struct Args {
    tcp: Option<String>,
    soak: Option<u64>,
    seed: u64,
    config: ServiceConfig,
    paths: OutPaths,
}

fn number(flag: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag} wants a number, got {v:?}"))
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        tcp: None,
        soak: None,
        seed: 7,
        config: ServiceConfig::default(),
        paths: OutPaths {
            stats_interval: Duration::from_millis(1000),
            ..OutPaths::default()
        },
    };
    let mut chaos = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} wants a value"));
        match flag.as_str() {
            "--tcp" => a.tcp = Some(value()?.clone()),
            "--soak" => {
                let n = it.next_if(|v| !v.starts_with("--"));
                a.soak = Some(n.map_or(Ok(500), |n| number(flag, n))?);
            }
            "--chaos" => chaos = Some(number(flag, value()?)?),
            "--seed" => a.seed = number(flag, value()?)?,
            "--workers" => a.config.workers = number(flag, value()?)? as usize,
            "--deadline-ms" => {
                a.config.budget.deadline = Duration::from_millis(number(flag, value()?)?);
            }
            "--fuel" => a.config.budget.fuel = number(flag, value()?)?,
            "--max-allocs" => {
                a.config.budget.max_alloc_events = Some(number(flag, value()?)?).filter(|&n| n > 0);
            }
            "--experiment" => {
                let key = value()?;
                a.config.default_experiment = Experiment::from_key(key)
                    .ok_or_else(|| format!("unknown experiment {key:?} (try LphiAbiC)"))?;
            }
            "--report" => a.paths.report = Some(value()?.clone()),
            "--metrics-path" => a.paths.metrics = Some(value()?.clone()),
            "--stats-path" => a.paths.stats = Some(value()?.clone()),
            "--stats-interval-ms" => {
                a.paths.stats_interval = Duration::from_millis(number(flag, value()?)?.max(10));
            }
            "--flight-path" => a.paths.flight = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let rate = chaos.unwrap_or(if a.soak.is_some() { 35 } else { 0 });
    if rate > 0 {
        a.config.chaos = Some(ChaosConfig {
            seed: a.seed,
            rate_pct: rate.min(100) as u32,
        });
    }
    Ok(a)
}

/// Output paths shared by every mode.
#[derive(Clone, Default)]
struct OutPaths {
    report: Option<String>,
    metrics: Option<String>,
    stats: Option<String>,
    flight: Option<String>,
    stats_interval: Duration,
}

impl OutPaths {
    /// Shutdown-time dumps common to every mode: the final stats
    /// snapshot, the Prometheus exposition, and the flight ring. Runs
    /// *after* [`CompileService::shutdown`] (the metrics handle
    /// outlives the service), so the dumps cover every job.
    fn final_dumps(&self, metrics: &ServiceMetrics) {
        if let Some(p) = &self.stats {
            append_line(p, &metrics.stats_json());
        }
        if let Some(p) = &self.metrics {
            write_file(p, &metrics.prometheus());
        }
        if let Some(p) = &self.flight {
            write_file(p, &metrics.flight.to_json());
        }
    }
}

fn append_line(path: &str, line: &str) {
    let f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path);
    match f {
        Ok(mut f) => {
            let _ = writeln!(f, "{line}");
        }
        Err(e) => eprintln!("serve: cannot append to {path}: {e}"),
    }
}

fn write_file(path: &str, content: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("serve: cannot write {path}: {e}");
    }
}

fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Job-id → submitting connection. The responder removes an entry as it
/// delivers (each job reports exactly once), so the map stays bounded
/// by in-flight work.
type Routes = Arc<Mutex<HashMap<u64, Arc<Mutex<TcpStream>>>>>;

/// Streams reports from `rx` on a dedicated thread: down the submitting
/// socket when `routes` knows one, else to stdout (when `echo`), and
/// always appended to the report file when given. I/O errors on the
/// report path are *counted* (`service_report_io_errors`) and warned
/// once — a full disk must not silently eat the audit trail.
fn spawn_responder(
    rx: mpsc::Receiver<JobReport>,
    report_path: Option<String>,
    echo: bool,
    routes: Option<Routes>,
    metrics: Arc<ServiceMetrics>,
) -> std::thread::JoinHandle<Vec<JobReport>> {
    std::thread::spawn(move || {
        let mut file = match &report_path {
            Some(p) => std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
                .map_err(|e| eprintln!("serve: cannot open report file {p}: {e}"))
                .ok(),
            None => None,
        };
        let stdout = std::io::stdout();
        let mut warned_file = false;
        let mut warned_socket = false;
        let mut reports = Vec::new();
        for r in rx {
            let line = r.to_json();
            let route = routes
                .as_ref()
                .and_then(|rt| lock_ignoring_poison(rt).remove(&r.id));
            let mut delivered = false;
            if let Some(sock) = route {
                let mut s = lock_ignoring_poison(&sock);
                if let Err(e) = writeln!(s, "{line}") {
                    metrics.report_io_errors.inc();
                    if !warned_socket {
                        warned_socket = true;
                        eprintln!("serve: report delivery to a client socket failed: {e} (falling back to stdout; counting further failures silently)");
                    }
                } else {
                    delivered = true;
                }
            }
            if !delivered && echo {
                let mut out = stdout.lock();
                let _ = writeln!(out, "{line}");
            }
            if let Some(f) = &mut file {
                if let Err(e) = writeln!(f, "{line}") {
                    metrics.report_io_errors.inc();
                    if !warned_file {
                        warned_file = true;
                        eprintln!("serve: report file write failed: {e} (counting further failures silently)");
                    }
                }
            }
            reports.push(r);
        }
        reports
    })
}

fn run_stdin(config: ServiceConfig, paths: &OutPaths) -> i32 {
    let (service, rx) = CompileService::start(config);
    let responder = spawn_responder(rx, paths.report.clone(), true, None, service.metrics());
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(&line) {
            Frame::Control(Ok(Control::Stats)) => {
                let mut out = std::io::stdout().lock();
                let _ = writeln!(out, "{}", service.metrics().stats_json());
            }
            Frame::Control(Err(e)) => {
                let report = service.refuse_frame(&e);
                service.emit_report(report);
            }
            Frame::Job(doc) => {
                // Frame errors already produced a structured report.
                let _ = service.submit_frame(&line, doc);
            }
        }
    }
    let metrics = service.metrics();
    let counters = service.shutdown();
    paths.final_dumps(&metrics);
    let _ = responder.join();
    eprintln!("{}", counters.to_json());
    0
}

/// One-shot HTTP answer for a scraper that opened a JSONL port.
fn answer_http(sock: &Mutex<TcpStream>, request_line: &str, service: &CompileService) {
    let (status, body) = if request_line.starts_with("GET /metrics") {
        ("200 OK", service.metrics().prometheus())
    } else {
        ("404 Not Found", String::from("only /metrics lives here\n"))
    };
    let mut s = lock_ignoring_poison(sock);
    let _ = write!(
        s,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
}

fn serve_connection(stream: TcpStream, service: &CompileService, routes: &Routes) {
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let sock = Arc::new(Mutex::new(writer));
    let mut first = true;
    let mut lines = BufReader::new(stream).lines();
    while let Some(line) = lines.next() {
        let Ok(line) = line else { break };
        if first && line.starts_with("GET ") {
            // A scraper, not a JSONL client: drain the request headers
            // (closing with unread bytes would RST the connection and
            // can discard the queued response body), answer, hang up.
            for header in lines.by_ref() {
                if header.map_or(true, |h| h.trim().is_empty()) {
                    break;
                }
            }
            answer_http(&sock, &line, service);
            return;
        }
        first = false;
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(&line) {
            Frame::Control(Ok(Control::Stats)) => {
                let mut s = lock_ignoring_poison(&sock);
                let _ = writeln!(s, "{}", service.metrics().stats_json());
            }
            Frame::Control(Err(e)) => {
                let report = service.refuse_frame(&e);
                let mut s = lock_ignoring_poison(&sock);
                let _ = writeln!(s, "{}", report.to_json());
            }
            Frame::Job(doc) => match service.admit_frame(&line, doc) {
                Ok(req) => {
                    // Route *before* submit: the report (even a shed
                    // one) can race back before we return.
                    lock_ignoring_poison(routes).insert(req.id, Arc::clone(&sock));
                    service.submit(Job {
                        req,
                        generator_seed: None,
                    });
                }
                Err((id, e)) => {
                    let report = service.frame_rejection(id, &e);
                    let mut s = lock_ignoring_poison(&sock);
                    let _ = writeln!(s, "{}", report.to_json());
                }
            },
        }
    }
}

fn run_tcp(config: ServiceConfig, addr: &str, paths: &OutPaths) -> i32 {
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            return 2;
        }
    };
    // The bound address, not the requested one: `--tcp 127.0.0.1:0`
    // binds a free port, and a client learns which from this line.
    match listener.local_addr() {
        Ok(bound) => eprintln!("serve: listening on {bound}"),
        Err(_) => eprintln!("serve: listening on {addr}"),
    }
    let (service, rx) = CompileService::start(config);
    let routes: Routes = Arc::new(Mutex::new(HashMap::new()));
    let responder = spawn_responder(
        rx,
        paths.report.clone(),
        true,
        Some(Arc::clone(&routes)),
        service.metrics(),
    );
    // Accept loop; each connection feeds the shared service and gets its
    // own jobs' reports routed back down its socket.
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            match stream {
                Ok(s) => {
                    let service = &service;
                    let routes = &routes;
                    scope.spawn(move || serve_connection(s, service, routes));
                }
                Err(e) => {
                    eprintln!("serve: accept failed: {e}");
                    break;
                }
            }
        }
    });
    let metrics = service.metrics();
    let counters = service.shutdown();
    paths.final_dumps(&metrics);
    let _ = responder.join();
    eprintln!("{}", counters.to_json());
    0
}

fn run_soak(config: ServiceConfig, n: usize, seed: u64, paths: &OutPaths) -> i32 {
    use tossa_server::proto::default_inputs;
    // The gate measures the robustness envelope, not admission: size the
    // queue to the population so every function actually runs (the
    // shedding path has its own tests).
    let config = ServiceConfig {
        queue_cap: n.max(config.queue_cap),
        ..config
    };
    eprintln!(
        "serve: soak of {n} functions, chaos {}%",
        config.chaos.map_or(0, |c| c.rate_pct)
    );
    let suite = tossa_bench::checked::fuzz_suite(n, seed);
    let jobs: Vec<Job> = suite
        .functions
        .into_iter()
        .enumerate()
        .map(|(k, bf)| {
            let id = k as u64 + 1;
            let inputs = default_inputs(&bf.func, id);
            Job {
                req: JobRequest {
                    id,
                    func: bf.func,
                    experiment: None,
                    inputs,
                    inputs_seed: Some(id),
                },
                generator_seed: Some(seed.wrapping_add(k as u64)),
            }
        })
        .collect();

    let (service, rx) = CompileService::start(config);
    let metrics = service.metrics();
    let collector = std::thread::spawn(move || {
        let mut reports: Vec<JobReport> = rx.iter().collect();
        reports.sort_by_key(|r| r.id);
        reports
    });
    // Periodic live snapshots while the soak runs: one stats line per
    // interval, the same schema a stats control frame answers with.
    let stop = Arc::new(AtomicBool::new(false));
    let emitter = paths.stats.clone().map(|path| {
        let stop = Arc::clone(&stop);
        let metrics = service.metrics();
        let interval = paths.stats_interval;
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                append_line(&path, &metrics.stats_json());
            }
        })
    });
    for job in jobs {
        service.submit(job);
    }
    let counters = service.shutdown();
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = emitter {
        let _ = h.join();
    }
    paths.final_dumps(&metrics);
    let reports = collector.join().unwrap_or_default();

    if let Some(path) = &paths.report {
        let lines: String = reports.iter().map(|r| r.to_json() + "\n").collect();
        write_file(path, &lines);
    }
    let mut summary = SoakSummary::from_reports(&reports);
    summary.set_queue_wait(&metrics.queue_wait_ns.snapshot());
    eprint!("{summary}");
    eprintln!("{}", counters.to_json());
    if summary.holds() {
        eprintln!("serve: soak PASSED");
        0
    } else {
        // The post-mortem trail goes to stderr with the verdict: CI
        // failure logs carry the flight ring even when nobody passed
        // --flight-path.
        eprintln!("{}", metrics.flight.to_json());
        eprintln!("serve: soak FAILED");
        1
    }
}

fn main() {
    // Contained panics are reported structurally (class + message in the
    // JobReport); keep the default hook's backtrace spew off stderr.
    std::panic::set_hook(Box::new(|_| {}));
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return;
    }
    let a = parse(&raw).unwrap_or_else(|e| {
        eprintln!("serve: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let code = match (a.soak, &a.tcp) {
        (Some(n), _) => run_soak(a.config, (n as usize).max(1), a.seed, &a.paths),
        (None, Some(addr)) => run_tcp(a.config, addr, &a.paths),
        (None, None) => run_stdin(a.config, &a.paths),
    };
    std::process::exit(code);
}
