//! The load generator: one TCP connection to `serve`, a sender thread
//! and a receiver thread. Open-loop steps send on a fixed schedule and
//! time every request from when it was *due*, so a stalled sender charges
//! its stall to every request it delayed; the closed loop keeps one
//! request outstanding; burst steps keep the worker busy back to back
//! between idle calibrations. `{"control":"stats"}` frames ride in-band on
//! the same connection.

use crate::calib;
use crate::hist::ServerStats;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// A monotonic clock in ns, and a way to wait for a point on it.
pub trait Clock: Sync {
    /// Now, ns.
    fn now_ns(&self) -> u64;
    /// Returns once `now_ns() >= t`.
    fn sleep_until_ns(&self, t: u64);
}

/// The wall clock, counted from `epoch`.
pub struct RealClock {
    /// Zero of the clock.
    pub epoch: Instant,
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn sleep_until_ns(&self, t: u64) {
        let now = self.now_ns();
        if t > now {
            std::thread::sleep(Duration::from_nanos(t - now));
        }
    }
}

/// One request the open loop sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sent {
    /// Index in the schedule.
    pub index: usize,
    /// When it was due, ns.
    pub due_ns: u64,
    /// When the sender got to it, ns.
    pub sent_ns: u64,
}

impl Sent {
    /// How late the generator ran for this request.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Sends request `i` at `start_ns + i / rate` for every due time before
/// `until_ns`. The schedule never shifts: after a stall the sender sends
/// back to back until it has caught up, and each request keeps its
/// original due time. `send` returns `false` to stop early.
pub fn open_loop(
    clock: &dyn Clock,
    start_ns: u64,
    rate: f64,
    until_ns: u64,
    mut send: impl FnMut(usize, u64) -> bool,
) -> Vec<Sent> {
    let mut out = Vec::new();
    for index in 0.. {
        let due_ns = start_ns + (index as f64 * 1e9 / rate) as u64;
        if due_ns >= until_ns {
            break;
        }
        clock.sleep_until_ns(due_ns);
        let sent_ns = clock.now_ns();
        out.push(Sent {
            index,
            due_ns,
            sent_ns,
        });
        if !send(index, due_ns) {
            break;
        }
    }
    out
}

/// How a step offers load.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Fixed rate (jobs/s) for a duration.
    Open {
        /// Offered rate.
        rate: f64,
        /// Sending window, s.
        secs: f64,
        /// Poll stats at 10 Hz during the step. A poll's reply holds the
        /// jobs' replies behind it on the socket for a send gap, so the
        /// fixed-rate latency steps do not poll.
        poll: bool,
    },
    /// One request outstanding, `count` requests; no polling (a poll
    /// would ACK the reply early).
    Closed {
        /// Requests to send.
        count: usize,
    },
    /// Bursts of `size` jobs sent back to back, for `secs`. After each
    /// burst's last reply, with nothing outstanding, one stats poll and
    /// then one calibration: the worker runs each burst back to back, and
    /// the poll snapshots bound its busy time burst by burst.
    Bursts {
        /// Jobs per burst (below the server's queue capacity).
        size: usize,
        /// Sending window, s.
        secs: f64,
    },
}

/// Everything one step observed.
#[derive(Debug)]
pub struct StepOut {
    /// `(job id, item index, due ns, sent ns)` per job sent.
    pub sent: Vec<(u64, usize, u64, u64)>,
    /// Reply arrival time and line, by job id.
    pub replies: HashMap<u64, (u64, String)>,
    /// `(sent ns, reply ns, stats line)` per in-step poll.
    pub polls: Vec<(u64, u64, String)>,
    /// Calibration kernel times, ns per unit, of a burst step: one before
    /// the first burst and one after each poll, all taken while nothing
    /// was outstanding on the connection.
    pub kernel_ns: Vec<f64>,
    /// Telemetry snapshot before the step.
    pub before: ServerStats,
    /// Telemetry snapshot after every reply arrived.
    pub after: ServerStats,
}

const STATS_FRAME: &[u8] = b"{\"control\": \"stats\"}\n";
const STATS_PREFIX: &str = "{\"schema\": \"tossa-service-stats/1\"";
const POLL_NS: u64 = 100_000_000;
/// How long a step waits for a reply before giving up on it.
const REPLY_WAIT: Duration = Duration::from_secs(10);

/// The job id of a `tossa-job-report/1` line.
pub fn report_id(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"id\": ")? + 6..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One connection to the service.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Job ids are unique over the connection's life.
    pub next_id: u64,
}

impl Conn {
    /// Wraps a connected stream (Nagle off on the client side).
    ///
    /// # Errors
    /// Socket setup failed.
    pub fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 1,
        })
    }

    /// Reads one line, giving up at `deadline`. `Ok(None)` on timeout.
    fn read_line(
        &mut self,
        buf: &mut Vec<u8>,
        deadline: Instant,
    ) -> Result<Option<String>, String> {
        read_line(&mut self.reader, buf, deadline)
    }

    /// A synchronous stats round trip (no job may be outstanding).
    /// Returns the snapshot and the round-trip time.
    ///
    /// # Errors
    /// Socket failure, timeout, or a malformed reply.
    pub fn stats(&mut self) -> Result<(ServerStats, Duration), String> {
        let t0 = Instant::now();
        self.writer
            .write_all(STATS_FRAME)
            .map_err(|e| format!("stats send: {e}"))?;
        let deadline = t0 + REPLY_WAIT;
        let mut buf = Vec::new();
        loop {
            match self.read_line(&mut buf, deadline)? {
                Some(line) if line.starts_with(STATS_PREFIX) => {
                    return Ok((ServerStats::parse(&line)?, t0.elapsed()));
                }
                Some(_) => {}
                None => return Err("no stats reply within 10 s".into()),
            }
        }
    }

    /// Runs one step: `frames[item]` is the frame body after the id, and
    /// `pick(k)` names the item of the step's `k`-th job.
    ///
    /// # Errors
    /// Socket failure or a malformed stats reply.
    pub fn step(
        &mut self,
        clock: &RealClock,
        frames: &[String],
        pick: &(dyn Fn(u64) -> usize + Sync),
        load: Load,
    ) -> Result<StepOut, String> {
        let (before, _) = self.stats()?;
        let first_id = self.next_id;
        let sent_jobs = AtomicU64::new(0);
        let answered = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let polls_out: Mutex<VecDeque<u64>> = Mutex::new(VecDeque::new());
        // One message per reply, job or poll.
        let (tx, rx) = mpsc::channel::<()>();
        let (writer, reader) = (&mut self.writer, &mut self.reader);
        let polls_pending = || polls_out.lock().map_or(0, |q| q.len());

        let (sent, replies, polls, kernel_ns, err) = std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let mut replies = HashMap::new();
                let mut polls = Vec::new();
                let mut buf = Vec::new();
                let mut drain_deadline = None;
                loop {
                    let outstanding = sent_jobs.load(Ordering::SeqCst) as usize != replies.len()
                        || polls_pending() > 0;
                    if done.load(Ordering::SeqCst) {
                        if !outstanding {
                            break;
                        }
                        let d = *drain_deadline.get_or_insert_with(|| Instant::now() + REPLY_WAIT);
                        if Instant::now() >= d {
                            break;
                        }
                    }
                    let line = match read_line(
                        reader,
                        &mut buf,
                        Instant::now() + Duration::from_millis(100),
                    ) {
                        Ok(Some(l)) => l,
                        Ok(None) => continue,
                        Err(e) => return (replies, polls, Some(e)),
                    };
                    let at = clock.now_ns();
                    if line.starts_with(STATS_PREFIX) {
                        let sent_at = polls_out.lock().ok().and_then(|mut q| q.pop_front());
                        polls.push((sent_at.unwrap_or(at), at, line));
                    } else if let Some(id) = report_id(&line) {
                        replies.insert(id, (at, line));
                        answered.fetch_add(1, Ordering::SeqCst);
                    } else {
                        continue;
                    }
                    let _ = tx.send(());
                }
                (replies, polls, None)
            });

            let mut sent: Vec<(u64, usize, u64, u64)> = Vec::new();
            let mut err = None;
            let mut kernel_ns = Vec::new();
            let send_job = |w: &mut TcpStream, k: u64, due: u64, sent: &mut Vec<_>| {
                let id = first_id + k;
                let item = pick(k);
                let frame = format!("{{\"id\": {id}{}\n", frames[item]);
                let at = clock.now_ns();
                sent_jobs.fetch_add(1, Ordering::SeqCst);
                sent.push((id, item, due.min(at), at));
                w.write_all(frame.as_bytes())
                    .map_err(|e| format!("send: {e}"))
            };
            let poll = |w: &mut TcpStream| {
                if let Ok(mut q) = polls_out.lock() {
                    q.push_back(clock.now_ns());
                }
                w.write_all(STATS_FRAME).map_err(|e| format!("poll: {e}"))
            };
            // Waits until every job and poll sent so far has its reply.
            let settle = || loop {
                if answered.load(Ordering::SeqCst) == sent_jobs.load(Ordering::SeqCst)
                    && polls_pending() == 0
                {
                    return true;
                }
                if rx.recv_timeout(REPLY_WAIT).is_err() {
                    return false;
                }
            };
            let t0 = clock.now_ns();
            match load {
                Load::Open {
                    rate,
                    secs,
                    poll: polled,
                } => {
                    let until = t0 + (secs * 1e9) as u64;
                    let mut next_poll = if polled { t0 + POLL_NS } else { u64::MAX };
                    open_loop(clock, t0, rate, until, |k, due| {
                        if clock.now_ns() >= next_poll {
                            next_poll += POLL_NS;
                            if let Err(e) = poll(writer) {
                                err = Some(e);
                                return false;
                            }
                        }
                        match send_job(writer, k as u64, due, &mut sent) {
                            Ok(()) => true,
                            Err(e) => {
                                err = Some(e);
                                false
                            }
                        }
                    });
                }
                Load::Closed { count } => {
                    for k in 0..count as u64 {
                        err = send_job(writer, k, clock.now_ns(), &mut sent).err();
                        if err.is_some() || !settle() {
                            break;
                        }
                    }
                }
                Load::Bursts { size, secs } => {
                    let until = t0 + (secs * 1e9) as u64;
                    kernel_ns.push(calib::measure());
                    let mut k = 0u64;
                    'bursts: while clock.now_ns() < until {
                        for _ in 0..size {
                            err = send_job(writer, k, clock.now_ns(), &mut sent).err();
                            k += 1;
                            if err.is_some() {
                                break 'bursts;
                            }
                        }
                        if !settle() {
                            break;
                        }
                        err = poll(writer).err();
                        if err.is_some() || !settle() {
                            break;
                        }
                        kernel_ns.push(calib::measure());
                    }
                }
            }
            done.store(true, Ordering::SeqCst);
            let (replies, polls, rerr) = receiver
                .join()
                .unwrap_or_else(|_| (HashMap::new(), Vec::new(), Some("receiver panicked".into())));
            (sent, replies, polls, kernel_ns, err.or(rerr))
        });
        if let Some(e) = err {
            return Err(e);
        }
        self.next_id = first_id + sent.len() as u64;
        Ok(StepOut {
            sent,
            replies,
            polls,
            kernel_ns,
            before,
            after: self.stats()?.0,
        })
    }
}

/// Reads one `\n`-terminated line into `buf` (keeping partial data across
/// read timeouts). `Ok(None)` when `deadline` passes first.
fn read_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    deadline: Instant,
) -> Result<Option<String>, String> {
    loop {
        match reader.read_until(b'\n', buf) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(_) if buf.ends_with(b"\n") => {
                let line = String::from_utf8_lossy(buf).trim_end().to_string();
                buf.clear();
                return Ok(Some(line));
            }
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if Instant::now() >= deadline {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_ids_are_read_from_the_line_prefix() {
        assert_eq!(
            report_id("{\"schema\": \"tossa-job-report/1\", \"id\": 4711, \"function\": \"f\"}"),
            Some(4711)
        );
        assert_eq!(report_id("{\"schema\": \"x\"}"), None);
    }
}
