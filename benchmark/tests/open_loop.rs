//! Open-loop lateness accounting against a stalled fake sender, on a
//! virtual clock: a stall must show up as lateness on every request it
//! delayed, the schedule must not shift (no request is dropped or
//! re-timed), and latency measured from the due time must charge the
//! stall to those requests.

use std::sync::Mutex;
use tossa_benchmark::loadgen::{open_loop, Clock};

struct FakeClock(Mutex<u64>);

impl FakeClock {
    fn advance(&self, ns: u64) {
        *self.0.lock().unwrap() += ns;
    }
}

impl Clock for FakeClock {
    fn now_ns(&self) -> u64 {
        *self.0.lock().unwrap()
    }

    fn sleep_until_ns(&self, t: u64) {
        let mut now = self.0.lock().unwrap();
        *now = (*now).max(t);
    }
}

const MS: u64 = 1_000_000;

#[test]
fn a_stall_is_charged_to_every_request_it_delays() {
    let clock = FakeClock(Mutex::new(0));
    // 1000 requests/s for 200 ms; request 10's send blocks for 50 ms.
    let mut replies = Vec::new();
    let sent = open_loop(&clock, 0, 1000.0, 200 * MS, |i, due| {
        if i == 10 {
            clock.advance(50 * MS);
        }
        // The fake server answers the moment the send returns.
        replies.push((i, due, clock.now_ns()));
        true
    });

    assert_eq!(
        sent.len(),
        200,
        "the schedule neither drops nor adds requests"
    );
    for (k, s) in sent.iter().enumerate() {
        assert_eq!(s.index, k);
        assert_eq!(s.due_ns, k as u64 * MS, "due times never shift");
    }
    // Requests before and including the stalled one went out on time.
    assert!(sent[..=10].iter().all(|s| s.late_ns() == 0));
    // Afterwards the generator is late by what is left of the stall, and
    // sends back to back until it has caught up at request 60.
    for s in &sent[11..60] {
        assert_eq!(s.late_ns(), 60 * MS - s.due_ns, "request {}", s.index);
    }
    assert!(sent[60..].iter().all(|s| s.late_ns() == 0));
    // Latency from the due time includes the stall for request 10 itself.
    let (_, due10, done10) = replies[10];
    assert_eq!(done10 - due10, 50 * MS);
    let lateness: u64 = sent.iter().map(|s| s.late_ns()).sum();
    assert_eq!(lateness, (1..50).map(|j| j * MS).sum::<u64>());
}

#[test]
fn sending_stops_when_the_sender_reports_a_broken_connection() {
    let clock = FakeClock(Mutex::new(0));
    let sent = open_loop(&clock, 0, 100.0, 1000 * MS, |i, _| i < 3);
    assert_eq!(sent.len(), 4);
}
