//! Bounded admission queue with backpressure and load-shedding.
//!
//! The service accepts work through a fixed-capacity queue. A producer
//! that finds it full blocks for a bounded *grace* period (backpressure
//! — a slow client is slowed down, not failed); if space never opens it
//! is **shed** with a structured refusal instead of growing memory
//! without bound. Consumers block until work arrives or the queue is
//! closed and drained.
//!
//! Mutex poisoning is deliberately absorbed (`into_inner`): a worker
//! that panicked while holding the lock left a `VecDeque` in a valid
//! state (push/pop are not interruptible mid-invariant here), and the
//! service's whole point is to survive worker panics.
//!
//! When built with [`BoundedQueue::with_metrics`], the queue keeps the
//! `service_queue_depth` gauge current and records every push's
//! backpressure wait (shed or accepted — exactly one record per push,
//! so the histogram count equals submitted + shed) into
//! `service_queue_wait_ns`.

use crate::lock_ignoring_poison;
use crate::metrics::QueueMetrics;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Result of an admission attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// The job is in the queue.
    Accepted,
    /// The queue stayed full for the whole grace period (or is closed);
    /// the job was refused to protect the process.
    Shed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity MPMC queue: blocking pop, grace-bounded push.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
    metrics: Option<QueueMetrics>,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `cap` items (`cap` ≥ 1).
    pub fn new(cap: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
            metrics: None,
        }
    }

    /// A queue that keeps the depth gauge and enqueue-wait histogram
    /// in `metrics` current.
    pub fn with_metrics(cap: usize, metrics: QueueMetrics) -> BoundedQueue<T> {
        BoundedQueue {
            metrics: Some(metrics),
            ..BoundedQueue::new(cap)
        }
    }

    /// Tries to enqueue `item`, waiting up to `grace` for space.
    pub fn push(&self, item: T, grace: Duration) -> PushOutcome {
        let started = Instant::now();
        let outcome = self.push_inner(item, started + grace);
        if let Some(m) = &self.metrics {
            m.enqueue_wait_ns
                .record(started.elapsed().as_nanos() as u64);
            if outcome == PushOutcome::Accepted {
                m.depth.add(1);
            }
        }
        outcome
    }

    fn push_inner(&self, item: T, deadline: Instant) -> PushOutcome {
        let mut st = lock_ignoring_poison(&self.state);
        loop {
            if st.closed {
                return PushOutcome::Shed;
            }
            if st.items.len() < self.cap {
                st.items.push_back(item);
                self.not_empty.notify_one();
                return PushOutcome::Accepted;
            }
            let now = Instant::now();
            if now >= deadline {
                return PushOutcome::Shed;
            }
            let (guard, _) = self
                .not_full
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
    }

    /// Dequeues the next item, blocking while the queue is open and
    /// empty. Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = lock_ignoring_poison(&self.state);
        loop {
            if let Some(item) = st.items.pop_front() {
                self.not_full.notify_one();
                drop(st);
                if let Some(m) = &self.metrics {
                    m.depth.add(-1);
                }
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Closes the queue: pending items still drain, new pushes shed,
    /// blocked consumers wake as the queue empties.
    pub fn close(&self) {
        let mut st = lock_ignoring_poison(&self.state);
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        lock_ignoring_poison(&self.state).items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_sheds_after_grace() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.push(1, Duration::ZERO), PushOutcome::Accepted);
        assert_eq!(q.push(2, Duration::ZERO), PushOutcome::Accepted);
        assert_eq!(
            q.push(3, Duration::from_millis(10)),
            PushOutcome::Shed,
            "third push must shed on a capacity-2 queue"
        );
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn backpressure_admits_once_a_consumer_drains() {
        let q = Arc::new(BoundedQueue::new(1));
        assert_eq!(q.push(1u32, Duration::ZERO), PushOutcome::Accepted);
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            q2.pop()
        });
        // Grace long enough to cover the consumer's delay: the push must
        // block, then land.
        assert_eq!(q.push(2, Duration::from_secs(5)), PushOutcome::Accepted);
        assert_eq!(consumer.join().unwrap(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.push(1, Duration::ZERO);
        q.push(2, Duration::ZERO);
        q.close();
        assert_eq!(q.push(3, Duration::from_millis(5)), PushOutcome::Shed);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "closed+drained stays terminal");
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let q = Arc::new(BoundedQueue::new(4));
        let n = 200;
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut accepted = 0u32;
                    for k in 0..n {
                        if q.push(p * n + k, Duration::from_secs(10)) == PushOutcome::Accepted {
                            accepted += 1;
                        }
                    }
                    accepted
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = 0u32;
                    while q.pop().is_some() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        let sent: u32 = producers.into_iter().map(|h| h.join().unwrap()).sum();
        q.close();
        let got: u32 = consumers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(sent, 4 * n as u32);
        assert_eq!(got, sent);
    }
}
