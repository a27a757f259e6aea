//! In-memory spans recorded by the benchmark around its calls into each
//! layer (nothing is recorded inside the program), their per-layer self
//! times, and their export in Chrome `trace_event` format.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`core.pinning`, `regalloc.prepare`, …) or a grouping
    /// span (`workload`, `function`, `job`).
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Function or job id the span belongs to.
    pub id: u64,
}

/// A span recorder: spans nest by call structure.
pub struct Tracer {
    epoch: Instant,
    /// Chrome `tid` of this tracer's spans (one per traced phase).
    pub tid: u32,
    /// Every span, in open order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    id: u64,
}

impl Tracer {
    /// A fresh tracer whose clock starts at `epoch`.
    pub fn new(epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            epoch,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
            id: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the function/job id stamped on spans opened from now on.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let k = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            id: self.id,
        });
        self.stack.push(k);
        let out = f(self);
        self.stack.pop();
        self.spans[k].end_ns = self.now();
        out
    }

    /// Per-name totals of self time (duration minus the part covered by
    /// direct children), in ns, each span scaled by `weight` of its id.
    pub fn self_times(&self, weight: impl Fn(u64) -> f64) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*c) as f64;
            *out.entry(s.name).or_insert(0.0) += own * weight(s.id);
        }
        out
    }
}

/// Renders tracers as one Chrome `trace_event` document.
pub fn chrome_json(tracers: &[&Tracer]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    let mut first = true;
    for t in tracers {
        for (k, s) in t.spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"span\": {k}, \"parent\": {parent}, \"id\": {}}}}}",
                s.name,
                t.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id
            );
        }
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_nesting_is_recorded() {
        let mut t = Tracer::new(Instant::now(), 1);
        t.span("function", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |_| ());
        });
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        let st = t.self_times(|_| 1.0);
        let total: f64 = st.values().sum();
        assert_eq!(total, (t.spans[0].end_ns - t.spans[0].start_ns) as f64);
        assert!(st["a"] >= 2e6);
        assert_eq!(t.self_times(|_| 0.5)["a"], st["a"] / 2.0);
        tossa_trace::validate_json(&chrome_json(&[&t])).expect("chrome trace is JSON");
    }
}
