//! # tossa-trace — pipeline observability
//!
//! A lightweight, zero-cost-when-disabled event sink threaded through
//! the out-of-SSA pipeline the same way [`AnalysisCache`] is: passes
//! call free functions ([`count`], [`span`], [`event`]) that are no-ops
//! unless a collector is installed on the current thread with
//! [`capture`]. Hot loops (the interference oracle, the liveness
//! worklist) accumulate in plain local integers and flush once per
//! pass, so the disabled path costs one thread-local read per pass, not
//! per iteration.
//!
//! Three views of the recorded [`TraceData`]:
//!
//! * [`summary_table`] — a human-readable counter/span table;
//! * [`jsonl_record`] — one JSON line per (function × experiment) run,
//!   schema `tossa-trace/1`, consumed by the bench runner;
//! * [`chrome_trace`] — a Chrome `trace_event` document loadable in
//!   `about:tracing` / [Perfetto](https://ui.perfetto.dev).
//!
//! All JSON is hand-rolled (the build has no serde); [`validate_json`]
//! is a tiny recursive-descent well-formedness checker used by the CI
//! schema tests.
//!
//! [`metrics`] holds the lock-free instruments (counters, gauges,
//! log-linear histograms) a long-running process records into; which
//! instruments the compile service keeps, and how it exports them, is
//! `tossa_server::metrics`' business.
//!
//! [`AnalysisCache`]: https://docs.rs/tossa-analysis

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod provenance;

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Every structured counter the pipeline records. The discriminant
/// indexes into [`CounterSet`]; [`Counter::name`] is the stable
/// snake_case key used by every exporter (and by the golden tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Counter {
    /// φ-congruence classes formed by `Program_pinning` (non-trivial
    /// affinity components that received a shared resource).
    CongruenceClasses,
    /// Variable pairs merged onto one resource inside those classes.
    CoalesceMerges,
    /// Variables already pinned before `Program_pinning` ran.
    PinnedVars,
    /// Affinity edges created from φs (and refinement candidates).
    AffinityEdges,
    /// Affinity edges discarded by the initial interference pruning.
    AffinityPrunedInitial,
    /// Affinity edges discarded by the bipartite pruning rounds.
    AffinityPrunedBipartite,
    /// Pin/merge rejections: paper interference class 1 (dominance with
    /// overlapping live ranges — `variable_kills` Case 1).
    InterfereClass1,
    /// Rejections: class 2 (φ parallel-copy kill — `variable_kills`
    /// Case 2).
    InterfereClass2,
    /// Rejections: class 3 (φ arguments disagree in a shared
    /// predecessor).
    InterfereClass3,
    /// Rejections: class 4 (resources of φs in the same block).
    InterfereClass4,
    /// Rejections: both variables defined by the same instruction.
    InterfereSameInst,
    /// Queries answered by the memoized vertex-interference oracle.
    OracleQueries,
    /// Oracle queries served from its memo table.
    OracleCacheHits,
    /// φ copies inserted by out-of-pinned-SSA reconstruction.
    CopiesPhi,
    /// ABI (pin-repair) copies inserted by reconstruction.
    CopiesAbi,
    /// Repair copies inserted by reconstruction.
    CopiesRepair,
    /// Cycle-breaking temporaries of parallel-copy sequentialization.
    CopiesTemp,
    /// Moves removed by aggressive (Chaitin) coalescing.
    CopiesCoalesced,
    /// φ instructions removed by reconstruction.
    PhisRemoved,
    /// Critical edges split for φ copy placement.
    EdgesSplit,
    /// Liveness fixpoint worklist pops.
    LivenessIterations,
    /// Analysis-cache accessor calls served from the memo.
    AnalysisCacheHits,
    /// Analysis-cache accessor calls that recomputed.
    AnalysisCacheMisses,
    /// Interpreter steps executed (verification fuel spent).
    InterpSteps,
    /// Parallel-copy groups sequentialized.
    ParallelCopyGroups,
    /// Parallel-copy cycles broken with a temporary.
    ParallelCopyCycles,
    /// Def/use pins placed by `pinningSP`.
    PinsSp,
    /// Operand pins placed by `pinningABI`.
    PinsAbi,
    /// φ-resource pins placed by `pinningCSSA` / `Program_pinning`.
    PinsPhi,
    /// Chaos corruptions injected (checked mode).
    ChaosInjected,
    /// Graceful degradations to the naive fallback (checked mode).
    FallbacksTaken,
    /// Variables the register allocator evicted to the spill frame.
    AllocSpilledVars,
    /// Spill reloads (`spillld`) the allocator inserted.
    AllocReloads,
    /// Spill stores (`spillst`) the allocator inserted.
    AllocStores,
    /// `mov`s still present after register allocation (self-moves under
    /// the assignment excluded).
    AllocMovesAfter,
}

impl Counter {
    /// Number of counters (the [`CounterSet`] array length).
    pub const COUNT: usize = 35;

    /// Every counter, in declaration (= export) order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::CongruenceClasses,
        Counter::CoalesceMerges,
        Counter::PinnedVars,
        Counter::AffinityEdges,
        Counter::AffinityPrunedInitial,
        Counter::AffinityPrunedBipartite,
        Counter::InterfereClass1,
        Counter::InterfereClass2,
        Counter::InterfereClass3,
        Counter::InterfereClass4,
        Counter::InterfereSameInst,
        Counter::OracleQueries,
        Counter::OracleCacheHits,
        Counter::CopiesPhi,
        Counter::CopiesAbi,
        Counter::CopiesRepair,
        Counter::CopiesTemp,
        Counter::CopiesCoalesced,
        Counter::PhisRemoved,
        Counter::EdgesSplit,
        Counter::LivenessIterations,
        Counter::AnalysisCacheHits,
        Counter::AnalysisCacheMisses,
        Counter::InterpSteps,
        Counter::ParallelCopyGroups,
        Counter::ParallelCopyCycles,
        Counter::PinsSp,
        Counter::PinsAbi,
        Counter::PinsPhi,
        Counter::ChaosInjected,
        Counter::FallbacksTaken,
        Counter::AllocSpilledVars,
        Counter::AllocReloads,
        Counter::AllocStores,
        Counter::AllocMovesAfter,
    ];

    /// Stable snake_case key used in JSON exports and tables.
    pub fn name(self) -> &'static str {
        match self {
            Counter::CongruenceClasses => "congruence_classes",
            Counter::CoalesceMerges => "coalesce_merges",
            Counter::PinnedVars => "pinned_vars",
            Counter::AffinityEdges => "affinity_edges",
            Counter::AffinityPrunedInitial => "affinity_pruned_initial",
            Counter::AffinityPrunedBipartite => "affinity_pruned_bipartite",
            Counter::InterfereClass1 => "interfere_class1",
            Counter::InterfereClass2 => "interfere_class2",
            Counter::InterfereClass3 => "interfere_class3",
            Counter::InterfereClass4 => "interfere_class4",
            Counter::InterfereSameInst => "interfere_same_inst",
            Counter::OracleQueries => "oracle_queries",
            Counter::OracleCacheHits => "oracle_cache_hits",
            Counter::CopiesPhi => "copies_phi",
            Counter::CopiesAbi => "copies_abi",
            Counter::CopiesRepair => "copies_repair",
            Counter::CopiesTemp => "copies_temp",
            Counter::CopiesCoalesced => "copies_coalesced",
            Counter::PhisRemoved => "phis_removed",
            Counter::EdgesSplit => "edges_split",
            Counter::LivenessIterations => "liveness_iterations",
            Counter::AnalysisCacheHits => "analysis_cache_hits",
            Counter::AnalysisCacheMisses => "analysis_cache_misses",
            Counter::InterpSteps => "interp_steps",
            Counter::ParallelCopyGroups => "parallel_copy_groups",
            Counter::ParallelCopyCycles => "parallel_copy_cycles",
            Counter::PinsSp => "pins_sp",
            Counter::PinsAbi => "pins_abi",
            Counter::PinsPhi => "pins_phi",
            Counter::ChaosInjected => "chaos_injected",
            Counter::FallbacksTaken => "fallbacks_taken",
            Counter::AllocSpilledVars => "alloc_spilled_vars",
            Counter::AllocReloads => "alloc_reloads",
            Counter::AllocStores => "alloc_stores",
            Counter::AllocMovesAfter => "alloc_moves_after",
        }
    }
}

/// A dense fixed-size bag of counter totals; `+` over runs is array
/// addition.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CounterSet {
    vals: [u64; Counter::COUNT],
}

impl Default for CounterSet {
    fn default() -> Self {
        CounterSet {
            vals: [0; Counter::COUNT],
        }
    }
}

impl std::fmt::Debug for CounterSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut m = f.debug_map();
        for c in Counter::ALL {
            if self.get(c) != 0 {
                m.entry(&c.name(), &self.get(c));
            }
        }
        m.finish()
    }
}

impl CounterSet {
    /// An all-zero set.
    pub fn new() -> CounterSet {
        CounterSet::default()
    }

    /// Reads one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }

    /// Adds `n` to one counter.
    pub fn add(&mut self, c: Counter, n: u64) {
        self.vals[c as usize] += n;
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &CounterSet) {
        for i in 0..Counter::COUNT {
            self.vals[i] += other.vals[i];
        }
    }

    /// Total copies inserted by reconstruction (φ + ABI + repair +
    /// cycle temporaries) — the quantity the paper's tables count
    /// before cleanup.
    pub fn copies_inserted(&self) -> u64 {
        self.get(Counter::CopiesPhi)
            + self.get(Counter::CopiesAbi)
            + self.get(Counter::CopiesRepair)
            + self.get(Counter::CopiesTemp)
    }

    /// Renders the set as a one-line JSON object with every counter
    /// present (stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", c.name(), self.get(*c));
        }
        out.push('}');
        out
    }
}

/// One closed wall-time span. Spans are recorded on close, in close
/// order; `depth` is the nesting level at open time, and the set of
/// spans of one capture is well-nested by construction (the collector
/// keeps an open-span stack).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Pass name (e.g. `"coalesce"`, `"reconstruct"`).
    pub name: &'static str,
    /// Nesting depth at open time (0 = top level).
    pub depth: u32,
    /// Start, nanoseconds since the process-wide trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Id of the OS thread that ran the span (stable small integer).
    pub tid: u64,
}

/// A point event (chaos injection, fallback, verifier rejection).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Event kind (e.g. `"chaos"`, `"fallback"`).
    pub kind: &'static str,
    /// Free-form detail (corruption class, error summary).
    pub detail: String,
    /// Timestamp, nanoseconds since the trace epoch.
    pub at_ns: u64,
    /// Id of the OS thread that recorded the event.
    pub tid: u64,
}

/// Everything one [`capture`] recorded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceData {
    /// Counter totals.
    pub counters: CounterSet,
    /// Closed spans, in close order.
    pub spans: Vec<Span>,
    /// Point events, in record order.
    pub events: Vec<Event>,
    /// Decision-provenance records, in record order (IDs are dense
    /// per-capture sequence numbers; see [`provenance`]).
    pub records: Vec<provenance::Record>,
}

impl TraceData {
    /// Accumulates `other` into `self` (suite-level aggregation).
    /// Provenance IDs are re-numbered so they stay dense and unique in
    /// the merged stream.
    pub fn merge(&mut self, other: &TraceData) {
        self.counters.merge(&other.counters);
        self.spans.extend(other.spans.iter().cloned());
        self.events.extend(other.events.iter().cloned());
        let base = self.records.len() as u32;
        self.records
            .extend(other.records.iter().map(|r| provenance::Record {
                id: base + r.id,
                kind: r.kind.clone(),
            }));
    }

    /// Checks the span set is well-nested: reconstructing the open/close
    /// sequence from `(start_ns, dur_ns, depth)` must behave like
    /// balanced parentheses — every span's recorded depth equals the
    /// number of still-open enclosing spans, and child intervals lie
    /// within their parent. Returns a description of the first
    /// violation.
    ///
    /// # Errors
    /// Returns the first nesting violation.
    pub fn check_well_nested(&self) -> Result<(), String> {
        // Per-thread check: spans from different worker threads overlap
        // freely on the global clock.
        let mut tids: Vec<u64> = self.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let mut spans: Vec<&Span> = self.spans.iter().filter(|s| s.tid == tid).collect();
            // Open order: by start time, ties broken outermost first.
            spans.sort_by_key(|s| (s.start_ns, s.depth));
            let mut stack: Vec<&Span> = Vec::new();
            for s in spans {
                while let Some(top) = stack.last() {
                    if s.start_ns >= top.start_ns + top.dur_ns {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                if s.depth as usize != stack.len() {
                    return Err(format!(
                        "span {:?} at depth {} but {} spans open",
                        s.name,
                        s.depth,
                        stack.len()
                    ));
                }
                if let Some(top) = stack.last() {
                    if s.start_ns + s.dur_ns > top.start_ns + top.dur_ns {
                        return Err(format!(
                            "span {:?} ends after its parent {:?}",
                            s.name, top.name
                        ));
                    }
                }
                stack.push(s);
            }
        }
        Ok(())
    }
}

struct Collector {
    data: TraceData,
    open: u32,
    /// Counters-only mode: spans, events, and provenance records are
    /// skipped (no clock reads, no string building); `count` is
    /// unaffected. Installed by [`capture_counters`].
    counters_only: bool,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// True when a collector is installed on this thread. Hot loops guard
/// their bookkeeping on this and flush totals once.
pub fn enabled() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// True when a *full* collector is installed — one that also records
/// provenance. Work that only feeds [`provenance::record`] (witness
/// strings, cause maps) should guard on this, not [`enabled`], so a
/// counters-only capture skips it.
pub fn verbose() -> bool {
    COLLECTOR.with(|c| c.borrow().as_ref().is_some_and(|col| !col.counters_only))
}

/// Adds `n` to a counter; no-op when tracing is disabled.
pub fn count(counter: Counter, n: u64) {
    if n == 0 {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            col.data.counters.add(counter, n);
        }
    });
}

/// Records a point event; no-op when tracing is disabled. `detail` is
/// built lazily so the disabled path allocates nothing.
pub fn event(kind: &'static str, detail: impl FnOnce() -> String) {
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut().filter(|col| !col.counters_only) {
            col.data.events.push(Event {
                kind,
                detail: detail(),
                at_ns: now_ns(),
                tid: tid(),
            });
        }
    });
}

/// Runs `f` inside a named wall-time span. When tracing is disabled
/// this is exactly `f()` — no clock reads.
///
/// The span is closed by a drop guard, so a panic unwinding out of `f`
/// (checked mode catches chaos-induced panics with `catch_unwind`)
/// still balances the open-span stack and records the span — later
/// spans in the same capture keep their true depth.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = COLLECTOR.with(|c| {
        let mut b = c.borrow_mut();
        match b.as_mut() {
            Some(col) if !col.counters_only => {
                let depth = col.open;
                col.open += 1;
                Some((depth, now_ns()))
            }
            _ => None,
        }
    });
    let Some((depth, start_ns)) = opened else {
        return f();
    };
    struct Close {
        name: &'static str,
        depth: u32,
        start_ns: u64,
    }
    impl Drop for Close {
        fn drop(&mut self) {
            let dur_ns = now_ns().saturating_sub(self.start_ns);
            COLLECTOR.with(|c| {
                if let Some(col) = c.borrow_mut().as_mut() {
                    col.open = col.open.saturating_sub(1);
                    col.data.spans.push(Span {
                        name: self.name,
                        depth: self.depth,
                        start_ns: self.start_ns,
                        dur_ns,
                        tid: tid(),
                    });
                }
            });
        }
    }
    let _close = Close {
        name,
        depth,
        start_ns,
    };
    f()
}

/// Installs a fresh collector on this thread, runs `f`, and returns its
/// result together with everything recorded. Nests: an enclosing
/// capture is suspended (it records nothing from inside `f`) and
/// restored afterwards.
///
/// The scope is explicit and unwind-safe: if `f` panics, the collector
/// installed for it is discarded and the enclosing capture (if any) is
/// restored before the panic propagates, so one function's aborted run
/// can never leak partial state into a sibling's capture on the same
/// thread.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, TraceData) {
    capture_with(false, f)
}

/// [`capture`] restricted to counters: spans, events, and provenance
/// records are skipped entirely (no clock reads, no record-building
/// closures), so the instrumented run costs little more than an
/// untraced one. Counter totals are identical to a full capture of the
/// same deterministic computation. Nests and unwinds exactly like
/// [`capture`].
pub fn capture_counters<T>(f: impl FnOnce() -> T) -> (T, CounterSet) {
    let (out, data) = capture_with(true, f);
    (out, data.counters)
}

/// The body of [`capture`] and [`capture_counters`].
fn capture_with<T>(counters_only: bool, f: impl FnOnce() -> T) -> (T, TraceData) {
    struct Restore {
        prev: Option<Collector>,
        armed: bool,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            if self.armed {
                let prev = self.prev.take();
                COLLECTOR.with(|c| *c.borrow_mut() = prev);
            }
        }
    }
    let prev = COLLECTOR.with(|c| {
        c.borrow_mut().replace(Collector {
            data: TraceData::default(),
            open: 0,
            counters_only,
        })
    });
    let mut guard = Restore { prev, armed: true };
    let out = f();
    let data = COLLECTOR.with(|c| {
        let col = c.borrow_mut().take().expect("collector still installed");
        col.data
    });
    COLLECTOR.with(|c| *c.borrow_mut() = guard.prev.take());
    guard.armed = false;
    (out, data)
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders one `tossa-trace/1` JSON line for a (function × experiment)
/// run.
pub fn jsonl_record(function: &str, experiment: &str, data: &TraceData) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\": \"tossa-trace/1\", \"function\": \"{}\", \"experiment\": \"{}\", \"counters\": {}",
        escape_json(function),
        escape_json(experiment),
        data.counters.to_json()
    );
    out.push_str(", \"spans\": [");
    for (i, s) in data.spans.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"depth\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"tid\": {}}}",
            escape_json(s.name),
            s.depth,
            s.start_ns,
            s.dur_ns,
            s.tid
        );
    }
    out.push_str("], \"events\": [");
    for (i, e) in data.events.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"kind\": \"{}\", \"detail\": \"{}\", \"at_ns\": {}, \"tid\": {}}}",
            escape_json(e.kind),
            escape_json(&e.detail),
            e.at_ns,
            e.tid
        );
    }
    out.push_str("], \"records\": ");
    out.push_str(&provenance::records_json(&data.records));
    out.push('}');
    out
}

/// Renders labelled traces as a Chrome `trace_event` document
/// (`{"traceEvents": [...]}`, complete `"X"` events with microsecond
/// timestamps) loadable in `about:tracing` or Perfetto.
pub fn chrome_trace(traces: &[(String, TraceData)]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    for (label, data) in traces {
        for s in &data.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "  {{\"name\": \"{}\", \"cat\": \"pass\", \"ph\": \"X\", \
                 \"ts\": {}.{:03}, \"dur\": {}.{:03}, \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"run\": \"{}\"}}}}",
                escape_json(s.name),
                s.start_ns / 1000,
                s.start_ns % 1000,
                s.dur_ns / 1000,
                s.dur_ns % 1000,
                s.tid,
                escape_json(label)
            );
        }
        for e in &data.events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "  {{\"name\": \"{}\", \"cat\": \"event\", \"ph\": \"i\", \
                 \"ts\": {}.{:03}, \"pid\": 1, \"tid\": {}, \"s\": \"t\", \
                 \"args\": {{\"run\": \"{}\", \"detail\": \"{}\"}}}}",
                escape_json(e.kind),
                e.at_ns / 1000,
                e.at_ns % 1000,
                e.tid,
                escape_json(label),
                escape_json(&e.detail)
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Renders an aggregated human summary: non-zero counters plus total
/// wall time per span name.
pub fn summary_table(data: &TraceData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<28} {:>14}", "counter", "total");
    for c in Counter::ALL {
        let v = data.counters.get(c);
        if v != 0 {
            let _ = writeln!(out, "{:<28} {:>14}", c.name(), v);
        }
    }
    let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
    for s in &data.spans {
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some((_, ns, calls)) => {
                *ns += s.dur_ns;
                *calls += 1;
            }
            None => by_name.push((s.name, s.dur_ns, 1)),
        }
    }
    if !by_name.is_empty() {
        let _ = writeln!(out, "{:<28} {:>14} {:>8}", "span", "total_us", "calls");
        for (name, ns, calls) in by_name {
            let _ = writeln!(out, "{:<28} {:>14} {:>8}", name, ns / 1000, calls);
        }
    }
    if !data.events.is_empty() {
        let _ = writeln!(out, "events: {}", data.events.len());
    }
    out
}

/// Checks a string is one well-formed JSON value: [`json::parse_json`]
/// with the tree dropped (no object-key uniqueness check). Used by the
/// schema tests and the CLI export checks — the build has no JSON
/// library.
///
/// # Errors
/// Returns a byte offset and description of the first syntax error.
pub fn validate_json(s: &str) -> Result<(), String> {
    json::parse_json(s).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        assert!(!enabled());
        count(Counter::CoalesceMerges, 7);
        event("chaos", || "unseen".into());
        let v = span("outer", || 42);
        assert_eq!(v, 42);
        let ((), data) = capture(|| ());
        assert_eq!(data, TraceData::default());
    }

    #[test]
    fn capture_collects_counts_spans_events() {
        let (v, data) = capture(|| {
            count(Counter::CopiesPhi, 3);
            count(Counter::CopiesPhi, 2);
            event("fallback", || "naive".into());
            span("outer", || {
                span("inner", || count(Counter::CoalesceMerges, 1))
            });
            9
        });
        assert_eq!(v, 9);
        assert_eq!(data.counters.get(Counter::CopiesPhi), 5);
        assert_eq!(data.counters.get(Counter::CoalesceMerges), 1);
        assert_eq!(data.events.len(), 1);
        assert_eq!(data.spans.len(), 2);
        // Close order: inner first.
        assert_eq!(data.spans[0].name, "inner");
        assert_eq!(data.spans[0].depth, 1);
        assert_eq!(data.spans[1].name, "outer");
        assert_eq!(data.spans[1].depth, 0);
        data.check_well_nested().unwrap();
    }

    #[test]
    fn nested_capture_suspends_the_outer_one() {
        let ((), outer) = capture(|| {
            count(Counter::PinsSp, 1);
            let ((), inner) = capture(|| count(Counter::PinsSp, 10));
            assert_eq!(inner.counters.get(Counter::PinsSp), 10);
            count(Counter::PinsSp, 2);
        });
        assert_eq!(outer.counters.get(Counter::PinsSp), 3);
        assert!(!enabled());
    }

    #[test]
    fn exports_are_valid_json() {
        let ((), data) = capture(|| {
            count(Counter::InterfereClass1, 4);
            event("chaos", || "drop-phi-arg \"quoted\"".into());
            span("coalesce", || {});
        });
        let line = jsonl_record("fn\"x\"", "LphiC", &data);
        validate_json(&line).unwrap();
        assert!(line.contains("\"schema\": \"tossa-trace/1\""));
        let doc = chrome_trace(&[("f@LphiC".into(), data.clone())]);
        validate_json(&doc).unwrap();
        assert!(doc.contains("\"ph\": \"X\""));
        assert!(!summary_table(&data).is_empty());
        validate_json(&data.counters.to_json()).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1,]",
            "\"unterminated",
            "01x",
            "{\"a\": 1} trailing",
            "{'a': 1}",
            "1.",
            "1e",
        ] {
            assert!(validate_json(bad).is_err(), "accepted {bad:?}");
        }
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e+10",
            "{\"a\": [1, {\"b\": \"c\\n\"}], \"d\": true}",
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("rejected {good:?}: {e}"));
        }
    }

    #[test]
    fn counter_names_are_unique_and_match_all() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::COUNT);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT, "duplicate counter name");
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "ALL order must match discriminants");
        }
    }

    #[test]
    fn panic_inside_span_keeps_the_stack_balanced() {
        let (res, data) = capture(|| {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                span("outer", || {
                    span("inner", || panic!("chaos"));
                })
            }));
            assert!(caught.is_err());
            // A later span in the same capture must sit at depth 0
            // again, not under the unwound ones.
            span("after", || 7)
        });
        assert_eq!(res, 7);
        assert_eq!(data.spans.len(), 3);
        let after = data.spans.iter().find(|s| s.name == "after").unwrap();
        assert_eq!(after.depth, 0);
        data.check_well_nested().unwrap();
    }

    #[test]
    fn panicking_capture_restores_the_enclosing_scope() {
        // An inner capture that panics must not leak its collector: the
        // outer capture resumes recording and stays well-nested.
        let ((), outer) = capture(|| {
            count(Counter::EdgesSplit, 1);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                capture(|| {
                    count(Counter::EdgesSplit, 100);
                    panic!("chaos mid-capture");
                })
            }));
            assert!(caught.is_err());
            // Still scoped to the outer capture, not the dead inner one.
            assert!(enabled());
            count(Counter::EdgesSplit, 2);
            span("after", || {});
        });
        assert_eq!(outer.counters.get(Counter::EdgesSplit), 3);
        assert_eq!(outer.spans.len(), 1);
        outer.check_well_nested().unwrap();
    }

    #[test]
    fn merge_adds_counters_and_concatenates() {
        let ((), a) = capture(|| count(Counter::EdgesSplit, 2));
        let ((), b) = capture(|| {
            count(Counter::EdgesSplit, 3);
            span("x", || {});
        });
        let mut total = TraceData::default();
        total.merge(&a);
        total.merge(&b);
        assert_eq!(total.counters.get(Counter::EdgesSplit), 5);
        assert_eq!(total.spans.len(), 1);
    }
}
