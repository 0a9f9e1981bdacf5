//! Observability substrate for the V-Star reproduction: hierarchical spans
//! with phase attribution, monotonic counters, count-bucketed histograms, and
//! a deterministic JSONL event journal.
//!
//! # Model
//!
//! A *collector* is installed per thread with [`install`]; while one is
//! installed, the free functions [`span`], [`counter`], [`record`] and
//! [`event`] feed it. [`TelemetryGuard::finish`] uninstalls the collector and
//! returns a [`TelemetryReport`] split along the repository's determinism
//! convention: [`DeterministicFacts`] (counters, span tree, histograms,
//! journal — committed and diffable byte-for-byte across same-seed runs)
//! versus [`Timings`] (wall-clock span durations — reported, excluded from
//! determinism gates, following the `BENCH_serve.json` pattern).
//!
//! # Phase attribution
//!
//! Counter increments and histogram observations attach to the innermost
//! open span, so sibling subtrees partition every counter exactly: summing
//! `query.oracle.miss` over the `token-inference` and `vpa-learning`
//! subtrees is the paper's "%Q(Token)" / "%Q(VPA)" split, generalized to any
//! counter and any phase tree. Same-name sibling spans are merged (a loop
//! entering the `row-fill` span 50 times yields one node with
//! `entered == 50`), keeping the tree bounded by code structure.
//!
//! # Zero cost when disabled
//!
//! When no collector is installed anywhere in the process, every free
//! function is a single relaxed atomic load and a branch — no thread-local
//! access, no allocation. Instrumented hot paths (the compiled-artifact
//! serving layer) stay at full speed unless a collector is explicitly
//! installed, and instrumentation is applied at call granularity (per parse,
//! never per character) so even enabled runs pay a bounded price.
//!
//! Collectors are thread-local by design: work done on other threads is not
//! recorded, which keeps the journal deterministic under arbitrary thread
//! scheduling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod metrics;
mod report;

pub use histogram::{BucketRow, Histogram, QuantileSummary};
pub use metrics::{
    ConnectionMetrics, Counts, GrammarMetrics, LatencyRow, MetricsRegistry, MetricsShard,
    MetricsSnapshot,
};
pub use report::{
    DeterministicFacts, JournalEvent, NamedHistogram, SpanFacts, SpanTiming, TelemetryReport,
    Timings,
};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Process-wide count of installed collectors: the fast-path gate. A relaxed
/// load of 0 is the entire cost of every telemetry call when disabled.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);
/// Monotonic install id, so stale guards from a replaced collector are inert.
static GENERATION: AtomicUsize = AtomicUsize::new(0);

/// Default bound on journal length; entries beyond it are counted, not kept.
const DEFAULT_JOURNAL_LIMIT: usize = 100_000;

struct Node {
    name: String,
    path: String,
    parent: usize,
    children: Vec<usize>,
    entered: u64,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    nanos: u128,
}

struct State {
    nodes: Vec<Node>,
    current: usize,
    totals: BTreeMap<String, u64>,
    journal: Vec<JournalEvent>,
    journal_dropped: u64,
    journal_limit: usize,
    generation: usize,
}

impl State {
    fn new(generation: usize) -> Self {
        State {
            nodes: vec![Node {
                name: String::new(),
                path: String::new(),
                parent: 0,
                children: Vec::new(),
                entered: 1,
                counters: BTreeMap::new(),
                histograms: BTreeMap::new(),
                nanos: 0,
            }],
            current: 0,
            totals: BTreeMap::new(),
            journal: Vec::new(),
            journal_dropped: 0,
            journal_limit: DEFAULT_JOURNAL_LIMIT,
            generation,
        }
    }

    fn push_journal(
        &mut self,
        kind: &str,
        path: String,
        name: String,
        fields: BTreeMap<String, u64>,
    ) {
        if self.journal.len() >= self.journal_limit {
            self.journal_dropped += 1;
            return;
        }
        let seq = self.journal.len() as u64;
        self.journal.push(JournalEvent { seq, kind: kind.to_string(), path, name, fields });
    }

    /// Child of `current` named `name`, creating it on first entry
    /// (same-name siblings merge into one node).
    fn enter(&mut self, name: &str) -> usize {
        let parent = self.current;
        let existing =
            self.nodes[parent].children.iter().copied().find(|&c| self.nodes[c].name == name);
        let idx = match existing {
            Some(idx) => idx,
            None => {
                let path = if self.nodes[parent].path.is_empty() {
                    name.to_string()
                } else {
                    format!("{}/{}", self.nodes[parent].path, name)
                };
                let idx = self.nodes.len();
                self.nodes.push(Node {
                    name: name.to_string(),
                    path,
                    parent,
                    children: Vec::new(),
                    entered: 0,
                    counters: BTreeMap::new(),
                    histograms: BTreeMap::new(),
                    nanos: 0,
                });
                self.nodes[parent].children.push(idx);
                idx
            }
        };
        self.nodes[idx].entered += 1;
        self.current = idx;
        let path = self.nodes[idx].path.clone();
        self.push_journal("open", path, name.to_string(), BTreeMap::new());
        idx
    }

    fn exit(&mut self, idx: usize, baseline: BTreeMap<String, u64>, elapsed: u128) {
        let node = &mut self.nodes[idx];
        node.nanos += elapsed;
        // The close entry carries this entry's counter deltas, so the journal
        // shows *where* budget went even when a span is entered many times.
        let mut deltas = BTreeMap::new();
        for (key, &value) in &node.counters {
            let before = baseline.get(key).copied().unwrap_or(0);
            if value > before {
                deltas.insert(key.clone(), value - before);
            }
        }
        let path = node.path.clone();
        let name = node.name.clone();
        let parent = node.parent;
        self.current = parent;
        self.push_journal("close", path, name, deltas);
    }

    fn facts_and_timings(&self) -> (DeterministicFacts, Timings) {
        let root = self.span_facts(0);
        let mut timings = Timings::default();
        self.collect_timings(0, &mut timings);
        (
            DeterministicFacts {
                counters: self.totals.clone(),
                root,
                journal: self.journal.clone(),
                journal_dropped: self.journal_dropped,
            },
            timings,
        )
    }

    fn span_facts(&self, idx: usize) -> SpanFacts {
        let node = &self.nodes[idx];
        SpanFacts {
            name: node.name.clone(),
            path: node.path.clone(),
            entered: node.entered,
            counters: node.counters.clone(),
            histograms: node
                .histograms
                .iter()
                .map(|(name, h)| NamedHistogram {
                    name: name.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    max: h.max(),
                    buckets: h.rows(),
                })
                .collect(),
            children: node.children.iter().map(|&c| self.span_facts(c)).collect(),
        }
    }

    fn collect_timings(&self, idx: usize, out: &mut Timings) {
        let node = &self.nodes[idx];
        if idx != 0 {
            out.spans.push(SpanTiming {
                path: node.path.clone(),
                nanos: u64::try_from(node.nanos).unwrap_or(u64::MAX),
            });
        }
        for &c in &node.children {
            self.collect_timings(c, out);
        }
    }
}

thread_local! {
    static COLLECTOR: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Returns `true` when a collector is installed somewhere in the process.
///
/// This is the cheap pre-check instrumented code may use to skip building
/// telemetry inputs; the free functions already perform it internally.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    INSTALLED.load(Ordering::Relaxed) != 0
}

/// Runs `f` on this thread's collector state, if one is installed.
fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    COLLECTOR.with(|cell| {
        let mut slot = cell.borrow_mut();
        slot.as_mut().map(f)
    })
}

/// Installs a collector on the current thread and returns its guard.
///
/// # Panics
///
/// Panics if a collector is already installed on this thread; collections do
/// not nest (use spans to structure one collection instead).
#[must_use]
pub fn install() -> TelemetryGuard {
    let generation = GENERATION.fetch_add(1, Ordering::Relaxed) + 1;
    COLLECTOR.with(|cell| {
        let mut slot = cell.borrow_mut();
        assert!(slot.is_none(), "a telemetry collector is already installed on this thread");
        *slot = Some(State::new(generation));
    });
    INSTALLED.fetch_add(1, Ordering::Relaxed);
    TelemetryGuard { generation, finished: false, _not_send: PhantomData }
}

/// Uninstalls this thread's collector if it matches `generation`; returns it.
fn take_state(generation: usize) -> Option<State> {
    COLLECTOR.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.as_ref().is_some_and(|s| s.generation == generation) {
            INSTALLED.fetch_sub(1, Ordering::Relaxed);
            slot.take()
        } else {
            None
        }
    })
}

/// Owns one installed collector; dropping it uninstalls, [`TelemetryGuard::finish`]
/// uninstalls and returns the [`TelemetryReport`].
pub struct TelemetryGuard {
    generation: usize,
    finished: bool,
    /// Collectors are thread-local; the guard must not cross threads.
    _not_send: PhantomData<*const ()>,
}

impl TelemetryGuard {
    /// Ends the collection and returns everything it recorded.
    ///
    /// Spans still open at this point (guards not yet dropped) are reported
    /// as-is; their in-flight entry contributes no close journal entry.
    #[must_use]
    pub fn finish(mut self) -> TelemetryReport {
        self.finished = true;
        let state =
            take_state(self.generation).expect("the collector this guard owns is still installed");
        let (facts, timings) = state.facts_and_timings();
        TelemetryReport { facts, timings }
    }

    /// Grand total of counter `name` so far, without ending the collection.
    /// Useful for per-round deltas (queries per refinement round).
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        counter_total(name)
    }
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        if !self.finished {
            drop(take_state(self.generation));
        }
    }
}

/// Increments counter `name` by `delta`, attributed to the innermost open
/// span of this thread's collector. A no-op when disabled.
#[inline]
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    with_state(|state| {
        bump(&mut state.totals, name, delta);
        let current = state.current;
        bump(&mut state.nodes[current].counters, name, delta);
    });
}

fn bump(map: &mut BTreeMap<String, u64>, name: &str, delta: u64) {
    if let Some(v) = map.get_mut(name) {
        *v += delta;
    } else {
        map.insert(name.to_string(), delta);
    }
}

/// Records `value` into histogram `name` on the innermost open span. A no-op
/// when disabled.
#[inline]
pub fn record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    with_state(|state| {
        let current = state.current;
        let node = &mut state.nodes[current];
        if let Some(h) = node.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            node.histograms.insert(name.to_string(), h);
        }
    });
}

/// Appends an explicit event with integer `fields` to the journal, stamped
/// with the innermost open span's path. A no-op when disabled.
#[inline]
pub fn event(name: &str, fields: &[(&str, u64)]) {
    if !enabled() {
        return;
    }
    with_state(|state| {
        let path = state.nodes[state.current].path.clone();
        let fields: BTreeMap<String, u64> =
            fields.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        state.push_journal("event", path, name.to_string(), fields);
    });
}

/// Grand total of counter `name` in this thread's collector (0 when disabled).
#[must_use]
pub fn counter_total(name: &str) -> u64 {
    with_state(|state| state.totals.get(name).copied().unwrap_or(0)).unwrap_or(0)
}

/// Opens a span named `name`; the returned guard closes it on drop. Returns
/// an inert guard when disabled.
///
/// Spans nest with scope: increments between open and close attribute to
/// this span (unless an inner span is open). Entering the same name twice
/// under one parent merges into a single reported node; entering it *nested*
/// (the name inside itself) produces distinct `a` and `a/a` nodes.
#[must_use]
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None, _not_send: PhantomData };
    }
    let active = with_state(|state| {
        let node = state.enter(name);
        // Baseline for the close entry's counter deltas: with same-name
        // merging a node accumulates across entries, so "spent during this
        // entry" is the node's counters at close minus this snapshot.
        let baseline = state.nodes[node].counters.clone();
        (state.generation, node, baseline)
    })
    .map(|(generation, node, baseline)| ActiveSpan {
        generation,
        node,
        baseline,
        started: Instant::now(),
    });
    SpanGuard { active, _not_send: PhantomData }
}

struct ActiveSpan {
    generation: usize,
    node: usize,
    baseline: BTreeMap<String, u64>,
    started: Instant,
}

/// Guard of one open span; dropping it closes the span.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
    /// Span guards belong to the thread whose collector opened them.
    _not_send: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else { return };
        let elapsed = active.started.elapsed().as_nanos();
        with_state(|state| {
            if state.generation != active.generation {
                return;
            }
            state.exit(active.node, active.baseline, elapsed);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_calls_are_inert() {
        // No collector on this thread: nothing panics, totals read as zero.
        counter("x", 3);
        record("h", 7);
        event("e", &[("k", 1)]);
        let _span = span("phase");
        assert_eq!(counter_total("x"), 0);
    }

    #[test]
    fn counters_attribute_to_innermost_span() {
        let guard = install();
        counter("q", 1); // outside any span → root
        {
            let _outer = span("learn");
            counter("q", 2);
            {
                let _inner = span("row-fill");
                counter("q", 4);
            }
            counter("q", 8);
        }
        let report = guard.finish();
        assert_eq!(report.facts.counter("q"), 15);
        assert_eq!(report.facts.root.own_counter("q"), 1);
        let learn = report.facts.span("learn").expect("learn span exists");
        assert_eq!(learn.own_counter("q"), 10);
        assert_eq!(learn.subtree_counter("q"), 14);
        assert_eq!(report.facts.subtree_counter("learn/row-fill", "q"), 4);
        assert_eq!(report.facts.root.subtree_counter("q"), 15, "subtrees partition the total");
    }

    #[test]
    fn same_name_siblings_merge_and_nested_same_name_stays_distinct() {
        let guard = install();
        for i in 0..3 {
            let _round = span("round");
            counter("work", i + 1);
        }
        {
            // Nested same-name phases: "a" inside "a" must not merge with its parent.
            let _a = span("a");
            counter("w", 1);
            let _aa = span("a");
            counter("w", 10);
        }
        let report = guard.finish();
        let round = report.facts.span("round").expect("merged round span");
        assert_eq!(round.entered, 3);
        assert_eq!(round.own_counter("work"), 6);
        // Exactly one "round" child under the root.
        let rounds = report.facts.root.children.iter().filter(|c| c.name == "round").count();
        assert_eq!(rounds, 1);
        let a = report.facts.span("a").expect("outer a");
        let aa = report.facts.span("a/a").expect("inner a");
        assert_eq!(a.own_counter("w"), 1);
        assert_eq!(aa.own_counter("w"), 10);
        assert_eq!(aa.path, "a/a");
        assert_eq!(a.subtree_counter("w"), 11);
    }

    #[test]
    fn empty_spans_are_reported_with_no_counters() {
        let guard = install();
        {
            let _empty = span("empty-phase");
        }
        let report = guard.finish();
        let empty = report.facts.span("empty-phase").expect("span exists");
        assert_eq!(empty.entered, 1);
        assert!(empty.counters.is_empty());
        assert!(empty.histograms.is_empty());
        assert!(empty.children.is_empty());
        // Journal: open then close, close with empty deltas.
        let kinds: Vec<&str> = report.facts.journal.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, ["open", "close"]);
        assert!(report.facts.journal[1].fields.is_empty());
    }

    #[test]
    fn close_entries_carry_per_entry_deltas() {
        let guard = install();
        for add in [3u64, 5u64] {
            let _round = span("round");
            counter("q", add);
        }
        let report = guard.finish();
        let closes: Vec<&JournalEvent> =
            report.facts.journal.iter().filter(|e| e.kind == "close").collect();
        assert_eq!(closes.len(), 2);
        assert_eq!(closes[0].fields.get("q"), Some(&3));
        assert_eq!(closes[1].fields.get("q"), Some(&5), "second entry reports its own delta");
    }

    #[test]
    fn histograms_attach_to_spans() {
        let guard = install();
        {
            let _serve = span("serve");
            record("steps", 0);
            record("steps", 3);
            record("steps", 300);
        }
        let report = guard.finish();
        let serve = report.facts.span("serve").unwrap();
        assert_eq!(serve.histograms.len(), 1);
        let h = &serve.histograms[0];
        assert_eq!(h.name, "steps");
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 303);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 300);
        assert_eq!(h.buckets.len(), 3, "zero-count buckets are skipped: {:?}", h.buckets);
    }

    #[test]
    fn events_are_journaled_under_the_open_span() {
        let guard = install();
        {
            let _fuzz = span("fuzz");
            event("coverage", &[("covered", 7), ("total", 100)]);
        }
        let report = guard.finish();
        let ev =
            report.facts.journal.iter().find(|e| e.kind == "event").expect("event entry exists");
        assert_eq!(ev.name, "coverage");
        assert_eq!(ev.path, "fuzz");
        assert_eq!(ev.fields.get("covered"), Some(&7));
        assert_eq!(ev.fields.get("total"), Some(&100));
        // seq is dense over the whole journal.
        for (i, entry) in report.facts.journal.iter().enumerate() {
            assert_eq!(entry.seq, i as u64);
        }
    }

    #[test]
    fn counter_total_reads_mid_collection() {
        let guard = install();
        counter("refine.queries", 10);
        assert_eq!(counter_total("refine.queries"), 10);
        assert_eq!(guard.counter_total("refine.queries"), 10);
        counter("refine.queries", 5);
        assert_eq!(guard.counter_total("refine.queries"), 15);
        let report = guard.finish();
        assert_eq!(report.facts.counter("refine.queries"), 15);
        // After finish, the thread is disabled again.
        assert_eq!(counter_total("refine.queries"), 0);
    }

    #[test]
    fn dropping_the_guard_uninstalls_without_a_report() {
        {
            let _guard = install();
            counter("x", 1);
        }
        assert_eq!(counter_total("x"), 0, "dropped collector leaves no state behind");
        // A fresh install starts clean.
        let guard = install();
        assert_eq!(guard.counter_total("x"), 0);
        let report = guard.finish();
        assert_eq!(report.facts.counter("x"), 0);
    }

    #[test]
    fn timings_are_separate_from_facts() {
        let guard = install();
        {
            let _a = span("a");
            counter("q", 1);
        }
        let report = guard.finish();
        assert_eq!(report.timings.spans.len(), 1);
        assert_eq!(report.timings.spans[0].path, "a");
        // The deterministic facts serialize without any wall-clock field.
        let json = serde_json::to_string(&report.facts).unwrap();
        assert!(!json.contains("nanos"));
        let timing_json = serde_json::to_string(&report.timings).unwrap();
        assert!(timing_json.contains("nanos"));
    }

    #[test]
    fn journal_lines_render_one_json_object_per_line() {
        let guard = install();
        {
            let _a = span("a");
            event("tick", &[("n", 1)]);
        }
        let report = guard.finish();
        let lines = report.facts.journal_lines();
        assert_eq!(lines.len(), 3); // open, event, close
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line}");
            assert!(!line.contains('\n'));
        }
    }

    #[test]
    fn journal_is_bounded() {
        let guard = install();
        COLLECTOR.with(|cell| {
            cell.borrow_mut().as_mut().unwrap().journal_limit = 4;
        });
        for _ in 0..5 {
            let _s = span("s");
        }
        let report = guard.finish();
        assert_eq!(report.facts.journal.len(), 4);
        assert_eq!(report.facts.journal_dropped, 6);
    }
}
