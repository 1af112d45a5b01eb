//! # octs-obs
//!
//! Lightweight structured observability for the AutoCTS+ search and training
//! hot paths: **spans** (named monotonic timings), **counters**,
//! **histograms** and **typed events**, collected by a [`Recorder`] that is
//! attached process-globally through an [`ObsScope`] guard — the same hook
//! pattern as `octs-fault`.
//!
//! ## Model
//!
//! Instrumented code calls free-function hooks ([`span`], [`counter`],
//! [`observe`], [`event`]) without threading any handle through the call
//! graph. When no recorder is attached every hook is a single relaxed atomic
//! load — the production fast path stays untouched. When a recorder *is*
//! attached, spans and events append to an in-memory trace buffer and
//! counters/histograms accumulate into aggregation maps.
//!
//! Recording is strictly **observational**: no hook touches an RNG stream,
//! reorders work or changes control flow, so a run with a recorder attached
//! produces byte-identical results to a recorder-off run (the search suite
//! enforces this for top-k rankings).
//!
//! ## Export
//!
//! - [`Recorder::ndjson`] — the raw trace, one JSON object per line
//!   ([`TraceLine`]): every completed span and event in completion order,
//!   followed by one `counter` line per counter with its final value.
//! - [`Recorder::summary`] — an aggregated [`Summary`] (per-span-name
//!   count/total/min/max, counter totals, histogram quantiles, event counts)
//!   that serializes to a single JSON document.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One line of an NDJSON trace. A flat struct (not an enum) because the
/// vendored serde derive supports named-field structs only; `kind`
/// discriminates (`"span"`, `"event"` or `"counter"`) and unused fields stay
/// at their zero values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceLine {
    /// `"span"`, `"event"` or `"counter"`.
    pub kind: String,
    /// Span / event / counter name, e.g. `"phase.rank"`.
    pub name: String,
    /// Microseconds since the recorder was created (span start time; event
    /// fire time; export time for counter lines).
    pub t_us: u64,
    /// Span duration in microseconds (0 for events and counters).
    pub dur_us: u64,
    /// Counter value (final total) or event payload value.
    pub value: f64,
    /// Small dense id of the emitting thread (assigned on first emission).
    pub thread: u64,
    /// Free-form context, e.g. a unit id or epoch number.
    pub detail: String,
}

/// Aggregate of all completed spans sharing one name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanAgg {
    /// Span name.
    pub name: String,
    /// Completed spans under this name.
    pub count: u64,
    /// Summed duration (µs).
    pub total_us: u64,
    /// Shortest span (µs).
    pub min_us: u64,
    /// Longest span (µs).
    pub max_us: u64,
}

/// Aggregate of all [`observe`] samples sharing one name.
///
/// Quantiles are computed from the raw samples at summary time and do not
/// compose: there is no correct way to combine two `HistAgg`s' p99 values
/// into the p99 of the union stream (averaging them is wrong whenever the
/// tails differ). To aggregate across recorders — e.g. per-lane latency
/// recorders into one serving view — merge the *samples* with
/// [`Recorder::absorb`] and summarize once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistAgg {
    /// Histogram name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample mean.
    pub mean: f64,
    /// Median (by nearest-rank on the sorted samples).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank) — the tail the serving layer gates on.
    pub p99: f64,
}

/// Aggregated view of one recording, ready to serialize as a single JSON
/// document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Microseconds from recorder creation to export.
    pub wall_us: u64,
    /// Per-name span aggregates, sorted by name.
    pub spans: Vec<SpanAgg>,
    /// Final counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Per-name histogram aggregates, sorted by name.
    pub histograms: Vec<HistAgg>,
    /// Event fire counts per name.
    pub events: BTreeMap<String, u64>,
}

impl Summary {
    /// Total time spent in spans named `name` (µs), 0 when absent.
    pub fn span_total_us(&self, name: &str) -> u64 {
        self.spans.iter().find(|s| s.name == name).map(|s| s.total_us).unwrap_or(0)
    }

    /// Final value of counter `name`, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Aggregate of histogram `name`, when any sample was observed.
    pub fn histogram(&self, name: &str) -> Option<&HistAgg> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

struct Inner {
    start: Instant,
    lines: Mutex<Vec<TraceLine>>,
    counters: Mutex<BTreeMap<String, u64>>,
    hists: Mutex<BTreeMap<String, Vec<f64>>>,
}

impl Inner {
    fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

/// An in-memory trace collector. Cheap to clone (shared buffer); attach it
/// with [`ObsScope::activate`], run the instrumented workload, then export
/// via [`Recorder::ndjson`] / [`Recorder::summary`].
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A fresh recorder; its monotonic clock starts now.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                start: Instant::now(),
                lines: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// The raw trace as NDJSON: every span/event line in completion order,
    /// then one `counter` line per counter with its final total.
    pub fn ndjson(&self) -> String {
        let mut out = String::new();
        let lines = self.inner.lines.lock().unwrap_or_else(|e| e.into_inner());
        for l in lines.iter() {
            out.push_str(&serde_json::to_string(l).expect("trace line serializes"));
            out.push('\n');
        }
        let now = self.inner.elapsed_us();
        let counters = self.inner.counters.lock().unwrap_or_else(|e| e.into_inner());
        for (name, v) in counters.iter() {
            let line = TraceLine {
                kind: "counter".to_string(),
                name: name.clone(),
                t_us: now,
                dur_us: 0,
                value: *v as f64,
                thread: 0,
                detail: String::new(),
            };
            out.push_str(&serde_json::to_string(&line).expect("counter line serializes"));
            out.push('\n');
        }
        out
    }

    /// Merges everything `other` recorded into this recorder, at the
    /// raw-sample level: trace lines are appended, counters summed and
    /// histogram *samples* concatenated — so a later [`Recorder::summary`]
    /// reports exactly the quantiles of the union stream, not some lossy
    /// combination of per-recorder aggregates. `other` keeps its recording
    /// (absorb copies). Trace-line timestamps stay relative to the clock of
    /// the recorder that captured them.
    pub fn absorb(&self, other: &Recorder) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return; // same shared buffer: absorbing would double everything
        }
        {
            let theirs = other.inner.lines.lock().unwrap_or_else(|e| e.into_inner());
            let mut ours = self.inner.lines.lock().unwrap_or_else(|e| e.into_inner());
            ours.extend(theirs.iter().cloned());
        }
        {
            let theirs = other.inner.counters.lock().unwrap_or_else(|e| e.into_inner());
            let mut ours = self.inner.counters.lock().unwrap_or_else(|e| e.into_inner());
            for (name, v) in theirs.iter() {
                *ours.entry(name.clone()).or_insert(0) += v;
            }
        }
        {
            let theirs = other.inner.hists.lock().unwrap_or_else(|e| e.into_inner());
            let mut ours = self.inner.hists.lock().unwrap_or_else(|e| e.into_inner());
            for (name, samples) in theirs.iter() {
                ours.entry(name.clone()).or_default().extend_from_slice(samples);
            }
        }
    }

    /// Aggregates the recording into a [`Summary`].
    pub fn summary(&self) -> Summary {
        let lines = self.inner.lines.lock().unwrap_or_else(|e| e.into_inner());
        let mut spans: BTreeMap<String, SpanAgg> = BTreeMap::new();
        let mut events: BTreeMap<String, u64> = BTreeMap::new();
        for l in lines.iter() {
            match l.kind.as_str() {
                "span" => {
                    let agg = spans.entry(l.name.clone()).or_insert_with(|| SpanAgg {
                        name: l.name.clone(),
                        count: 0,
                        total_us: 0,
                        min_us: u64::MAX,
                        max_us: 0,
                    });
                    agg.count += 1;
                    agg.total_us += l.dur_us;
                    agg.min_us = agg.min_us.min(l.dur_us);
                    agg.max_us = agg.max_us.max(l.dur_us);
                }
                "event" => *events.entry(l.name.clone()).or_insert(0) += 1,
                _ => {}
            }
        }
        drop(lines);
        let counters = self.inner.counters.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let hists = self.inner.hists.lock().unwrap_or_else(|e| e.into_inner());
        let histograms = hists
            .iter()
            .map(|(name, vals)| {
                let mut sorted = vals.clone();
                sorted.sort_by(f64::total_cmp);
                let n = sorted.len();
                let pct = |q: f64| sorted[((n as f64 * q).ceil() as usize).clamp(1, n) - 1];
                HistAgg {
                    name: name.clone(),
                    count: n as u64,
                    min: sorted[0],
                    max: sorted[n - 1],
                    mean: sorted.iter().sum::<f64>() / n as f64,
                    p50: pct(0.50),
                    p95: pct(0.95),
                    p99: pct(0.99),
                }
            })
            .collect();
        Summary {
            wall_us: self.inner.elapsed_us(),
            spans: spans.into_values().collect(),
            counters,
            histograms,
            events,
        }
    }
}

/// Parses one NDJSON trace back into its lines, failing on the first
/// unparseable line — the validation primitive the CI trace-smoke job uses.
pub fn parse_ndjson(text: &str) -> Result<Vec<TraceLine>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| serde_json::from_str(l).map_err(|e| format!("trace line {}: {e:?}", i + 1)))
        .collect()
}

/// The attached recorder lives behind a mutex; `ARMED` keeps the detached
/// fast path to one atomic load (the `octs-fault` pattern).
static ACTIVE: Mutex<Option<Arc<Inner>>> = Mutex::new(None);
static ARMED: AtomicBool = AtomicBool::new(false);
/// Serializes recorder scopes across threads (test isolation).
static SCOPE: Mutex<()> = Mutex::new(());

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// RAII guard keeping a [`Recorder`] attached; detaches on drop. Only one
/// scope exists at a time process-wide (concurrent instrumented tests
/// serialize instead of interleaving their traces).
pub struct ObsScope {
    _lock: MutexGuard<'static, ()>,
}

impl ObsScope {
    /// Attaches `recorder` for the lifetime of the returned guard. Blocks if
    /// another scope is active.
    pub fn activate(recorder: &Recorder) -> Self {
        let lock = SCOPE.lock().unwrap_or_else(|e| e.into_inner());
        *ACTIVE.lock().unwrap_or_else(|e| e.into_inner()) = Some(recorder.inner.clone());
        ARMED.store(true, Ordering::SeqCst);
        Self { _lock: lock }
    }
}

impl Drop for ObsScope {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *ACTIVE.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// True when a recorder is attached (one relaxed load — the fast path every
/// hook takes first).
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

fn active() -> Option<Arc<Inner>> {
    if !armed() {
        return None;
    }
    ACTIVE.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// A live span; records its duration into the trace when dropped. Inert (and
/// free) when no recorder is attached.
pub struct SpanGuard {
    live: Option<(Arc<Inner>, &'static str, String, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, name, detail, started)) = self.live.take() {
            let dur_us = started.elapsed().as_micros() as u64;
            let t_us = started.duration_since(inner.start).as_micros() as u64;
            let line = TraceLine {
                kind: "span".to_string(),
                name: name.to_string(),
                t_us,
                dur_us,
                value: 0.0,
                thread: thread_id(),
                detail,
            };
            inner.lines.lock().unwrap_or_else(|e| e.into_inner()).push(line);
        }
    }
}

/// Opens a span named `name`; the returned guard records the elapsed time
/// when dropped.
pub fn span(name: &'static str) -> SpanGuard {
    span_detail(name, String::new())
}

/// Opens a span with free-form context (e.g. a unit id or epoch number).
pub fn span_detail(name: &'static str, detail: String) -> SpanGuard {
    match active() {
        Some(inner) => SpanGuard { live: Some((inner, name, detail, Instant::now())) },
        None => SpanGuard { live: None },
    }
}

/// Adds `delta` to counter `name`.
pub fn counter(name: &str, delta: u64) {
    if let Some(inner) = active() {
        *inner
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(name.to_string())
            .or_insert(0) += delta;
    }
}

/// Records one histogram sample under `name`.
pub fn observe(name: &str, value: f64) {
    if let Some(inner) = active() {
        inner
            .hists
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(name.to_string())
            .or_insert_with(Vec::new)
            .push(value);
    }
}

/// Emits a typed event (a point-in-time trace line) with a payload value and
/// free-form detail.
pub fn event(name: &'static str, value: f64, detail: &str) {
    if let Some(inner) = active() {
        let line = TraceLine {
            kind: "event".to_string(),
            name: name.to_string(),
            t_us: inner.elapsed_us(),
            dur_us: 0,
            value,
            thread: thread_id(),
            detail: detail.to_string(),
        };
        inner.lines.lock().unwrap_or_else(|e| e.into_inner()).push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Holds the scope lock without attaching a recorder, so no
    /// concurrently running test's scope can be active while the caller
    /// checks the detached state.
    fn no_scope() -> MutexGuard<'static, ()> {
        SCOPE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn detached_hooks_are_noops() {
        let _serial = no_scope();
        assert!(!armed());
        let _s = span("noop");
        counter("noop.counter", 3);
        observe("noop.hist", 1.0);
        event("noop.event", 0.0, "");
        // nothing recorded anywhere: a fresh recorder stays empty
        let rec = Recorder::new();
        assert!(rec.ndjson().is_empty());
        assert!(rec.summary().spans.is_empty());
    }

    #[test]
    fn spans_counters_events_round_trip() {
        let rec = Recorder::new();
        {
            let _scope = ObsScope::activate(&rec);
            {
                let _s = span("phase.test");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _s = span_detail("phase.test", "second".to_string());
            }
            counter("cache.hits", 5);
            counter("cache.hits", 2);
            counter("cache.misses", 1);
            observe("probe_us", 10.0);
            observe("probe_us", 30.0);
            event("rollback", 1.0, "epoch 3");
        }
        // scope dropped: hooks detach again
        let _serial = no_scope();
        assert!(!armed());
        counter("cache.hits", 100); // must not land

        let lines = parse_ndjson(&rec.ndjson()).expect("trace parses");
        assert_eq!(lines.iter().filter(|l| l.kind == "span").count(), 2);
        assert_eq!(lines.iter().filter(|l| l.kind == "event").count(), 1);
        let hits = lines.iter().find(|l| l.kind == "counter" && l.name == "cache.hits").unwrap();
        assert_eq!(hits.value, 7.0);

        let summary = rec.summary();
        let agg = summary.spans.iter().find(|s| s.name == "phase.test").unwrap();
        assert_eq!(agg.count, 2);
        assert!(agg.total_us >= 2_000, "slept 2ms inside the span");
        assert!(agg.min_us <= agg.max_us);
        assert_eq!(summary.counter("cache.hits"), 7);
        assert_eq!(summary.counter("cache.misses"), 1);
        assert_eq!(summary.counter("absent"), 0);
        assert_eq!(summary.events.get("rollback"), Some(&1));
        let h = summary.histograms.iter().find(|h| h.name == "probe_us").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 10.0);
        assert_eq!(h.max, 30.0);
        assert_eq!(h.mean, 20.0);
    }

    #[test]
    fn summary_survives_json_round_trip() {
        let rec = Recorder::new();
        {
            let _scope = ObsScope::activate(&rec);
            let _s = span("a");
            counter("c", 1);
            observe("h", 2.5);
            event("e", 0.0, "x");
        }
        let summary = rec.summary();
        let json = serde_json::to_string(&summary).unwrap();
        let back: Summary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
    }

    #[test]
    fn histogram_percentiles_are_nearest_rank() {
        let rec = Recorder::new();
        {
            let _scope = ObsScope::activate(&rec);
            for v in 1..=100 {
                observe("h", v as f64);
            }
        }
        let s = rec.summary();
        let h = s.histograms.iter().find(|h| h.name == "h").unwrap();
        assert_eq!(h.p50, 50.0);
        assert_eq!(h.p95, 95.0);
        assert_eq!(h.p99, 99.0);
        assert_eq!(h.count, 100);
    }

    #[test]
    fn absorbed_histograms_report_union_stream_quantiles() {
        // Two lane-local recorders with very different tails: lane A holds
        // the bulk (1..=99), lane B the extreme tail (901..=999). Any
        // aggregate-level merge (e.g. averaging per-lane p99s) misreports
        // the union tail; absorbing raw samples must not.
        let a = Recorder::new();
        {
            let _scope = ObsScope::activate(&a);
            for v in 1..=99 {
                observe("e2e_us", v as f64);
            }
            counter("requests", 99);
        }
        let b = Recorder::new();
        {
            let _scope = ObsScope::activate(&b);
            for v in 901..=999 {
                observe("e2e_us", v as f64);
            }
            counter("requests", 99);
        }

        // Ground truth: one recorder observing the union stream.
        let union = Recorder::new();
        {
            let _scope = ObsScope::activate(&union);
            for v in (1..=99).chain(901..=999) {
                observe("e2e_us", v as f64);
            }
        }
        let want = union.summary().histogram("e2e_us").unwrap().clone();

        let pa = a.summary().histogram("e2e_us").unwrap().p99;
        let pb = b.summary().histogram("e2e_us").unwrap().p99;
        assert_ne!((pa + pb) / 2.0, want.p99, "averaged per-lane p99s misreport the union");

        a.absorb(&b);
        let merged = a.summary();
        let h = merged.histogram("e2e_us").unwrap();
        assert_eq!(h.count, want.count);
        assert_eq!(h.min, want.min);
        assert_eq!(h.max, want.max);
        assert_eq!(h.mean, want.mean);
        assert_eq!(h.p50, want.p50);
        assert_eq!(h.p95, want.p95);
        assert_eq!(h.p99, want.p99, "merged histogram must report the union-stream p99");
        assert_eq!(merged.counter("requests"), 198, "counters sum");

        // `b` is untouched, and self-absorb is a no-op.
        assert_eq!(b.summary().histogram("e2e_us").unwrap().count, 99);
        a.absorb(&a);
        assert_eq!(a.summary().histogram("e2e_us").unwrap().count, want.count);
    }

    #[test]
    fn parse_ndjson_rejects_garbage() {
        assert!(parse_ndjson("{\"not\": \"a trace line\"").is_err());
        assert!(parse_ndjson("").unwrap().is_empty());
    }

    #[test]
    fn threads_get_stable_small_ids() {
        let rec = Recorder::new();
        {
            let _scope = ObsScope::activate(&rec);
            event("main", 0.0, "");
            std::thread::spawn(|| event("worker", 0.0, "")).join().unwrap();
        }
        let lines = parse_ndjson(&rec.ndjson()).unwrap();
        let main_t = lines.iter().find(|l| l.name == "main").unwrap().thread;
        let worker_t = lines.iter().find(|l| l.name == "worker").unwrap().thread;
        assert_ne!(main_t, worker_t);
    }
}
