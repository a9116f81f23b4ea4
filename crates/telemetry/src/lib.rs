//! Lightweight, dependency-free observability for the MR-SQE/CPS stack.
//!
//! A [`Registry`] holds named [`Counter`]s, [`Gauge`]s and
//! [`Histogram`]s plus a tree of phase [`Span`]s. Registries are cheap
//! to clone (all clones share state) and safe to use from rayon worker
//! threads: counter increments and histogram records are plain atomic
//! operations after the first lookup, and name lookups take a short
//! registry-level lock only on first creation of a metric.
//!
//! # Determinism contract
//!
//! Exports deliberately segregate host-dependent measurements from
//! deterministic ones so that a fixed-seed run can be golden-file
//! tested byte for byte:
//!
//! * counters, gauges, histograms and span *call counts* depend only on
//!   the values the instrumented code feeds them (same inputs ⇒ same
//!   bytes — callers must not record wall-clock-derived values if they
//!   want byte-stable exports);
//! * wall-clock span durations live exclusively under the `"host"`
//!   subobject of the JSON export ([`Snapshot::to_json`]) and can be
//!   stripped with [`Snapshot::without_host`].
//!
//! Histograms record `u64` values and aggregate in integer arithmetic,
//! so their sums are independent of thread interleaving; gauges are
//! `f64` but are meant to be set from the driver thread (e.g. simulated
//! times), not raced on.
//!
//! Span nesting is tracked per thread: a span opened while another span
//! on the *same thread* is alive becomes its child (its path is
//! `parent/child`). Spans opened on rayon workers start a fresh root on
//! that thread.
//!
//! # JSON
//!
//! The [`json`] module owns the JSON format of every deterministic
//! export in the workspace, these and the ones other crates build
//! (EXPLAIN, audit report, `BENCH_*.json`): escaping, six-decimal
//! floats, `null` for non-finite values, indentation and embedding.
//! Exports that carry a header write it first and then call the inner
//! type's `write_fields` into the same object.

#![warn(missing_docs)]

pub mod json;
mod trace;

pub use json::{Layout, Writer};
pub use trace::{JobTrace, TraceEvent, TracePhase, TraceSink};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing `u64` metric.
///
/// Cloning is cheap; all clones address the same underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` metric (stored as bits in an atomic).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// An integer-valued distribution: count / sum / min / max.
///
/// Values are `u64` and aggregation is integer arithmetic, so the
/// result is independent of the order in which threads record.
#[derive(Clone, Debug)]
pub struct Histogram {
    count: Arc<AtomicU64>,
    sum: Arc<AtomicU64>,
    /// min is stored as the raw value; u64::MAX means "empty".
    min: Arc<AtomicU64>,
    max: Arc<AtomicU64>,
    /// log2 bucket counts: bucket 0 holds value 0, bucket k ≥ 1 holds
    /// values in [2^(k-1), 2^k - 1]. Enables order-of-magnitude
    /// percentile estimates without per-value storage.
    buckets: Arc<[AtomicU64; BUCKETS]>,
}

/// Number of log2 histogram buckets (value 0 + one per bit of u64).
const BUCKETS: usize = 65;

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: Arc::new(AtomicU64::new(0)),
            sum: Arc::new(AtomicU64::new(0)),
            min: Arc::new(AtomicU64::new(u64::MAX)),
            max: Arc::new(AtomicU64::new(0)),
            buckets: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Immutable view of the current aggregate.
    pub fn stats(&self) -> HistogramStats {
        let count = self.count.load(Ordering::Relaxed);
        HistogramStats {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Aggregate view of a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramStats {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// log2 bucket counts (see [`Histogram`]).
    pub buckets: [u64; BUCKETS],
}

impl HistogramStats {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate from the log2 buckets: the upper edge of the
    /// bucket holding the rank-`⌈q·count⌉` observation, clamped into
    /// `[min, max]` (so a single-valued histogram reports that value
    /// exactly). `q` is clamped into `[0, 1]`; returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let edge = if k == 0 {
                    0
                } else if k >= 64 {
                    u64::MAX
                } else {
                    (1u64 << k) - 1
                };
                return edge.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate (see [`HistogramStats::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (see [`HistogramStats::quantile`]).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (see [`HistogramStats::quantile`]).
    pub(crate) fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct SpanStat {
    calls: u64,
    wall_secs: f64,
}

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
}

thread_local! {
    /// Stack of open span paths on this thread, per registry identity.
    static SPAN_STACK: RefCell<Vec<(usize, String)>> = const { RefCell::new(Vec::new()) };
}

/// A shared, thread-safe collection of named metrics and spans.
///
/// `Registry` is `Clone`; clones are handles to the same store.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn identity(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Get or create the counter called `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Add `n` to the counter called `name`.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Get or create the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Record `v` into the histogram called `name`.
    pub fn record(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
    }

    /// Open a scoped timer. Dropping the returned [`Span`] records one
    /// call and the elapsed wall time under the span's `/`-joined path.
    pub fn span(&self, name: &str) -> Span {
        let id = self.identity();
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.iter().rev().find(|(sid, _)| *sid == id) {
                Some((_, parent)) => format!("{parent}/{name}"),
                None => name.to_string(),
            };
            stack.push((id, path.clone()));
            path
        });
        Span {
            registry: self.clone(),
            path,
            start: Instant::now(),
            closed: false,
        }
    }

    /// Record an externally measured interval as one call of a span at
    /// `path`, without opening a scope. Useful for durations measured
    /// on worker threads that should be attributed to a driver-side
    /// phase (pass an explicit `parent/child` path).
    pub fn observe_span(&self, path: &str, wall_secs: f64) {
        let mut spans = self.inner.spans.lock().unwrap();
        let stat = spans.entry(path.to_string()).or_default();
        stat.calls += 1;
        stat.wall_secs += wall_secs;
    }

    fn close_span(&self, path: &str, wall_secs: f64) {
        let id = self.identity();
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|(sid, p)| *sid == id && p == path) {
                stack.remove(pos);
            }
        });
        let mut spans = self.inner.spans.lock().unwrap();
        let stat = spans.entry(path.to_string()).or_default();
        stat.calls += 1;
        stat.wall_secs += wall_secs;
    }

    /// Take a point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.stats()))
            .collect();
        let spans = self
            .inner
            .spans
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
            spans,
        }
    }
}

/// A scoped phase timer; see [`Registry::span`].
///
/// The span closes (and records) on drop, or explicitly via
/// [`Span::close`].
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span {
    registry: Registry,
    path: String,
    start: Instant,
    closed: bool,
}

impl Span {
    /// This span's `/`-joined path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Close the span now instead of at end of scope.
    pub fn close(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if !self.closed {
            self.closed = true;
            self.registry
                .close_span(&self.path, self.start.elapsed().as_secs_f64());
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Point-in-time copy of a [`Registry`], ready for export.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramStats>,
    spans: BTreeMap<String, SpanStat>,
}

impl Snapshot {
    /// Value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Aggregate of a histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<HistogramStats> {
        self.histograms.get(name).copied()
    }

    /// Number of times the span at `path` was closed.
    pub fn span_calls(&self, path: &str) -> u64 {
        self.spans.get(path).map(|s| s.calls).unwrap_or(0)
    }

    /// All counter names, in sorted order.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(String::as_str)
    }

    /// Drop every host-dependent field (wall-clock durations), keeping
    /// only data that is a pure function of the computation.
    pub fn without_host(mut self) -> Snapshot {
        for stat in self.spans.values_mut() {
            stat.wall_secs = 0.0;
        }
        self
    }

    /// Deterministic part of the snapshot compared field by field,
    /// ignoring everything under `"host"`.
    pub fn deterministic_eq(&self, other: &Snapshot) -> bool {
        self.clone().without_host() == other.clone().without_host()
    }

    /// Render as JSON.
    ///
    /// Layout: `counters`, `gauges`, `histograms` and `spans` (call
    /// counts only) are deterministic for a fixed seed; every
    /// wall-clock measurement is confined to the trailing `"host"`
    /// subobject.
    ///
    /// The export is built for clean line diffs: map keys come from
    /// `BTreeMap`s (sorted), the keys of every histogram object are
    /// alphabetical, and every float prints with exactly six fractional
    /// digits, so equal values always serialise to identical lines.
    pub fn to_json(&self) -> String {
        json::document(json::INDENT, |w| self.write_fields(w))
    }

    /// Write the fields of [`Snapshot::to_json`] into the open object of
    /// `w`, so a document can lead with its own fields (such as a `meta`
    /// header) and then embed the snapshot's.
    pub fn write_fields(&self, w: &mut Writer) {
        w.key("counters").map(Layout::Lines, &self.counters);
        w.key("gauges").map(Layout::Lines, &self.gauges);
        w.key("histograms").object(Layout::Lines, |w| {
            for (name, h) in &self.histograms {
                // alphabetical keys, fixed-precision mean: clean line diffs
                w.key(name).object(Layout::Inline, |w| {
                    w.field("count", h.count)
                        .field("max", h.max)
                        .field("mean", h.mean())
                        .field("min", h.min)
                        .field("p50", h.p50())
                        .field("p95", h.p95())
                        .field("sum", h.sum);
                });
            }
        });
        let spans = || self.spans.iter();
        w.key("spans")
            .map(Layout::Lines, spans().map(|(path, s)| (path, s.calls)));
        w.key("host").object(Layout::Lines, |w| {
            w.key("span_wall_secs")
                .map(Layout::Lines, spans().map(|(path, s)| (path, s.wall_secs)));
        });
    }

    /// Render as an aligned human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let w = self.counters.keys().map(String::len).max().unwrap_or(0);
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<w$}  {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            let w = self.gauges.keys().map(String::len).max().unwrap_or(0);
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<w$}  {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            let w = self.histograms.keys().map(String::len).max().unwrap_or(0);
            for (k, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {k:<w$}  count={} sum={} min={} max={} mean={:.2} p50={} p99={}",
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    h.mean(),
                    h.p50(),
                    h.p99()
                );
            }
        }
        if !self.spans.is_empty() {
            // heaviest spans first, so the report leads with where the
            // time actually went; ties (e.g. zeroed host fields) fall
            // back to path order
            out.push_str("spans:\n");
            let w = self.spans.keys().map(String::len).max().unwrap_or(0);
            let mut spans: Vec<(&String, &SpanStat)> = self.spans.iter().collect();
            spans.sort_by(|(ka, sa), (kb, sb)| {
                sb.wall_secs
                    .partial_cmp(&sa.wall_secs)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| ka.cmp(kb))
            });
            for (k, s) in spans {
                let _ = writeln!(out, "  {k:<w$}  calls={} wall={:.6}s", s.calls, s.wall_secs);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_are_shared_across_clones_and_threads() {
        let reg = Registry::new();
        let c = reg.counter("hits");
        thread::scope(|s| {
            for _ in 0..8 {
                let reg = reg.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        reg.counter("hits").inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(reg.snapshot().counter("hits"), 8000);
    }

    #[test]
    fn histogram_aggregates_in_integers() {
        let reg = Registry::new();
        thread::scope(|s| {
            for t in 0..4 {
                let reg = reg.clone();
                s.spawn(move || {
                    for v in 0..100u64 {
                        reg.record("vals", v + 100 * t);
                    }
                });
            }
        });
        let h = reg.snapshot().histogram("vals").unwrap();
        assert_eq!(h.count, 400);
        assert_eq!(h.sum, (0..400u64).sum::<u64>());
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 399);
        assert!((h.mean() - 199.5).abs() < 1e-9);
    }

    #[test]
    fn spans_nest_on_one_thread_and_count_calls() {
        let reg = Registry::new();
        {
            let _job = reg.span("job");
            for _ in 0..3 {
                let _phase = reg.span("map");
            }
            let explicit = reg.span("reduce");
            explicit.close();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.span_calls("job"), 1);
        assert_eq!(snap.span_calls("job/map"), 3);
        assert_eq!(snap.span_calls("job/reduce"), 1);
        assert_eq!(snap.span_calls("map"), 0, "child must not appear as root");
    }

    #[test]
    fn span_stacks_are_independent_per_registry() {
        let a = Registry::new();
        let b = Registry::new();
        let _outer = a.span("outer");
        let _other = b.span("other");
        let inner = a.span("inner");
        assert_eq!(inner.path(), "outer/inner", "b's span must not intrude");
    }

    #[test]
    fn json_export_is_deterministic_and_segregates_host_fields() {
        let build = || {
            let reg = Registry::new();
            reg.add("a.count", 3);
            reg.gauge("sim.us").set(12.5);
            reg.record("h", 7);
            let s = reg.span("phase");
            s.close();
            reg.snapshot()
        };
        let one = build();
        let two = build();
        assert!(one.deterministic_eq(&two));
        let a = one.without_host().to_json();
        let b = two.without_host().to_json();
        assert_eq!(a, b, "deterministic sections must be byte-identical");
        // host wall times appear only under "host"
        let json = build().to_json();
        let host_at = json.find("\"host\"").expect("host subobject present");
        assert!(json.find("wall").unwrap() > host_at);
        assert!(json.contains("\"a.count\": 3"));
        assert!(json.contains("\"sim.us\": 12.500000"), "{json}");
        assert!(json.contains("\"phase\": 1"));
    }

    #[test]
    fn json_histograms_use_sorted_keys_and_percentiles() {
        let reg = Registry::new();
        for v in [1u64, 2, 3, 100] {
            reg.record("lat", v);
        }
        let json = reg.snapshot().to_json();
        assert!(
            json.contains(
                "\"lat\": {\"count\": 4, \"max\": 100, \"mean\": 26.500000, \
                 \"min\": 1, \"p50\": 3, \"p95\": 100, \"sum\": 106}"
            ),
            "{json}"
        );
    }

    #[test]
    fn json_fields_follow_a_leading_header() {
        let reg = Registry::new();
        reg.add("jobs", 1);
        let snap = reg.snapshot();
        let json = json::document(json::INDENT, |w| {
            w.key("meta").map(Layout::Inline, [("git_sha", "abc")]);
            snap.write_fields(w);
        });
        let meta = "{\n  \"meta\": {\"git_sha\": \"abc\"},\n";
        assert_eq!(json, snap.to_json().replacen("{\n", meta, 1));
    }

    #[test]
    fn histogram_quantiles_estimate_from_log2_buckets() {
        let reg = Registry::new();
        for v in 1..=100u64 {
            reg.record("lat", v);
        }
        let h = reg.snapshot().histogram("lat").unwrap();
        // p50 of 1..=100 is 50; its bucket [32, 63] has upper edge 63
        assert_eq!(h.p50(), 63);
        // p99 lands in bucket [64, 127], clamped to the observed max
        assert_eq!(h.p99(), 100);
        assert_eq!(h.quantile(0.0), 1, "q=0 clamps to min");
        assert_eq!(h.quantile(1.0), 100, "q=1 clamps to max");

        let empty = Histogram::new().stats();
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.p99(), 0);

        let single = Registry::new();
        single.record("one", 42);
        let h = single.snapshot().histogram("one").unwrap();
        assert_eq!(h.p50(), 42, "single-valued histogram is exact");
        assert_eq!(h.p99(), 42);
    }

    #[test]
    fn text_report_shows_percentiles_and_sorts_spans_by_wall_time() {
        let reg = Registry::new();
        for v in [1u64, 2, 3, 100] {
            reg.record("lat", v);
        }
        reg.observe_span("cheap", 0.001);
        reg.observe_span("expensive", 2.5);
        let text = reg.snapshot().render_text();
        assert!(text.contains("p50="), "missing p50 column: {text}");
        assert!(text.contains("p99="), "missing p99 column: {text}");
        let expensive = text.find("expensive").unwrap();
        let cheap = text.find("cheap").unwrap();
        assert!(
            expensive < cheap,
            "spans must be sorted by total wall time, heaviest first: {text}"
        );
    }

    #[test]
    fn text_report_lists_everything() {
        let reg = Registry::new();
        reg.add("jobs", 2);
        reg.record("pivots", 10);
        let s = reg.span("solve");
        s.close();
        let text = reg.snapshot().render_text();
        assert!(text.contains("jobs"));
        assert!(text.contains("pivots"));
        assert!(text.contains("solve"));
        assert!(text.contains("calls=1"));
    }
}
