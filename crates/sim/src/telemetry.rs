//! Deterministic fleet telemetry: a named-metric registry shared by every
//! subsystem of a simulation.
//!
//! [`MetricRegistry`] hands out cheap handles onto named **counters**
//! (monotonic `u64` sums), **gauges** (`f64` levels with peak tracking),
//! **histograms** (the log-bucketed [`Histogram`] of [`crate::metrics`],
//! reported as p50/p95/p99/p999 latency sketches), and **timelines**
//! (utilization-over-virtual-time series built on [`IntervalSeries`]).
//!
//! The registry follows the same discipline as the tracer, sanitizer, and
//! fault plan (DESIGN.md §10):
//!
//! * **handle pattern** — a registry is an `Option<Rc<State>>`; a disabled
//!   registry hands out disabled handles and every operation on them is a
//!   branch on `None`, so simulations that don't ask for telemetry pay
//!   nothing;
//! * **cached handles** — subsystems resolve their metric names once at
//!   construction ([`MetricRegistry::counter`] and friends intern the
//!   name), so hot paths increment a `Cell` instead of hashing a string;
//! * **determinism** — all state is `BTreeMap`-ordered and fed only by
//!   virtual-time events, so a [`MetricsSnapshot`] serializes to the same
//!   bytes on every same-seed run, at any `--jobs` count. The snapshot's
//!   [`digest`](MetricsSnapshot::digest) is folded into the sanitizer
//!   digest by the bench harness, making the determinism sweep prove it.
//!
//! Naming convention: `subsystem.object.metric`, e.g.
//! `faas.sandbox.cold_starts`, `storage.s3_standard.op_secs`,
//! `net.fabric.throttle_onsets`. A snapshot's one export is JSONL
//! ([`MetricsSnapshot::to_jsonl`]), one metric per line.

use crate::json;
use crate::metrics::{Histogram, IntervalSeries};
use crate::time::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Cap on exported timeline points: snapshots halve a timeline's
/// resolution (pair-summing adjacent windows) until it fits.
const MAX_TIMELINE_POINTS: usize = 512;

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// A monotonic counter handle. Cheap to clone; all clones and the registry
/// observe the same cell. Disabled handles are no-ops.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Rc<Cell<u64>>>);

impl Counter {
    /// A no-op counter (what a disabled registry hands out).
    pub fn disabled() -> Self {
        Counter(None)
    }

    /// True when backed by a live registry.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.set(c.get() + n);
        }
    }

    /// Overwrite with an absolute value. For sources that keep their own
    /// running total (e.g. the executor's poll count) and flush it into
    /// the registry at the end of a run — idempotent across flushes.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(c) = &self.0 {
            c.set(v);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }
}

#[derive(Debug, Default)]
struct GaugeCell {
    value: Cell<f64>,
    peak: Cell<f64>,
}

/// A gauge handle: an instantaneous level (pool occupancy, requests in
/// flight) with automatic peak tracking. Snapshots export the **peak**,
/// which merges cleanly (max) across simulations and harness workers;
/// levels must stay finite and non-negative.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Rc<GaugeCell>>);

impl Gauge {
    /// A no-op gauge.
    pub fn disabled() -> Self {
        Gauge(None)
    }

    /// True when backed by a live registry.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Set the current level (and raise the peak if exceeded).
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.value.set(v);
            if v > g.peak.get() {
                g.peak.set(v);
            }
        }
    }

    /// Adjust the current level by `delta`.
    #[inline]
    pub fn add(&self, delta: f64) {
        if let Some(g) = &self.0 {
            let v = g.value.get() + delta;
            g.value.set(v);
            if v > g.peak.get() {
                g.peak.set(v);
            }
        }
    }

    /// Current level (0 when disabled).
    pub fn get(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |g| g.value.get())
    }

    /// Highest level ever set (0 when disabled).
    pub fn peak(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |g| g.peak.get())
    }
}

/// A histogram handle recording positive values (latencies in seconds by
/// convention) into a shared log-bucketed [`Histogram`].
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Option<Rc<RefCell<Histogram>>>);

impl HistogramHandle {
    /// A no-op histogram handle.
    pub fn disabled() -> Self {
        HistogramHandle(None)
    }

    /// True when backed by a live registry.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: f64) {
        if let Some(h) = &self.0 {
            h.borrow_mut().record(v);
        }
    }

    /// Record a [`SimDuration`] in seconds.
    #[inline]
    pub fn record_duration(&self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of recorded values (0 when disabled).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.borrow().count())
    }
}

/// A timeline handle accumulating a quantity (bytes, ops) into fixed-width
/// virtual-time windows — the registry's utilization-over-time instrument.
#[derive(Debug, Clone, Default)]
pub struct TimelineHandle(Option<Rc<RefCell<IntervalSeries>>>);

impl TimelineHandle {
    /// A no-op timeline handle.
    pub fn disabled() -> Self {
        TimelineHandle(None)
    }

    /// True when backed by a live registry.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record `amount` at instant `t`.
    #[inline]
    pub fn record(&self, t: SimTime, amount: f64) {
        if let Some(s) = &self.0 {
            s.borrow_mut().record(t, amount);
        }
    }

    /// Spread `amount` uniformly over `[start, end)`.
    #[inline]
    pub fn record_span(&self, start: SimTime, end: SimTime, amount: f64) {
        if let Some(s) = &self.0 {
            s.borrow_mut().record_span(start, end, amount);
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct RegistryState {
    counters: RefCell<BTreeMap<String, Rc<Cell<u64>>>>,
    gauges: RefCell<BTreeMap<String, Rc<GaugeCell>>>,
    histograms: RefCell<BTreeMap<String, Rc<RefCell<Histogram>>>>,
    timelines: RefCell<BTreeMap<String, Rc<RefCell<IntervalSeries>>>>,
}

/// The instrument named `name` in `map`, made by `make` on first use. A
/// name already interned costs a shared borrow and an `Rc` clone: no
/// `String` is built and no mutable borrow taken.
fn intern<T>(
    map: &RefCell<BTreeMap<String, Rc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Rc<T> {
    let hit = map.borrow().get(name).cloned();
    hit.unwrap_or_else(|| {
        Rc::clone(
            map.borrow_mut()
                .entry(name.to_string())
                .or_insert_with(|| Rc::new(make())),
        )
    })
}

/// Handle onto a simulation's metric registry. Cheap to clone; a disabled
/// registry hands out disabled metric handles and snapshots to empty.
///
/// Install one per simulation via
/// [`Sim::install_metrics`](crate::Sim::install_metrics); subsystems reach
/// it through [`SimCtx::metrics`](crate::SimCtx::metrics) and cache the
/// handles they need at construction time.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    state: Option<Rc<RegistryState>>,
}

impl MetricRegistry {
    /// An active, empty registry.
    pub fn new() -> Self {
        MetricRegistry {
            state: Some(Rc::new(RegistryState::default())),
        }
    }

    /// A disabled registry: every handle it hands out is a no-op.
    pub fn disabled() -> Self {
        MetricRegistry { state: None }
    }

    /// True when metrics are being collected.
    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Resolve (interning on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(
            self.state
                .as_ref()
                .map(|s| intern(&s.counters, name, Cell::default)),
        )
    }

    /// Resolve (interning on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(
            self.state
                .as_ref()
                .map(|s| intern(&s.gauges, name, GaugeCell::default)),
        )
    }

    /// Resolve (interning on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle(
            self.state
                .as_ref()
                .map(|s| intern(&s.histograms, name, RefCell::default)),
        )
    }

    /// Resolve (interning on first use) the timeline named `name`, with
    /// windows of width `interval` starting at virtual time zero. The
    /// first caller's interval wins; later calls reuse the series as-is.
    pub fn timeline(&self, name: &str, interval: SimDuration) -> TimelineHandle {
        TimelineHandle(self.state.as_ref().map(|s| {
            intern(&s.timelines, name, || {
                RefCell::new(IntervalSeries::new(SimTime::ZERO, interval))
            })
        }))
    }

    /// Snapshot every metric into a serializable, mergeable value.
    /// Histograms that never recorded a value are omitted (their min/max
    /// are not yet meaningful); counters and gauges are kept even at zero
    /// so registered-but-idle metrics stay visible.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(s) = &self.state else {
            return MetricsSnapshot::default();
        };
        MetricsSnapshot {
            counters: s
                .counters
                .borrow()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: s
                .gauges
                .borrow()
                .iter()
                .map(|(k, v)| (k.clone(), v.peak.get()))
                .collect(),
            histograms: s
                .histograms
                .borrow()
                .iter()
                .filter(|(_, h)| h.borrow().count() > 0)
                .map(|(k, h)| (k.clone(), h.borrow().clone()))
                .collect(),
            timelines: s
                .timelines
                .borrow()
                .iter()
                .filter(|(_, t)| !t.borrow().totals().is_empty())
                .map(|(k, t)| (k.clone(), TimelineSnapshot::from_series(&t.borrow())))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A downsampled export of a timeline: per-window totals at a (possibly
/// coarsened) window width. Produced by [`MetricRegistry::snapshot`];
/// windows beyond `MAX_TIMELINE_POINTS` (512) are pair-summed until the series
/// fits, doubling `interval_secs` each pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimelineSnapshot {
    /// Window width in (virtual) seconds.
    pub interval_secs: f64,
    /// Quantity accumulated per window, from virtual time zero.
    pub points: Vec<f64>,
}
serde::impl_json! { struct TimelineSnapshot { interval_secs, points } }

impl TimelineSnapshot {
    /// Downsampled snapshot of a series.
    pub fn from_series(series: &IntervalSeries) -> Self {
        let mut snap = TimelineSnapshot {
            interval_secs: series.interval().as_secs_f64(),
            points: series.totals().to_vec(),
        };
        snap.fit();
        snap
    }

    /// Halve resolution until the series fits the export cap.
    fn fit(&mut self) {
        while self.points.len() > MAX_TIMELINE_POINTS {
            self.halve();
        }
    }

    /// Merge adjacent window pairs, doubling the window width.
    fn halve(&mut self) {
        self.points = self
            .points
            .chunks(2)
            .map(|pair| pair.iter().sum())
            .collect();
        self.interval_secs *= 2.0;
    }

    /// Merge another timeline of the same base width into this one: the
    /// finer side is downsampled until widths agree, then windows add
    /// element-wise.
    pub fn merge(&mut self, other: &TimelineSnapshot) {
        let mut other = other.clone();
        while self.interval_secs < other.interval_secs {
            self.halve();
        }
        while other.interval_secs < self.interval_secs {
            other.halve();
        }
        if other.points.len() > self.points.len() {
            self.points.resize(other.points.len(), 0.0);
        }
        for (a, b) in self.points.iter_mut().zip(&other.points) {
            *a += b;
        }
        self.fit();
    }

    /// Peak per-window rate in units/second.
    pub fn peak_rate(&self) -> f64 {
        self.points
            .iter()
            .fold(0.0f64, |a, &b| a.max(b / self.interval_secs))
    }
}

/// A serializable snapshot of a whole registry. `BTreeMap` keys make the
/// JSON encoding canonical: two equal snapshots serialize to identical
/// bytes, which is what the determinism tests compare and what
/// [`digest`](MetricsSnapshot::digest) hashes.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters. Merge: sum.
    pub counters: BTreeMap<String, u64>,
    /// Gauge peaks (high-water marks). Merge: max.
    pub gauges: BTreeMap<String, f64>,
    /// Latency/size histograms. Merge: bucket-wise sum.
    pub histograms: BTreeMap<String, Histogram>,
    /// Utilization timelines. Merge: window-wise sum.
    pub timelines: BTreeMap<String, TimelineSnapshot>,
}
serde::impl_json! { struct MetricsSnapshot { counters, gauges, histograms, timelines } }

impl MetricsSnapshot {
    /// True when no metric was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.timelines.is_empty()
    }

    /// Fold another snapshot into this one: counters sum, gauges take the
    /// max (peak semantics), histograms and timelines merge. Used to
    /// aggregate across the simulations of one experiment and across the
    /// experiments of a suite.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(0.0);
            if *v > *e {
                *e = *v;
            }
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, t) in &other.timelines {
            match self.timelines.get_mut(k) {
                Some(mine) => mine.merge(t),
                None => {
                    self.timelines.insert(k.clone(), t.clone());
                }
            }
        }
    }

    /// Canonical JSON encoding (BTreeMap key order): byte-identical for
    /// equal snapshots, the unit of comparison in the determinism sweep.
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }

    /// FNV-1a digest of the canonical encoding. The bench harness folds
    /// this into the sanitizer digest (`observe("telemetry", digest)`) so
    /// nondeterministic telemetry fails the sweep like any other state.
    pub fn digest(&self) -> u64 {
        crate::fnv1a64(self.canonical_json().as_bytes())
    }

    /// JSONL export: one JSON object per metric per line, its keys in
    /// sorted order. Histograms are rendered as summaries with
    /// p50/p95/p99/p999.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let name = json(name);
            let _ = writeln!(out, r#"{{"name":{name},"type":"counter","value":{v}}}"#);
        }
        for (name, v) in &self.gauges {
            let (name, peak) = (json(name), json(v));
            let _ = writeln!(out, r#"{{"name":{name},"peak":{peak},"type":"gauge"}}"#);
        }
        for (name, h) in &self.histograms {
            let s = h.summary();
            let [mean, min, p50, p95, p99, p999, max] =
                [s.mean, s.min, s.p50, s.p95, s.p99, s.p999, s.max].map(|v| json(&v));
            let _ = writeln!(
                out,
                r#"{{"count":{},"max":{max},"mean":{mean},"min":{min},"name":{},"p50":{p50},"p95":{p95},"p99":{p99},"p999":{p999},"type":"histogram"}}"#,
                s.count,
                json(name)
            );
        }
        for (name, t) in &self.timelines {
            let (interval, name, points) = (json(&t.interval_secs), json(name), json(&t.points));
            let _ = writeln!(
                out,
                r#"{{"interval_secs":{interval},"name":{name},"points":{points},"type":"timeline"}}"#
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_noop() {
        let reg = MetricRegistry::disabled();
        assert!(!reg.enabled());
        let c = reg.counter("a.b.c");
        let g = reg.gauge("a.b.g");
        let h = reg.histogram("a.b.h");
        let t = reg.timeline("a.b.t", SimDuration::from_secs(1));
        c.inc();
        g.set(5.0);
        h.record(0.5);
        t.record(SimTime::ZERO, 1.0);
        assert!(!c.enabled() && !g.enabled() && !h.enabled() && !t.enabled());
        assert_eq!(c.get(), 0);
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn handles_share_state_by_name() {
        let reg = MetricRegistry::new();
        let a = reg.counter("x.y.z");
        let b = reg.counter("x.y.z");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["x.y.z"], 3);
    }

    #[test]
    fn gauge_exports_peak_not_last() {
        let reg = MetricRegistry::new();
        let g = reg.gauge("pool.size");
        g.set(3.0);
        g.add(4.0); // 7 — the peak
        g.set(1.0);
        assert_eq!(g.get(), 1.0);
        assert_eq!(g.peak(), 7.0);
        assert_eq!(reg.snapshot().gauges["pool.size"], 7.0);
    }

    #[test]
    fn empty_histograms_are_omitted() {
        let reg = MetricRegistry::new();
        let _idle = reg.histogram("never.recorded");
        let h = reg.histogram("has.values");
        h.record(0.25);
        let snap = reg.snapshot();
        assert!(!snap.histograms.contains_key("never.recorded"));
        assert_eq!(snap.histograms["has.values"].count(), 1);
        // Counters survive at zero.
        let _c = reg.counter("idle.counter");
        assert_eq!(reg.snapshot().counters["idle.counter"], 0);
    }

    #[test]
    fn snapshot_merge_sums_and_maxes() {
        let mk = |c: u64, g: f64, lat: f64| {
            let reg = MetricRegistry::new();
            reg.counter("n.ops").add(c);
            reg.gauge("n.peak").set(g);
            reg.histogram("n.secs").record(lat);
            reg.timeline("n.bytes", SimDuration::from_secs(1))
                .record(SimTime::from_nanos(500_000_000), c as f64);
            reg.snapshot()
        };
        let mut a = mk(3, 2.0, 0.1);
        let b = mk(4, 9.0, 0.2);
        a.merge(&b);
        assert_eq!(a.counters["n.ops"], 7);
        assert_eq!(a.gauges["n.peak"], 9.0);
        assert_eq!(a.histograms["n.secs"].count(), 2);
        assert_eq!(a.timelines["n.bytes"].points[0], 7.0);
    }

    #[test]
    fn canonical_json_is_stable_and_digest_detects_change() {
        let mk = |v: u64| {
            let reg = MetricRegistry::new();
            reg.counter("a").add(v);
            reg.gauge("b").set(1.5);
            reg.histogram("c").record(0.125);
            reg.snapshot()
        };
        let (a, b, c) = (mk(1), mk(1), mk(2));
        assert_eq!(a.canonical_json(), b.canonical_json());
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    /// One metric of each kind.
    fn all_kinds() -> MetricsSnapshot {
        let reg = MetricRegistry::new();
        reg.counter("faas.sandbox.cold_starts").add(2);
        reg.gauge("faas.pool.warm_size").set(4.0);
        let h = reg.histogram("faas.invoke.latency_secs");
        for i in 1..=100 {
            h.record(i as f64 / 100.0);
        }
        reg.timeline("net.lane.s3", SimDuration::from_secs(1))
            .record(SimTime::ZERO, 10.0);
        reg.snapshot()
    }

    #[test]
    fn jsonl_and_prometheus_render_all_kinds() {
        let jsonl = all_kinds().to_jsonl();
        let rows: Vec<serde_json::Value> = jsonl
            .lines()
            .map(|line| serde_json::from_str(line).expect("valid JSONL line"))
            .collect();
        let kinds: Vec<_> = rows.iter().map(|r| r["type"].as_str().unwrap()).collect();
        assert_eq!(kinds, ["counter", "gauge", "histogram", "timeline"]);
        assert_eq!(rows[0]["value"].as_u64(), Some(2));
        assert_eq!(rows[1]["peak"].as_f64(), Some(4.0));
        assert!(rows[2]["p999"].as_f64().is_some());
        assert_eq!(rows[3]["points"][0].as_f64(), Some(10.0));
    }

    /// The export's bytes, recorded at commit 4052da9, when the export was
    /// built as `serde_json::Value` trees. A change to how the export is
    /// written leaves these two constants alone.
    #[test]
    fn jsonl_export_is_pinned() {
        let jsonl = all_kinds().to_jsonl();
        assert_eq!(jsonl.len(), 399, "{jsonl}");
        let digest = crate::fnv1a64(jsonl.as_bytes());
        assert_eq!(digest, 0xde99_a40e_3f96_5664, "{digest:#018x}\n{jsonl}");
    }

    #[test]
    fn timeline_downsamples_past_cap() {
        let reg = MetricRegistry::new();
        let t = reg.timeline("x", SimDuration::from_millis(10));
        // 2000 windows of 10ms — must fold down to <= 512 points.
        for i in 0..2000u64 {
            t.record(SimTime::from_nanos(i * 10_000_000), 1.0);
        }
        let snap = reg.snapshot();
        let tl = &snap.timelines["x"];
        assert!(tl.points.len() <= MAX_TIMELINE_POINTS);
        assert!(
            (tl.interval_secs - 0.04).abs() < 1e-12,
            "{}",
            tl.interval_secs
        );
        assert!((tl.points.iter().sum::<f64>() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn timeline_merge_aligns_resolutions() {
        let mut coarse = TimelineSnapshot {
            interval_secs: 2.0,
            points: vec![1.0, 1.0],
        };
        let fine = TimelineSnapshot {
            interval_secs: 1.0,
            points: vec![1.0, 1.0, 1.0],
        };
        coarse.merge(&fine);
        assert_eq!(coarse.interval_secs, 2.0);
        assert_eq!(coarse.points, vec![3.0, 2.0]);
        assert!((coarse.peak_rate() - 1.5).abs() < 1e-12);
    }
}
