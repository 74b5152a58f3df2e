//! Virtual-time tracing: structured spans and point events.
//!
//! Every event is stamped with virtual [`SimTime`], so traces are as
//! deterministic as the simulation itself: identical seeds yield
//! byte-identical exports. A [`Tracer`] is a cheap cloneable handle; the
//! default (disabled) tracer makes every recording call a no-op branch, so
//! instrumented hot paths pay ~nothing when tracing is off.
//!
//! The one export is Chrome Trace Event Format JSON
//! ([`Tracer::chrome_trace_json`], [`chrome_trace_json_multi`]; load it in
//! Perfetto / `chrome://tracing`): pid = service, tid = lane, timestamps
//! in microseconds. A merged export names each process `label/service`,
//! so the run label (which carries the seed) travels with every event.

use crate::executor::SimCtx;
use crate::json;
use crate::time::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// An attribute value attached to a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (bytes, rows, counts).
    U64(u64),
    /// Float (seconds, rates, fractions).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form string (keys, function names).
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl AttrValue {
    /// The value as JSON text.
    fn json(&self) -> String {
        match self {
            AttrValue::U64(v) => json(v),
            AttrValue::F64(v) => json(v),
            AttrValue::Bool(v) => json(v),
            AttrValue::Str(v) => json(v.as_str()),
        }
    }
}

/// Whether an event covers a time range or marks an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration event (`ph:"X"` in Chrome trace terms).
    Span,
    /// A point event (`ph:"i"`).
    Instant,
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Start (spans) or occurrence (instants) on the virtual timeline.
    pub ts: SimTime,
    /// Span length; `None` for instants and for spans still open at export.
    pub dur: Option<SimDuration>,
    /// Span or instant.
    pub kind: EventKind,
    /// Emitting service — becomes the Chrome-trace process (pid).
    pub service: &'static str,
    /// Instance / worker / request lane — becomes the Chrome-trace thread (tid).
    pub lane: u64,
    /// Event name.
    pub name: &'static str,
    /// Key/value attributes, in recording order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

struct TraceBuf {
    run_id: u64,
    events: RefCell<Vec<TraceEvent>>,
    next_lane: Cell<u64>,
}

/// A cheap cloneable tracing handle.
///
/// The default tracer is *disabled*: every method is a no-op costing only a
/// branch. An enabled tracer (see [`crate::Sim::install_tracer`]) appends
/// events to a shared buffer in execution order, which — the executor being
/// deterministic — makes exports byte-identical across same-seed runs.
#[derive(Clone, Default)]
pub struct Tracer {
    buf: Option<Rc<TraceBuf>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// An enabled tracer tagged with a run id (conventionally the sim seed).
    pub fn new(run_id: u64) -> Self {
        Tracer {
            buf: Some(Rc::new(TraceBuf {
                run_id,
                events: RefCell::new(Vec::new()),
                next_lane: Cell::new(0),
            })),
        }
    }

    /// True when events are being recorded. Gate expensive attribute
    /// construction (string formatting) on this.
    pub fn enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// The run id this tracer was created with (`None` when disabled).
    pub fn run_id(&self) -> Option<u64> {
        self.buf.as_ref().map(|b| b.run_id)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.buf.as_ref().map_or(0, |b| b.events.borrow().len())
    }

    /// True when no events have been recorded (or tracing is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocate a fresh lane (Chrome-trace tid) for a request / instance.
    /// Deterministic: lanes are handed out in recording order.
    pub fn next_lane(&self) -> u64 {
        match &self.buf {
            Some(b) => {
                let lane = b.next_lane.get();
                b.next_lane.set(lane + 1);
                lane
            }
            None => 0,
        }
    }

    fn push(&self, ev: TraceEvent) -> Option<usize> {
        let buf = self.buf.as_ref()?;
        let mut events = buf.events.borrow_mut();
        events.push(ev);
        Some(events.len() - 1)
    }

    /// Open a span starting now. The span closes (its duration is recorded)
    /// when the returned guard drops, or explicitly via [`Span::end`].
    pub fn span(&self, ctx: &SimCtx, service: &'static str, lane: u64, name: &'static str) -> Span {
        if self.buf.is_none() {
            return Span::noop();
        }
        let idx = self.push(TraceEvent {
            ts: ctx.now(),
            dur: None,
            kind: EventKind::Span,
            service,
            lane,
            name,
            attrs: Vec::new(),
        });
        Span {
            buf: self.buf.clone(),
            idx: idx.unwrap_or(0),
            end_ctx: Some(ctx.clone()),
        }
    }

    /// Record a span with explicit start/end — for phases whose timing is
    /// computed rather than awaited (e.g. per-operator slices of one CPU
    /// charge). The returned guard only patches attributes.
    pub fn span_at(
        &self,
        start: SimTime,
        end: SimTime,
        service: &'static str,
        lane: u64,
        name: &'static str,
    ) -> Span {
        if self.buf.is_none() {
            return Span::noop();
        }
        let idx = self.push(TraceEvent {
            ts: start,
            dur: Some(end.duration_since(start)),
            kind: EventKind::Span,
            service,
            lane,
            name,
            attrs: Vec::new(),
        });
        Span {
            buf: self.buf.clone(),
            idx: idx.unwrap_or(0),
            end_ctx: None,
        }
    }

    /// Record a point event at the current virtual time. Attributes can be
    /// chained onto the returned guard.
    pub fn instant(
        &self,
        ctx: &SimCtx,
        service: &'static str,
        lane: u64,
        name: &'static str,
    ) -> Span {
        if self.buf.is_none() {
            return Span::noop();
        }
        let idx = self.push(TraceEvent {
            ts: ctx.now(),
            dur: None,
            kind: EventKind::Instant,
            service,
            lane,
            name,
            attrs: Vec::new(),
        });
        Span {
            buf: self.buf.clone(),
            idx: idx.unwrap_or(0),
            end_ctx: None,
        }
    }

    /// Run `f` over the recorded events (empty slice when disabled).
    pub fn with_events<T>(&self, f: impl FnOnce(&[TraceEvent]) -> T) -> T {
        match &self.buf {
            Some(b) => f(&b.events.borrow()),
            None => f(&[]),
        }
    }

    /// Export this run as Chrome Trace Event Format JSON (pid = service,
    /// tid = lane). Load the file in Perfetto or `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json_multi(&[(String::new(), self)])
    }
}

/// Merge several traced runs into one Chrome-trace JSON document. Each run
/// gets its services namespaced as `label/service` (label omitted when
/// empty), so multi-seed experiments stay distinguishable in Perfetto.
///
/// Each event is one line, its keys in sorted order and its attributes an
/// object in which a repeated key keeps its last value.
pub fn chrome_trace_json_multi(runs: &[(String, &Tracer)]) -> String {
    use std::fmt::Write as _;
    // Deterministic pid assignment: first-seen order across runs/events.
    let mut pid_names: Vec<String> = Vec::new();
    let mut out = String::from("{\"traceEvents\":[");
    let mut sep = "\n";
    for (label, tracer) in runs {
        tracer.with_events(|events| {
            for ev in events {
                let pname = if label.is_empty() {
                    ev.service.to_string()
                } else {
                    format!("{label}/{}", ev.service)
                };
                let pid = match pid_names.iter().position(|p| *p == pname) {
                    Some(i) => i,
                    None => {
                        let pid = pid_names.len();
                        let _ = write!(
                            out,
                            "{sep}{{\"args\":{{\"name\":{}}},\"name\":\"process_name\",\
                             \"ph\":\"M\",\"pid\":{pid},\"tid\":0}}",
                            json(&pname)
                        );
                        sep = ",\n";
                        pid_names.push(pname);
                        pid
                    }
                };
                let args: BTreeMap<&str, &AttrValue> =
                    ev.attrs.iter().map(|(k, v)| (*k, v)).collect();
                let mut args_json = String::from("{");
                for (i, (k, v)) in args.iter().enumerate() {
                    let comma = if i > 0 { "," } else { "" };
                    let _ = write!(args_json, "{comma}{}:{}", json(k), v.json());
                }
                args_json.push('}');
                let (name, lane) = (json(ev.name), ev.lane);
                let ts = json(&(ev.ts.as_nanos() as f64 / 1e3));
                let _ = match ev.kind {
                    EventKind::Span => {
                        let dur = ev.dur.unwrap_or(SimDuration::ZERO).as_nanos() as f64 / 1e3;
                        write!(
                            out,
                            "{sep}{{\"args\":{args_json},\"dur\":{},\"name\":{name},\
                             \"ph\":\"X\",\"pid\":{pid},\"tid\":{lane},\"ts\":{ts}}}",
                            json(&dur)
                        )
                    }
                    EventKind::Instant => write!(
                        out,
                        "{sep}{{\"args\":{args_json},\"name\":{name},\"ph\":\"i\",\
                         \"pid\":{pid},\"s\":\"t\",\"tid\":{lane},\"ts\":{ts}}}"
                    ),
                };
                sep = ",\n";
            }
        });
    }
    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------------
// Span guard
// ---------------------------------------------------------------------------

/// Guard for an in-flight span (or a handle onto an instant / pre-closed
/// span, for attribute patching). Dropping a live span stamps its duration
/// with the current virtual time.
pub struct Span {
    buf: Option<Rc<TraceBuf>>,
    idx: usize,
    /// `Some` while the span is open and should be closed on drop.
    end_ctx: Option<SimCtx>,
}

impl Span {
    fn noop() -> Self {
        Span {
            buf: None,
            idx: 0,
            end_ctx: None,
        }
    }

    /// True when this span is actually recording.
    pub fn enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Attach an attribute. No-op (the value is not converted) when tracing
    /// is disabled. Returns `&self` for chaining.
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) -> &Self {
        if let Some(buf) = &self.buf {
            buf.events.borrow_mut()[self.idx]
                .attrs
                .push((key, value.into()));
        }
        self
    }

    /// Close the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some(buf), Some(ctx)) = (&self.buf, &self.end_ctx) {
            // Skip the duration patch if the simulation is already gone.
            if let Some(now) = ctx.try_now() {
                let mut events = buf.events.borrow_mut();
                let ev = &mut events[self.idx];
                ev.dur = Some(now.duration_since(ev.ts));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let tracer = Tracer::disabled();
        let t2 = tracer.clone();
        sim.spawn(async move {
            let span = t2.span(&ctx, "svc", 0, "work");
            span.attr("bytes", 42u64);
            ctx.sleep(SimDuration::from_millis(5)).await;
            t2.instant(&ctx, "svc", 0, "tick");
        });
        sim.run();
        assert!(!tracer.enabled());
        assert_eq!(tracer.len(), 0);
        assert_eq!(tracer.chrome_trace_json(), "{\"traceEvents\":[\n]}\n");
    }

    #[test]
    fn span_durations_follow_virtual_time() {
        let mut sim = Sim::new(1);
        let tracer = sim.install_tracer();
        let ctx = sim.ctx();
        let t2 = tracer.clone();
        sim.spawn(async move {
            let span = t2.span(&ctx, "svc", 3, "work");
            span.attr("bytes", 42u64).attr("cold", true);
            ctx.sleep(SimDuration::from_millis(5)).await;
            drop(span);
            t2.instant(&ctx, "svc", 3, "tick").attr("n", 1u64);
        });
        sim.run();
        assert_eq!(tracer.len(), 2);
        tracer.with_events(|evs| {
            assert_eq!(evs[0].name, "work");
            assert_eq!(evs[0].dur, Some(SimDuration::from_millis(5)));
            assert_eq!(evs[0].lane, 3);
            assert_eq!(evs[0].attrs.len(), 2);
            assert_eq!(evs[1].kind, EventKind::Instant);
            assert_eq!(evs[1].ts, SimTime::from_nanos(5_000_000));
        });
    }

    /// Three spans on fresh lanes, then an instant on another service.
    fn chrome_scenario() -> String {
        let mut sim = Sim::new(7);
        let tracer = sim.install_tracer();
        let ctx = sim.ctx();
        let t2 = tracer.clone();
        sim.spawn(async move {
            for i in 0..3u64 {
                let span = t2.span(&ctx, "net", t2.next_lane(), "transfer");
                span.attr("bytes", 100 * i);
                let d = ctx.with_rng(|r| r.gen_range_u64(1, 50));
                ctx.sleep(SimDuration::from_micros(d)).await;
            }
            t2.instant(&ctx, "storage", 0, "throttle-503");
        });
        sim.run();
        tracer.chrome_trace_json()
    }

    #[test]
    fn exports_are_valid_json_and_deterministic() {
        let chrome = chrome_scenario();
        let parsed: serde_json::Value = serde_json::from_str(&chrome).expect("valid JSON");
        let events = parsed["traceEvents"].as_array().expect("traceEvents array");
        // 4 events + 2 process_name metadata records.
        assert_eq!(events.len(), 6);
        assert!(events.iter().any(|e| e["ph"] == "X"));
        assert!(events.iter().any(|e| e["ph"] == "i"));
        assert!(events.iter().any(|e| e["ph"] == "M"));
        // Byte-identical across same-seed runs.
        assert_eq!(chrome, chrome_scenario());
    }

    /// The export's bytes, recorded at commit 4052da9, when the export was
    /// built as `serde_json::Value` trees. A change to how the export is
    /// written leaves these two constants alone.
    #[test]
    fn chrome_export_is_pinned() {
        let chrome = chrome_scenario();
        assert_eq!(chrome.len(), 507, "{chrome}");
        let digest = crate::fnv1a64(chrome.as_bytes());
        assert_eq!(digest, 0x9d3b_1629_5058_25c3, "{digest:#018x}\n{chrome}");
    }

    #[test]
    fn attributes_are_escaped_sorted_and_last_wins() {
        let sim = Sim::new(1);
        let tracer = sim.install_tracer();
        tracer
            .span_at(SimTime::ZERO, SimTime::from_nanos(1500), "s\"q", 0, "n")
            .attr("z", "a\nb")
            .attr("a", f64::NAN)
            .attr("z", true);
        let line = tracer
            .chrome_trace_json()
            .lines()
            .nth(2)
            .unwrap()
            .to_string();
        assert_eq!(
            line,
            r#"{"args":{"a":null,"z":true},"dur":1.5,"name":"n","ph":"X","pid":0,"tid":0,"ts":0.0}"#
        );
        let parsed: serde_json::Value = serde_json::from_str(&tracer.chrome_trace_json()).unwrap();
        assert_eq!(parsed["traceEvents"][0]["args"]["name"], "s\"q");
    }

    #[test]
    fn span_at_records_computed_windows() {
        let sim = Sim::new(1);
        let tracer = sim.install_tracer();
        tracer
            .span_at(
                SimTime::from_nanos(100),
                SimTime::from_nanos(400),
                "worker",
                9,
                "filter",
            )
            .attr("rows", 1000u64);
        tracer.with_events(|evs| {
            assert_eq!(evs[0].ts, SimTime::from_nanos(100));
            assert_eq!(evs[0].dur, Some(SimDuration::from_nanos(300)));
        });
    }

    #[test]
    fn lanes_are_sequential() {
        let sim = Sim::new(1);
        let tracer = sim.install_tracer();
        assert_eq!(tracer.next_lane(), 0);
        assert_eq!(tracer.next_lane(), 1);
        assert_eq!(Tracer::disabled().next_lane(), 0);
    }
}
