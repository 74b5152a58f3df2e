//! Per-query profiles derived from the virtual-time trace.
//!
//! [`QueryProfile`] condenses one query's trace window into the numbers an
//! engineer reaches for first: the stage-wise critical path as observed by
//! the coordinator, cumulative time per operator across the worker fleet,
//! the coldstart share of worker time, bytes moved, and the marginal cost
//! drawn from the [`skyrise_pricing`] meter. The driver's
//! [`crate::driver::Skyrise::run_profiled`] builds one per execution.

use crate::coordinator::QueryResponse;
use serde::Serialize;
use skyrise_pricing::CostReport;
use skyrise_sim::{AttrValue, EventKind, TraceEvent, Tracer};
use std::collections::BTreeMap;

/// One coordinator-scheduled stage on the query's critical path. Stages
/// execute in dependency order, so their spans tile the query runtime (the
/// gaps are coordinator work: metadata fetches, planning, result fetch).
#[derive(Debug, Clone, Serialize)]
pub struct StageSlice {
    /// Pipeline id the stage executed.
    pub pipeline: u32,
    /// Stage start, seconds after the query began.
    pub start_secs: f64,
    /// Stage duration (coordinator-observed wall time).
    pub duration_secs: f64,
    /// Worker fragments scheduled.
    pub fragments: u32,
}

/// Marginal cost of one query: the field-wise delta of the usage meter's
/// [`CostReport`] across the execution.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ProfileCost {
    /// Lambda GB-second charges.
    pub lambda_compute_usd: f64,
    /// Lambda per-request charges.
    pub lambda_request_usd: f64,
    /// EC2 instance-hour charges (IaaS mode).
    pub ec2_usd: f64,
    /// Storage request charges.
    pub storage_request_usd: f64,
    /// Storage capacity charges accrued during the run.
    pub storage_capacity_usd: f64,
}

impl ProfileCost {
    /// `after - before`, clamped at zero per component.
    pub fn delta(before: &CostReport, after: &CostReport) -> Self {
        ProfileCost {
            lambda_compute_usd: (after.lambda_compute_usd - before.lambda_compute_usd).max(0.0),
            lambda_request_usd: (after.lambda_request_usd - before.lambda_request_usd).max(0.0),
            ec2_usd: (after.ec2_usd - before.ec2_usd).max(0.0),
            storage_request_usd: (after.storage_request_usd - before.storage_request_usd).max(0.0),
            storage_capacity_usd: (after.storage_capacity_usd - before.storage_capacity_usd)
                .max(0.0),
        }
    }

    /// Grand total in dollars.
    pub fn total_usd(&self) -> f64 {
        self.lambda_compute_usd
            + self.lambda_request_usd
            + self.ec2_usd
            + self.storage_request_usd
            + self.storage_capacity_usd
    }
}

/// A per-query execution profile assembled from the trace and the
/// coordinator response.
#[derive(Debug, Clone, Serialize)]
pub struct QueryProfile {
    /// The profiled query execution id.
    pub query_id: String,
    /// End-to-end runtime (coordinator wall time, virtual seconds).
    pub runtime_secs: f64,
    /// Sum of all worker wall times across stages.
    pub cumulative_worker_secs: f64,
    /// Stage spans in schedule order, relative to the query start.
    pub critical_path: Vec<StageSlice>,
    /// Cumulative worker-seconds per operator/phase label (`scan-read`,
    /// `io-stack`, `filter`, `hash-aggregate`, `shuffle-write`, ...).
    pub operator_secs: BTreeMap<String, f64>,
    /// Sandboxes cold-started during the query window.
    pub cold_starts: u64,
    /// Total seconds spent in coldstart init + binary download.
    pub coldstart_secs: f64,
    /// Coldstart fraction of (coldstart + worker) time, in `[0, 1]`.
    pub coldstart_share: f64,
    /// Logical bytes read from storage.
    pub bytes_read: u64,
    /// Logical bytes written to storage.
    pub bytes_written: u64,
    /// Storage requests issued (including retries).
    pub storage_requests: u64,
    /// Trace events recorded inside the query window.
    pub events_traced: u64,
    /// Failure-driven task re-invocations across stages (worker and
    /// fan-out helper tiers).
    pub task_retries: u32,
    /// Speculative duplicate invocations launched for stragglers.
    pub speculative_invokes: u32,
    /// Worker-seconds spent in attempts that ultimately failed.
    pub failed_attempt_secs: f64,
    /// Failed-attempt fraction of (failed + worker) time, in `[0, 1]` —
    /// the wasted-work share of the reliability tax.
    pub failure_share: f64,
    /// Fault-plan injections observed in the query's trace window
    /// (`fault-*` instants; 0 with tracing disabled or no fault plan).
    pub faults_injected: u64,
    /// Telemetry counter deltas across the execution — how far each
    /// registry counter advanced while this query ran. Empty without an
    /// installed [`skyrise_sim::MetricRegistry`] (DESIGN.md §10).
    pub metric_counters: BTreeMap<String, u64>,
    /// Marginal cost, when a usage meter was reachable.
    pub cost: Option<ProfileCost>,
}

fn attr_str<'a>(ev: &'a TraceEvent, key: &str) -> Option<&'a str> {
    ev.attrs.iter().find_map(|(k, v)| match v {
        AttrValue::Str(s) if *k == key => Some(s.as_str()),
        _ => None,
    })
}

fn attr_u64(ev: &TraceEvent, key: &str) -> Option<u64> {
    ev.attrs.iter().find_map(|(k, v)| match v {
        AttrValue::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

impl QueryProfile {
    /// Build a profile for `response.query_id` from the recorded trace.
    /// With tracing disabled the trace-derived fields stay empty and only
    /// the response aggregates are filled in.
    pub fn from_trace(
        response: &QueryResponse,
        tracer: &Tracer,
        cost: Option<ProfileCost>,
    ) -> Self {
        let qid = response.query_id.as_str();
        let mut profile = QueryProfile {
            query_id: response.query_id.clone(),
            runtime_secs: response.runtime_secs,
            cumulative_worker_secs: response.cumulative_worker_secs,
            critical_path: Vec::new(),
            operator_secs: BTreeMap::new(),
            cold_starts: response.stages.iter().map(|s| s.cold_starts as u64).sum(),
            coldstart_secs: 0.0,
            coldstart_share: 0.0,
            bytes_read: response.stages.iter().map(|s| s.logical_bytes_read).sum(),
            bytes_written: response
                .stages
                .iter()
                .map(|s| s.logical_bytes_written)
                .sum(),
            storage_requests: response.total_requests(),
            events_traced: 0,
            task_retries: response.stages.iter().map(|s| s.task_retries).sum(),
            speculative_invokes: response.stages.iter().map(|s| s.speculative_invokes).sum(),
            failed_attempt_secs: response.stages.iter().map(|s| s.failed_attempt_secs).sum(),
            failure_share: 0.0,
            faults_injected: 0,
            metric_counters: BTreeMap::new(),
            cost,
        };
        tracer.with_events(|events| {
            // The query window: the coordinator's "query" span for this id.
            let window = events.iter().find_map(|ev| {
                (ev.service == "coordinator"
                    && ev.name == "query"
                    && ev.kind == EventKind::Span
                    && attr_str(ev, "query") == Some(qid))
                .then_some((ev.ts, ev.dur))
            });
            let Some((t0, dur)) = window else { return };
            let t1 = dur.map(|d| t0.saturating_add(d));
            let in_window = |ev: &TraceEvent| ev.ts >= t0 && t1.map_or(true, |end| ev.ts <= end);
            let mut trace_cold_starts = 0u64;
            for ev in events {
                if !in_window(ev) {
                    continue;
                }
                profile.events_traced += 1;
                let dur_secs = ev.dur.map_or(0.0, |d| d.as_secs_f64());
                match (ev.service, ev.name) {
                    ("coordinator", "stage") if attr_str(ev, "query") == Some(qid) => {
                        profile.critical_path.push(StageSlice {
                            pipeline: attr_u64(ev, "pipeline").unwrap_or(0) as u32,
                            start_secs: ev.ts.duration_since(t0).as_secs_f64(),
                            duration_secs: dur_secs,
                            fragments: attr_u64(ev, "fragments").unwrap_or(0) as u32,
                        });
                    }
                    ("worker", name)
                        if ev.kind == EventKind::Span
                            && name != "fragment"
                            && attr_str(ev, "query") == Some(qid) =>
                    {
                        *profile.operator_secs.entry(name.to_string()).or_insert(0.0) += dur_secs;
                    }
                    ("faas", "coldstart") => {
                        trace_cold_starts += 1;
                        profile.coldstart_secs += dur_secs;
                    }
                    (_, name) if name.starts_with("fault-") => {
                        profile.faults_injected += 1;
                    }
                    _ => {}
                }
            }
            // Prefer the trace's coldstart count (it also sees the
            // coordinator and fan-out sandboxes the response can't).
            profile.cold_starts = profile.cold_starts.max(trace_cold_starts);
        });
        let denom = profile.coldstart_secs + profile.cumulative_worker_secs;
        if denom > 0.0 {
            profile.coldstart_share = profile.coldstart_secs / denom;
        }
        let denom = profile.failed_attempt_secs + profile.cumulative_worker_secs;
        if denom > 0.0 {
            profile.failure_share = profile.failed_attempt_secs / denom;
        }
        profile
    }

    /// Render a human-readable text report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "query {} — runtime {:.3}s, {:.1} worker-seconds, {} trace events",
            self.query_id, self.runtime_secs, self.cumulative_worker_secs, self.events_traced
        );
        if !self.critical_path.is_empty() {
            let _ = writeln!(out, "  critical path:");
            for s in &self.critical_path {
                let _ = writeln!(
                    out,
                    "    pipeline {:>2}  start {:>8.3}s  dur {:>8.3}s  x{} fragments",
                    s.pipeline, s.start_secs, s.duration_secs, s.fragments
                );
            }
        }
        if !self.operator_secs.is_empty() {
            let _ = writeln!(out, "  time in operator (worker-seconds):");
            let mut by_time: Vec<(&String, &f64)> = self.operator_secs.iter().collect();
            by_time.sort_by(|a, b| b.1.total_cmp(a.1).then_with(|| a.0.cmp(b.0)));
            for (name, secs) in by_time {
                let _ = writeln!(out, "    {name:<16} {secs:>10.3}");
            }
        }
        let _ = writeln!(
            out,
            "  coldstarts: {} ({:.1}s, {:.1}% of worker time)",
            self.cold_starts,
            self.coldstart_secs,
            100.0 * self.coldstart_share
        );
        if self.task_retries > 0 || self.speculative_invokes > 0 || self.faults_injected > 0 {
            let _ = writeln!(
                out,
                "  reliability: {} faults injected, {} task retries, {} speculative invokes, \
                 {:.1}s failed attempts ({:.1}% of worker time)",
                self.faults_injected,
                self.task_retries,
                self.speculative_invokes,
                self.failed_attempt_secs,
                100.0 * self.failure_share
            );
        }
        if !self.metric_counters.is_empty() {
            let _ = writeln!(
                out,
                "  telemetry ({} counters advanced):",
                self.metric_counters.len()
            );
            for (name, delta) in &self.metric_counters {
                let _ = writeln!(out, "    {name:<40} {delta:>12}");
            }
        }
        let _ = writeln!(
            out,
            "  bytes read {:.3} GB, written {:.3} GB; {} storage requests",
            self.bytes_read as f64 / 1e9,
            self.bytes_written as f64 / 1e9,
            self.storage_requests
        );
        if let Some(cost) = &self.cost {
            let _ = writeln!(
                out,
                "  cost ${:.6} (lambda ${:.6} compute + ${:.6} requests, storage ${:.6}, ec2 ${:.6})",
                cost.total_usd(),
                cost.lambda_compute_usd,
                cost.lambda_request_usd,
                cost.storage_request_usd + cost.storage_capacity_usd,
                cost.ec2_usd
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::StageStats;

    fn response() -> QueryResponse {
        QueryResponse {
            query_id: "q6-0".into(),
            runtime_secs: 2.0,
            cumulative_worker_secs: 10.0,
            stages: vec![StageStats {
                pipeline: 0,
                fragments: 4,
                logical_bytes_read: 1_000,
                logical_bytes_written: 100,
                storage_requests: 12,
                cold_starts: 4,
                ..StageStats::default()
            }],
            ..QueryResponse::default()
        }
    }

    #[test]
    fn disabled_tracer_yields_response_aggregates_only() {
        let profile = QueryProfile::from_trace(&response(), &Tracer::disabled(), None);
        assert_eq!(profile.bytes_read, 1_000);
        assert_eq!(profile.storage_requests, 12);
        assert_eq!(profile.cold_starts, 4);
        assert!(profile.critical_path.is_empty());
        assert!(profile.operator_secs.is_empty());
        assert!(profile.metric_counters.is_empty());
        assert_eq!(profile.events_traced, 0);
        assert!(!profile.render().is_empty());
    }

    #[test]
    fn profile_extracts_stage_and_operator_spans() {
        use skyrise_sim::{Sim, SimDuration};
        let mut sim = Sim::new(7);
        let tracer = sim.install_tracer();
        let ctx = sim.ctx();
        let t = tracer.clone();
        sim.spawn(async move {
            let q = t.span(&ctx, "coordinator", 0, "query");
            q.attr("query", "q6-0");
            let s = t.span(&ctx, "coordinator", 0, "stage");
            s.attr("query", "q6-0")
                .attr("pipeline", 0u32)
                .attr("fragments", 4u32);
            let w = t.span(&ctx, "worker", 1, "filter");
            w.attr("query", "q6-0");
            let c = t.span(&ctx, "faas", 2, "coldstart");
            ctx.sleep(SimDuration::from_millis(500)).await;
            c.end();
            w.end();
            s.end();
            q.end();
        });
        sim.run();
        let profile = QueryProfile::from_trace(&response(), &tracer, None);
        assert_eq!(profile.critical_path.len(), 1);
        assert_eq!(profile.critical_path[0].fragments, 4);
        assert!((profile.critical_path[0].duration_secs - 0.5).abs() < 1e-9);
        assert!((profile.operator_secs["filter"] - 0.5).abs() < 1e-9);
        assert!((profile.coldstart_secs - 0.5).abs() < 1e-9);
        assert!(profile.coldstart_share > 0.0);
        assert_eq!(profile.events_traced, 4);
        let text = profile.render();
        assert!(text.contains("critical path"));
        assert!(text.contains("filter"));
    }

    #[test]
    fn cost_delta_clamps_and_totals() {
        let before = CostReport {
            lambda_compute_usd: 1.0,
            ..CostReport::default()
        };
        let after = CostReport {
            lambda_compute_usd: 1.5,
            storage_request_usd: 0.25,
            ..CostReport::default()
        };
        let d = ProfileCost::delta(&before, &after);
        assert!((d.lambda_compute_usd - 0.5).abs() < 1e-12);
        assert!((d.total_usd() - 0.75).abs() < 1e-12);
    }
}
