//! Per-query profiles: what only the virtual-time trace and the metric
//! registry know about a query.
//!
//! The coordinator's [`QueryResponse`] already carries the stage-wise
//! critical path (each stage's `start_secs` and `duration_secs`), bytes,
//! requests and attempt counts. [`QueryProfile`] adds cumulative time per
//! operator across the worker fleet, the coldstart share of worker time,
//! injected faults, counter deltas, and the marginal cost drawn from the
//! [`skyrise_pricing`] meter; [`QueryProfile::render`] prints both. The
//! driver's [`crate::driver::Skyrise::run_profiled`] builds one per
//! execution.

use crate::coordinator::QueryResponse;
use skyrise_pricing::CostReport;
use skyrise_sim::{AttrValue, EventKind, TraceEvent, Tracer};
use std::collections::BTreeMap;

/// A per-query execution profile: the trace- and registry-derived facts
/// beside a [`QueryResponse`].
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Cumulative worker-seconds per operator/phase label (`scan-read`,
    /// `io-stack`, `filter`, `hash-aggregate`, `shuffle-write`, ...).
    pub operator_secs: BTreeMap<String, f64>,
    /// Sandboxes cold-started during the query window: the trace's count,
    /// which also sees coordinator and fan-out sandboxes, or the workers'
    /// when that is larger.
    pub cold_starts: u64,
    /// Total seconds spent in coldstart init + binary download.
    pub coldstart_secs: f64,
    /// Coldstart fraction of (coldstart + worker) time, in `[0, 1]`.
    pub coldstart_share: f64,
    /// Trace events recorded inside the query window.
    pub events_traced: u64,
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
    /// Marginal cost ([`CostReport::delta`] across the execution), when a
    /// usage meter was reachable.
    pub cost: Option<CostReport>,
}

fn attr_str<'a>(ev: &'a TraceEvent, key: &str) -> Option<&'a str> {
    ev.attrs.iter().find_map(|(k, v)| match v {
        AttrValue::Str(s) if *k == key => Some(s.as_str()),
        _ => None,
    })
}

impl QueryProfile {
    /// Build a profile for `response.query_id` from the recorded trace.
    /// With tracing disabled the trace-derived fields stay empty.
    pub fn from_trace(response: &QueryResponse, tracer: &Tracer, cost: Option<CostReport>) -> Self {
        let qid = response.query_id.as_str();
        let totals = response.totals();
        let mut profile = QueryProfile {
            operator_secs: BTreeMap::new(),
            cold_starts: u64::from(totals.cold_starts),
            coldstart_secs: 0.0,
            coldstart_share: 0.0,
            events_traced: 0,
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
            profile.cold_starts = profile.cold_starts.max(trace_cold_starts);
        });
        let worker_secs = response.cumulative_worker_secs;
        let denom = profile.coldstart_secs + worker_secs;
        if denom > 0.0 {
            profile.coldstart_share = profile.coldstart_secs / denom;
        }
        let denom = totals.failed_attempt_secs + worker_secs;
        if denom > 0.0 {
            profile.failure_share = totals.failed_attempt_secs / denom;
        }
        profile
    }

    /// Render a human-readable text report of `response` and this profile.
    pub fn render(&self, response: &QueryResponse) -> String {
        use std::fmt::Write as _;
        let totals = response.totals();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "query {} — runtime {:.3}s, {:.1} worker-seconds, {} trace events",
            response.query_id,
            response.runtime_secs,
            response.cumulative_worker_secs,
            self.events_traced
        );
        if !response.stages.is_empty() {
            let _ = writeln!(out, "  critical path:");
            for s in &response.stages {
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
        if totals.task_retries > 0 || totals.speculative_invokes > 0 || self.faults_injected > 0 {
            let _ = writeln!(
                out,
                "  reliability: {} faults injected, {} task retries, {} speculative invokes, \
                 {:.1}s failed attempts ({:.1}% of worker time)",
                self.faults_injected,
                totals.task_retries,
                totals.speculative_invokes,
                totals.failed_attempt_secs,
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
            totals.logical_bytes_read as f64 / 1e9,
            totals.logical_bytes_written as f64 / 1e9,
            totals.storage_requests
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
        let response = response();
        let profile = QueryProfile::from_trace(&response, &Tracer::disabled(), None);
        assert_eq!(profile.cold_starts, 4);
        assert!(profile.operator_secs.is_empty());
        assert!(profile.metric_counters.is_empty());
        assert_eq!(profile.events_traced, 0);
        // The response's aggregates are rendered from the response itself.
        let text = profile.render(&response);
        assert!(text.contains("critical path"));
        assert!(text.contains("12 storage requests"));
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
        let response = response();
        let profile = QueryProfile::from_trace(&response, &tracer, None);
        assert!((profile.operator_secs["filter"] - 0.5).abs() < 1e-9);
        assert!((profile.coldstart_secs - 0.5).abs() < 1e-9);
        assert!(profile.coldstart_share > 0.0);
        assert_eq!(profile.events_traced, 4);
        let text = profile.render(&response);
        assert!(text.contains("critical path"));
        assert!(text.contains("filter"));
    }

    /// TPC-H Q6 through [`Skyrise::run_profiled`] on a fresh Lambda + S3
    /// deployment, traced or not.
    fn profiled_q6(traced: bool) -> (QueryResponse, QueryProfile, Tracer) {
        use crate::catalog::{load_dataset, DatasetLayout};
        use crate::coordinator::QueryConfig;
        use crate::driver::Skyrise;
        use skyrise_compute::{ComputePlatform, LambdaPlatform, Region};
        use skyrise_storage::{S3Bucket, Storage};
        let mut sim = skyrise_sim::Sim::new(11);
        let tracer = if traced {
            sim.install_tracer()
        } else {
            Tracer::disabled()
        };
        let ctx = sim.ctx();
        let run = sim.spawn(async move {
            let meter = skyrise_pricing::shared_meter();
            let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
            let layout = DatasetLayout {
                name: "h_lineitem".into(),
                partitions: 4,
                target_partition_logical_bytes: None,
                rows_per_group: 4096,
            };
            let lineitem = skyrise_data::tpch::generate(0.002, 11).lineitem;
            load_dataset(&storage, &layout, &lineitem).expect("lineitem loads");
            let lambda = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
            let engine = Skyrise::deploy_simple(&ctx, ComputePlatform::Faas(lambda), storage);
            let config = QueryConfig {
                target_bytes_per_worker: 16 * 1024,
                ..QueryConfig::default()
            };
            engine
                .run_profiled(&crate::queries::q6(), config)
                .await
                .expect("q6 runs")
        });
        sim.run();
        let (response, profile) = run.try_take().expect("q6 finished");
        (response, profile, tracer)
    }

    /// A stage's `start_secs` is the offset of its coordinator `stage` span
    /// from the `query` span, to the bit, and so is its duration.
    #[test]
    fn stage_start_is_the_traced_stage_span_offset() {
        let (response, profile, tracer) = profiled_q6(true);
        assert!(profile.events_traced > 0);
        let qid = response.query_id.as_str();
        let spans: Vec<(f64, f64)> = tracer.with_events(|events| {
            let ours = |ev: &&TraceEvent, name: &str| {
                ev.service == "coordinator" && ev.name == name && attr_str(ev, "query") == Some(qid)
            };
            let t0 = events
                .iter()
                .find(|ev| ours(ev, "query"))
                .expect("query span")
                .ts;
            events
                .iter()
                .filter(|ev| ours(ev, "stage"))
                .map(|ev| {
                    let dur = ev.dur.expect("stage span ended").as_secs_f64();
                    (ev.ts.duration_since(t0).as_secs_f64(), dur)
                })
                .collect()
        });
        assert_eq!(spans.len(), response.stages.len());
        assert!(response.stages.len() >= 2, "scan and final stage");
        for (stage, (start, dur)) in response.stages.iter().zip(spans) {
            assert_eq!(stage.start_secs.to_bits(), start.to_bits(), "{stage:?}");
            assert_eq!(stage.duration_secs.to_bits(), dur.to_bits(), "{stage:?}");
        }
    }

    /// Untraced, the stages still tile the query runtime in order.
    #[test]
    fn untraced_stages_tile_the_runtime() {
        let (response, profile, _) = profiled_q6(false);
        assert_eq!(profile.events_traced, 0);
        assert!(response.stages.len() >= 2, "scan and final stage");
        let ends = response
            .stages
            .iter()
            .map(|s| s.start_secs + s.duration_secs);
        let next_starts = response.stages.iter().skip(1).map(|s| s.start_secs);
        for (end, next) in ends.zip(next_starts.chain([response.runtime_secs])) {
            assert!(end <= next, "stage ends at {end}, next starts at {next}");
        }
        assert!(response.stages[0].start_secs > 0.0, "metadata fetch first");
        assert!(profile.render(&response).contains("critical path"));
    }
}
