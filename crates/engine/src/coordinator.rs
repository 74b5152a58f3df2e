//! The query coordinator function.
//!
//! "The coordinator fetches the metadata on the referenced pipeline input
//! datasets ... compiles a distributed query plan, deciding on the number
//! of fragments per pipeline for data-parallel execution ... then
//! schedules the pipelines stage-wise based on their dependencies."
//! (paper Sec. 3.2)
//!
//! Scheduling 256 or more workers, the coordinator switches to the
//! two-level invocation procedure: it invokes fan-out helper functions
//! that in turn invoke the workers.

use crate::catalog::{fetch_dataset, DatasetMeta};
use crate::error::EngineError;
use crate::plan::{InputSpec, PhysicalPlan};
use crate::worker::{result_key, InputAssignment, WorkerReport, WorkerTask};
use serde::{Deserialize, Serialize};
use skyrise_compute::{ComputePlatform, ExecEnv, FaasError};
use skyrise_sim::{first_completed, race, Either, SimCtx, SimDuration};
use skyrise_storage::{ByteRange, RequestOpts, RetryPolicy, RetryingClient, Storage};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Fragment threshold beyond which the two-level invocation kicks in.
pub const TWO_LEVEL_THRESHOLD: usize = 256;
/// Workers per fan-out helper.
pub const FANOUT_GROUP: usize = 64;
/// Coordinator-side cost of issuing one invocation request.
pub const DISPATCH_LATENCY: SimDuration = SimDuration::from_micros(1_500);

/// Per-query tunables carried in the request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryConfig {
    /// Target logical input bytes per worker when sizing fragments.
    pub target_bytes_per_worker: u64,
    /// Hard ceiling on fragments per pipeline.
    pub max_parallelism: u32,
    /// Inline the result rows in the response when small.
    pub include_rows: bool,
    /// Fault-tolerance policy applied to every task invocation.
    #[serde(default)]
    pub task_policy: TaskPolicy,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            target_bytes_per_worker: 900 << 20,
            max_parallelism: 1_000,
            include_rows: true,
            task_policy: TaskPolicy::default(),
        }
    }
}

/// Fault-tolerance policy for task invocations: bounded retry with
/// exponential backoff on transient failures, plus speculative
/// re-execution of stragglers (a duplicate invoke after a size-based
/// timeout; the first completion wins and the abandoned duplicate still
/// runs — and bills — to completion).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskPolicy {
    /// Maximum invocations per task (first + retries + speculative
    /// duplicates) before the query fails.
    pub max_attempts: u32,
    /// Base straggler timeout for a zero-byte task (seconds).
    pub straggler_base_secs: f64,
    /// Expected effective input bandwidth for the size-based straggler
    /// timeout (bytes/second).
    pub straggler_bw: f64,
    /// Multiplier on the expected task duration before re-triggering.
    pub straggler_slack: f64,
    /// Launch speculative duplicates for stragglers.
    pub speculate: bool,
}

impl Default for TaskPolicy {
    fn default() -> Self {
        TaskPolicy {
            max_attempts: 4,
            // Generous: healthy runs never speculate; tighten to study
            // the straggler re-trigger.
            straggler_base_secs: 600.0,
            straggler_bw: 20.0 * 1024.0 * 1024.0,
            straggler_slack: 4.0,
            speculate: true,
        }
    }
}

impl TaskPolicy {
    /// A policy with no retries and no speculation: the first failure
    /// (or straggler) is terminal.
    pub fn disabled() -> Self {
        TaskPolicy {
            max_attempts: 1,
            speculate: false,
            ..TaskPolicy::default()
        }
    }

    /// Straggler re-trigger timeout for a task expected to read `bytes`.
    pub fn timeout_for(&self, bytes: u64) -> SimDuration {
        let transfer = bytes as f64 / self.straggler_bw.max(1.0) * self.straggler_slack;
        SimDuration::from_secs_f64(self.straggler_base_secs + transfer)
    }

    /// The backoff schedule as a storage [`RetryPolicy`] (reusing its
    /// jittered exponential backoff): 200 ms doubling to a 10 s ceiling,
    /// full jitter.
    pub(crate) fn backoff_policy(&self) -> RetryPolicy {
        RetryPolicy {
            backoff_base: SimDuration::from_millis(200),
            backoff_cap: SimDuration::from_secs(10),
            max_attempts: self.max_attempts.max(1),
            jitter: true,
            ..RetryPolicy::eager()
        }
    }
}

/// The request the driver sends to the coordinator function.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Unique id of this execution (also keys shuffle/result objects).
    pub query_id: String,
    /// The physical plan to execute.
    pub plan: PhysicalPlan,
    /// Per-query tunables.
    pub config: QueryConfig,
}

/// Per-stage execution statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StageStats {
    /// Pipeline id this stage executed.
    pub pipeline: u32,
    /// Worker fragments scheduled.
    pub fragments: u32,
    /// Fragment count of the consuming pipeline (shuffle object fan-out).
    pub downstream_fragments: u32,
    /// Stage wall time (coordinator-observed).
    pub duration_secs: f64,
    /// Sum of worker wall times (the "cumulated time" of Table 6).
    pub cumulative_worker_secs: f64,
    /// Sum of worker I/O phases (fetch + I/O stack + decode).
    pub io_secs_total: f64,
    /// Sum of worker operator-execution phases.
    pub cpu_secs_total: f64,
    /// Logical bytes all workers read.
    pub logical_bytes_read: u64,
    /// Logical bytes all workers wrote.
    pub logical_bytes_written: u64,
    /// Storage requests issued (including retries).
    pub storage_requests: u64,
    /// Logical rows the stage emitted.
    pub rows_out: u64,
    /// Workers that cold-started.
    pub cold_starts: u32,
    /// Failure-driven re-invocations across the stage's tasks (worker and
    /// fan-out helper tiers), excluding speculative duplicates.
    #[serde(default)]
    pub task_retries: u32,
    /// Speculative duplicate invocations launched for stragglers.
    #[serde(default)]
    pub speculative_invokes: u32,
    /// Wall seconds spent in attempts that ultimately failed.
    #[serde(default)]
    pub failed_attempt_secs: f64,
}

impl StageStats {
    /// Mean shuffle object size written by this stage (bytes), if it
    /// shuffled.
    pub fn mean_shuffle_object_bytes(&self) -> Option<f64> {
        let objects = self.fragments as u64 * self.downstream_fragments as u64;
        (self.logical_bytes_written > 0 && objects > 0)
            .then(|| self.logical_bytes_written as f64 / objects as f64)
    }
}

/// The coordinator's JSON response ("the location of the query result in
/// serverless storage, the query runtime and cost").
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QueryResponse {
    /// Echoed query id.
    pub query_id: String,
    /// Storage key of the result object.
    pub result_key: String,
    /// End-to-end query latency (coordinator wall time).
    pub runtime_secs: f64,
    /// Sum of all worker wall times across stages.
    pub cumulative_worker_secs: f64,
    /// Per-stage execution statistics.
    pub stages: Vec<StageStats>,
    /// Inlined result rows (when small and requested).
    pub rows: Option<Vec<Vec<skyrise_data::Value>>>,
}

impl QueryResponse {
    /// Total storage requests across stages.
    pub fn total_requests(&self) -> u64 {
        self.stages.iter().map(|s| s.storage_requests).sum()
    }

    /// Peak fragment count across stages.
    pub fn peak_workers(&self) -> u32 {
        self.stages.iter().map(|s| s.fragments).max().unwrap_or(0)
    }

    /// Mean fragment count across stages — with [`QueryResponse::peak_workers`]
    /// this yields Table 6's peak-to-average-node ratio.
    pub fn average_workers(&self) -> f64 {
        if self.stages.is_empty() {
            0.0
        } else {
            self.stages.iter().map(|s| s.fragments as f64).sum::<f64>() / self.stages.len() as f64
        }
    }
}

/// Payload of the fan-out helper: worker tasks serialised individually.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FanoutRequest {
    /// Worker tasks this helper dispatches.
    pub tasks: Vec<WorkerTask>,
    /// Fault-tolerance policy the helper applies per worker invocation.
    #[serde(default)]
    pub policy: TaskPolicy,
}

/// Run the coordinator logic inside its function environment.
pub async fn run_coordinator(
    env: &ExecEnv,
    scan_storage: &Storage,
    platform: &ComputePlatform,
    worker_fn: &str,
    fanout_fn: &str,
    request: &QueryRequest,
) -> Result<QueryResponse, EngineError> {
    let plan = &request.plan;
    plan.check()?;
    let started = env.ctx.now();
    let opts = RequestOpts::from_nic(&env.nic);
    let tracer = env.ctx.tracer();
    let lane = tracer.next_lane();
    let query_span = tracer.span(&env.ctx, "coordinator", lane, "query");
    query_span
        .attr("query", request.query_id.as_str())
        .attr("plan", plan.name.as_str())
        .attr("pipelines", plan.pipelines.len());
    let client = RetryingClient::new(scan_storage.clone(), env.ctx.clone(), RetryPolicy::eager());

    // 1. Fetch metadata for every scanned dataset.
    let mut datasets: BTreeMap<String, DatasetMeta> = BTreeMap::new();
    for pipeline in &plan.pipelines {
        for input in &pipeline.inputs {
            if let InputSpec::Scan { dataset, .. } = input {
                if !datasets.contains_key(dataset) {
                    let meta = fetch_dataset(&client, dataset, &opts).await?;
                    datasets.insert(dataset.clone(), meta);
                }
            }
        }
    }

    // 2. Decide fragment counts.
    let mut fragments: BTreeMap<u32, u32> = BTreeMap::new();
    for &id in &plan.stages() {
        let pipeline = plan.pipeline(id);
        let mut n = if let Some(hint) = pipeline.fragments {
            hint
        } else {
            match pipeline.inputs.first() {
                Some(InputSpec::Scan { dataset, .. }) => {
                    let bytes = datasets[dataset].total_logical_bytes();
                    (bytes.div_ceil(request.config.target_bytes_per_worker.max(1)))
                        .clamp(1, request.config.max_parallelism as u64) as u32
                }
                Some(InputSpec::Shuffle { from_pipeline }) => fragments[from_pipeline],
                None => 1,
            }
        };
        // Never schedule more scan fragments than partitions: a worker
        // with an empty share would produce nothing to shuffle.
        if let Some(InputSpec::Scan { dataset, .. }) = pipeline.inputs.first() {
            n = n.min(datasets[dataset].partitions.len() as u32);
        }
        fragments.insert(id, n.clamp(1, request.config.max_parallelism));
    }

    // 3. Execute stages in dependency order.
    let mut stages = Vec::new();
    let mut cumulative = 0.0f64;
    for id in plan.stages() {
        let pipeline = plan.pipeline(id);
        let n = fragments[&id];
        // The consuming pipeline's fragment count sizes shuffle buckets.
        let downstream = plan
            .pipelines
            .iter()
            .find(|p| {
                p.inputs.iter().any(
                    |i| matches!(i, InputSpec::Shuffle { from_pipeline } if *from_pipeline == id),
                )
            })
            .map(|p| fragments[&p.id])
            .unwrap_or(1);

        // Build per-fragment tasks.
        let mut tasks = Vec::with_capacity(n as usize);
        for frag in 0..n {
            let mut assignments = Vec::with_capacity(pipeline.inputs.len());
            let mut expected_input = 0u64;
            for (idx, input) in pipeline.inputs.iter().enumerate() {
                assignments.push(match input {
                    InputSpec::Scan { dataset, .. } => {
                        let meta = &datasets[dataset];
                        let partitions: Vec<_> = if idx == 0 {
                            // Stream input: round-robin partitions.
                            meta.partitions
                                .iter()
                                .enumerate()
                                .filter(|(i, _)| (*i as u32) % n == frag)
                                .map(|(_, p)| p.clone())
                                .collect()
                        } else {
                            // Build inputs are broadcast.
                            meta.partitions.clone()
                        };
                        expected_input += partitions.iter().map(|p| p.logical_bytes).sum::<u64>();
                        InputAssignment::Scan { partitions }
                    }
                    InputSpec::Shuffle { from_pipeline } => {
                        // Estimate this fragment's share of the upstream
                        // stage's shuffle output (already executed).
                        expected_input += stages
                            .iter()
                            .find(|s: &&StageStats| s.pipeline == *from_pipeline)
                            .map(|s| s.logical_bytes_written / u64::from(n.max(1)))
                            .unwrap_or(0);
                        let upstream = plan.pipeline(*from_pipeline);
                        let combine = match &upstream.sink {
                            crate::plan::Sink::ShuffleWrite { combine, .. } => (*combine).max(1),
                            crate::plan::Sink::Result => {
                                return Err(EngineError::Plan(format!(
                                    "pipeline {} reads from a result sink",
                                    pipeline.id
                                )))
                            }
                        };
                        InputAssignment::Shuffle {
                            from_pipeline: *from_pipeline,
                            upstream_fragments: fragments[from_pipeline],
                            combine,
                        }
                    }
                });
            }
            tasks.push(WorkerTask {
                query_id: request.query_id.clone(),
                pipeline: pipeline.clone(),
                fragment: frag,
                n_fragments: n,
                downstream_fragments: downstream,
                inputs: assignments,
                expected_input_bytes: expected_input,
            });
        }

        let stage_span = tracer.span(&env.ctx, "coordinator", lane, "stage");
        stage_span
            .attr("query", request.query_id.as_str())
            .attr("pipeline", id)
            .attr("fragments", n)
            .attr("downstream_fragments", downstream);
        tracer
            .instant(&env.ctx, "coordinator", lane, "fragment-assignment")
            .attr("query", request.query_id.as_str())
            .attr("pipeline", id)
            .attr("fragments", n);
        let stage_started = env.ctx.now();
        let policy = &request.config.task_policy;
        let (reports, fleet) =
            invoke_fleet(env, platform, worker_fn, fanout_fn, tasks, policy, lane).await?;
        let duration = (env.ctx.now() - stage_started).as_secs_f64();

        let mut stat = StageStats {
            pipeline: id,
            fragments: n,
            downstream_fragments: downstream,
            duration_secs: duration,
            // Helper-tier retries (two-level dispatch only).
            task_retries: fleet.task_retries,
            failed_attempt_secs: fleet.failed_attempt_secs,
            ..StageStats::default()
        };
        for r in &reports {
            stat.cumulative_worker_secs += r.io_secs + r.cpu_secs;
            stat.io_secs_total += r.io_secs;
            stat.cpu_secs_total += r.cpu_secs;
            stat.logical_bytes_read += r.logical_bytes_read;
            stat.logical_bytes_written += r.logical_bytes_written;
            stat.storage_requests += r.storage_requests;
            stat.rows_out += r.rows_out;
            stat.cold_starts += r.cold_start as u32;
            stat.task_retries += r.invoke_attempts.saturating_sub(1 + r.speculative_invokes);
            stat.speculative_invokes += r.speculative_invokes;
            stat.failed_attempt_secs += r.failed_attempt_secs;
        }
        stage_span
            .attr("rows_out", stat.rows_out)
            .attr("cold_starts", stat.cold_starts)
            .attr("task_retries", stat.task_retries)
            .attr("speculative_invokes", stat.speculative_invokes);
        stage_span.end();
        cumulative += stat.cumulative_worker_secs;
        stages.push(stat);
    }

    // 4. Assemble the response, optionally inlining small results.
    let result_pipeline = plan.result_pipeline();
    let key = result_key(&request.query_id, 0);
    let rows = if request.config.include_rows && fragments[&result_pipeline.id] == 1 {
        let (read, _) = client.read(&key, ByteRange::Full, 64 * 1024, &opts).await?;
        let batches = skyrise_data::spf::read_all(&read.blob.bytes, None)?;
        let all = skyrise_data::Batch::concat(&batches);
        if all.num_rows() <= 10_000 {
            Some(crate::worker::batch_to_rows(&all))
        } else {
            None
        }
    } else {
        None
    };

    Ok(QueryResponse {
        query_id: request.query_id.clone(),
        result_key: key,
        runtime_secs: (env.ctx.now() - started).as_secs_f64(),
        cumulative_worker_secs: cumulative,
        stages,
        rows,
    })
}

/// Attempt accounting for one resilient task invocation.
#[derive(Debug, Clone, Copy, Default)]
struct TaskAttempts {
    /// Invocations launched (first + retries + speculative duplicates).
    launched: u32,
    /// Speculative duplicates among `launched`.
    speculative: u32,
    /// Wall seconds spent in attempts that ultimately failed.
    failed_secs: f64,
}

/// Dispatch-tier attempt statistics not attributable to a single worker
/// report (fan-out helper retries under two-level invocation).
#[derive(Debug, Clone, Copy, Default)]
struct FleetStats {
    task_retries: u32,
    failed_attempt_secs: f64,
}

/// Stamp a worker report with the dispatcher's attempt accounting.
fn stamp_attempts(report: &mut WorkerReport, acct: TaskAttempts) {
    report.invoke_attempts = acct.launched.max(1);
    report.speculative_invokes = acct.speculative;
    report.failed_attempt_secs = acct.failed_secs;
}

/// Invoke `name` with `payload` under `policy`: bounded retry with
/// jittered exponential backoff on transient failures (throttling, sandbox
/// crashes, injected transients), plus a speculative duplicate invoke once
/// the size-based straggler timeout elapses. The first completion wins;
/// abandoned duplicates keep running (and billing) to completion. Fails
/// with [`EngineError::TaskFailed`] after `policy.max_attempts` launches
/// all failed.
#[allow(
    clippy::too_many_arguments,
    reason = "eight independent inputs from three call sites; no existing struct holds more \
              than two of them, and one made for this call would only rename them"
)]
async fn invoke_resilient(
    ctx: &SimCtx,
    platform: &ComputePlatform,
    name: &str,
    payload: String,
    expected_bytes: u64,
    policy: &TaskPolicy,
    lane: u64,
    label: &str,
) -> Result<(String, TaskAttempts), EngineError> {
    let tracer = ctx.tracer();
    let metrics = ctx.metrics();
    let backoff = policy.backoff_policy();
    let timeout = policy.timeout_for(expected_bytes);
    let max_attempts = policy.max_attempts.max(1);
    let mut acct = TaskAttempts::default();
    let mut last_err = String::new();

    let spawn_attempt = || {
        let platform = platform.clone();
        let name = name.to_string();
        let payload = payload.clone();
        let started = ctx.now();
        ctx.spawn(async move { (started, platform.invoke(&name, payload).await) })
    };

    // The caller's dispatch loop already paid DISPATCH_LATENCY serially
    // for this first launch; relaunches pay it inside this task,
    // concurrently with other tasks.
    let mut outstanding = vec![spawn_attempt()];
    acct.launched = 1;
    let mut last_launch = ctx.now();

    loop {
        if outstanding.is_empty() {
            // Every launched attempt has failed: back off and relaunch,
            // or give up once the attempt budget is spent.
            if acct.launched >= max_attempts {
                metrics.counter("engine.task.exhausted").inc();
                return Err(EngineError::TaskFailed {
                    attempts: acct.launched,
                    last: last_err,
                });
            }
            ctx.sleep(backoff.backoff(ctx, acct.launched)).await;
            ctx.sleep(DISPATCH_LATENCY).await;
            metrics.counter("engine.task.retries").inc();
            tracer
                .instant(ctx, "coordinator", lane, "task-retry")
                .attr("task", label)
                .attr("attempt", acct.launched + 1);
            outstanding.push(spawn_attempt());
            acct.launched += 1;
            last_launch = ctx.now();
        }

        let can_speculate = policy.speculate && acct.launched < max_attempts;
        let completion = if can_speculate {
            let deadline = last_launch.saturating_add(timeout);
            match race(first_completed(&mut outstanding), ctx.sleep_until(deadline)).await {
                Either::Left(done) => Some(done),
                Either::Right(()) => None,
            }
        } else {
            Some(first_completed(&mut outstanding).await)
        };

        match completion {
            None => {
                // Straggler: trigger a speculative duplicate.
                metrics.counter("engine.task.speculative_invokes").inc();
                tracer
                    .instant(ctx, "coordinator", lane, "straggler-retrigger")
                    .attr("task", label)
                    .attr("outstanding", outstanding.len())
                    .attr("timeout_s", timeout.as_secs_f64());
                ctx.sleep(DISPATCH_LATENCY).await;
                outstanding.push(spawn_attempt());
                acct.launched += 1;
                acct.speculative += 1;
                last_launch = ctx.now();
            }
            Some((_, (_, Ok(result)))) => return Ok((result.output, acct)),
            Some((_, (started, Err(err)))) => match err {
                // Misconfiguration, not an infrastructure fault.
                FaasError::UnknownFunction(_) | FaasError::PayloadTooLarge(_) => {
                    return Err(EngineError::Worker(err.to_string()));
                }
                _ => {
                    metrics.counter("engine.task.attempt_failures").inc();
                    acct.failed_secs += (ctx.now() - started).as_secs_f64();
                    last_err = err.to_string();
                }
            },
        }
    }
}

/// Invoke a fleet of worker tasks, two-level beyond the threshold. Each
/// report comes back stamped with its attempt accounting; helper-tier
/// retries (not attributable to one worker) are returned in [`FleetStats`].
async fn invoke_fleet(
    env: &ExecEnv,
    platform: &ComputePlatform,
    worker_fn: &str,
    fanout_fn: &str,
    tasks: Vec<WorkerTask>,
    policy: &TaskPolicy,
    lane: u64,
) -> Result<(Vec<WorkerReport>, FleetStats), EngineError> {
    let mut fleet = FleetStats::default();
    if tasks.len() >= TWO_LEVEL_THRESHOLD {
        // Two-level: dispatch fan-out helpers, each invoking a group.
        // A helper failure would re-run its whole group, so helpers
        // retry but never speculate.
        let helper_policy = TaskPolicy {
            speculate: false,
            ..policy.clone()
        };
        let mut handles = Vec::new();
        for (g, group) in tasks.chunks(FANOUT_GROUP).enumerate() {
            env.ctx.sleep(DISPATCH_LATENCY).await;
            let payload = serde_json::to_string(&FanoutRequest {
                tasks: group.to_vec(),
                policy: policy.clone(),
            })?;
            let expected: u64 = group.iter().map(|t| t.expected_input_bytes).sum();
            let ctx = env.ctx.clone();
            let platform = platform.clone();
            let name = fanout_fn.to_string();
            let hp = helper_policy.clone();
            let label = format!("fanout/{g}");
            handles.push(env.ctx.spawn(async move {
                invoke_resilient(&ctx, &platform, &name, payload, expected, &hp, lane, &label).await
            }));
        }
        let mut reports = Vec::with_capacity(tasks.len());
        for h in skyrise_sim::join_all(handles).await {
            let (output, acct) = h?;
            fleet.task_retries += acct.launched.saturating_sub(1);
            fleet.failed_attempt_secs += acct.failed_secs;
            let group: Vec<WorkerReport> = serde_json::from_str(&output)?;
            reports.extend(group);
        }
        Ok((reports, fleet))
    } else {
        let reports = invoke_workers(env, platform, worker_fn, &tasks, policy, lane).await?;
        Ok((reports, fleet))
    }
}

/// Invoke one worker per task, a dispatch latency apart, each under the
/// fault-tolerance policy, and gather the stamped reports in task order.
async fn invoke_workers(
    env: &ExecEnv,
    platform: &ComputePlatform,
    worker_fn: &str,
    tasks: &[WorkerTask],
    policy: &TaskPolicy,
    lane: u64,
) -> Result<Vec<WorkerReport>, EngineError> {
    let mut handles = Vec::with_capacity(tasks.len());
    for task in tasks {
        env.ctx.sleep(DISPATCH_LATENCY).await;
        let payload = serde_json::to_string(task)?;
        let expected = task.expected_input_bytes;
        let ctx = env.ctx.clone();
        let platform = platform.clone();
        let name = worker_fn.to_string();
        let tp = policy.clone();
        let label = format!("{}/p{}/f{}", task.query_id, task.pipeline.id, task.fragment);
        handles.push(env.ctx.spawn(async move {
            invoke_resilient(&ctx, &platform, &name, payload, expected, &tp, lane, &label).await
        }));
    }
    let mut reports = Vec::with_capacity(tasks.len());
    for h in skyrise_sim::join_all(handles).await {
        let (output, acct) = h?;
        let mut report: WorkerReport = serde_json::from_str(&output)?;
        stamp_attempts(&mut report, acct);
        reports.push(report);
    }
    Ok(reports)
}

/// Run a fan-out helper: invoke each task in the group (under the
/// request's fault-tolerance policy) and gather the stamped reports.
pub async fn run_fanout(
    env: &ExecEnv,
    platform: &ComputePlatform,
    worker_fn: &str,
    request: &FanoutRequest,
) -> Result<Vec<WorkerReport>, EngineError> {
    let lane = env.ctx.tracer().next_lane();
    invoke_workers(
        env,
        platform,
        worker_fn,
        &request.tasks,
        &request.policy,
        lane,
    )
    .await
}

/// `Rc` alias used by the driver to share platform handles into handlers.
pub type SharedPlatform = Rc<ComputePlatform>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let c = QueryConfig::default();
        assert_eq!(c.target_bytes_per_worker, 900 << 20);
        assert!(c.include_rows);
    }

    #[test]
    fn response_aggregates() {
        let r = QueryResponse {
            stages: vec![
                StageStats {
                    fragments: 284,
                    storage_requests: 100,
                    ..StageStats::default()
                },
                StageStats {
                    fragments: 1,
                    storage_requests: 5,
                    ..StageStats::default()
                },
            ],
            ..QueryResponse::default()
        };
        assert_eq!(r.total_requests(), 105);
        assert_eq!(r.peak_workers(), 284);
        assert!((r.average_workers() - 142.5).abs() < 1e-9);
        // Peak-to-average ratio, as in Table 6.
        let ratio = r.peak_workers() as f64 / r.average_workers();
        assert!((ratio - 1.993).abs() < 0.01);
    }

    #[test]
    fn request_json_round_trip() {
        let req = QueryRequest {
            query_id: "q6-run-1".into(),
            plan: PhysicalPlan {
                name: "q6".into(),
                pipelines: vec![],
            },
            config: QueryConfig::default(),
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: QueryRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.query_id, "q6-run-1");
    }
}
