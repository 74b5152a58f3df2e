//! The Skyrise engine deployment: wires coordinator, fan-out, and worker
//! handlers onto a compute platform (FaaS or IaaS) over a pair of storage
//! services, and exposes the driver-facing `run` entry point.
//!
//! Matches Fig. 4: "the framework's driver sends a physical query plan in
//! JSON format to an HTTP endpoint. On an FaaS platform, this triggers a
//! serverless function running the coordinator. In an IaaS deployment, the
//! request is routed to the same coordinator binary yet running on a
//! provisioned VM with our shim layer."

use crate::coordinator::{
    run_coordinator, run_fanout, FanoutRequest, QueryConfig, QueryRequest, QueryResponse,
};
use crate::error::EngineError;
use crate::expr::UdfRegistry;
use crate::plan::PhysicalPlan;
use crate::profile::QueryProfile;
use crate::worker::{barrier_key, run_worker, WorkerTask};
use skyrise_compute::{
    handler, ComputePlatform, ExecEnv, FaasError, FunctionConfig, LambdaPlatform, ShimCluster,
};
use skyrise_sim::faults::INJECTED_FAILURE;
use skyrise_sim::SimCtx;
use skyrise_storage::{Blob, Storage};
use std::cell::Cell;
use std::rc::{Rc, Weak};

/// Function names of the three deployed binaries.
pub const COORDINATOR_FN: &str = "skyrise-coordinator";
/// Name of the deployed worker function.
pub const WORKER_FN: &str = "skyrise-worker";
/// Name of the deployed fan-out helper function.
pub const FANOUT_FN: &str = "skyrise-fanout";

/// A weak platform reference, breaking the handler -> platform `Rc` cycle.
#[derive(Clone)]
enum WeakPlatform {
    Faas(Weak<LambdaPlatform>),
    Shim(Weak<ShimCluster>),
}

impl WeakPlatform {
    fn of(platform: &ComputePlatform) -> Self {
        match platform {
            ComputePlatform::Faas(p) => WeakPlatform::Faas(Rc::downgrade(p)),
            ComputePlatform::Shim(c) => WeakPlatform::Shim(Rc::downgrade(c)),
        }
    }

    fn upgrade(&self) -> ComputePlatform {
        match self {
            WeakPlatform::Faas(w) => {
                ComputePlatform::Faas(w.upgrade().expect("platform outlives handlers"))
            }
            WeakPlatform::Shim(w) => {
                ComputePlatform::Shim(w.upgrade().expect("platform outlives handlers"))
            }
        }
    }
}

/// Worker memory: the paper's 7,076 MiB (4 vCPUs).
const WORKER_MEMORY_MIB: u64 = 7_076;
/// Coordinator memory.
const COORDINATOR_MEMORY_MIB: u64 = 3_538;
/// Deployment artifact size (kept < 10 MiB; paper Sec. 3.2).
const BINARY_SIZE: u64 = 8 << 20;

/// A deployed Skyrise engine.
pub struct Skyrise {
    ctx: SimCtx,
    platform: ComputePlatform,
    scan_storage: Storage,
    shuffle_storage: Storage,
    next_query: Cell<u64>,
}

impl Skyrise {
    /// Deploy the engine: registers the coordinator, fan-out, and worker
    /// functions on `platform`.
    pub fn deploy(
        ctx: &SimCtx,
        platform: ComputePlatform,
        scan_storage: Storage,
        shuffle_storage: Storage,
    ) -> Rc<Self> {
        let udfs = UdfRegistry::with_builtins();
        let weak = WeakPlatform::of(&platform);

        // Worker.
        {
            let scan = scan_storage.clone();
            let shuffle = shuffle_storage.clone();
            let udfs = udfs.clone();
            platform.register(
                FunctionConfig {
                    name: WORKER_FN.into(),
                    memory_mib: WORKER_MEMORY_MIB,
                    binary_size: BINARY_SIZE,
                },
                handler(move |env: ExecEnv, payload: String| {
                    let scan = scan.clone();
                    let shuffle = shuffle.clone();
                    let udfs = udfs.clone();
                    async move {
                        let task: WorkerTask =
                            serde_json::from_str(&payload).map_err(|e| e.to_string())?;
                        let report = run_worker(&env, &scan, &shuffle, &udfs, &task)
                            .await
                            .map_err(|e| e.to_string())?;
                        serde_json::to_string(&report).map_err(|e| e.to_string())
                    }
                }),
            );
        }

        // Fan-out helper (two-level invocation).
        {
            let weak = weak.clone();
            platform.register(
                FunctionConfig {
                    name: FANOUT_FN.into(),
                    memory_mib: 1_769,
                    binary_size: BINARY_SIZE,
                },
                handler(move |env: ExecEnv, payload: String| {
                    let weak = weak.clone();
                    async move {
                        let request: FanoutRequest =
                            serde_json::from_str(&payload).map_err(|e| e.to_string())?;
                        let platform = weak.upgrade();
                        let reports = run_fanout(&env, &platform, WORKER_FN, &request)
                            .await
                            .map_err(|e| e.to_string())?;
                        serde_json::to_string(&reports).map_err(|e| e.to_string())
                    }
                }),
            );
        }

        // Coordinator.
        {
            let scan = scan_storage.clone();
            let weak = weak.clone();
            platform.register(
                FunctionConfig {
                    name: COORDINATOR_FN.into(),
                    memory_mib: COORDINATOR_MEMORY_MIB,
                    binary_size: BINARY_SIZE,
                },
                handler(move |env: ExecEnv, payload: String| {
                    let scan = scan.clone();
                    let weak = weak.clone();
                    async move {
                        let request: QueryRequest =
                            serde_json::from_str(&payload).map_err(|e| e.to_string())?;
                        let platform = weak.upgrade();
                        let response =
                            run_coordinator(&env, &scan, &platform, WORKER_FN, FANOUT_FN, &request)
                                .await
                                .map_err(|e| e.to_string())?;
                        serde_json::to_string(&response).map_err(|e| e.to_string())
                    }
                }),
            );
        }

        Rc::new(Skyrise {
            ctx: ctx.clone(),
            platform,
            scan_storage,
            shuffle_storage,
            next_query: Cell::new(0),
        })
    }

    /// Deploy with one storage service for both base tables and shuffles.
    pub fn deploy_simple(ctx: &SimCtx, platform: ComputePlatform, storage: Storage) -> Rc<Self> {
        Skyrise::deploy(ctx, platform, storage.clone(), storage)
    }

    /// The base-table storage handle.
    pub fn scan_storage(&self) -> &Storage {
        &self.scan_storage
    }

    /// The intermediate-shuffle storage handle.
    pub fn shuffle_storage(&self) -> &Storage {
        &self.shuffle_storage
    }

    /// The compute platform.
    pub fn platform(&self) -> &ComputePlatform {
        &self.platform
    }

    /// Submit a plan for execution; resolves to the coordinator response.
    ///
    /// The coordinator invocation itself retries (without speculation,
    /// under the request's [`TaskPolicy`](crate::coordinator::TaskPolicy)
    /// backoff) on platform-transient failures: throttling, a crashed
    /// coordinator sandbox, or an injected transient fault. Deterministic
    /// application errors — including a task that exhausted its own
    /// attempt budget — are not retried.
    pub async fn run(
        &self,
        plan: &PhysicalPlan,
        config: QueryConfig,
    ) -> Result<QueryResponse, EngineError> {
        let id = self.next_query.get();
        self.next_query.set(id + 1);
        let policy = config.task_policy.clone();
        let request = QueryRequest {
            query_id: format!("{}-{id}", plan.name),
            plan: plan.clone(),
            config,
        };
        let payload = serde_json::to_string(&request)?;
        let backoff = policy.backoff_policy();
        let max_attempts = policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let result = match &self.platform {
                ComputePlatform::Faas(p) => p.invoke(COORDINATOR_FN, payload.clone()).await,
                // The IaaS coordinator runs on the head node, outside the
                // worker slot pool.
                ComputePlatform::Shim(c) => {
                    c.invoke_unqueued(COORDINATOR_FN, payload.clone()).await
                }
            };
            match result {
                Ok(result) => return Ok(serde_json::from_str(&result.output)?),
                Err(err) => {
                    let transient =
                        matches!(err, FaasError::TooManyRequests | FaasError::SandboxCrashed)
                            || matches!(&err, FaasError::HandlerFailed(m) if m == INJECTED_FAILURE);
                    if !transient || attempt >= max_attempts {
                        return Err(EngineError::Worker(err.to_string()));
                    }
                    self.ctx
                        .metrics()
                        .counter("engine.coordinator.retries")
                        .inc();
                    self.ctx.sleep(backoff.backoff(&self.ctx, attempt)).await;
                }
            }
        }
    }

    /// Run with default per-query configuration.
    pub async fn run_default(&self, plan: &PhysicalPlan) -> Result<QueryResponse, EngineError> {
        self.run(plan, QueryConfig::default()).await
    }

    /// Run a plan and assemble a [`QueryProfile`] from the virtual-time
    /// trace: stage critical path, per-operator time, coldstart share, and
    /// the marginal cost drawn from the platform's usage meter. Works with
    /// tracing disabled too (the trace-derived sections stay empty).
    pub async fn run_profiled(
        &self,
        plan: &PhysicalPlan,
        config: QueryConfig,
    ) -> Result<(QueryResponse, QueryProfile), EngineError> {
        let meter = self.platform.meter();
        let before = meter.as_ref().map(|m| m.borrow().report());
        let metrics = self.ctx.metrics();
        let counters_before = metrics.enabled().then(|| metrics.snapshot().counters);
        let response = self.run(plan, config).await?;
        let cost = meter
            .as_ref()
            .zip(before.as_ref())
            .map(|(m, before)| crate::profile::ProfileCost::delta(before, &m.borrow().report()));
        let mut profile = QueryProfile::from_trace(&response, &self.ctx.tracer(), cost);
        if let Some(before) = counters_before {
            for (name, after) in metrics.snapshot().counters {
                let delta = after - before.get(&name).copied().unwrap_or(0);
                if delta > 0 {
                    profile.metric_counters.insert(name, delta);
                }
            }
        }
        Ok((response, profile))
    }

    /// Pre-warm `n` worker sandboxes (and one coordinator) on FaaS.
    /// No-op on IaaS, whose VMs are provisioned up front.
    pub async fn warm(&self, n_workers: usize) {
        if let ComputePlatform::Faas(p) = &self.platform {
            p.warm(WORKER_FN, n_workers).await;
            p.warm(COORDINATOR_FN, 1).await;
        }
    }

    /// Open a named barrier (paper Sec. 3.2's subflow synchronisation):
    /// workers polling it resume on their next probe.
    pub fn open_barrier(&self, name: &str) {
        self.scan_storage
            .backdoor_put(&barrier_key(name), Blob::new(vec![1u8]));
    }

    /// Simulation context (for experiment harnesses).
    pub fn ctx(&self) -> &SimCtx {
        &self.ctx
    }
}
