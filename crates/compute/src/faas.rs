//! The Lambda FaaS platform model (paper Sec. 2.1, Fig. 1).
//!
//! Modelled control-plane behaviour:
//!
//! * **Admission**: an account-level quota on concurrent executions
//!   (the paper's raised quota: 10,000).
//! * **Burst scaling**: new sandboxes draw from a token bucket with a
//!   3,000-instance initial burst refilled at 500/minute (region-scaled).
//!   Invocations needing a sandbox wait for a token — this is what makes
//!   large cluster startup slow in contended regions.
//! * **Coldstarts**: placement + binary download + runtime init, sampled
//!   from the region profile; "keeping binary sizes small" shortens them.
//! * **Warm pool**: finished sandboxes return to a per-function pool and
//!   expire after a sampled idle lifetime (5–15 minutes).
//! * **Sandbox NICs**: every sandbox gets Lambda's dual token-bucket NIC
//!   with a small per-sandbox burst-rate perturbation ("high variation for
//!   burst throughputs, yet very stable burst capacities").
//! * **Billing**: GB-seconds at millisecond granularity plus a per-request
//!   fee, metered through `skyrise-pricing`.

use crate::region::Region;
use skyrise_net::{presets, SharedNic};
use skyrise_pricing::{SharedMeter, LAMBDA_MIB_PER_VCPU};
use skyrise_sim::faults::INJECTED_FAILURE;
use skyrise_sim::telemetry::{Counter, Gauge, HistogramHandle, MetricRegistry};
use skyrise_sim::{race, Either, SimCtx, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

/// Boxed local future returned by handlers.
pub type LocalBoxFuture<T> = Pin<Box<dyn Future<Output = T>>>;

/// A registered function body. Receives its execution environment and the
/// request payload; returns a response payload or an error message.
pub type Handler = Rc<dyn Fn(ExecEnv, String) -> LocalBoxFuture<Result<String, String>>>;

/// What the function body sees of its sandbox.
#[derive(Clone)]
pub struct ExecEnv {
    /// Simulation context.
    pub ctx: SimCtx,
    /// The sandbox (or host VM) NIC — storage requests should pass it.
    pub nic: SharedNic,
    /// True when this invocation cold-started its sandbox.
    pub cold_start: bool,
    /// vCPU share of the sandbox.
    pub vcpus: f64,
    /// Configured memory (MiB).
    pub memory_mib: u64,
    /// Sandbox or VM identifier (for tracing).
    pub instance_id: u64,
}

/// Static configuration of a deployed function.
#[derive(Debug, Clone)]
pub struct FunctionConfig {
    /// Deployed function name.
    pub name: String,
    /// Memory size (MiB), 128–10,240. Determines the vCPU share.
    pub memory_mib: u64,
    /// Deployment artifact size — drives coldstart download time. The
    /// engine keeps this under 10 MiB (paper Sec. 3.2).
    pub binary_size: u64,
}

impl FunctionConfig {
    /// A worker-sized function: the paper's 7,076 MiB (4 vCPUs).
    pub fn worker(name: &str) -> Self {
        FunctionConfig {
            name: name.to_string(),
            memory_mib: 7_076,
            binary_size: 8 << 20,
        }
    }

    /// vCPU share: 1 vCPU per 1,769 MiB.
    pub fn vcpus(&self) -> f64 {
        self.memory_mib as f64 / LAMBDA_MIB_PER_VCPU
    }

    /// Memory in decimal gigabytes (the billing unit).
    pub fn memory_gb(&self) -> f64 {
        self.memory_mib as f64 * 1024.0 * 1024.0 / 1e9
    }
}

/// Invocation failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaasError {
    /// No function registered under this name.
    UnknownFunction(String),
    /// Concurrent-executions quota exceeded (HTTP 429).
    TooManyRequests,
    /// Request or response payload above the 6 MB limit.
    PayloadTooLarge(usize),
    /// The handler returned an error.
    HandlerFailed(String),
    /// The sandbox died mid-run (injected by the fault plan). The partial
    /// run is billed; the sandbox never returns to the warm pool.
    SandboxCrashed,
}

impl fmt::Display for FaasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaasError::UnknownFunction(n) => write!(f, "unknown function {n}"),
            FaasError::TooManyRequests => write!(f, "concurrency quota exceeded"),
            FaasError::PayloadTooLarge(n) => write!(f, "payload of {n} B over the 6 MB limit"),
            FaasError::HandlerFailed(e) => write!(f, "handler failed: {e}"),
            FaasError::SandboxCrashed => write!(f, "sandbox crashed mid-run"),
        }
    }
}

impl std::error::Error for FaasError {}

/// Result of a successful invocation.
#[derive(Debug, Clone)]
pub struct InvokeResult {
    /// The handler's response payload.
    pub output: String,
    /// Billed duration (includes coldstart initialisation).
    pub duration: SimDuration,
    /// Whether a new sandbox had to be created.
    pub cold_start: bool,
    /// Sandbox/VM that served the invocation.
    pub sandbox_id: u64,
}

/// Lambda payload ceiling (synchronous invocations): 6 MB.
pub const MAX_PAYLOAD: usize = 6 * 1024 * 1024;
/// Binary download bandwidth during coldstarts.
const ARTIFACT_BW: f64 = 50e6;
/// Sandbox idle lifetime range (paper: minutes-scale, measured by the
/// platform microbenchmark).
const IDLE_LIFETIME_MIN: f64 = 300.0;
const IDLE_LIFETIME_MAX: f64 = 900.0;

struct Sandbox {
    id: u64,
    nic: SharedNic,
    last_used: SimTime,
    idle_lifetime: SimDuration,
}

struct Registered {
    config: FunctionConfig,
    handler: Handler,
    warm: VecDeque<Sandbox>,
}

/// Cached telemetry handles (DESIGN.md §10), resolved once at platform
/// construction so the invoke hot path never touches the registry's name
/// maps. Every handle is a no-op when the simulation has no registry.
struct FaasMetrics {
    cold_starts: Counter,
    warm_starts: Counter,
    expired: Counter,
    crashes: Counter,
    invokes: Counter,
    throttles: Counter,
    token_waits: Counter,
    coldstart_secs: HistogramHandle,
    warmstart_secs: HistogramHandle,
    invoke_secs: HistogramHandle,
    warm_pool: Gauge,
    in_flight: Gauge,
}

impl FaasMetrics {
    fn new(reg: &MetricRegistry) -> Self {
        FaasMetrics {
            cold_starts: reg.counter("faas.sandbox.cold_starts"),
            warm_starts: reg.counter("faas.sandbox.warm_starts"),
            expired: reg.counter("faas.sandbox.expired"),
            crashes: reg.counter("faas.sandbox.crashes"),
            invokes: reg.counter("faas.invoke.count"),
            throttles: reg.counter("faas.invoke.throttles"),
            token_waits: reg.counter("faas.scaling.token_waits"),
            coldstart_secs: reg.histogram("faas.coldstart.secs"),
            warmstart_secs: reg.histogram("faas.warmstart.secs"),
            invoke_secs: reg.histogram("faas.invoke.latency_secs"),
            warm_pool: reg.gauge("faas.pool.warm_size"),
            in_flight: reg.gauge("faas.invoke.in_flight"),
        }
    }
}

/// The FaaS platform. Cheap to clone via `Rc`.
pub struct LambdaPlatform {
    ctx: SimCtx,
    meter: SharedMeter,
    region: Region,
    functions: RefCell<BTreeMap<String, Registered>>,
    /// Sandbox-scaling token bucket (3,000 burst + 500/min).
    scaling: RefCell<skyrise_net::RateLimiter>,
    concurrency_quota: u32,
    concurrent: Cell<u32>,
    next_sandbox: Cell<u64>,
    /// Statistics: coldstarts served (`metrics` counts warmstarts too).
    cold_starts: Cell<u64>,
    metrics: FaasMetrics,
}

impl LambdaPlatform {
    /// Platform in a region with the paper's raised 10K concurrency quota.
    pub fn new(ctx: &SimCtx, meter: &SharedMeter, region: Region) -> Rc<Self> {
        let rate = 500.0 / 60.0 * region.scaling_rate_factor;
        let metrics = FaasMetrics::new(&ctx.metrics());
        Rc::new(LambdaPlatform {
            ctx: ctx.clone(),
            meter: Rc::clone(meter),
            region,
            functions: RefCell::new(BTreeMap::new()),
            scaling: RefCell::new(skyrise_net::RateLimiter::continuous(
                1e9, // tokens are the constraint, not the instantaneous rate
                rate, 3_000.0,
            )),
            concurrency_quota: 10_000,
            concurrent: Cell::new(0),
            next_sandbox: Cell::new(0),
            cold_starts: Cell::new(0),
            metrics,
        })
    }

    /// Deploy (or replace) a function.
    pub fn register(&self, config: FunctionConfig, handler: Handler) {
        self.functions.borrow_mut().insert(
            config.name.clone(),
            Registered {
                config,
                handler,
                warm: VecDeque::new(),
            },
        );
    }

    /// The region this platform runs in.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// The simulation context this platform runs in.
    pub fn ctx(&self) -> SimCtx {
        self.ctx.clone()
    }

    /// The usage meter this platform bills into.
    pub fn meter(&self) -> SharedMeter {
        Rc::clone(&self.meter)
    }

    /// Consume `n` sandbox-scaling tokens up front — models an account
    /// whose burst pool is largely spent by co-located workloads, so
    /// cluster startup depends on the region's refill rate (used by the
    /// Table 5 variability experiment).
    pub fn consume_scaling_burst(&self, n: f64) {
        let mut s = self.scaling.borrow_mut();
        s.advance(self.ctx.now());
        let take = n.min(s.available());
        s.consume(self.ctx.now(), take);
    }

    /// Coldstarts served so far.
    pub fn cold_start_count(&self) -> u64 {
        self.cold_starts.get()
    }

    /// Currently executing invocations.
    pub fn concurrent_executions(&self) -> u32 {
        self.concurrent.get()
    }

    /// Invoke a function synchronously.
    pub async fn invoke(
        self: &Rc<Self>,
        name: &str,
        payload: String,
    ) -> Result<InvokeResult, FaasError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(FaasError::PayloadTooLarge(payload.len()));
        }
        let (config, handler) = {
            let fns = self.functions.borrow();
            let reg = fns
                .get(name)
                .ok_or_else(|| FaasError::UnknownFunction(name.to_string()))?;
            (reg.config.clone(), Rc::clone(&reg.handler))
        };
        let tracer = self.ctx.tracer();
        let lane = tracer.next_lane();
        if self.concurrent.get() >= self.concurrency_quota {
            tracer
                .instant(&self.ctx, "faas", lane, "throttle-429")
                .attr("function", name)
                .attr("concurrent", self.concurrent.get());
            self.metrics.throttles.inc();
            return Err(FaasError::TooManyRequests);
        }
        self.concurrent.set(self.concurrent.get() + 1);
        self.metrics.in_flight.set(self.concurrent.get() as f64);
        let started = self.ctx.now();
        let span = tracer.span(&self.ctx, "faas", lane, "invoke");
        span.attr("function", name)
            .attr("payload_bytes", payload.len())
            .attr("concurrent", self.concurrent.get());

        let (sandbox, cold) = self.acquire_sandbox(name, &config, lane).await;
        let sandbox_id = sandbox.id;
        let env = ExecEnv {
            ctx: self.ctx.clone(),
            nic: Rc::clone(&sandbox.nic),
            cold_start: cold,
            vcpus: config.vcpus(),
            memory_mib: config.memory_mib,
            instance_id: sandbox_id,
        };
        let run_span = tracer.span(&self.ctx, "faas", lane, "run");
        run_span.attr("sandbox", sandbox_id).attr("cold", cold);
        // Fault plan decision points, sampled up front so the draw order is
        // independent of handler behaviour. A crash trumps a transient.
        let faults = self.ctx.faults();
        let crash_after = faults.sample_sandbox_crash();
        let transient = crash_after.is_none() && faults.sample_invoke_transient();
        // `Some(result)` = handler finished; `None` = the sandbox died first
        // (the abandoned handler future is dropped mid-run).
        let run = match crash_after {
            Some(after) => match race(handler(env, payload), self.ctx.sleep(after)).await {
                Either::Left(r) => Some(r),
                Either::Right(()) => None,
            },
            None => Some(handler(env, payload).await),
        };
        drop(run_span);
        let now = self.ctx.now();
        let duration = now.duration_since(started);
        self.metrics.invokes.inc();
        self.metrics.invoke_secs.record_duration(duration);

        // Bill, return the sandbox, release concurrency — also on failure.
        let gb_s_before = self.meter.borrow().lambda.gb_seconds;
        self.meter
            .borrow_mut()
            .record_lambda(config.memory_gb(), duration.as_secs_f64());
        // Sanitizer cross-check: the metered GB-seconds delta must equal the
        // invoke span's wall window times configured memory. A drift here
        // means billing and tracing disagree about how long the run took.
        let delta = self.meter.borrow().lambda.gb_seconds - gb_s_before;
        self.ctx.sanitizer().check_close(
            delta,
            config.memory_gb() * duration.as_secs_f64(),
            || format!("lambda GB-seconds metered for `{name}` vs invoke span window"),
        );
        if run.is_some() {
            self.release_sandbox(name, sandbox, lane);
        } else {
            // Crashed sandboxes never return to the warm pool.
            tracer
                .instant(&self.ctx, "faas", lane, "fault-crash")
                .attr("function", name)
                .attr("sandbox", sandbox_id);
            self.metrics.crashes.inc();
            drop(sandbox);
        }
        self.concurrent.set(self.concurrent.get() - 1);
        self.metrics.in_flight.set(self.concurrent.get() as f64);

        match run {
            None => Err(FaasError::SandboxCrashed),
            Some(result) => {
                if transient {
                    tracer
                        .instant(&self.ctx, "faas", lane, "fault-transient")
                        .attr("function", name)
                        .attr("sandbox", sandbox_id);
                    return Err(FaasError::HandlerFailed(INJECTED_FAILURE.to_string()));
                }
                match result {
                    Ok(output) => {
                        if output.len() > MAX_PAYLOAD {
                            return Err(FaasError::PayloadTooLarge(output.len()));
                        }
                        Ok(InvokeResult {
                            output,
                            duration,
                            cold_start: cold,
                            sandbox_id,
                        })
                    }
                    Err(e) => Err(FaasError::HandlerFailed(e)),
                }
            }
        }
    }

    /// Pre-provision `n` warm sandboxes for a function ("the functions are
    /// warmed up ... before the experiment begins", Sec. 5.2).
    pub async fn warm(self: &Rc<Self>, name: &str, n: usize) {
        let config = {
            let fns = self.functions.borrow();
            fns.get(name)
                .unwrap_or_else(|| panic!("unknown function {name}"))
                .config
                .clone()
        };
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let this = Rc::clone(self);
                let name = name.to_string();
                let config = config.clone();
                self.ctx.spawn(async move {
                    let lane = this.ctx.tracer().next_lane();
                    let (sandbox, _) = this.acquire_sandbox(&name, &config, lane).await;
                    this.release_sandbox(&name, sandbox, lane);
                })
            })
            .collect();
        skyrise_sim::join_all(handles).await;
    }

    async fn acquire_sandbox(
        &self,
        name: &str,
        config: &FunctionConfig,
        lane: u64,
    ) -> (Sandbox, bool) {
        // Warm path: pop a live sandbox, lazily expiring dead ones.
        let now = self.ctx.now();
        let (popped, pool_len) = {
            let mut fns = self.functions.borrow_mut();
            let reg = fns.get_mut(name).expect("registered");
            let mut expired = 0u64;
            let popped = loop {
                match reg.warm.pop_front() {
                    Some(sb) => {
                        if now.duration_since(sb.last_used) <= sb.idle_lifetime {
                            break Some(sb);
                        }
                        // expired: drop and keep looking
                        expired += 1;
                    }
                    None => break None,
                }
            };
            self.metrics.expired.add(expired);
            (popped, reg.warm.len())
        };
        self.metrics.warm_pool.set(pool_len as f64);
        let tracer = self.ctx.tracer();
        if let Some(sb) = popped {
            let span = tracer.span(&self.ctx, "faas", lane, "warmstart");
            span.attr("sandbox", sb.id);
            let lat = self.ctx.with_rng(|r| self.region.sample_warmstart(r));
            self.ctx.sleep(lat).await;
            self.metrics.warm_starts.inc();
            self.metrics.warmstart_secs.record_duration(lat);
            return (sb, false);
        }

        // Cold path: wait for a scaling token, then create the sandbox.
        let mut token_waited = false;
        loop {
            let (granted, available) = {
                let mut s = self.scaling.borrow_mut();
                s.advance(self.ctx.now());
                if s.available() >= 1.0 {
                    s.consume(self.ctx.now(), 1.0);
                    (true, s.available())
                } else {
                    (false, s.available())
                }
            };
            if granted {
                break;
            }
            if !token_waited {
                tracer
                    .instant(&self.ctx, "faas", lane, "scaling-token-wait")
                    .attr("burst_tokens", available);
                self.metrics.token_waits.inc();
                token_waited = true;
            }
            self.ctx.sleep(SimDuration::from_millis(200)).await;
        }
        let mut init = self
            .ctx
            .with_rng(|r| self.region.sample_coldstart(r, self.ctx.now()));
        if let Some(factor) = self.ctx.faults().sample_coldstart_spike() {
            tracer
                .instant(&self.ctx, "faas", lane, "fault-coldstart-spike")
                .attr("factor", factor)
                .attr("init_s", init.as_secs_f64());
            init = SimDuration::from_secs_f64(init.as_secs_f64() * factor);
        }
        let download = SimDuration::from_secs_f64(config.binary_size as f64 / ARTIFACT_BW);
        let span = tracer.span(&self.ctx, "faas", lane, "coldstart");
        span.attr("binary_size", config.binary_size)
            .attr("init_s", init.as_secs_f64())
            .attr("download_s", download.as_secs_f64());
        self.ctx.sleep(init + download).await;
        self.cold_starts.set(self.cold_starts.get() + 1);
        self.metrics.cold_starts.inc();
        self.metrics.coldstart_secs.record_duration(init + download);
        span.end();

        let id = self.next_sandbox.get();
        self.next_sandbox.set(id + 1);
        let (in_scale, out_scale, lifetime) = self.ctx.with_rng(|r| {
            (
                r.gen_normal(1.0, 0.06).clamp(0.7, 1.3),
                r.gen_normal(1.0, 0.10).clamp(0.6, 1.3),
                r.gen_range_f64(IDLE_LIFETIME_MIN, IDLE_LIFETIME_MAX),
            )
        });
        (
            Sandbox {
                id,
                nic: presets::lambda_nic_scaled(in_scale, out_scale),
                last_used: self.ctx.now(),
                idle_lifetime: SimDuration::from_secs_f64(lifetime),
            },
            true,
        )
    }

    fn release_sandbox(&self, name: &str, mut sandbox: Sandbox, lane: u64) {
        sandbox.last_used = self.ctx.now();
        self.ctx
            .tracer()
            .instant(&self.ctx, "faas", lane, "reclaim")
            .attr("sandbox", sandbox.id);
        if let Some(reg) = self.functions.borrow_mut().get_mut(name) {
            reg.warm.push_back(sandbox);
            self.metrics.warm_pool.set(reg.warm.len() as f64);
        }
    }

    /// Number of live warm sandboxes for a function (expired ones are only
    /// reaped on acquisition, so this is an upper bound).
    pub fn warm_pool_size(&self, name: &str) -> usize {
        self.functions
            .borrow()
            .get(name)
            .map_or(0, |r| r.warm.len())
    }
}

/// Convenience: box a handler closure.
pub fn handler<F, Fut>(f: F) -> Handler
where
    F: Fn(ExecEnv, String) -> Fut + 'static,
    Fut: Future<Output = Result<String, String>> + 'static,
{
    Rc::new(move |env, payload| Box::pin(f(env, payload)) as LocalBoxFuture<_>)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyrise_pricing::shared_meter;
    use skyrise_sim::{join_all, Sim};

    fn echo_handler() -> Handler {
        handler(|env: ExecEnv, payload: String| async move {
            env.ctx.sleep(SimDuration::from_millis(50)).await;
            Ok(format!("echo:{payload}"))
        })
    }

    #[test]
    fn cold_then_warm_invocations() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let platform = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
            platform.register(FunctionConfig::worker("echo"), echo_handler());
            let first = platform.invoke("echo", "a".into()).await.unwrap();
            let second = platform.invoke("echo", "b".into()).await.unwrap();
            (first, second)
        });
        sim.run();
        let (first, second) = h.try_take().unwrap();
        assert!(first.cold_start);
        assert!(!second.cold_start);
        assert_eq!(first.output, "echo:a");
        // Coldstart includes init + binary download; warm is just ~ms.
        assert!(first.duration.as_secs_f64() > second.duration.as_secs_f64() + 0.05);
    }

    #[test]
    fn billing_accumulates_gb_seconds() {
        let mut sim = Sim::new(2);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let meter2 = meter.clone();
        sim.spawn(async move {
            let platform = LambdaPlatform::new(&ctx, &meter2, Region::us_east_1());
            platform.register(FunctionConfig::worker("echo"), echo_handler());
            for _ in 0..5 {
                platform.invoke("echo", String::new()).await.unwrap();
            }
        });
        sim.run();
        let m = meter.borrow();
        assert_eq!(m.lambda.invocations, 5);
        // 7,076 MiB = 7.42 GB for >= 50ms each.
        assert!(m.lambda.gb_seconds > 5.0 * 7.4 * 0.05);
    }

    #[test]
    fn unknown_function_rejected() {
        let mut sim = Sim::new(3);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let platform = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
            platform.invoke("nope", String::new()).await.err()
        });
        sim.run();
        assert!(matches!(
            h.try_take().unwrap(),
            Some(FaasError::UnknownFunction(_))
        ));
    }

    #[test]
    fn initial_burst_allows_3000_then_scaling_slows() {
        let mut sim = Sim::new(4);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let platform = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
            platform.register(
                FunctionConfig {
                    name: "f".into(),
                    memory_mib: 1769,
                    binary_size: 1 << 20,
                },
                echo_handler(),
            );
            // 3,200 concurrent first invocations: 3,000 ride the burst,
            // 200 wait for the 500/min refill.
            let handles: Vec<_> = (0..3200)
                .map(|_| {
                    let p = Rc::clone(&platform);
                    ctx.spawn(async move { p.invoke("f", String::new()).await.unwrap().duration })
                })
                .collect();
            let durations = join_all(handles).await;
            let slow = durations.iter().filter(|d| d.as_secs_f64() > 5.0).count();
            (slow, platform.cold_start_count())
        });
        sim.run();
        let (slow, colds) = h.try_take().unwrap();
        assert_eq!(colds, 3200);
        // ~200 invocations had to wait for refill (500/min -> up to ~24s).
        assert!((150..=320).contains(&slow), "slow {slow}");
    }

    #[test]
    fn warm_pool_expires_after_idle_lifetime() {
        let mut sim = Sim::new(5);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let platform = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
            platform.register(FunctionConfig::worker("f"), echo_handler());
            platform.invoke("f", String::new()).await.unwrap();
            // Within the minimum lifetime: warm.
            ctx.sleep(SimDuration::from_secs(120)).await;
            let warm = platform.invoke("f", String::new()).await.unwrap();
            // Far beyond the maximum lifetime: cold again.
            ctx.sleep(SimDuration::from_secs(3600)).await;
            let cold = platform.invoke("f", String::new()).await.unwrap();
            (warm.cold_start, cold.cold_start)
        });
        sim.run();
        let (warm_was_cold, cold_was_cold) = h.try_take().unwrap();
        assert!(!warm_was_cold);
        assert!(cold_was_cold);
    }

    #[test]
    fn prewarming_eliminates_coldstarts() {
        let mut sim = Sim::new(6);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let platform = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
            platform.register(FunctionConfig::worker("f"), echo_handler());
            platform.warm("f", 32).await;
            assert_eq!(platform.warm_pool_size("f"), 32);
            let handles: Vec<_> = (0..32)
                .map(|_| {
                    let p = Rc::clone(&platform);
                    ctx.spawn(async move { p.invoke("f", String::new()).await.unwrap().cold_start })
                })
                .collect();
            join_all(handles).await.iter().filter(|&&c| c).count()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 0);
    }

    #[test]
    fn handler_failure_is_billed_and_reported() {
        let mut sim = Sim::new(7);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let meter2 = meter.clone();
        let h = sim.spawn(async move {
            let platform = LambdaPlatform::new(&ctx, &meter2, Region::us_east_1());
            platform.register(
                FunctionConfig::worker("fail"),
                handler(|_env, _p| async move { Err("boom".to_string()) }),
            );
            platform.invoke("fail", String::new()).await.err()
        });
        sim.run();
        assert!(matches!(
            h.try_take().unwrap(),
            Some(FaasError::HandlerFailed(e)) if e == "boom"
        ));
        assert_eq!(meter.borrow().lambda.invocations, 1);
    }

    #[test]
    fn payload_limit_enforced() {
        let mut sim = Sim::new(8);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let platform = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
            platform.register(FunctionConfig::worker("f"), echo_handler());
            let big = "x".repeat(MAX_PAYLOAD + 1);
            platform.invoke("f", big).await.err()
        });
        sim.run();
        assert!(matches!(
            h.try_take().unwrap(),
            Some(FaasError::PayloadTooLarge(_))
        ));
    }

    #[test]
    fn warm_reuse_returns_serving_sandbox_id() {
        let mut sim = Sim::new(10);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let platform = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
            platform.register(FunctionConfig::worker("other"), echo_handler());
            platform.register(FunctionConfig::worker("f"), echo_handler());
            // Burn sandbox id 0 on another function so "f"'s sandbox has a
            // nonzero id — a regression to the hardcoded `sandbox_id: 0`
            // cannot pass this test.
            let other = platform.invoke("other", String::new()).await.unwrap();
            let first = platform.invoke("f", String::new()).await.unwrap();
            let second = platform.invoke("f", String::new()).await.unwrap();
            (other, first, second)
        });
        sim.run();
        let (other, first, second) = h.try_take().unwrap();
        assert_eq!(other.sandbox_id, 0);
        assert!(first.cold_start);
        assert_eq!(first.sandbox_id, 1);
        // Back-to-back invokes reuse the same warm sandbox.
        assert!(!second.cold_start);
        assert_eq!(second.sandbox_id, first.sandbox_id);
    }

    #[test]
    fn concurrent_invokes_use_distinct_sandboxes() {
        let mut sim = Sim::new(11);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let platform = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
            platform.register(FunctionConfig::worker("f"), echo_handler());
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let p = Rc::clone(&platform);
                    ctx.spawn(async move { p.invoke("f", String::new()).await.unwrap().sandbox_id })
                })
                .collect();
            join_all(handles).await
        });
        sim.run();
        let mut ids = h.try_take().unwrap();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "concurrent invokes must not share a sandbox");
    }

    #[test]
    fn injected_transient_fails_but_bills_and_keeps_sandbox() {
        let mut sim = Sim::new(12);
        sim.install_faults(skyrise_sim::FaultConfig {
            invoke_transient_prob: 1.0,
            ..skyrise_sim::FaultConfig::default()
        });
        let ctx = sim.ctx();
        let meter = shared_meter();
        let meter2 = meter.clone();
        let h = sim.spawn(async move {
            let platform = LambdaPlatform::new(&ctx, &meter2, Region::us_east_1());
            platform.register(FunctionConfig::worker("f"), echo_handler());
            let err = platform.invoke("f", String::new()).await.err();
            (err, platform.warm_pool_size("f"))
        });
        sim.run();
        let (err, warm) = h.try_take().unwrap();
        assert!(matches!(err, Some(FaasError::HandlerFailed(e)) if e == INJECTED_FAILURE));
        // The handler ran in full: billed and its sandbox reclaimed.
        assert_eq!(meter.borrow().lambda.invocations, 1);
        assert_eq!(warm, 1);
    }

    #[test]
    fn injected_crash_destroys_sandbox_and_bills_partial_run() {
        let mut sim = Sim::new(13);
        sim.install_faults(skyrise_sim::FaultConfig {
            sandbox_crash_prob: 1.0,
            crash_horizon_secs: 0.01, // crash well inside the 50ms handler
            ..skyrise_sim::FaultConfig::default()
        });
        let ctx = sim.ctx();
        let meter = shared_meter();
        let meter2 = meter.clone();
        let h = sim.spawn(async move {
            let platform = LambdaPlatform::new(&ctx, &meter2, Region::us_east_1());
            platform.register(FunctionConfig::worker("f"), echo_handler());
            let err = platform.invoke("f", String::new()).await.err();
            (
                err,
                platform.warm_pool_size("f"),
                platform.concurrent_executions(),
            )
        });
        sim.run();
        let (err, warm, concurrent) = h.try_take().unwrap();
        assert_eq!(err, Some(FaasError::SandboxCrashed));
        assert_eq!(warm, 0, "crashed sandbox must not be reclaimed");
        assert_eq!(concurrent, 0, "crash must release the concurrency slot");
        assert_eq!(meter.borrow().lambda.invocations, 1);
    }

    #[test]
    fn coldstart_spike_inflates_init_time() {
        fn cold_duration(spike: bool) -> f64 {
            let mut sim = Sim::new(14);
            if spike {
                sim.install_faults(skyrise_sim::FaultConfig {
                    coldstart_spike_prob: 1.0,
                    coldstart_spike_factor: 10.0,
                    ..skyrise_sim::FaultConfig::default()
                });
            }
            let ctx = sim.ctx();
            let meter = shared_meter();
            let h = sim.spawn(async move {
                let platform = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
                platform.register(FunctionConfig::worker("f"), echo_handler());
                platform
                    .invoke("f", String::new())
                    .await
                    .unwrap()
                    .duration
                    .as_secs_f64()
            });
            sim.run();
            h.try_take().unwrap()
        }
        // Same seed, so the underlying coldstart sample is identical; the
        // spiked run must be several times slower.
        assert!(cold_duration(true) > 3.0 * cold_duration(false));
    }

    #[test]
    fn telemetry_records_starts_and_latencies() {
        let mut sim = Sim::new(15);
        let reg = sim.install_metrics();
        let ctx = sim.ctx();
        let meter = shared_meter();
        sim.spawn(async move {
            let platform = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
            platform.register(FunctionConfig::worker("f"), echo_handler());
            platform.invoke("f", String::new()).await.unwrap();
            platform.invoke("f", String::new()).await.unwrap();
        });
        sim.run();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["faas.sandbox.cold_starts"], 1);
        assert_eq!(snap.counters["faas.sandbox.warm_starts"], 1);
        assert_eq!(snap.counters["faas.invoke.count"], 2);
        assert_eq!(snap.histograms["faas.invoke.latency_secs"].count(), 2);
        assert_eq!(snap.histograms["faas.coldstart.secs"].count(), 1);
        assert_eq!(snap.gauges["faas.invoke.in_flight"], 1.0);
        assert!(snap.gauges["faas.pool.warm_size"] >= 1.0);
    }

    #[test]
    fn eu_cluster_startup_is_slower() {
        // 500 cold invocations beyond the (shrunken) burst: the EU's lower
        // scaling rate must make the fleet take noticeably longer.
        fn cluster_time(region: Region, seed: u64) -> f64 {
            let mut sim = Sim::new(seed);
            let ctx = sim.ctx();
            let meter = shared_meter();
            let h = sim.spawn(async move {
                let platform = LambdaPlatform::new(&ctx, &meter, region);
                // Shrink the burst so the test is fast: consume most of it.
                platform.register(
                    FunctionConfig {
                        name: "f".into(),
                        memory_mib: 1769,
                        binary_size: 1 << 20,
                    },
                    echo_handler(),
                );
                {
                    let mut s = platform.scaling.borrow_mut();
                    s.advance(ctx.now());
                    s.consume(ctx.now(), 2_950.0);
                }
                let handles: Vec<_> = (0..200)
                    .map(|_| {
                        let p = Rc::clone(&platform);
                        ctx.spawn(async move {
                            p.invoke("f", String::new()).await.unwrap();
                        })
                    })
                    .collect();
                join_all(handles).await;
                ctx.now().as_secs_f64()
            });
            sim.run();
            h.try_take().unwrap()
        }
        let us = cluster_time(Region::us_east_1(), 9);
        let eu = cluster_time(Region::eu_west_1(), 9);
        assert!(eu > 1.3 * us, "us {us}s vs eu {eu}s");
    }
}
