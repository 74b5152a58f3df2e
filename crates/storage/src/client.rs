//! Client-side request handling: the `Storage` service handle and the
//! retrying client.
//!
//! The paper configures its S3 client with "a request timeout of 200 ms
//! for retries and exponential backoff — an eager but not aggressive retry
//! behavior" (Sec. 4.4.1), and its query engine "retrigger\[s\] straggling
//! requests after a size-based timeout" (Sec. 3.2). [`RetryPolicy`] encodes
//! both. Repeatedly rejected clients back off exponentially and become the
//! stragglers responsible for the IOPS dips of Fig. 11.

use crate::core::{RequestOpts, REJECT_LATENCY};
use crate::dynamodb::DynamoTable;
use crate::efs::EfsFilesystem;
use crate::error::{Result, StorageError};
use crate::object::{Blob, ByteRange, ObjectRead};
use crate::s3::S3Bucket;
use skyrise_pricing::StorageService;
use skyrise_sim::faults::StorageFault;
use skyrise_sim::telemetry::Counter;
use skyrise_sim::{race, Either, SimCtx, SimDuration};
use std::future::Future;
use std::rc::Rc;

/// A handle to any of the simulated storage services, exposing one blob
/// API. The engine and the microbenchmarks are written against this.
#[derive(Clone)]
pub enum Storage {
    /// An S3 bucket (Standard or Express).
    S3(Rc<S3Bucket>),
    /// A DynamoDB table.
    Dynamo(Rc<DynamoTable>),
    /// An EFS filesystem.
    Efs(Rc<EfsFilesystem>),
}

impl Storage {
    /// Read `range` of an object.
    ///
    /// Only S3 serves ranges natively. DynamoDB and EFS meter, bill and
    /// stream the *whole object's* logical size and cut the range
    /// client-side; [`ObjectRead::transferred`] says what moved.
    pub async fn read(
        &self,
        key: &str,
        range: ByteRange,
        opts: &RequestOpts,
    ) -> Result<ObjectRead> {
        match self {
            Storage::S3(b) => b.read(key, range, opts).await,
            Storage::Dynamo(t) => t.read(key, range, opts).await,
            Storage::Efs(f) => f.read(key, range, opts).await,
        }
    }

    /// GET/read a whole object: `read(key, ByteRange::Full, opts)`, as one
    /// future and not a wrapper around `read`'s (the closed-loop and ramp
    /// drivers hold one per request in flight).
    pub async fn get(&self, key: &str, opts: &RequestOpts) -> Result<Blob> {
        let read = match self {
            Storage::S3(b) => b.read(key, ByteRange::Full, opts).await,
            Storage::Dynamo(t) => t.read(key, ByteRange::Full, opts).await,
            Storage::Efs(f) => f.read(key, ByteRange::Full, opts).await,
        };
        read.map(|r| r.blob)
    }

    /// PUT/write an object.
    pub async fn put(&self, key: &str, blob: Blob, opts: &RequestOpts) -> Result<()> {
        match self {
            Storage::S3(b) => b.put(key, blob, opts).await,
            Storage::Dynamo(t) => t.put(key, blob, opts).await,
            Storage::Efs(f) => f.write(key, blob, opts).await,
        }
    }

    /// Insert data without billing or timing (dataset setup).
    pub fn backdoor_put(&self, key: &str, blob: Blob) {
        match self {
            Storage::S3(b) => b.backdoor().put(key, blob),
            Storage::Dynamo(t) => t.backdoor().put(key, blob),
            Storage::Efs(f) => f.backdoor().put(key, blob),
        }
    }

    /// Whether the service serves byte ranges itself: the backend's
    /// `ServiceModel::native_ranges`. Where it does not, every ranged read
    /// moves and bills the whole object, so splitting a fetch multiplies
    /// its cost.
    pub fn native_ranges(&self) -> bool {
        match self {
            Storage::S3(b) => b.core.model.native_ranges,
            Storage::Dynamo(t) => t.core.model.native_ranges,
            Storage::Efs(f) => f.core.model.native_ranges,
        }
    }

    /// Service display name.
    pub fn name(&self) -> &'static str {
        match self {
            Storage::S3(b) => b.service().name(),
            Storage::Dynamo(_) => StorageService::DynamoDb.name(),
            Storage::Efs(_) => StorageService::Efs.name(),
        }
    }
}

/// Retry policy: timeout, backoff, attempt cap.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Base timeout for a zero-byte request.
    pub base_timeout: SimDuration,
    /// Expected transfer bandwidth for the size-based timeout:
    /// `timeout = base + bytes / expected_bw * slack`.
    pub expected_bw: f64,
    /// Multiplier on the expected transfer time.
    pub timeout_slack: f64,
    /// First backoff sleep.
    pub backoff_base: SimDuration,
    /// Backoff ceiling.
    pub backoff_cap: SimDuration,
    /// Maximum attempts before giving up.
    pub max_attempts: u32,
    /// Apply full jitter (AWS-recommended) to backoff sleeps.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_timeout: SimDuration::from_millis(200),
            expected_bw: 40.0 * 1024.0 * 1024.0,
            timeout_slack: 2.0,
            backoff_base: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_secs(20),
            max_attempts: 8,
            jitter: true,
        }
    }
}

impl RetryPolicy {
    /// The paper's eager-but-not-aggressive S3 client.
    pub fn eager() -> Self {
        RetryPolicy::default()
    }

    /// A patient client for bulk transfers (no 200 ms trigger-happiness).
    pub fn bulk() -> Self {
        RetryPolicy {
            base_timeout: SimDuration::from_secs(5),
            ..RetryPolicy::default()
        }
    }

    /// Timeout for a request expected to move `bytes`.
    pub fn timeout_for(&self, bytes: u64) -> SimDuration {
        self.base_timeout
            + SimDuration::from_secs_f64(bytes as f64 / self.expected_bw * self.timeout_slack)
    }

    /// Backoff before retry number `attempt` (1-based).
    pub fn backoff(&self, ctx: &SimCtx, attempt: u32) -> SimDuration {
        let exp = self
            .backoff_base
            .as_secs_f64()
            .mul_add(2f64.powi(attempt.saturating_sub(1) as i32), 0.0);
        let capped = exp.min(self.backoff_cap.as_secs_f64());
        let secs = if self.jitter {
            ctx.with_rng(|r| r.gen_range_f64(0.0, capped))
        } else {
            capped
        };
        SimDuration::from_secs_f64(secs)
    }
}

/// Trace label for a retry-triggering error.
fn retry_reason(err: &StorageError) -> &'static str {
    match err {
        StorageError::Throttled => "throttled",
        StorageError::Timeout => "timeout",
        _ => "error",
    }
}

/// Outcome statistics of a retried operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Attempts rejected by rate limiting.
    pub throttles: u32,
    /// Attempts abandoned at the timeout.
    pub timeouts: u32,
}

/// A storage client applying timeouts, retries and exponential backoff.
///
/// All operations share one retry driver (`with_retries`)
/// and therefore one failure classification:
///
/// * success → return the value plus [`RetryStats`] (`attempts == 1` means
///   the first try succeeded);
/// * `NotFound` / `TooLarge` / `InvalidRange` → returned as-is, never
///   retried;
/// * `Throttled` (counted) and any other service error → backoff + retry;
/// * an attempt outliving the size-based timeout is abandoned, counted as
///   a timeout, and retried;
/// * after `max_attempts` the last error is wrapped in
///   [`StorageError::RetriesExhausted`].
#[derive(Clone)]
pub struct RetryingClient {
    /// The wrapped service handle.
    pub storage: Storage,
    /// Simulation context (for timers and jitter).
    pub ctx: SimCtx,
    /// Timeout/backoff policy.
    pub policy: RetryPolicy,
    /// Trace lane allocated to this client (clones share it), so concurrent
    /// clients' retry instants land on distinct Chrome-trace rows.
    lane: u64,
    metrics: ClientMetrics,
}

/// Cached telemetry counters shared by all clones of one client
/// (DESIGN.md §10); all no-ops without a registry.
#[derive(Clone)]
struct ClientMetrics {
    retries: Counter,
    throttles: Counter,
    timeouts: Counter,
    exhausted: Counter,
}

impl RetryingClient {
    /// Wrap a service handle. Allocates this client's trace lane (0 when
    /// tracing is disabled).
    pub fn new(storage: Storage, ctx: SimCtx, policy: RetryPolicy) -> Self {
        let lane = ctx.tracer().next_lane();
        let reg = ctx.metrics();
        let metrics = ClientMetrics {
            retries: reg.counter("storage.client.retries"),
            throttles: reg.counter("storage.client.throttles"),
            timeouts: reg.counter("storage.client.timeouts"),
            exhausted: reg.counter("storage.client.exhausted"),
        };
        RetryingClient {
            storage,
            ctx,
            policy,
            lane,
            metrics,
        }
    }

    /// The generic retry driver. `attempt` produces one request future per
    /// call; injected faults from the simulation's fault plan (if any) are
    /// applied before the real request — an injected throttle rejects after
    /// the service's reject latency, an injected timeout swallows the
    /// attempt until the client gives up on it.
    async fn with_retries<T, F, Fut>(
        &self,
        key: &str,
        expected_bytes: u64,
        mut attempt: F,
    ) -> Result<(T, RetryStats)>
    where
        F: FnMut() -> Fut,
        Fut: Future<Output = Result<T>>,
    {
        let mut stats = RetryStats::default();
        let timeout = self.policy.timeout_for(expected_bytes);
        let faults = self.ctx.faults();
        loop {
            stats.attempts += 1;
            let injected = faults.sample_storage_fault();
            let outcome = match injected {
                Some(StorageFault::Throttle) => {
                    self.ctx
                        .tracer()
                        .instant(&self.ctx, "storage-client", self.lane, "fault-throttle")
                        .attr("key", key);
                    self.ctx.sleep(REJECT_LATENCY).await;
                    Either::Left(Err(StorageError::Throttled))
                }
                Some(StorageFault::Timeout) => {
                    self.ctx
                        .tracer()
                        .instant(&self.ctx, "storage-client", self.lane, "fault-timeout")
                        .attr("key", key);
                    self.ctx.sleep(timeout).await;
                    Either::Right(())
                }
                None => race(attempt(), self.ctx.sleep(timeout)).await,
            };
            let err = match outcome {
                Either::Left(Ok(value)) => return Ok((value, stats)),
                Either::Left(Err(
                    e @ (StorageError::NotFound { .. }
                    | StorageError::TooLarge { .. }
                    | StorageError::InvalidRange { .. }),
                )) => {
                    return Err(e); // not retryable
                }
                Either::Left(Err(e)) => {
                    if e == StorageError::Throttled {
                        stats.throttles += 1;
                        self.metrics.throttles.inc();
                    }
                    e
                }
                Either::Right(()) => {
                    stats.timeouts += 1;
                    self.metrics.timeouts.inc();
                    StorageError::Timeout
                }
            };
            if stats.attempts >= self.policy.max_attempts {
                self.metrics.exhausted.inc();
                return Err(StorageError::RetriesExhausted {
                    attempts: stats.attempts,
                    last: err.to_string(),
                });
            }
            self.metrics.retries.inc();
            self.ctx
                .tracer()
                .instant(&self.ctx, "storage-client", self.lane, "retry")
                .attr("attempt", stats.attempts)
                .attr("reason", retry_reason(&err))
                .attr("key", key);
            self.ctx
                .sleep(self.policy.backoff(&self.ctx, stats.attempts))
                .await;
        }
    }

    /// Read `range` with retries. `expected_bytes` sizes the timeout; it
    /// may differ from the range's length when the object is logically
    /// scaled.
    pub async fn read(
        &self,
        key: &str,
        range: ByteRange,
        expected_bytes: u64,
        opts: &RequestOpts,
    ) -> Result<(ObjectRead, RetryStats)> {
        self.with_retries(key, expected_bytes, || self.storage.read(key, range, opts))
            .await
    }

    /// PUT with retries.
    pub async fn put(&self, key: &str, blob: Blob, opts: &RequestOpts) -> Result<RetryStats> {
        let expected = blob.logical_len();
        let ((), stats) = self
            .with_retries(key, expected, || self.storage.put(key, blob.clone(), opts))
            .await?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamodb::DynamoConfig;
    use skyrise_pricing::shared_meter;
    use skyrise_sim::Sim;

    /// Whole, ranged and suffix reads share one retry driver: each
    /// throttles against a drained table, backs off, then succeeds.
    #[test]
    fn read_counts_throttles_then_succeeds() {
        for (seed, range, len) in [
            (1, ByteRange::Full, 64),
            (7, ByteRange::Bytes { offset: 0, len: 32 }, 32),
            (14, ByteRange::Suffix(8), 8),
        ] {
            let mut sim = Sim::new(seed);
            let ctx = sim.ctx();
            let meter = shared_meter();
            let h = sim.spawn(async move {
                // A tiny-capacity table: the first burst throttles, backoff
                // waits for token refill, a later attempt succeeds.
                let cfg = DynamoConfig {
                    read_iops: 2.0,
                    burst_seconds: 0.5,
                    ..DynamoConfig::default()
                };
                let table = DynamoTable::new(ctx.clone(), meter, cfg, None);
                table.backdoor().put("k", Blob::new(vec![0u8; 64]));
                let client = RetryingClient::new(
                    Storage::Dynamo(Rc::clone(&table)),
                    ctx.clone(),
                    RetryPolicy::default(),
                );
                let opts = RequestOpts::default();
                // Drain the tiny burst so the client's first attempts throttle.
                let _ = table.read("k", ByteRange::Full, &opts).await;
                let _ = table.read("k", ByteRange::Full, &opts).await;
                client.read("k", range, 64, &opts).await
            });
            sim.run();
            let (read, stats) = h.try_take().unwrap().unwrap();
            assert_eq!(read.blob.len(), len, "{range:?}");
            assert_eq!(read.transferred, 64, "{range:?}: DynamoDB moves the item");
            assert!(
                stats.attempts >= 2,
                "{range:?}: attempts {}",
                stats.attempts
            );
            assert!(
                stats.throttles >= 1,
                "{range:?}: throttles {}",
                stats.throttles
            );
        }
    }

    #[test]
    fn not_found_is_not_retried() {
        let mut sim = Sim::new(2);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let bucket = S3Bucket::standard(&ctx, &meter);
            let client =
                RetryingClient::new(Storage::S3(bucket), ctx.clone(), RetryPolicy::default());
            let t0 = ctx.now();
            let err = client
                .read("missing", ByteRange::Full, 64, &RequestOpts::default())
                .await
                .unwrap_err();
            ((ctx.now() - t0).as_secs_f64(), err)
        });
        sim.run();
        let (elapsed, err) = h.try_take().unwrap();
        assert!(matches!(err, StorageError::NotFound { .. }));
        assert!(elapsed < 0.05, "no backoff loop: {elapsed}");
    }

    #[test]
    fn retries_exhaust_against_dead_capacity() {
        let mut sim = Sim::new(3);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let cfg = DynamoConfig {
                read_iops: 1e-9, // effectively zero
                burst_seconds: 0.0,
                ..DynamoConfig::default()
            };
            let table = DynamoTable::new(ctx.clone(), meter, cfg, None);
            table.backdoor().put("k", Blob::new(vec![0u8; 64]));
            let policy = RetryPolicy {
                max_attempts: 3,
                jitter: false,
                ..RetryPolicy::default()
            };
            let client = RetryingClient::new(Storage::Dynamo(table), ctx.clone(), policy);
            client
                .read("k", ByteRange::Full, 64, &RequestOpts::default())
                .await
        });
        sim.run();
        let err = h.try_take().unwrap().unwrap_err();
        assert!(matches!(
            err,
            StorageError::RetriesExhausted { attempts: 3, .. }
        ));
    }

    #[test]
    fn telemetry_counts_retries_and_exhaustion() {
        let mut sim = Sim::new(3);
        let reg = sim.install_metrics();
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let cfg = DynamoConfig {
                read_iops: 1e-9, // effectively zero
                burst_seconds: 0.0,
                ..DynamoConfig::default()
            };
            let table = DynamoTable::new(ctx.clone(), meter, cfg, None);
            table.backdoor().put("k", Blob::new(vec![0u8; 64]));
            let policy = RetryPolicy {
                max_attempts: 3,
                jitter: false,
                ..RetryPolicy::default()
            };
            let client = RetryingClient::new(Storage::Dynamo(table), ctx.clone(), policy);
            client
                .read("k", ByteRange::Full, 64, &RequestOpts::default())
                .await
        });
        sim.run();
        assert!(h.try_take().unwrap().is_err());
        let snap = reg.snapshot();
        // 3 attempts: 2 backoff retries, then exhaustion on the third.
        assert_eq!(snap.counters["storage.client.retries"], 2);
        assert_eq!(snap.counters["storage.client.throttles"], 3);
        assert_eq!(snap.counters["storage.client.exhausted"], 1);
        // Per-backend core counters see the failed ops too.
        assert_eq!(snap.counters["storage.dynamodb.ops_failed"], 3);
    }

    #[test]
    fn put_counts_throttles_then_succeeds() {
        let mut sim = Sim::new(8);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let cfg = DynamoConfig {
                write_iops: 2.0,
                burst_seconds: 0.5,
                ..DynamoConfig::default()
            };
            let table = DynamoTable::new(ctx.clone(), meter, cfg, None);
            let client = RetryingClient::new(
                Storage::Dynamo(Rc::clone(&table)),
                ctx.clone(),
                RetryPolicy::default(),
            );
            let opts = RequestOpts::default();
            // Drain the write burst first.
            let _ = table.put("a", Blob::new(vec![0u8; 8]), &opts).await;
            let _ = table.put("b", Blob::new(vec![0u8; 8]), &opts).await;
            client.put("k", Blob::new(vec![0u8; 64]), &opts).await
        });
        sim.run();
        let stats = h.try_take().unwrap().unwrap();
        assert!(stats.attempts >= 2, "attempts {}", stats.attempts);
        assert!(stats.throttles >= 1, "throttles {}", stats.throttles);
    }

    #[test]
    fn put_timeouts_exhaust_like_get() {
        let mut sim = Sim::new(10);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let bucket = S3Bucket::standard(&ctx, &meter);
            let policy = RetryPolicy {
                base_timeout: SimDuration::from_millis(1),
                max_attempts: 4,
                jitter: false,
                ..RetryPolicy::default()
            };
            let client = RetryingClient::new(Storage::S3(bucket), ctx.clone(), policy);
            client
                .put("k", Blob::new(vec![0u8; 64]), &RequestOpts::default())
                .await
        });
        sim.run();
        let err = h.try_take().unwrap().unwrap_err();
        assert!(
            matches!(&err, StorageError::RetriesExhausted { attempts: 4, last } if last.contains("timed out")),
            "{err:?}"
        );
    }

    #[test]
    fn injected_storage_throttles_are_counted_by_plan_and_stats() {
        let mut sim = Sim::new(11);
        let plan = sim.install_faults(skyrise_sim::FaultConfig {
            storage_throttle_prob: 1.0,
            ..skyrise_sim::FaultConfig::default()
        });
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let bucket = S3Bucket::standard(&ctx, &meter);
            let opts = RequestOpts::default();
            bucket
                .put("k", Blob::new(vec![0u8; 64]), &opts)
                .await
                .unwrap();
            let policy = RetryPolicy {
                max_attempts: 3,
                jitter: false,
                ..RetryPolicy::default()
            };
            let client = RetryingClient::new(Storage::S3(bucket), ctx.clone(), policy);
            client.read("k", ByteRange::Full, 64, &opts).await
        });
        sim.run();
        let err = h.try_take().unwrap().unwrap_err();
        assert!(
            matches!(&err, StorageError::RetriesExhausted { attempts: 3, last } if last.contains("throttled")),
            "{err:?}"
        );
        // Every attempt was preempted by an injected throttle; the raw
        // bucket `put` above bypasses the client and samples nothing.
        assert_eq!(plan.stats().storage_throttles, 3);
    }

    #[test]
    fn timeout_triggers_retry_for_slow_tail() {
        // With a 1 ms timeout every attempt times out: the client must
        // classify them as timeouts, back off, and eventually give up,
        // whatever the range.
        for (seed, range) in [
            (4, ByteRange::Full),
            (9, ByteRange::Bytes { offset: 0, len: 32 }),
        ] {
            let mut sim = Sim::new(seed);
            let ctx = sim.ctx();
            let meter = shared_meter();
            let h = sim.spawn(async move {
                let bucket = S3Bucket::standard(&ctx, &meter);
                let opts = RequestOpts::default();
                bucket
                    .put("k", Blob::new(vec![0u8; 64]), &opts)
                    .await
                    .unwrap();
                let policy = RetryPolicy {
                    base_timeout: SimDuration::from_millis(1),
                    max_attempts: 4,
                    jitter: false,
                    ..RetryPolicy::default()
                };
                let client = RetryingClient::new(Storage::S3(bucket), ctx.clone(), policy);
                client.read("k", range, 0, &opts).await
            });
            sim.run();
            let err = h.try_take().unwrap().unwrap_err();
            assert!(
                matches!(&err, StorageError::RetriesExhausted { attempts: 4, last } if last.contains("timed out")),
                "{range:?}: {err:?}"
            );
        }
    }

    #[test]
    fn backoff_grows_exponentially_without_jitter() {
        let mut sim = Sim::new(5);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let policy = RetryPolicy {
                jitter: false,
                ..RetryPolicy::default()
            };
            (
                policy.backoff(&ctx, 1).as_millis(),
                policy.backoff(&ctx, 2).as_millis(),
                policy.backoff(&ctx, 3).as_millis(),
                policy.backoff(&ctx, 20).as_millis(),
            )
        });
        sim.run();
        let (b1, b2, b3, bcap) = h.try_take().unwrap();
        assert_eq!((b1, b2, b3), (100, 200, 400));
        assert_eq!(bcap, 20_000, "capped");
    }

    #[test]
    fn size_based_timeout_scales() {
        let policy = RetryPolicy::default();
        let small = policy.timeout_for(0);
        let big = policy.timeout_for(64 << 20);
        assert_eq!(small.as_millis(), 200);
        // 64 MiB at 40 MiB/s expected, x2 slack = 3.2 s extra.
        assert!(
            (big.as_secs_f64() - 3.4).abs() < 0.05,
            "{}",
            big.as_secs_f64()
        );
    }

    #[test]
    fn storage_enum_dispatches_names() {
        let mut sim = Sim::new(6);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let s3 = Storage::S3(S3Bucket::standard(&ctx, &meter));
            let xp = Storage::S3(S3Bucket::express(&ctx, &meter));
            let dy = Storage::Dynamo(DynamoTable::on_demand(&ctx, &meter));
            let ef = Storage::Efs(EfsFilesystem::elastic(&ctx, &meter));
            vec![s3.name(), xp.name(), dy.name(), ef.name()]
        });
        sim.run();
        assert_eq!(
            h.try_take().unwrap(),
            vec!["S3 Standard", "S3 Express", "DynamoDB", "EFS"]
        );
    }
}
