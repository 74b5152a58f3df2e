//! The S3 object-store simulation: Standard and Express One Zone classes.
//!
//! Mechanisms modelled (paper Secs. 2.2, 4.3, 4.4):
//!
//! * **Prefix partitions** (Standard): the key space is backed by `n`
//!   physical partitions, each serving 5.5K read / 3.5K write IOPS.
//!   Requests beyond capacity are throttled with `503 SlowDown`.
//! * **IOPS scale-up**: sustained overload (≥ ~85% of aggregate read
//!   capacity for ≥ `split_interval`) adds a partition — linear-with-delay
//!   scaling, calibrated to the paper's 1→5 partitions in ~26 minutes.
//! * **Write IOPS do not scale**: the paper could not push writes past a
//!   single partition's 3.5K even with 85M requests of sustained load, so
//!   writes are admitted against a fixed global limiter.
//! * **Scale-down**: after ~1.5 days without sustained overload the bucket
//!   drops to two partitions, after ~4.5 days to one (Fig. 13). Brief
//!   probes do not count as sustained load.
//! * **Latency**: heavy-tailed; Standard reads have a 27 ms median, 75 ms
//!   p95 and multi-second outliers; Express sits around 5 ms (Fig. 10).
//! * **Express**: no prefix-partition quota; 220K read / 42K write IOPS
//!   ceilings; zonal low latency; per-GiB transfer fees are metered by
//!   `skyrise-pricing`.

use crate::core::{Admission, OpsLimiter, PerDirection, RequestOpts, ServiceCore, ServiceModel};
use crate::error::Result;
use crate::object::{Blob, ByteRange, KeyedStore, ObjectRead};
use skyrise_pricing::{SharedMeter, StorageService};
use skyrise_sim::{LatencyDist, SimCtx, SimDuration, SimTime, GIB, MIB};
use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

/// Storage class of a bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum S3Class {
    /// S3 Standard: cheapest, prefix-partitioned, heavy-tailed latency.
    Standard,
    /// S3 Express One Zone: low latency, high IOPS, transfer fees.
    Express,
}

/// Tunable parameters of the S3 model. Defaults encode the paper's
/// observations; experiments occasionally scale them.
#[derive(Debug, Clone)]
pub struct S3Config {
    /// Which storage class this bucket is.
    pub class: S3Class,
    /// Read IOPS served per prefix partition (Standard).
    pub read_iops_per_partition: f64,
    /// Global write IOPS (Standard; does not scale with partitions).
    pub write_iops: f64,
    /// Express account-level read IOPS ceiling.
    pub express_read_iops: f64,
    /// Express account-level write IOPS ceiling.
    pub express_write_iops: f64,
    /// Sustained overload needed before a partition split.
    pub split_interval: SimDuration,
    /// Fraction of aggregate capacity that counts as overload.
    pub overload_threshold: f64,
    /// Idle time (since last sustained overload) until merge to 2 partitions.
    pub merge_to_two_after: SimDuration,
    /// Idle time until merge to 1 partition.
    pub merge_to_one_after: SimDuration,
    /// Hard ceiling on partitions.
    pub max_partitions: usize,
    /// Load-tracking window.
    pub window: SimDuration,
    /// Per-request streaming bandwidth, reads (bytes/s).
    pub read_bw: f64,
    /// Per-request streaming bandwidth, writes (bytes/s).
    pub write_bw: f64,
    /// Aggregate service bandwidth (bytes/s) per direction.
    pub aggregate_bw: f64,
    /// Maximum object size (bytes).
    pub max_object: u64,
}

impl S3Config {
    /// S3 Standard defaults.
    pub fn standard() -> Self {
        S3Config {
            class: S3Class::Standard,
            read_iops_per_partition: 5_500.0,
            write_iops: 3_500.0,
            express_read_iops: 220_000.0,
            express_write_iops: 42_000.0,
            split_interval: SimDuration::from_secs(315),
            overload_threshold: 0.85,
            merge_to_two_after: SimDuration::from_hours(36),
            merge_to_one_after: SimDuration::from_hours(108),
            max_partitions: 1_024,
            window: SimDuration::from_secs(2),
            read_bw: 90.0 * MIB as f64,
            write_bw: 55.0 * MIB as f64,
            aggregate_bw: 260.0 * GIB as f64,
            max_object: 5 << 40,
        }
    }

    /// S3 Express One Zone defaults.
    pub fn express() -> Self {
        S3Config {
            class: S3Class::Express,
            read_bw: 100.0 * MIB as f64,
            write_bw: 85.0 * MIB as f64,
            ..S3Config::standard()
        }
    }
}

/// Latency model per class (read, write).
fn latency_models(class: S3Class) -> PerDirection<LatencyDist> {
    match class {
        // Medians/p95s straight from Fig. 10; tails reach ~10 s (374x the
        // median for the slowest of 1M requests).
        S3Class::Standard => PerDirection::rw(
            LatencyDist::from_quantiles(0.027, 0.075, 8e-4, 10.5),
            LatencyDist::from_quantiles(0.040, 0.105, 8e-4, 10.5),
        ),
        S3Class::Express => PerDirection::rw(
            LatencyDist::from_quantiles(0.005, 0.0068, 1e-4, 1.2),
            LatencyDist::from_quantiles(0.006, 0.009, 1e-4, 1.2),
        ),
    }
}

/// Partition-scaling state of a Standard bucket.
#[derive(Debug)]
struct ScalingState {
    partitions: usize,
    window_start: SimTime,
    offered_reads: u64,
    overload_since: Option<SimTime>,
    /// End of the most recent *sustained* overload period (never set for
    /// buckets that only ever saw light traffic).
    last_sustained: Option<SimTime>,
    read_admission: OpsLimiter,
}

/// S3's admission policy: per-partition read IOPS that scale with
/// sustained load (Standard), fixed account ceilings (Express), and a
/// write quota that does not scale.
pub(crate) struct S3Admission {
    cfg: S3Config,
    ctx: SimCtx,
    scaling: RefCell<ScalingState>,
    write_admission: OpsLimiter,
    /// Express-only global read limiter.
    express_read: OpsLimiter,
}

impl S3Admission {
    fn service(&self) -> StorageService {
        match self.cfg.class {
            S3Class::Standard => StorageService::S3Standard,
            S3Class::Express => StorageService::S3Express,
        }
    }
}

impl Admission for S3Admission {
    /// Update scaling state for the elapsed windows and count the offered
    /// read. Splits and merges happen here, lazily.
    fn offered(&self, now: SimTime, write: bool) {
        if self.cfg.class == S3Class::Express {
            return;
        }
        let mut s = self.scaling.borrow_mut();
        // Merge check first: long-idle buckets shrink before admitting.
        if let Some(last) = s.last_sustained {
            let idle = now.duration_since(last);
            let target = if idle >= self.cfg.merge_to_one_after {
                1
            } else if idle >= self.cfg.merge_to_two_after {
                2
            } else {
                usize::MAX
            };
            if s.partitions > target {
                self.ctx
                    .tracer()
                    .instant(&self.ctx, self.service().name(), 0, "partition-merge")
                    .attr("from", s.partitions)
                    .attr("to", target);
                s.partitions = target;
                s.read_admission
                    .set_rate(target as f64 * self.cfg.read_iops_per_partition);
            }
        }
        // Window roll-over.
        let elapsed = now.duration_since(s.window_start);
        if elapsed >= self.cfg.window {
            let rate = s.offered_reads as f64 / elapsed.as_secs_f64();
            let capacity = s.partitions as f64 * self.cfg.read_iops_per_partition;
            let overloaded = rate > self.cfg.overload_threshold * capacity;
            if overloaded {
                let window_start = s.window_start;
                let since = *s.overload_since.get_or_insert(window_start);
                let streak = now.duration_since(since);
                if streak >= self.cfg.split_interval {
                    s.last_sustained = Some(now);
                    if s.partitions < self.cfg.max_partitions {
                        s.partitions += 1;
                        s.read_admission
                            .set_rate(s.partitions as f64 * self.cfg.read_iops_per_partition);
                        self.ctx
                            .tracer()
                            .instant(&self.ctx, self.service().name(), 0, "partition-split")
                            .attr("partitions", s.partitions);
                    }
                    // Another full interval of overload earns the next split.
                    s.overload_since = Some(now);
                }
            } else {
                s.overload_since = None;
            }
            s.window_start = now;
            s.offered_reads = 0;
        }
        if !write {
            s.offered_reads += 1;
        }
    }

    fn admit(&self, now: SimTime, write: bool) -> bool {
        match (self.cfg.class, write) {
            (S3Class::Standard, false) => self.scaling.borrow().read_admission.try_admit(now),
            (S3Class::Express, false) => self.express_read.try_admit(now),
            (_, true) => self.write_admission.try_admit(now),
        }
    }
}

/// A simulated S3 bucket (Standard or Express).
pub struct S3Bucket {
    pub(crate) core: ServiceCore<S3Admission>,
}

impl S3Bucket {
    /// Create a bucket.
    pub fn new(ctx: SimCtx, meter: SharedMeter, cfg: S3Config) -> Rc<Self> {
        let write_iops = match cfg.class {
            S3Class::Standard => cfg.write_iops,
            S3Class::Express => cfg.express_write_iops,
        };
        let admission = S3Admission {
            ctx: ctx.clone(),
            scaling: RefCell::new(ScalingState {
                partitions: 1,
                window_start: ctx.now(),
                offered_reads: 0,
                overload_since: None,
                last_sustained: None,
                read_admission: OpsLimiter::new(cfg.read_iops_per_partition, 0.2),
            }),
            write_admission: OpsLimiter::new(write_iops, 0.2),
            express_read: OpsLimiter::new(cfg.express_read_iops, 0.2),
            cfg,
        };
        let cfg = &admission.cfg;
        let model = ServiceModel {
            service: admission.service(),
            latency: latency_models(cfg.class),
            per_request_bw: PerDirection::rw(cfg.read_bw, cfg.write_bw),
            aggregate_bw: PerDirection::rw(cfg.aggregate_bw, cfg.aggregate_bw),
            max_object: cfg.max_object,
            max_inflight: None,
            native_ranges: true,
        };
        Rc::new(S3Bucket {
            core: ServiceCore::new(ctx, meter, model, admission),
        })
    }

    /// Standard-class bucket with default parameters.
    pub fn standard(ctx: &SimCtx, meter: &SharedMeter) -> Rc<Self> {
        S3Bucket::new(ctx.clone(), Rc::clone(meter), S3Config::standard())
    }

    /// Express-class bucket with default parameters.
    pub fn express(ctx: &SimCtx, meter: &SharedMeter) -> Rc<Self> {
        S3Bucket::new(ctx.clone(), Rc::clone(meter), S3Config::express())
    }

    /// Which of the two S3 services this bucket is.
    pub fn service(&self) -> StorageService {
        self.core.admission.service()
    }

    /// Current prefix-partition count (always 1 for Express).
    pub fn partition_count(&self) -> usize {
        self.core.admission.scaling.borrow().partitions
    }

    /// Pretend the bucket has recently sustained enough load to hold `n`
    /// partitions (used to set up "warmed bucket" experiment arms).
    pub fn warm_to(&self, n: usize) {
        let cfg = &self.core.admission.cfg;
        let mut s = self.core.admission.scaling.borrow_mut();
        s.partitions = n.clamp(1, cfg.max_partitions);
        s.read_admission
            .set_rate(s.partitions as f64 * cfg.read_iops_per_partition);
        s.last_sustained = Some(self.core.ctx.now());
    }

    /// Direct access to the backing object map (dataset setup in tests
    /// and benchmarks; not billed).
    pub fn backdoor(&self) -> &KeyedStore {
        &self.core.store
    }

    /// GET `range` of an object; timing and cost use the range's logical
    /// size.
    pub fn read<'a>(
        &'a self,
        key: &'a str,
        range: ByteRange,
        opts: &'a RequestOpts,
    ) -> impl Future<Output = Result<ObjectRead>> + 'a {
        self.core.read(key, range, opts)
    }

    /// PUT an object.
    pub fn put<'a>(
        &'a self,
        key: &'a str,
        blob: Blob,
        opts: &'a RequestOpts,
    ) -> impl Future<Output = Result<()>> + 'a {
        self.core.write(key, blob, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use skyrise_pricing::shared_meter;
    use skyrise_sim::{join_all, Sim};

    fn run_in_sim<T: 'static>(
        seed: u64,
        f: impl FnOnce(SimCtx, SharedMeter) -> std::pin::Pin<Box<dyn std::future::Future<Output = T>>>
            + 'static,
    ) -> T {
        let mut sim = Sim::new(seed);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(f(ctx, meter));
        sim.run();
        h.try_take().expect("task finished")
    }

    #[test]
    fn put_get_roundtrip() {
        let ok = run_in_sim(1, |ctx, meter| {
            Box::pin(async move {
                let bucket = S3Bucket::standard(&ctx, &meter);
                let opts = RequestOpts::default();
                bucket
                    .put("data/part-0", Blob::new(vec![7u8; 1024]), &opts)
                    .await
                    .unwrap();
                let got = bucket
                    .read("data/part-0", ByteRange::Full, &opts)
                    .await
                    .unwrap();
                got.blob.bytes[..] == [7u8; 1024][..]
            })
        });
        assert!(ok);
    }

    #[test]
    fn get_missing_is_not_found() {
        run_in_sim(1, |ctx, meter| {
            Box::pin(async move {
                let bucket = S3Bucket::standard(&ctx, &meter);
                let err = bucket
                    .read("nope", ByteRange::Full, &RequestOpts::default())
                    .await
                    .unwrap_err();
                assert!(matches!(err, StorageError::NotFound { .. }));
            })
        });
    }

    #[test]
    fn read_latency_matches_fig10() {
        let (med, p95) = run_in_sim(2, |ctx, meter| {
            Box::pin(async move {
                let bucket = S3Bucket::standard(&ctx, &meter);
                let opts = RequestOpts::default();
                bucket
                    .put("k", Blob::new(vec![0u8; 1024]), &opts)
                    .await
                    .unwrap();
                let mut lat = Vec::new();
                for _ in 0..2000 {
                    let t0 = ctx.now();
                    bucket.read("k", ByteRange::Full, &opts).await.unwrap();
                    lat.push((ctx.now() - t0).as_secs_f64());
                    // Pace below the IOPS limit.
                    ctx.sleep(SimDuration::from_millis(1)).await;
                }
                lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
                (lat[1000], lat[1900])
            })
        });
        assert!((med - 0.027).abs() < 0.006, "median {med}");
        assert!(p95 > 0.05 && p95 < 0.12, "p95 {p95}");
    }

    #[test]
    fn express_is_an_order_of_magnitude_faster() {
        let med = run_in_sim(3, |ctx, meter| {
            Box::pin(async move {
                let bucket = S3Bucket::express(&ctx, &meter);
                let opts = RequestOpts::default();
                bucket
                    .put("k", Blob::new(vec![0u8; 1024]), &opts)
                    .await
                    .unwrap();
                let mut lat = Vec::new();
                for _ in 0..500 {
                    let t0 = ctx.now();
                    bucket.read("k", ByteRange::Full, &opts).await.unwrap();
                    lat.push((ctx.now() - t0).as_secs_f64());
                }
                lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
                lat[250]
            })
        });
        assert!((med - 0.005).abs() < 0.002, "median {med}");
    }

    #[test]
    fn single_partition_throttles_beyond_5500_reads() {
        let (ok, throttled) = run_in_sim(4, |ctx, meter| {
            Box::pin(async move {
                let bucket = S3Bucket::standard(&ctx, &meter);
                let opts = RequestOpts::default();
                bucket
                    .put("k", Blob::new(vec![0u8; 100]), &opts)
                    .await
                    .unwrap();
                // Offer 8K requests over one second.
                let handles: Vec<_> = (0..8000u32)
                    .map(|i| {
                        let bucket = Rc::clone(&bucket);
                        let ctx2 = ctx.clone();
                        ctx.spawn(async move {
                            ctx2.sleep(SimDuration::from_micros(i as u64 * 125)).await;
                            bucket
                                .read("k", ByteRange::Full, &RequestOpts::default())
                                .await
                                .is_ok()
                        })
                    })
                    .collect();
                let results = join_all(handles).await;
                let ok = results.iter().filter(|&&b| b).count();
                (ok, results.len() - ok)
            })
        });
        // Capacity ~5.5K/s plus the 1s burst allowance.
        assert!((5500..=7200).contains(&ok), "ok {ok}");
        assert!(throttled >= 800, "throttled {throttled}");
    }

    #[test]
    fn sustained_overload_splits_partitions() {
        // Scaled-down parameters (1/100 IOPS, 30 s split interval) keep the
        // mechanism intact while the test spawns only ~17K requests.
        let partitions = run_in_sim(5, |ctx, meter| {
            Box::pin(async move {
                let cfg = S3Config {
                    read_iops_per_partition: 55.0,
                    split_interval: SimDuration::from_secs(30),
                    window: SimDuration::from_secs(1),
                    ..S3Config::standard()
                };
                let bucket = S3Bucket::new(ctx.clone(), Rc::clone(&meter), cfg);
                let opts = RequestOpts::default();
                bucket
                    .put("k", Blob::new(vec![0u8; 100]), &opts)
                    .await
                    .unwrap();
                // ~120 offered IOPS for 140 s: expect multiple splits
                // (one per 30 s of sustained overload once a window rolls).
                // All requests are scheduled on a fixed open-loop timetable
                // so latency outliers cannot starve the load.
                let t0 = ctx.now();
                let handles: Vec<_> = (0..140u64 * 120)
                    .map(|i| {
                        let bucket = Rc::clone(&bucket);
                        let ctx2 = ctx.clone();
                        let at = t0 + SimDuration::from_micros(i * 8_333);
                        ctx.spawn(async move {
                            ctx2.sleep_until(at).await;
                            let _ = bucket
                                .read("k", ByteRange::Full, &RequestOpts::default())
                                .await;
                        })
                    })
                    .collect();
                join_all(handles).await;
                bucket.partition_count()
            })
        });
        assert!((2..=5).contains(&partitions), "partitions {partitions}");
    }

    #[test]
    fn express_has_no_partition_quota() {
        let ok = run_in_sim(6, |ctx, meter| {
            Box::pin(async move {
                let bucket = S3Bucket::express(&ctx, &meter);
                let opts = RequestOpts::default();
                bucket
                    .put("k", Blob::new(vec![0u8; 100]), &opts)
                    .await
                    .unwrap();
                // 50K reads over one second sail through (quota 220K).
                let handles: Vec<_> = (0..50_000u32)
                    .map(|i| {
                        let bucket = Rc::clone(&bucket);
                        let ctx2 = ctx.clone();
                        ctx.spawn(async move {
                            ctx2.sleep(SimDuration::from_micros(i as u64 * 20)).await;
                            bucket
                                .read("k", ByteRange::Full, &RequestOpts::default())
                                .await
                                .is_ok()
                        })
                    })
                    .collect();
                join_all(handles).await.iter().filter(|&&b| b).count()
            })
        });
        assert_eq!(ok, 50_000);
    }

    #[test]
    fn warm_bucket_merges_after_idle_days() {
        run_in_sim(7, |ctx, meter| {
            Box::pin(async move {
                let bucket = S3Bucket::standard(&ctx, &meter);
                bucket.warm_to(5);
                assert_eq!(bucket.partition_count(), 5);
                let opts = RequestOpts::default();
                bucket
                    .put("k", Blob::new(vec![0u8; 100]), &opts)
                    .await
                    .unwrap();
                // After 2 days idle: down to 2 partitions.
                ctx.sleep(SimDuration::from_days(2)).await;
                let _ = bucket.read("k", ByteRange::Full, &opts).await;
                assert_eq!(bucket.partition_count(), 2);
                // After 5 days total: back to 1.
                ctx.sleep(SimDuration::from_days(3)).await;
                let _ = bucket.read("k", ByteRange::Full, &opts).await;
                assert_eq!(bucket.partition_count(), 1);
            })
        });
    }

    #[test]
    fn brief_probes_do_not_prevent_downscale() {
        run_in_sim(8, |ctx, meter| {
            Box::pin(async move {
                let bucket = S3Bucket::standard(&ctx, &meter);
                bucket.warm_to(5);
                let opts = RequestOpts::default();
                bucket
                    .put("k", Blob::new(vec![0u8; 100]), &opts)
                    .await
                    .unwrap();
                // Hourly probes (a handful of requests) for 5 days.
                for _hour in 0..(5 * 24) {
                    ctx.sleep(SimDuration::from_hours(1)).await;
                    for _ in 0..5 {
                        let _ = bucket.read("k", ByteRange::Full, &opts).await;
                    }
                }
                assert_eq!(bucket.partition_count(), 1, "probes must not keep it warm");
            })
        });
    }

    #[test]
    fn writes_do_not_scale_with_partitions() {
        let (ok1, ok5) = run_in_sim(9, |ctx, meter| {
            Box::pin(async move {
                let measure = |bucket: Rc<S3Bucket>, ctx: SimCtx| async move {
                    let handles: Vec<_> = (0..6000u32)
                        .map(|i| {
                            let bucket = Rc::clone(&bucket);
                            let ctx2 = ctx.clone();
                            ctx.spawn(async move {
                                ctx2.sleep(SimDuration::from_micros(i as u64 * 160)).await;
                                bucket
                                    .put(
                                        &format!("w{i}"),
                                        Blob::new(vec![0u8; 64]),
                                        &RequestOpts::default(),
                                    )
                                    .await
                                    .is_ok()
                            })
                        })
                        .collect();
                    join_all(handles).await.iter().filter(|&&b| b).count()
                };
                let b1 = S3Bucket::standard(&ctx, &meter);
                let ok1 = measure(Rc::clone(&b1), ctx.clone()).await;
                let b5 = S3Bucket::standard(&ctx, &meter);
                b5.warm_to(5);
                let ok5 = measure(b5, ctx.clone()).await;
                (ok1, ok5)
            })
        });
        let diff = (ok1 as f64 - ok5 as f64).abs() / ok1 as f64;
        assert!(diff < 0.1, "write capacity identical: {ok1} vs {ok5}");
    }

    #[test]
    fn requests_are_billed_including_failures() {
        run_in_sim(10, |ctx, meter| {
            Box::pin(async move {
                let bucket = S3Bucket::standard(&ctx, &meter.clone());
                let opts = RequestOpts::default();
                bucket
                    .put("k", Blob::new(vec![0u8; 100]), &opts)
                    .await
                    .unwrap();
                // Fire all 7000 at the same instant: ~1500 must throttle.
                let handles: Vec<_> = (0..7000)
                    .map(|_| {
                        let bucket = Rc::clone(&bucket);
                        ctx.spawn(async move {
                            let _ = bucket
                                .read("k", ByteRange::Full, &RequestOpts::default())
                                .await;
                        })
                    })
                    .collect();
                join_all(handles).await;
                let m = meter.borrow();
                let u = &m.storage[&StorageService::S3Standard];
                assert_eq!(u.read_requests, 7000);
                assert!(u.failed_requests > 0);
                let report = m.report();
                let expect = 7000.0 * 4e-7 + 5e-6;
                assert!((report.storage_request_usd - expect).abs() < 1e-9);
            })
        });
    }

    /// Scaling follows *offered* load, and a GET is offered before the key
    /// is looked up: a flood of requests for a missing key splits the
    /// bucket although not one of them is admitted or billed.
    #[test]
    fn missing_key_gets_still_count_as_offered_reads() {
        let meter = shared_meter();
        let meter2 = Rc::clone(&meter);
        let partitions = run_in_sim(5, move |ctx, _| {
            Box::pin(async move {
                let cfg = S3Config {
                    read_iops_per_partition: 55.0,
                    split_interval: SimDuration::from_secs(30),
                    window: SimDuration::from_secs(1),
                    ..S3Config::standard()
                };
                let bucket = S3Bucket::new(ctx.clone(), meter2, cfg);
                // 120 GETs per second for 70 s.
                for _ in 0..70 * 120 {
                    let out = bucket
                        .read("nope", ByteRange::Full, &RequestOpts::default())
                        .await;
                    assert!(matches!(out, Err(StorageError::NotFound { .. })));
                    ctx.sleep(SimDuration::from_micros(8_333)).await;
                }
                bucket.partition_count()
            })
        });
        assert!(partitions >= 2, "partitions {partitions}");
        assert!(meter.borrow().storage.is_empty());
    }
}
