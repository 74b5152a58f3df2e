//! The EFS shared-filesystem simulation (elastic throughput).
//!
//! Modelled behaviour (paper Secs. 2.2, 4.3):
//!
//! * Per-filesystem elastic-throughput quotas of 20 GiB/s reading and
//!   5 GiB/s writing — aggregate throughput converges to them (Fig. 8).
//! * Observed IOPS miss the documented per-filesystem quotas "by more than
//!   an order of magnitude": ~4.5K read / ~1.9K write sustained.
//! * Sharding over two filesystems doubles read IOPS but an account-level
//!   ceiling prevents further scaling (Fig. 9's EFS-1 vs EFS-2).
//! * Read latencies are as low as S3 Express; writes are 2–3× higher
//!   (Fig. 10) because of synchronous replication.
//! * A bounded number of concurrent NFS connections: under heavy
//!   contention (the paper: beyond 64 client VMs) new requests are
//!   rejected.

use crate::core::{
    PerDirection, RequestOpts, RwLimiters, ServiceCore, ServiceModel, TieredAdmission,
};
use crate::error::Result;
use crate::object::{Blob, ByteRange, KeyedStore, ObjectRead};
use skyrise_pricing::{SharedMeter, StorageService};
use skyrise_sim::{LatencyDist, SimCtx, GIB};
use std::future::Future;
use std::rc::Rc;

/// EFS model parameters.
#[derive(Debug, Clone)]
pub struct EfsConfig {
    /// Observed sustained read IOPS per filesystem.
    pub read_iops: f64,
    /// Observed sustained write IOPS per filesystem.
    pub write_iops: f64,
    /// Documented elastic-throughput read quota (the Fig. 9 quota line).
    pub documented_read_iops: f64,
    /// Documented elastic-throughput write quota.
    pub documented_write_iops: f64,
    /// Aggregate read bandwidth per filesystem (bytes/s).
    pub read_bw: f64,
    /// Aggregate write bandwidth per filesystem (bytes/s).
    pub write_bw: f64,
    /// Maximum concurrent in-flight requests before connections are
    /// rejected (64 client VMs x 32 threads in the paper's setup).
    pub max_inflight: u32,
    /// Admission burst window (seconds).
    pub burst_seconds: f64,
}

impl Default for EfsConfig {
    fn default() -> Self {
        EfsConfig {
            read_iops: 4_500.0,
            write_iops: 1_900.0,
            documented_read_iops: 55_000.0,
            documented_write_iops: 25_000.0,
            read_bw: 20.0 * GIB as f64,
            write_bw: 5.0 * GIB as f64,
            max_inflight: 64 * 32,
            burst_seconds: 0.5,
        }
    }
}

/// Account-level IOPS ceiling: read IOPS double with a second filesystem
/// "but do not scale further".
pub struct EfsAccount(RwLimiters);

impl EfsAccount {
    /// Account ceilings at twice the single-filesystem observation.
    pub fn new(cfg: &EfsConfig) -> Rc<Self> {
        Rc::new(EfsAccount(RwLimiters::new(
            cfg.read_iops * 2.0,
            cfg.write_iops * 2.0,
            cfg.burst_seconds,
        )))
    }
}

/// A simulated EFS filesystem.
pub struct EfsFilesystem {
    pub(crate) core: ServiceCore<TieredAdmission>,
}

impl EfsFilesystem {
    /// Create a filesystem.
    pub fn new(
        ctx: SimCtx,
        meter: SharedMeter,
        cfg: EfsConfig,
        account: Option<Rc<EfsAccount>>,
    ) -> Rc<Self> {
        let model = ServiceModel {
            service: StorageService::Efs,
            latency: PerDirection::rw(
                LatencyDist::from_quantiles(0.005, 0.009, 1e-4, 1.5),
                // 2-3x higher write latency than the other low-latency services.
                LatencyDist::from_quantiles(0.013, 0.026, 1e-4, 1.5),
            ),
            per_request_bw: PerDirection::rw(cfg.read_bw, cfg.write_bw),
            aggregate_bw: PerDirection::rw(cfg.read_bw, cfg.write_bw),
            max_object: u64::MAX,
            max_inflight: Some(cfg.max_inflight),
            native_ranges: false,
        };
        let admission = TieredAdmission {
            own: RwLimiters::new(cfg.read_iops, cfg.write_iops, cfg.burst_seconds),
            account: account.map(|a| a.0.clone()),
        };
        Rc::new(EfsFilesystem {
            core: ServiceCore::new(ctx, meter, model, admission),
        })
    }

    /// A filesystem with default elastic-throughput parameters.
    pub fn elastic(ctx: &SimCtx, meter: &SharedMeter) -> Rc<Self> {
        EfsFilesystem::new(ctx.clone(), Rc::clone(meter), EfsConfig::default(), None)
    }

    /// Dataset setup without billing.
    pub fn backdoor(&self) -> &KeyedStore {
        &self.core.store
    }

    /// Read a file. The model serves whole files: any `range` transfers
    /// and bills the full file.
    pub fn read<'a>(
        &'a self,
        path: &'a str,
        range: ByteRange,
        opts: &'a RequestOpts,
    ) -> impl Future<Output = Result<ObjectRead>> + 'a {
        self.core.read(path, range, opts)
    }

    /// Write a file (synchronous, durable on return).
    pub fn write<'a>(
        &'a self,
        path: &'a str,
        blob: Blob,
        opts: &'a RequestOpts,
    ) -> impl Future<Output = Result<()>> + 'a {
        self.core.write(path, blob, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use skyrise_pricing::shared_meter;
    use skyrise_sim::{join_all, Sim, SimDuration};

    #[test]
    fn write_then_read_roundtrip() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let fs = EfsFilesystem::elastic(&ctx, &meter);
            let opts = RequestOpts::default();
            fs.write("/data/f1", Blob::new(vec![9u8; 4096]), &opts)
                .await
                .unwrap();
            fs.read("/data/f1", ByteRange::Full, &opts)
                .await
                .unwrap()
                .blob
                .len()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 4096);
    }

    #[test]
    fn write_latency_2_to_3x_read_latency() {
        let mut sim = Sim::new(2);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let fs = EfsFilesystem::elastic(&ctx, &meter);
            let opts = RequestOpts::default();
            fs.write("/f", Blob::new(vec![0u8; 64]), &opts)
                .await
                .unwrap();
            let mut reads = Vec::new();
            let mut writes = Vec::new();
            for i in 0..300 {
                let t0 = ctx.now();
                fs.read("/f", ByteRange::Full, &opts).await.unwrap();
                reads.push((ctx.now() - t0).as_secs_f64());
                let t1 = ctx.now();
                fs.write(&format!("/w{i}"), Blob::new(vec![0u8; 64]), &opts)
                    .await
                    .unwrap();
                writes.push((ctx.now() - t1).as_secs_f64());
                ctx.sleep(SimDuration::from_millis(50)).await;
            }
            let med = |mut v: Vec<f64>| {
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                v[v.len() / 2]
            };
            (med(reads), med(writes))
        });
        sim.run();
        let (r, w) = h.try_take().unwrap();
        let ratio = w / r;
        assert!((1.8..=3.5).contains(&ratio), "write/read ratio {ratio}");
    }

    #[test]
    fn iops_miss_documented_quota_by_an_order_of_magnitude() {
        let cfg = EfsConfig::default();
        assert!(cfg.documented_read_iops / cfg.read_iops > 10.0);
        assert!(cfg.documented_write_iops / cfg.write_iops > 10.0);
    }

    #[test]
    fn read_iops_double_with_second_filesystem_but_account_caps() {
        let mut sim = Sim::new(3);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let cfg = EfsConfig {
                burst_seconds: 0.05,
                ..EfsConfig::default()
            };
            let run = |fss: Vec<Rc<EfsFilesystem>>, ctx: SimCtx| async move {
                for fs in &fss {
                    fs.backdoor().put("/k", Blob::new(vec![0u8; 512]));
                }
                let t0 = ctx.now();
                let handles: Vec<_> = (0..15_000u64)
                    .map(|i| {
                        let fs = Rc::clone(&fss[(i % fss.len() as u64) as usize]);
                        let ctx2 = ctx.clone();
                        let at = t0 + SimDuration::from_nanos(i * 66_000);
                        ctx.spawn(async move {
                            ctx2.sleep_until(at).await;
                            fs.read("/k", ByteRange::Full, &RequestOpts::default())
                                .await
                                .is_ok()
                        })
                    })
                    .collect();
                join_all(handles).await.iter().filter(|&&b| b).count()
            };
            let account = EfsAccount::new(&cfg);
            let one = run(
                vec![EfsFilesystem::new(
                    ctx.clone(),
                    meter.clone(),
                    cfg.clone(),
                    Some(account.clone()),
                )],
                ctx.clone(),
            )
            .await;
            ctx.sleep(SimDuration::from_secs(30)).await;
            let account2 = EfsAccount::new(&cfg);
            let two = run(
                vec![
                    EfsFilesystem::new(
                        ctx.clone(),
                        meter.clone(),
                        cfg.clone(),
                        Some(account2.clone()),
                    ),
                    EfsFilesystem::new(
                        ctx.clone(),
                        meter.clone(),
                        cfg.clone(),
                        Some(account2.clone()),
                    ),
                ],
                ctx.clone(),
            )
            .await;
            ctx.sleep(SimDuration::from_secs(30)).await;
            let account3 = EfsAccount::new(&cfg);
            let three = run(
                (0..3)
                    .map(|_| {
                        EfsFilesystem::new(
                            ctx.clone(),
                            meter.clone(),
                            cfg.clone(),
                            Some(account3.clone()),
                        )
                    })
                    .collect(),
                ctx.clone(),
            )
            .await;
            (one, two, three)
        });
        sim.run();
        let (one, two, three) = h.try_take().unwrap();
        assert!(
            (two as f64) / (one as f64) > 1.7,
            "second fs doubles: {one} -> {two}"
        );
        assert!(
            ((three as f64) - (two as f64)).abs() / (two as f64) < 0.15,
            "third fs does not help: {two} -> {three}"
        );
    }

    #[test]
    fn connection_limit_rejects_excess_clients() {
        let mut sim = Sim::new(4);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let cfg = EfsConfig {
                max_inflight: 8,
                ..EfsConfig::default()
            };
            let fs = EfsFilesystem::new(ctx.clone(), meter, cfg, None);
            fs.backdoor().put("/k", Blob::new(vec![0u8; 64]));
            let handles: Vec<_> = (0..32)
                .map(|_| {
                    let fs = Rc::clone(&fs);
                    ctx.spawn(async move {
                        matches!(
                            fs.read("/k", ByteRange::Full, &RequestOpts::default())
                                .await,
                            Err(StorageError::ConnectionRejected)
                        )
                    })
                })
                .collect();
            join_all(handles).await.iter().filter(|&&b| b).count()
        });
        sim.run();
        let rejected = h.try_take().unwrap();
        assert!(rejected >= 20, "rejected {rejected}");
    }
}
