//! The DynamoDB key-value store simulation (on-demand capacity,
//! strongly-consistent reads).
//!
//! Modelled behaviour (paper Secs. 2.2, 4.3):
//!
//! * 400 KiB item-size limit — larger puts fail client-side.
//! * On-demand tables admit ~16K read / 9.6K write IOPS (the paper measures
//!   "slightly more IOPS than defined by the quotas" of 12K/4K for new
//!   tables), with a short burst from unused capacity.
//! * Aggregate throughput saturates at ~380 MiB/s reading and ~30 MiB/s
//!   writing per table — a single loaded client VM already reaches it, and
//!   "sharding over multiple new on-demand tables does not yield higher
//!   throughput" (an account-level ceiling, also modelled).
//! * Latencies slightly below S3 Express but more variable (Fig. 10).

use crate::core::{
    PerDirection, RequestOpts, RwLimiters, ServiceCore, ServiceModel, TieredAdmission,
};
use crate::error::Result;
use crate::object::{Blob, ByteRange, KeyedStore, ObjectRead};
use skyrise_pricing::{SharedMeter, StorageService};
use skyrise_sim::{LatencyDist, SimCtx, MIB};
use std::future::Future;
use std::rc::Rc;

/// DynamoDB model parameters.
#[derive(Debug, Clone)]
pub struct DynamoConfig {
    /// Maximum item size (400 KiB).
    pub max_item: u64,
    /// Observed sustained read IOPS per on-demand table.
    pub read_iops: f64,
    /// Observed sustained write IOPS per on-demand table.
    pub write_iops: f64,
    /// Documented new-table read quota (the Fig. 9 quota line).
    pub documented_read_iops: f64,
    /// Documented new-table write quota.
    pub documented_write_iops: f64,
    /// Aggregate read bandwidth per table (bytes/s).
    pub read_bw: f64,
    /// Aggregate write bandwidth per table (bytes/s).
    pub write_bw: f64,
    /// Burst window (the "up to 5 minutes of unused capacity", shortened
    /// so experiments observe sustained rates).
    pub burst_seconds: f64,
}

impl Default for DynamoConfig {
    fn default() -> Self {
        DynamoConfig {
            max_item: 400 * 1024,
            read_iops: 16_000.0,
            write_iops: 9_600.0,
            documented_read_iops: 12_000.0,
            documented_write_iops: 4_000.0,
            read_bw: 380.0 * MIB as f64,
            write_bw: 30.0 * MIB as f64,
            burst_seconds: 1.0,
        }
    }
}

/// A simulated DynamoDB table.
pub struct DynamoTable {
    pub(crate) core: ServiceCore<TieredAdmission>,
}

/// Account-wide throughput ceiling shared by all tables created from it
/// (sharding over multiple tables does not raise throughput).
pub struct DynamoAccount(RwLimiters);

impl DynamoAccount {
    /// An account whose aggregate matches a single table's ceilings —
    /// the paper's observation that extra tables do not help.
    pub fn new(cfg: &DynamoConfig) -> Rc<Self> {
        Rc::new(DynamoAccount(RwLimiters::new(
            cfg.read_iops,
            cfg.write_iops,
            cfg.burst_seconds,
        )))
    }
}

impl DynamoTable {
    /// Create a table with explicit configuration.
    pub fn new(
        ctx: SimCtx,
        meter: SharedMeter,
        cfg: DynamoConfig,
        account: Option<Rc<DynamoAccount>>,
    ) -> Rc<Self> {
        let model = ServiceModel {
            service: StorageService::DynamoDb,
            latency: PerDirection::rw(
                LatencyDist::from_quantiles(0.004, 0.009, 3e-4, 2.5),
                LatencyDist::from_quantiles(0.005, 0.012, 3e-4, 2.5),
            ),
            per_request_bw: PerDirection::rw(cfg.read_bw, cfg.write_bw),
            aggregate_bw: PerDirection::rw(cfg.read_bw, cfg.write_bw),
            max_object: cfg.max_item,
            max_inflight: None,
            native_ranges: false,
        };
        let admission = TieredAdmission {
            own: RwLimiters::new(cfg.read_iops, cfg.write_iops, cfg.burst_seconds),
            account: account.map(|a| a.0.clone()),
        };
        Rc::new(DynamoTable {
            core: ServiceCore::new(ctx, meter, model, admission),
        })
    }

    /// A table with default on-demand parameters.
    pub fn on_demand(ctx: &SimCtx, meter: &SharedMeter) -> Rc<Self> {
        DynamoTable::new(ctx.clone(), Rc::clone(meter), DynamoConfig::default(), None)
    }

    /// Dataset setup without billing.
    pub fn backdoor(&self) -> &KeyedStore {
        &self.core.store
    }

    /// GetItem. DynamoDB has no ranged reads: any `range` transfers and
    /// bills the whole item.
    pub fn read<'a>(
        &'a self,
        key: &'a str,
        range: ByteRange,
        opts: &'a RequestOpts,
    ) -> impl Future<Output = Result<ObjectRead>> + 'a {
        self.core.read(key, range, opts)
    }

    /// PutItem. Items above 400 KiB are rejected before any I/O.
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
    use skyrise_sim::{join_all, Sim, SimDuration};

    #[test]
    fn item_size_limit_enforced() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let table = DynamoTable::on_demand(&ctx, &meter);
            let opts = RequestOpts::default();
            let err = table
                .put("big", Blob::synthetic(500 * 1024), &opts)
                .await
                .unwrap_err();
            let ok = table.put("ok", Blob::synthetic(400 * 1024), &opts).await;
            (err, ok.is_ok())
        });
        sim.run();
        let (err, ok) = h.try_take().unwrap();
        assert!(matches!(err, StorageError::TooLarge { .. }));
        assert!(ok);
    }

    #[test]
    fn read_iops_cap_at_16k() {
        let mut sim = Sim::new(2);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let cfg = DynamoConfig {
                burst_seconds: 0.1,
                ..DynamoConfig::default()
            };
            let table = DynamoTable::new(ctx.clone(), meter, cfg, None);
            table.backdoor().put("k", Blob::new(vec![0u8; 1024]));
            // Offer 25K reads over one second.
            let t0 = ctx.now();
            let handles: Vec<_> = (0..25_000u64)
                .map(|i| {
                    let table = Rc::clone(&table);
                    let ctx2 = ctx.clone();
                    let at = t0 + SimDuration::from_nanos(i * 40_000);
                    ctx.spawn(async move {
                        ctx2.sleep_until(at).await;
                        table
                            .read("k", ByteRange::Full, &RequestOpts::default())
                            .await
                            .is_ok()
                    })
                })
                .collect();
            join_all(handles).await.iter().filter(|&&b| b).count()
        });
        sim.run();
        let ok = h.try_take().unwrap();
        assert!((15_000..=19_000).contains(&ok), "ok {ok}");
    }

    #[test]
    fn account_ceiling_defeats_table_sharding() {
        let mut sim = Sim::new(3);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let cfg = DynamoConfig {
                burst_seconds: 0.1,
                ..DynamoConfig::default()
            };
            let account = DynamoAccount::new(&cfg);
            let t1 = DynamoTable::new(
                ctx.clone(),
                meter.clone(),
                cfg.clone(),
                Some(account.clone()),
            );
            let t2 = DynamoTable::new(ctx.clone(), meter, cfg, Some(account));
            t1.backdoor().put("k", Blob::new(vec![0u8; 512]));
            t2.backdoor().put("k", Blob::new(vec![0u8; 512]));
            let t0 = ctx.now();
            let handles: Vec<_> = (0..30_000u64)
                .map(|i| {
                    let table = if i % 2 == 0 {
                        Rc::clone(&t1)
                    } else {
                        Rc::clone(&t2)
                    };
                    let ctx2 = ctx.clone();
                    let at = t0 + SimDuration::from_nanos(i * 33_000);
                    ctx.spawn(async move {
                        ctx2.sleep_until(at).await;
                        table
                            .read("k", ByteRange::Full, &RequestOpts::default())
                            .await
                            .is_ok()
                    })
                })
                .collect();
            join_all(handles).await.iter().filter(|&&b| b).count()
        });
        sim.run();
        let ok = h.try_take().unwrap();
        // Two tables, but account-capped at ~16K/s (+burst), not 32K.
        assert!((15_000..=20_000).contains(&ok), "ok {ok}");
    }

    #[test]
    fn throttled_reads_error_and_cost() {
        let mut sim = Sim::new(4);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let meter2 = meter.clone();
        let h = sim.spawn(async move {
            let cfg = DynamoConfig {
                read_iops: 10.0,
                burst_seconds: 0.1,
                ..DynamoConfig::default()
            };
            let table = DynamoTable::new(ctx.clone(), meter2, cfg, None);
            table.backdoor().put("k", Blob::new(vec![0u8; 512]));
            let handles: Vec<_> = (0..100)
                .map(|_| {
                    let table = Rc::clone(&table);
                    ctx.spawn(async move {
                        table
                            .read("k", ByteRange::Full, &RequestOpts::default())
                            .await
                            .is_ok()
                    })
                })
                .collect();
            join_all(handles).await.iter().filter(|&&b| !b).count()
        });
        sim.run();
        let failed = h.try_take().unwrap();
        assert!(failed >= 90, "failed {failed}");
        let m = meter.borrow();
        assert_eq!(m.storage[&StorageService::DynamoDb].read_requests, 100);
        assert!(m.storage[&StorageService::DynamoDb].failed_requests >= 90);
    }
}
