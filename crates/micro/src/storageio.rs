//! The storage I/O measurement function (paper Sec. 3.1): "writes or
//! reads randomly generated files of fixed size and number to or from a
//! storage service. For latency measurements, the function calls the
//! synchronous storage service APIs. For throughput measurements, it
//! calls the asynchronous APIs from a fixed-size thread-pool."
//!
//! Behind Figs. 8–13.

use skyrise_net::SharedNic;
use skyrise_sim::{Histogram, IntervalSeries, JoinHandle, SimCtx, SimDuration, SimTime};
use skyrise_storage::{Blob, RequestOpts, Storage};
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

/// One client VM's workload share.
#[derive(Clone)]
pub struct StorageIoConfig {
    /// Number of client VMs.
    pub clients: usize,
    /// Dedicated threads per client (paper: 32).
    pub threads_per_client: usize,
    /// Request payload size.
    pub object_bytes: u64,
    /// Write (true) or read (false).
    pub write: bool,
    /// Measurement window.
    pub duration: SimDuration,
    /// Per-client NIC factory (`None` = unconstrained clients).
    pub client_nic: Option<Rc<dyn Fn() -> SharedNic>>,
    /// Number of pre-created objects per thread to read from.
    pub keyspace_per_thread: usize,
}

impl Default for StorageIoConfig {
    fn default() -> Self {
        StorageIoConfig {
            clients: 1,
            threads_per_client: 32,
            object_bytes: 1024,
            write: false,
            duration: SimDuration::from_secs(10),
            client_nic: None,
            keyspace_per_thread: 4,
        }
    }
}

/// Aggregate outcome of a storage I/O run.
#[derive(Debug, Clone)]
pub struct StorageIoResult {
    /// Successful operations per second.
    pub ops_per_sec: f64,
    /// Failed (throttled/timed-out) operations per second.
    pub failed_per_sec: f64,
    /// Successful payload bytes per second (logical).
    pub bytes_per_sec: f64,
    /// Per-request latency distribution (successes only).
    pub latency: Histogram,
    /// Successful ops over time (1 s buckets).
    pub ops_series: IntervalSeries,
    /// Failed ops over time (1 s buckets).
    pub fail_series: IntervalSeries,
}

/// Key for a benchmark object.
fn bench_key(client: usize, thread: usize, idx: usize) -> String {
    format!("bench/c{client:03}/t{thread:03}/o{idx:04}")
}

/// Pre-create the read working set (unbilled backdoor writes).
pub fn populate(storage: &Storage, cfg: &StorageIoConfig) {
    for c in 0..cfg.clients {
        for t in 0..cfg.threads_per_client {
            for i in 0..cfg.keyspace_per_thread {
                storage.backdoor_put(&bench_key(c, t, i), Blob::synthetic(cfg.object_bytes));
            }
        }
    }
}

/// What the closed-loop threads accumulate together.
struct LoopTotals {
    ok: Cell<u64>,
    failed: Cell<u64>,
    bytes: Cell<u64>,
    latency: RefCell<Histogram>,
    ok_series: RefCell<IntervalSeries>,
    fail_series: RefCell<IntervalSeries>,
}

impl LoopTotals {
    fn result(&self, elapsed: f64) -> StorageIoResult {
        StorageIoResult {
            ops_per_sec: self.ok.get() as f64 / elapsed,
            failed_per_sec: self.failed.get() as f64 / elapsed,
            bytes_per_sec: self.bytes.get() as f64 / elapsed,
            latency: self.latency.borrow().clone(),
            ops_series: self.ok_series.borrow().clone(),
            fail_series: self.fail_series.borrow().clone(),
        }
    }
}

/// Closed-loop benchmark: every thread issues the next request as soon as
/// the previous one completes, until the deadline.
pub async fn run_closed_loop(
    ctx: &SimCtx,
    storage: &Storage,
    cfg: &StorageIoConfig,
) -> StorageIoResult {
    populate(storage, cfg);
    let start = ctx.now();
    let deadline = start + cfg.duration;
    let second = SimDuration::from_secs(1);
    let totals = Rc::new(LoopTotals {
        ok: Cell::new(0),
        failed: Cell::new(0),
        bytes: Cell::new(0),
        latency: RefCell::new(Histogram::new()),
        ok_series: RefCell::new(IntervalSeries::new(start, second)),
        fail_series: RefCell::new(IntervalSeries::new(start, second)),
    });
    let (write, object_bytes) = (cfg.write, cfg.object_bytes);

    let mut handles = Vec::new();
    for c in 0..cfg.clients {
        let nic = cfg.client_nic.as_ref().map(|f| f());
        for t in 0..cfg.threads_per_client {
            let ctx2 = ctx.clone();
            let storage = storage.clone();
            let opts = match &nic {
                Some(n) => RequestOpts::from_nic(n),
                None => RequestOpts::default(),
            };
            let keys: Vec<String> = (0..cfg.keyspace_per_thread)
                .map(|i| bench_key(c, t, i))
                .collect();
            let totals = Rc::clone(&totals);
            handles.push(ctx.spawn(async move {
                let mut i = 0usize;
                while ctx2.now() < deadline {
                    let key = &keys[i % keys.len()];
                    i += 1;
                    let t0 = ctx2.now();
                    let outcome = if write {
                        storage
                            .put(key, Blob::synthetic(object_bytes), &opts)
                            .await
                            .map(|()| object_bytes)
                    } else {
                        storage.get(key, &opts).await.map(|b| b.logical_len())
                    };
                    let now = ctx2.now();
                    match outcome {
                        Ok(n) => {
                            totals.ok.set(totals.ok.get() + 1);
                            totals.bytes.set(totals.bytes.get() + n);
                            totals.ok_series.borrow_mut().record(now, 1.0);
                            totals.latency.borrow_mut().record((now - t0).as_secs_f64());
                        }
                        Err(_) => {
                            totals.failed.set(totals.failed.get() + 1);
                            totals.fail_series.borrow_mut().record(now, 1.0);
                        }
                    }
                }
            }));
        }
    }
    skyrise_sim::join_all(handles).await;
    totals.result((ctx.now() - start).as_secs_f64().max(1e-9))
}

/// One window of open-loop load: `n` requests on the fixed timetable
/// `t0 + i / rate`, each in its own task, issued whether or not earlier
/// ones have completed (independent client instances generating a
/// deterministic offered load, as in the paper's S3 scaling ramps).
/// `request(i)` builds the i-th request; the handles come back in issue
/// order for the caller to join when its experiment wants to.
pub fn open_loop_window<T, Fut>(
    ctx: &SimCtx,
    t0: SimTime,
    rate: f64,
    n: u64,
    request: impl Fn(u64) -> Fut,
) -> Vec<JoinHandle<T>>
where
    T: 'static,
    Fut: Future<Output = T> + 'static,
{
    (0..n)
        .map(|i| {
            let at = t0 + SimDuration::from_secs_f64(i as f64 / rate);
            let ctx2 = ctx.clone();
            let request = request(i);
            ctx.spawn(async move {
                ctx2.sleep_until(at).await;
                request.await
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyrise_pricing::shared_meter;
    use skyrise_sim::{Sim, MIB};
    use skyrise_storage::{DynamoTable, S3Bucket};

    #[test]
    fn closed_loop_read_measures_latency_and_ops() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let meter = shared_meter();
            let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
            let cfg = StorageIoConfig {
                clients: 2,
                threads_per_client: 8,
                duration: SimDuration::from_secs(5),
                ..StorageIoConfig::default()
            };
            run_closed_loop(&ctx, &storage, &cfg).await
        });
        sim.run();
        let r = h.try_take().unwrap();
        // 16 threads at ~27 ms median latency: ~550 ops/s, no throttling.
        assert!(
            r.ops_per_sec > 300.0 && r.ops_per_sec < 800.0,
            "{}",
            r.ops_per_sec
        );
        assert!(r.failed_per_sec < 5.0, "{}", r.failed_per_sec);
        let med = r.latency.median();
        assert!((med - 0.027).abs() < 0.008, "median {med}");
    }

    #[test]
    fn dynamodb_throughput_saturates_at_service_cap() {
        let mut sim = Sim::new(2);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let meter = shared_meter();
            let storage = Storage::Dynamo(DynamoTable::on_demand(&ctx, &meter));
            let cfg = StorageIoConfig {
                clients: 4,
                threads_per_client: 32,
                object_bytes: 400 * 1024,
                duration: SimDuration::from_secs(5),
                ..StorageIoConfig::default()
            };
            run_closed_loop(&ctx, &storage, &cfg).await
        });
        sim.run();
        let r = h.try_take().unwrap();
        let mibps = r.bytes_per_sec / MIB as f64;
        // The paper: ~380 MiB/s read ceiling per table.
        assert!((300.0..=420.0).contains(&mibps), "{mibps} MiB/s");
    }

    #[test]
    fn open_loop_over_capacity_shows_failures() {
        let mut sim = Sim::new(3);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let meter = shared_meter();
            let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
            storage.backdoor_put("k", Blob::synthetic(1024));
            // Offer 8K IOPS for 10 s against a single 5.5K partition.
            let t0 = ctx.now();
            let handles = open_loop_window(&ctx, t0, 8_000.0, 80_000, |_| {
                let (ctx, storage) = (ctx.clone(), storage.clone());
                async move {
                    let issued = ctx.now();
                    let ok = storage.get("k", &RequestOpts::default()).await.is_ok();
                    (issued, ok)
                }
            });
            let outcomes = skyrise_sim::join_all(handles).await;
            // Strictly on the timetable, whatever the completions do.
            for i in [0u64, 1, 7_999, 79_999] {
                let at = t0 + SimDuration::from_secs_f64(i as f64 / 8_000.0);
                assert_eq!(outcomes[i as usize].0, at, "request {i}");
            }
            outcomes.iter().filter(|(_, ok)| *ok).count() as f64
        });
        sim.run();
        let ok_rate = h.try_take().unwrap() / 10.0;
        let fail_rate = 8_000.0 - ok_rate;
        assert!((5_000.0..=6_500.0).contains(&ok_rate), "ok {ok_rate}");
        assert!(fail_rate > 1_000.0, "fail {fail_rate}");
    }

    #[test]
    fn writes_and_reads_both_work() {
        let mut sim = Sim::new(4);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let meter = shared_meter();
            let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
            let cfg = StorageIoConfig {
                clients: 1,
                threads_per_client: 4,
                write: true,
                duration: SimDuration::from_secs(3),
                ..StorageIoConfig::default()
            };
            run_closed_loop(&ctx, &storage, &cfg).await
        });
        sim.run();
        let r = h.try_take().unwrap();
        assert!(r.ops_per_sec > 10.0);
        // Writes have the higher S3 median (40 ms).
        assert!((r.latency.median() - 0.040).abs() < 0.012);
    }
}
