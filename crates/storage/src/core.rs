//! Machinery shared by every storage service: IOPS admission, latency
//! sampling, bandwidth-constrained payload movement, and usage metering.

use crate::error::{Result, StorageError};
use crate::object::{Blob, ByteRange, KeyedStore, ObjectRead};
use skyrise_net::{transfer, RateLimiter, SharedNic, TransferOpts};
use skyrise_pricing::{SharedMeter, StorageService};
use skyrise_sim::telemetry::{Counter, Gauge, HistogramHandle, MetricRegistry};
use skyrise_sim::{Billed, LatencyDist, SimCtx, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

/// Admission control on operations per second: a token bucket over *ops*.
/// Capacity is a short burst allowance (the quota times `burst_seconds`).
#[derive(Debug, Clone)]
pub struct OpsLimiter {
    inner: Rc<RefCell<RateLimiter>>,
    burst_seconds: f64,
}

impl OpsLimiter {
    /// `rate` operations/second with `burst_seconds` worth of burst.
    pub fn new(rate: f64, burst_seconds: f64) -> Self {
        OpsLimiter {
            inner: Rc::new(RefCell::new(RateLimiter::continuous(
                // Burst "rate" for ops admission is effectively unbounded;
                // tokens are the constraint.
                rate.max(1.0) * 1e6,
                rate,
                rate * burst_seconds,
            ))),
            burst_seconds,
        }
    }

    /// Try to admit one operation at `now`.
    pub fn try_admit(&self, now: SimTime) -> bool {
        let mut l = self.inner.borrow_mut();
        l.advance(now);
        if l.available() >= 1.0 {
            l.consume(now, 1.0);
            true
        } else {
            false
        }
    }

    /// Replace the sustained rate, keeping the burst window.
    pub fn set_rate(&self, rate: f64) {
        *self.inner.borrow_mut() =
            RateLimiter::continuous(rate.max(1.0) * 1e6, rate, rate * self.burst_seconds);
    }

    /// The sustained admission rate (ops/s).
    pub fn rate(&self) -> f64 {
        self.inner.borrow().baseline_rate()
    }
}

/// One value per request direction.
#[derive(Debug, Clone)]
pub(crate) struct PerDirection<T> {
    read: T,
    write: T,
}

impl<T> PerDirection<T> {
    /// The read value, then the write value.
    pub(crate) fn rw(read: T, write: T) -> Self {
        PerDirection { read, write }
    }

    fn of(&self, write: bool) -> &T {
        if write {
            &self.write
        } else {
            &self.read
        }
    }
}

/// What a request needs from its caller.
#[derive(Clone, Default)]
pub struct RequestOpts {
    /// The client's NIC; payload movement consumes its tokens. `None`
    /// models an unconstrained client.
    pub client_nic: Option<SharedNic>,
}

impl RequestOpts {
    /// Request issued from the given client NIC.
    pub fn from_nic(nic: &SharedNic) -> Self {
        RequestOpts {
            client_nic: Some(Rc::clone(nic)),
        }
    }
}

/// Time a throttle rejection takes to come back to the client.
pub const REJECT_LATENCY: SimDuration = SimDuration::from_millis(4);

/// Cached per-backend telemetry handles (DESIGN.md §10), keyed by a slug
/// of the service name (`storage.s3_standard.op_secs`, ...). Resolved once
/// at core construction; all no-ops without a registry.
struct CoreMetrics {
    ops_ok: Counter,
    ops_failed: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    op_secs: HistogramHandle,
    inflight: Gauge,
    conn_rejects: Counter,
}

impl CoreMetrics {
    fn new(reg: &MetricRegistry, service: StorageService) -> Self {
        let slug = service_slug(service);
        CoreMetrics {
            ops_ok: reg.counter(&format!("storage.{slug}.ops_ok")),
            ops_failed: reg.counter(&format!("storage.{slug}.ops_failed")),
            bytes_read: reg.counter(&format!("storage.{slug}.bytes_read")),
            bytes_written: reg.counter(&format!("storage.{slug}.bytes_written")),
            op_secs: reg.histogram(&format!("storage.{slug}.op_secs")),
            inflight: reg.gauge(&format!("storage.{slug}.inflight")),
            conn_rejects: reg.counter(&format!("storage.{slug}.conn_rejects")),
        }
    }
}

/// Metric-name slug for a storage service: its display name lowercased
/// with runs of non-alphanumerics collapsed to `_` ("S3 Standard" ->
/// "s3_standard").
pub fn service_slug(service: StorageService) -> String {
    let mut slug = String::new();
    for c in service.name().chars() {
        if c.is_ascii_alphanumeric() {
            slug.push(c.to_ascii_lowercase());
        } else if !slug.ends_with('_') {
            slug.push('_');
        }
    }
    slug.trim_matches('_').to_string()
}

/// What a backend supplies to the request lifecycle besides its admission
/// policy: the quantities the paper says differ between services.
pub(crate) struct ServiceModel {
    /// Which service this is (pricing key, metric slug, trace row).
    pub(crate) service: StorageService,
    /// First-byte latency distribution (seconds).
    pub(crate) latency: PerDirection<LatencyDist>,
    /// Per-request bandwidth once streaming (bytes/s).
    pub(crate) per_request_bw: PerDirection<f64>,
    /// Aggregate service bandwidth (bytes/s).
    pub(crate) aggregate_bw: PerDirection<f64>,
    /// Largest object a write may store (logical bytes).
    pub(crate) max_object: u64,
    /// Concurrent in-flight request ceiling (None = unbounded).
    pub(crate) max_inflight: Option<u32>,
    /// Whether the service serves byte ranges itself. Without it a ranged
    /// read meters, bills and streams the *whole* object and the slice is
    /// cut client-side: the paper's reason DynamoDB and EFS only suit
    /// small exchange objects.
    pub(crate) native_ranges: bool,
}

/// A backend's IOPS admission policy.
pub(crate) trait Admission {
    /// Note one offered request at `now`, before look-up and admission
    /// (S3 Standard counts offered reads and splits or merges here).
    fn offered(&self, _now: SimTime, _write: bool) {}

    /// Try to admit one request against the backend's quotas.
    fn admit(&self, now: SimTime, write: bool) -> bool;
}

/// A read and a write limiter: one level of an admission hierarchy. Clones
/// share the buckets.
pub(crate) type RwLimiters = PerDirection<OpsLimiter>;

impl RwLimiters {
    /// Limiters at `read_iops` / `write_iops` sharing one burst window.
    pub(crate) fn new(read_iops: f64, write_iops: f64, burst_seconds: f64) -> Self {
        PerDirection::rw(
            OpsLimiter::new(read_iops, burst_seconds),
            OpsLimiter::new(write_iops, burst_seconds),
        )
    }
}

/// The admission policy DynamoDB and EFS share: a table / filesystem
/// quota, then an account-level ceiling common to every container created
/// from the same account. The account is only asked once the container
/// admits.
pub(crate) struct TieredAdmission {
    /// The container's own quotas.
    pub(crate) own: RwLimiters,
    /// Account-wide ceilings, if the container belongs to an account.
    pub(crate) account: Option<RwLimiters>,
}

impl Admission for TieredAdmission {
    fn admit(&self, now: SimTime, write: bool) -> bool {
        self.own.of(write).try_admit(now)
            && self
                .account
                .as_ref()
                .map_or(true, |acc| acc.of(write).try_admit(now))
    }
}

/// What a request does to the object under its key.
enum Op {
    Read(ByteRange),
    Write(Blob),
}

/// A storage service: the object map, the service's numbers, and the one
/// request lifecycle ([`ServiceCore::read`] / [`ServiceCore::write`])
/// every backend serves its requests through.
pub(crate) struct ServiceCore<A> {
    pub(crate) ctx: SimCtx,
    meter: SharedMeter,
    pub(crate) model: ServiceModel,
    /// The service's aggregate-bandwidth endpoint: `outbound` caps reads
    /// (service -> client), `inbound` caps writes (client -> service).
    service_nic: SharedNic,
    pub(crate) store: KeyedStore,
    pub(crate) admission: A,
    inflight: Cell<u32>,
    metrics: CoreMetrics,
}

impl<A: Admission> ServiceCore<A> {
    /// A service with an empty object map.
    pub(crate) fn new(ctx: SimCtx, meter: SharedMeter, model: ServiceModel, admission: A) -> Self {
        let service_nic = skyrise_net::Nic::new(
            RateLimiter::pure_rate(model.aggregate_bw.write, skyrise_net::DEFAULT_SLICE),
            RateLimiter::pure_rate(model.aggregate_bw.read, skyrise_net::DEFAULT_SLICE),
        );
        let metrics = CoreMetrics::new(&ctx.metrics(), model.service);
        ctx.sanitizer().open_account(model.service.name());
        ServiceCore {
            ctx,
            meter,
            model,
            service_nic,
            store: KeyedStore::new(),
            admission,
            inflight: Cell::new(0),
            metrics,
        }
    }

    /// Read `range` of the object under `key`.
    pub(crate) fn read<'a>(
        &'a self,
        key: &'a str,
        range: ByteRange,
        opts: &'a RequestOpts,
    ) -> impl Future<Output = Result<ObjectRead>> + 'a {
        self.request(key, Op::Read(range), opts, |read| {
            read.expect("a served read returns its object")
        })
    }

    /// Store `blob` under `key`.
    pub(crate) fn write<'a>(
        &'a self,
        key: &'a str,
        blob: Blob,
        opts: &'a RequestOpts,
    ) -> impl Future<Output = Result<()>> + 'a {
        self.request(key, Op::Write(blob), opts, drop)
    }

    /// The request lifecycle, the same for every service and direction:
    ///
    /// 1. take a connection slot (services with an in-flight ceiling; a
    ///    refused connection costs a round trip and is not metered);
    /// 2. open the trace span, read the clock, tell the admission policy a
    ///    request was offered;
    /// 3. settle what crosses the wire: look the object up and cut the
    ///    range (reads), or check the size limit (writes);
    /// 4. admit against the IOPS quotas, or meter a failed request and
    ///    return `Throttled` after [`REJECT_LATENCY`];
    /// 5. meter the request, wait out the first-byte latency, stream the
    ///    payload (the sanitizer's run ledger follows the billed bytes from
    ///    the meter into `transfer`);
    /// 6. commit a write to the object map, record the operation's latency.
    ///
    /// An open-loop experiment holds one of these futures per request in
    /// flight, so its size is the simulator's memory. Hence `read` and
    /// `write` are this future itself, not wrappers around it (`finish`
    /// shapes the output in place), and it is an `async` block, not an
    /// `async fn`: a function's arguments are stored twice, captured and
    /// again as locals (rust-lang/rust#62958), a block's captures once.
    #[allow(
        clippy::manual_async_fn,
        reason = "an async block stores its captures once, an async fn its arguments twice"
    )]
    fn request<'a, T>(
        &'a self,
        key: &'a str,
        op: Op,
        opts: &'a RequestOpts,
        finish: impl FnOnce(Option<ObjectRead>) -> T + 'a,
    ) -> impl Future<Output = Result<T>> + 'a {
        async move {
            let service = self.model.service.name();
            let native = self.model.native_ranges;
            let _conn = match self.admit_connection() {
                Ok(guard) => guard,
                Err(e) => {
                    self.ctx.sleep(REJECT_LATENCY).await;
                    return Err(e);
                }
            };

            let write = matches!(op, Op::Write(_));
            let span = {
                let tracer = self.ctx.tracer();
                let name = if write { "put" } else { "get" };
                tracer.span(&self.ctx, service, tracer.next_lane(), name)
            };
            span.attr("key", key);
            let now = self.ctx.now();
            self.admission.offered(now, write);

            // A read sends the range where the service cuts ranges itself, the
            // whole object where the client has to; a write sends its blob.
            let (logical, found) = match &op {
                Op::Read(range) => {
                    let object = self.store.get(key)?;
                    let object_len = object.len() as u64;
                    let sent = if native { range.cut(object)? } else { object };
                    (sent.logical_len(), Some((object_len, sent)))
                }
                Op::Write(blob) => (blob.logical_len(), None),
            };
            span.attr("bytes", logical);
            if write && logical > self.model.max_object {
                return Err(StorageError::TooLarge {
                    limit: self.model.max_object,
                    got: logical,
                });
            }

            if !self.admission.admit(now, write) {
                self.meter_request(write, logical, true);
                self.ctx
                    .tracer()
                    .instant(&self.ctx, service, 0, "throttle-503")
                    .attr("write", write)
                    .attr("bytes", logical);
                self.ctx.sleep(REJECT_LATENCY).await;
                return Err(StorageError::Throttled);
            }

            let billed = self.meter_request(write, logical, false);
            let first_byte = self.first_byte(write).await;
            span.attr("first_byte_s", first_byte.as_secs_f64());
            self.stream(billed, write, logical, opts).await;

            // A write lands in the object map only now, and a range the
            // service could not cut is cut only now, after the whole transfer.
            let read = match op {
                Op::Write(blob) => {
                    self.store.put(key, blob);
                    None
                }
                Op::Read(range) => found.map(|(object_len, sent)| (range, object_len, sent)),
            };
            self.record_op(now);
            let Some((range, object_len, sent)) = read else {
                return Ok(finish(None));
            };
            Ok(finish(Some(ObjectRead {
                blob: if native { sent } else { range.cut(sent)? },
                object_len,
                transferred: logical,
            })))
        }
    }

    /// Record a request in the meter (failures cost too). A successful
    /// request's bytes go on the service's run-ledger account, and the
    /// returned guard carries them to [`ServiceCore::stream`].
    fn meter_request(&self, write: bool, logical_bytes: u64, failed: bool) -> Billed {
        if failed {
            self.metrics.ops_failed.inc();
        } else {
            self.metrics.ops_ok.inc();
            if write {
                self.metrics.bytes_written.add(logical_bytes);
            } else {
                self.metrics.bytes_read.add(logical_bytes);
            }
        }
        self.meter.borrow_mut().record_storage_request(
            self.model.service,
            write,
            logical_bytes,
            failed,
        );
        if failed {
            Billed::default()
        } else {
            self.ctx
                .sanitizer()
                .bill(self.model.service.name(), logical_bytes)
        }
    }

    /// Record a completed operation's end-to-end latency (admission to
    /// last byte) into the backend's `storage.<slug>.op_secs` histogram.
    fn record_op(&self, start: SimTime) {
        self.metrics
            .op_secs
            .record_duration(self.ctx.now().duration_since(start));
    }

    /// Admit against the in-flight ceiling, if the service has one; the
    /// guard releases on drop.
    fn admit_connection(&self) -> Result<Option<InflightGuard<'_>>> {
        let Some(max) = self.model.max_inflight else {
            return Ok(None);
        };
        if self.inflight.get() >= max {
            self.metrics.conn_rejects.inc();
            return Err(StorageError::ConnectionRejected);
        }
        self.inflight.set(self.inflight.get() + 1);
        self.metrics.inflight.set(self.inflight.get() as f64);
        Ok(Some(InflightGuard {
            inflight: &self.inflight,
        }))
    }

    /// Sample first-byte latency for a direction and sleep it.
    async fn first_byte(&self, write: bool) -> SimDuration {
        let dist = self.model.latency.of(write);
        let secs = self.ctx.with_rng(|r| r.sample(dist));
        let d = SimDuration::from_secs_f64(secs);
        self.ctx.sleep(d).await;
        d
    }

    /// Stream the `logical_bytes` that were `billed` to/from the client
    /// after the first byte, bounded by per-request bandwidth, the service
    /// aggregate, and the client NIC.
    async fn stream(&self, billed: Billed, write: bool, logical_bytes: u64, opts: &RequestOpts) {
        billed.streaming();
        if logical_bytes == 0 {
            return;
        }
        let topts = TransferOpts {
            flows: 1,
            flow_cap: Some(*self.model.per_request_bw.of(write)),
            label: Some(self.model.service.name()),
            ..Default::default()
        };
        let unconstrained = skyrise_net::Nic::unlimited();
        let client = opts.client_nic.as_ref().unwrap_or(&unconstrained);
        if write {
            transfer(&self.ctx, client, &self.service_nic, logical_bytes, &topts).await;
        } else {
            transfer(&self.ctx, &self.service_nic, client, logical_bytes, &topts).await;
        }
    }
}

/// RAII in-flight counter.
struct InflightGuard<'a> {
    inflight: &'a Cell<u32>,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.inflight.set(self.inflight.get() - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyrise_sim::Sim;

    #[test]
    fn ops_limiter_admits_at_rate() {
        let l = OpsLimiter::new(100.0, 1.0);
        let mut admitted = 0;
        // Burst: ~100 ops at t=0.
        for _ in 0..500 {
            if l.try_admit(SimTime::ZERO) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 100);
        // After one second, another ~100.
        let t1 = SimTime::from_nanos(1_000_000_000);
        let mut more = 0;
        for _ in 0..500 {
            if l.try_admit(t1) {
                more += 1;
            }
        }
        assert_eq!(more, 100);
    }

    #[test]
    fn ops_limiter_set_rate() {
        let l = OpsLimiter::new(100.0, 1.0);
        l.set_rate(10.0);
        assert!((l.rate() - 10.0).abs() < 1e-9);
        let mut admitted = 0;
        for _ in 0..100 {
            if l.try_admit(SimTime::from_nanos(1)) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 10);
    }

    #[test]
    fn service_slug_normalizes_names() {
        assert_eq!(service_slug(StorageService::S3Standard), "s3_standard");
        assert_eq!(service_slug(StorageService::S3Express), "s3_express");
        assert_eq!(service_slug(StorageService::Efs), "efs");
    }

    /// An EFS-shaped service: 1 ms to the first byte, `per_request_bw`
    /// bytes/s per request, room for two requests in flight.
    fn efs_core(ctx: SimCtx, per_request_bw: f64) -> ServiceCore<TieredAdmission> {
        let both = |x: f64| PerDirection::rw(x, x);
        ServiceCore::new(
            ctx,
            skyrise_pricing::shared_meter(),
            ServiceModel {
                service: StorageService::Efs,
                latency: PerDirection::rw(
                    LatencyDist::constant(0.001),
                    LatencyDist::constant(0.001),
                ),
                per_request_bw: both(per_request_bw),
                aggregate_bw: both(1e12),
                max_object: u64::MAX,
                max_inflight: Some(2),
                native_ranges: false,
            },
            TieredAdmission {
                own: RwLimiters::new(100.0, 100.0, 1.0),
                account: None,
            },
        )
    }

    #[test]
    fn inflight_guard_releases() {
        let sim = Sim::new(1);
        let core = efs_core(sim.ctx(), 1e9);
        let g1 = core.admit_connection().unwrap();
        let _g2 = core.admit_connection().unwrap();
        assert!(matches!(
            core.admit_connection().err(),
            Some(StorageError::ConnectionRejected)
        ));
        drop(g1);
        assert!(core.admit_connection().is_ok());
    }

    /// A request the container throttles never reaches the account: the
    /// account's tokens are spent only on requests the container let by.
    #[test]
    fn account_is_asked_only_after_the_container_admits() {
        let account = RwLimiters::new(100.0, 100.0, 1.0);
        let table = TieredAdmission {
            own: RwLimiters::new(10.0, 10.0, 1.0),
            account: Some(account.clone()),
        };
        let admitted = (0..50)
            .filter(|_| table.admit(SimTime::ZERO, false))
            .count();
        assert_eq!(admitted, 10);
        // 90 of the account's 100 read tokens are left, and all its writes.
        let left = |write| {
            (0..200)
                .filter(|_| account.of(write).try_admit(SimTime::ZERO))
                .count()
        };
        assert_eq!((left(false), left(true)), (90, 100));
    }

    /// Bytes labelled with a storage service move through `transfer`, but
    /// no request billed them: the run ends with the ledger out of balance.
    #[test]
    #[should_panic(expected = "EFS breaks the run ledger's law bytes billed = bytes into transfer")]
    fn an_unbilled_storage_transfer_breaks_the_billing_law() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let core = efs_core(ctx.clone(), 1e9);
        sim.spawn(async move {
            let opts = TransferOpts {
                label: Some(core.model.service.name()),
                ..TransferOpts::default()
            };
            let (server, client) = (skyrise_net::Nic::unlimited(), skyrise_net::Nic::unlimited());
            transfer(&ctx, &server, &client, 4096, &opts).await;
        });
        sim.run();
    }

    /// A metered request whose stream step sleeps out the payload's time
    /// instead of moving it through `transfer`: billed, never streamed.
    #[test]
    #[should_panic(expected = "EFS breaks the run ledger's law bytes billed = bytes into transfer")]
    fn a_metered_op_streamed_by_sleep_breaks_the_billing_law() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let core = efs_core(ctx.clone(), 1e9);
        sim.spawn(async move {
            let billed = core.meter_request(false, 4096, false);
            billed.streaming();
            ctx.sleep(SimDuration::from_secs_f64(4096.0 / 1e9)).await;
        });
        sim.run();
    }

    /// Reads abandoned at a deadline, one during its first-byte latency and
    /// one mid-stream, leave the ledger balanced: their bytes count as
    /// dropped before streaming and dropped mid-flight.
    #[test]
    fn reads_dropped_half_way_keep_the_ledger_balanced() {
        use skyrise_sim::{race, Either};
        const OBJECT: u64 = 4 << 20;
        let mut sim = Sim::new(1);
        let san = sim.enable_sanitizer();
        let ctx = sim.ctx();
        let core = Rc::new(efs_core(ctx.clone(), 1e6));
        core.store.put("k", Blob::synthetic(OBJECT));
        let root = sim.spawn(async move {
            let opts = RequestOpts::default();
            let mut finished = Vec::new();
            for deadline_ms in [0.5, 1_000.0, 10_000.0] {
                let read = core.read("k", ByteRange::Full, &opts);
                let deadline = ctx.sleep(SimDuration::from_secs_f64(deadline_ms / 1e3));
                finished.push(matches!(race(read, deadline).await, Either::Left(Ok(_))));
            }
            finished
        });
        sim.run();
        assert_eq!(root.try_take(), Some(vec![false, false, true]));
        let ledger = san.ledger("EFS").expect("the service opened its account");
        assert_eq!(ledger.broken_law(), None, "{ledger:?}");
        assert_eq!(ledger.billed, 3 * OBJECT);
        assert_eq!(ledger.dropped_before_streaming, OBJECT);
        assert_eq!(ledger.streamed, 2 * OBJECT);
        assert!(
            ledger.dropped_mid_flight > 0 && ledger.dropped_mid_flight < OBJECT,
            "{ledger:?}"
        );
        assert_eq!((ledger.awaiting, ledger.moving), (0, 0));
        assert!(san.report().is_some());
    }
}
