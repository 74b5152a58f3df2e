//! Network endpoints, shared fabric constraints, and timed transfers.
//!
//! A transfer moves bytes between two NICs in small virtual-time slices;
//! each slice grants the minimum of the sender's egress bucket, the
//! receiver's ingress bucket, an optional per-flow cap (EC2's well-known
//! 5 Gbps single-flow limit), and an optional shared fabric limit (the
//! ~20 GiB/s aggregate ceiling the paper observes inside a customer VPC).

use crate::bucket::RateLimiter;
use serde::{Deserialize, Serialize};
use skyrise_sim::telemetry::{Counter, TimelineHandle};
use skyrise_sim::{IntervalSeries, SimCtx, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Default scheduling slice for transfers.
pub const DEFAULT_SLICE: SimDuration = SimDuration::from_millis(10);

/// A network interface with independent ingress/egress buckets — the paper
/// concludes "the inbound and outbound token buckets are maintained
/// independently of each other".
#[derive(Debug)]
pub struct Nic {
    /// Ingress limiter.
    pub inbound: RateLimiter,
    /// Egress limiter.
    pub outbound: RateLimiter,
}

impl Nic {
    /// Build from two limiters.
    pub fn new(inbound: RateLimiter, outbound: RateLimiter) -> SharedNic {
        Rc::new(RefCell::new(Nic { inbound, outbound }))
    }

    /// Identical limiter in both directions.
    pub fn symmetric(limiter: RateLimiter) -> SharedNic {
        Rc::new(RefCell::new(Nic {
            inbound: limiter.clone(),
            outbound: limiter,
        }))
    }

    /// A NIC with effectively unlimited bandwidth (test servers).
    pub fn unlimited() -> SharedNic {
        Nic::symmetric(RateLimiter::unlimited(f64::MAX / 8.0))
    }
}

/// Shared handle to a NIC.
pub type SharedNic = Rc<RefCell<Nic>>;

/// A shared medium constraint applied across many transfers, e.g. the VPC
/// aggregate throughput quota.
#[derive(Clone)]
pub struct Fabric {
    limiter: Rc<RefCell<RateLimiter>>,
    name: &'static str,
}

impl Fabric {
    /// A fabric enforcing `rate` bytes/second aggregate with no burst
    /// accumulation.
    pub fn rate_capped(name: &'static str, rate: f64) -> Self {
        Fabric {
            limiter: Rc::new(RefCell::new(RateLimiter::pure_rate(rate, DEFAULT_SLICE))),
            name,
        }
    }

    /// Human-readable name (diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn grant(&self, now: SimTime, slice: SimDuration, want: f64) -> f64 {
        self.limiter.borrow_mut().grant(now, slice, want)
    }

    fn peek(&self, now: SimTime, slice: SimDuration) -> f64 {
        let mut l = self.limiter.borrow_mut();
        l.advance(now);
        l.peek(slice)
    }

    /// [`RateLimiter::quiet_until`] of the shared limiter; call after
    /// [`Fabric::peek`] at the same `now`.
    fn quiet_until(&self, now: SimTime, slice: SimDuration) -> SimTime {
        self.limiter.borrow().quiet_until(now, slice)
    }
}

/// Options controlling a [`transfer`].
#[derive(Clone, Default)]
pub struct TransferOpts {
    /// Number of parallel TCP connections ("paths" in the paper's setup).
    /// Zero is treated as one.
    pub flows: u32,
    /// Per-flow bandwidth cap in bytes/second (e.g. EC2's 5 Gbps single-flow
    /// limit). `None` disables the cap.
    pub flow_cap: Option<f64>,
    /// Shared fabric constraint (e.g. a VPC).
    pub fabric: Option<Fabric>,
    /// Scheduling slice; defaults to [`DEFAULT_SLICE`].
    pub slice: Option<SimDuration>,
    /// Receive-side throughput recorder.
    pub recorder: Option<Rc<RefCell<IntervalSeries>>>,
    /// Endpoint label attached to trace spans (e.g. the storage service).
    pub label: Option<&'static str>,
}

/// Outcome of a completed transfer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferStats {
    /// Bytes moved.
    pub bytes: u64,
    /// Transfer start time.
    pub start: SimTime,
    /// Completion time of the last byte.
    pub end: SimTime,
}

impl TransferStats {
    /// Mean throughput in bytes/second over the whole transfer.
    pub fn mean_throughput(&self) -> f64 {
        let d = (self.end - self.start).as_secs_f64();
        if d <= 0.0 {
            f64::INFINITY
        } else {
            self.bytes as f64 / d
        }
    }
}

/// Move `bytes` from `src` (egress) to `dst` (ingress), honouring every
/// constraint in `opts`. Completes when the last byte lands.
///
/// Constraints are evaluated on the transfer's own slice grid (`start + j *
/// slice`). A stalled transfer does not poll that grid: it sleeps straight
/// to the first grid instant at which any of its limiters can have
/// refilled ([`RateLimiter::quiet_until`]), which is where per-slice
/// polling would first have found anything but the same empty bucket.
pub async fn transfer(
    ctx: &SimCtx,
    src: &SharedNic,
    dst: &SharedNic,
    bytes: u64,
    opts: &TransferOpts,
) -> TransferStats {
    let slice = opts.slice.unwrap_or(DEFAULT_SLICE);
    let start = ctx.now();
    let mut remaining = bytes as f64;
    let flow_allow_per_slice = opts
        .flow_cap
        .map(|cap| cap * opts.flows.max(1) as f64 * slice.as_secs_f64());

    let tracer = ctx.tracer();
    let lane = tracer.next_lane();
    let span = tracer.span(ctx, "net", lane, "transfer");
    span.attr("bytes", bytes);
    if let Some(label) = opts.label {
        span.attr("endpoint", label);
    }
    let mut stalled_slices: u64 = 0;
    let mut flowing = true;

    // Telemetry (DESIGN.md §10): handles resolved once per transfer; the
    // per-lane pair is keyed by the endpoint label so suite exports break
    // bytes out by storage service. All of it is a no-op without a registry.
    let metrics = ctx.metrics();
    let telem = metrics.enabled();
    let m_transfers = metrics.counter("net.transfer.count");
    let m_throttles = metrics.counter("net.fabric.throttle_onsets");
    let m_stalls = metrics.counter("net.transfer.stalled_slices");
    let m_secs = metrics.histogram("net.transfer.secs");
    let m_src_sat = metrics.gauge("net.bucket.src_saturation");
    let m_dst_sat = metrics.gauge("net.bucket.dst_saturation");
    let (m_lane_bytes, m_lane_tl) = if telem {
        let lane_name = opts.label.unwrap_or("unlabeled");
        (
            metrics.counter(&format!("net.lane.{lane_name}.bytes")),
            metrics.timeline(&format!("net.lane.{lane_name}"), SimDuration::from_secs(1)),
        )
    } else {
        (Counter::disabled(), TimelineHandle::disabled())
    };

    while remaining > 0.0 {
        let now = ctx.now();
        // Peek every constraint before consuming from any.
        let allow_src = {
            let mut n = src.borrow_mut();
            n.outbound.advance(now);
            if telem {
                m_src_sat.set(n.outbound.saturation(slice));
            }
            n.outbound.peek(slice)
        };
        let allow_dst = {
            let mut n = dst.borrow_mut();
            n.inbound.advance(now);
            if telem {
                m_dst_sat.set(n.inbound.saturation(slice));
            }
            n.inbound.peek(slice)
        };
        let mut allow = allow_src.min(allow_dst).min(remaining);
        if let Some(f) = flow_allow_per_slice {
            allow = allow.min(f);
        }
        if let Some(fabric) = &opts.fabric {
            allow = allow.min(fabric.peek(now, slice));
        }

        if allow > 0.5 {
            if !flowing {
                // Token buckets replenished enough to resume.
                tracer.instant(ctx, "net", lane, "bucket-refill");
                flowing = true;
            }
            // Commit the grant everywhere.
            src.borrow_mut().outbound.consume(now, allow);
            dst.borrow_mut().inbound.consume(now, allow);
            let san = ctx.sanitizer();
            if san.enabled() {
                src.borrow().outbound.assert_conserved(&san, "src.outbound");
                dst.borrow().inbound.assert_conserved(&san, "dst.inbound");
            }
            if let Some(fabric) = &opts.fabric {
                fabric.grant(now, slice, allow);
            }
            remaining -= allow;

            // Time actually needed within this slice at the granted volume.
            let limiting = allow_src
                .min(allow_dst)
                .min(flow_allow_per_slice.unwrap_or(f64::MAX));
            let frac = if limiting > 0.0 {
                (allow / limiting).min(1.0)
            } else {
                1.0
            };
            let dur = slice.mul_f64(frac);
            if let Some(rec) = &opts.recorder {
                rec.borrow_mut().record_span(now, now + dur, allow);
            }
            m_lane_bytes.add(allow as u64);
            m_lane_tl.record_span(now, now + dur, allow);
            if remaining <= 0.5 {
                ctx.sleep(dur).await;
                break;
            }
            ctx.sleep(slice).await;
        } else {
            // Nothing grantable this slice — wait for refill.
            if flowing {
                let onset = tracer.instant(ctx, "net", lane, "throttle-onset");
                onset
                    .attr("src_tokens", allow_src)
                    .attr("dst_tokens", allow_dst);
                if let Some(label) = opts.label {
                    onset.attr("endpoint", label);
                }
                m_throttles.inc();
                flowing = false;
            }
            // Until `wake` every limiter's `advance` is an identity and
            // other transfers can only consume, so the `k - 1` evaluations
            // skipped here would each have stalled again. Limiter state is
            // left as of `now`: a transfer dropped mid-sleep leaves no
            // trace, and siblings never see tokens from the future.
            let mut wake = src.borrow().outbound.quiet_until(now, slice);
            wake = wake.min(dst.borrow().inbound.quiet_until(now, slice));
            if let Some(fabric) = &opts.fabric {
                wake = wake.min(fabric.quiet_until(now, slice));
            }
            let k = (wake - now).as_nanos().div_ceil(slice.as_nanos()).max(1);
            stalled_slices += k;
            ctx.sleep_slices(slice, k).await;
        }
    }
    span.attr("stalled_slices", stalled_slices);
    let end = ctx.now();
    m_transfers.inc();
    m_stalls.add(stalled_slices);
    m_secs.record_duration(end.duration_since(start));

    TransferStats { bytes, start, end }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::IdleRefill;
    use skyrise_sim::{join_all, Sim, MIB};

    fn mib(x: f64) -> f64 {
        x * MIB as f64
    }

    fn lambda_nic() -> SharedNic {
        let mk = |burst: f64| {
            RateLimiter::lambda_style(
                mib(burst),
                mib(150.0),
                mib(150.0),
                SimDuration::from_millis(100),
                mib(7.5),
                IdleRefill {
                    threshold: SimDuration::from_millis(500),
                    fraction: 1.0,
                },
            )
        };
        Nic::new(mk(1228.8), mk(1024.0))
    }

    #[test]
    fn transfer_within_burst_runs_at_burst_rate() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let client = lambda_nic();
            let server = Nic::unlimited();
            transfer(&ctx, &server, &client, 120 * MIB, &TransferOpts::default()).await
        });
        sim.run();
        let stats = h.try_take().unwrap();
        let gibps = stats.mean_throughput() / (1024.0 * MIB as f64);
        assert!((gibps - 1.2).abs() < 0.05, "throughput {gibps} GiB/s");
    }

    #[test]
    fn transfer_beyond_burst_degrades_to_baseline() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let client = lambda_nic();
            let server = Nic::unlimited();
            // 600 MiB: 300 burst + ~300 at 75 MiB/s => ~0.25s + ~4s.
            transfer(&ctx, &server, &client, 600 * MIB, &TransferOpts::default()).await
        });
        sim.run();
        let stats = h.try_take().unwrap();
        let dur = (stats.end - stats.start).as_secs_f64();
        assert!(dur > 3.5 && dur < 4.6, "duration {dur}s");
    }

    #[test]
    fn independent_in_out_buckets() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let client = lambda_nic();
            let server = Nic::unlimited();
            // Drain inbound fully.
            transfer(&ctx, &server, &client, 310 * MIB, &TransferOpts::default()).await;
            // Outbound must still be at full burst.
            let out = transfer(&ctx, &client, &server, 100 * MIB, &TransferOpts::default()).await;
            out.mean_throughput()
        });
        sim.run();
        let tput = h.try_take().unwrap() / MIB as f64;
        assert!(tput > 900.0, "outbound unaffected: {tput} MiB/s");
    }

    #[test]
    fn vpc_fabric_caps_aggregate_throughput() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let fabric = Fabric::rate_capped("vpc", mib(100.0));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let ctx2 = ctx.clone();
                    let fabric = fabric.clone();
                    ctx.spawn(async move {
                        let a = Nic::unlimited();
                        let b = Nic::unlimited();
                        let opts = TransferOpts {
                            fabric: Some(fabric),
                            ..Default::default()
                        };
                        transfer(&ctx2, &a, &b, 100 * MIB, &opts).await
                    })
                })
                .collect();
            let stats = join_all(handles).await;
            stats.iter().map(|s| s.end).max().unwrap()
        });
        sim.run();
        let end = h.try_take().unwrap().as_secs_f64();
        // 400 MiB through a 100 MiB/s fabric: ~4s.
        assert!((end - 4.0).abs() < 0.3, "end {end}s");
    }

    #[test]
    fn flow_cap_limits_single_connection() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let a = Nic::unlimited();
            let b = Nic::unlimited();
            let opts = TransferOpts {
                flows: 1,
                flow_cap: Some(mib(625.0)), // ~5 Gbps
                ..Default::default()
            };
            transfer(&ctx, &a, &b, 625 * MIB, &opts).await
        });
        sim.run();
        let stats = h.try_take().unwrap();
        let dur = (stats.end - stats.start).as_secs_f64();
        assert!((dur - 1.0).abs() < 0.05, "duration {dur}");
    }

    #[test]
    fn multiple_flows_raise_the_cap() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let a = Nic::unlimited();
            let b = Nic::unlimited();
            let opts = TransferOpts {
                flows: 4,
                flow_cap: Some(mib(625.0)),
                ..Default::default()
            };
            transfer(&ctx, &a, &b, 2500 * MIB, &opts).await
        });
        sim.run();
        let stats = h.try_take().unwrap();
        let dur = (stats.end - stats.start).as_secs_f64();
        assert!((dur - 1.0).abs() < 0.05, "duration {dur}");
    }

    #[test]
    fn recorder_sees_all_bytes() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let rec = Rc::new(RefCell::new(IntervalSeries::new(
            SimTime::ZERO,
            SimDuration::from_millis(20),
        )));
        let rec2 = Rc::clone(&rec);
        sim.spawn(async move {
            let client = lambda_nic();
            let server = Nic::unlimited();
            let opts = TransferOpts {
                recorder: Some(rec2),
                ..Default::default()
            };
            transfer(&ctx, &server, &client, 50 * MIB, &opts).await;
        });
        sim.run();
        let total = rec.borrow().total();
        assert!((total - (50 * MIB) as f64).abs() < 1.0, "total {total}");
    }

    #[test]
    fn telemetry_counts_bytes_and_throttles() {
        let mut sim = Sim::new(2);
        let reg = sim.install_metrics();
        let ctx = sim.ctx();
        sim.spawn(async move {
            let client = lambda_nic();
            let server = Nic::unlimited();
            let opts = TransferOpts {
                label: Some("s3"),
                ..Default::default()
            };
            // 400 MiB is beyond the 300 MiB burst: the transfer must hit
            // the spiky slotted-refill regime and stall between slots.
            transfer(&ctx, &server, &client, 400 * MIB, &opts).await;
        });
        sim.run();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["net.transfer.count"], 1);
        assert!(snap.counters["net.lane.s3.bytes"] >= 399 * MIB);
        assert!(snap.counters["net.fabric.throttle_onsets"] >= 1);
        assert!(snap.counters["net.transfer.stalled_slices"] >= 1);
        assert_eq!(snap.histograms["net.transfer.secs"].count(), 1);
        assert!(snap.gauges["net.bucket.dst_saturation"] > 0.9);
        assert!(snap.timelines.contains_key("net.lane.s3"));
    }

    /// Differential oracle for stall elision: the per-slice loop `transfer`
    /// replaced, kept as the reference.
    mod stall_elision {
        use super::*;
        use proptest::prelude::*;
        use skyrise_sim::{race, Either};
        use std::cell::Cell;

        /// `transfer` as it was before stalls were elided, model only (no
        /// spans, no telemetry): every stalled slice is a sleep of its own.
        /// Returns the stats and the stalled slices; sets `long_stall` on
        /// the second consecutive stalled slice, even if dropped later.
        async fn transfer_per_slice(
            ctx: &SimCtx,
            src: &SharedNic,
            dst: &SharedNic,
            bytes: u64,
            opts: &TransferOpts,
            long_stall: &Cell<bool>,
        ) -> (TransferStats, u64) {
            let slice = opts.slice.unwrap_or(DEFAULT_SLICE);
            let start = ctx.now();
            let mut remaining = bytes as f64;
            let flow_allow_per_slice = opts
                .flow_cap
                .map(|cap| cap * opts.flows.max(1) as f64 * slice.as_secs_f64());
            let (mut stalled_slices, mut stalled_run) = (0u64, 0u64);
            while remaining > 0.0 {
                let now = ctx.now();
                let allow_src = {
                    let mut n = src.borrow_mut();
                    n.outbound.advance(now);
                    n.outbound.peek(slice)
                };
                let allow_dst = {
                    let mut n = dst.borrow_mut();
                    n.inbound.advance(now);
                    n.inbound.peek(slice)
                };
                let mut allow = allow_src.min(allow_dst).min(remaining);
                if let Some(f) = flow_allow_per_slice {
                    allow = allow.min(f);
                }
                if let Some(fabric) = &opts.fabric {
                    allow = allow.min(fabric.peek(now, slice));
                }
                if allow > 0.5 {
                    stalled_run = 0;
                    src.borrow_mut().outbound.consume(now, allow);
                    dst.borrow_mut().inbound.consume(now, allow);
                    if let Some(fabric) = &opts.fabric {
                        fabric.grant(now, slice, allow);
                    }
                    remaining -= allow;
                    let limiting = allow_src
                        .min(allow_dst)
                        .min(flow_allow_per_slice.unwrap_or(f64::MAX));
                    let frac = if limiting > 0.0 {
                        (allow / limiting).min(1.0)
                    } else {
                        1.0
                    };
                    if remaining <= 0.5 {
                        ctx.sleep(slice.mul_f64(frac)).await;
                        break;
                    }
                    ctx.sleep(slice).await;
                } else {
                    stalled_slices += 1;
                    stalled_run += 1;
                    if stalled_run == 2 {
                        long_stall.set(true);
                    }
                    ctx.sleep(slice).await;
                }
            }
            let stats = TransferStats {
                bytes,
                start,
                end: ctx.now(),
            };
            (stats, stalled_slices)
        }

        #[derive(Debug, Clone, Copy, PartialEq)]
        enum NicKind {
            /// Slotted refill plus idle refill, scaled down so a few tens of
            /// MiB exhaust the burst.
            Lambda,
            /// Deep continuous bucket that drains under load: never skipped.
            Ec2,
            /// A storage service's aggregate limit: a pure rate far above
            /// demand, skipped while full though siblings keep dipping in.
            Service,
            Unlimited,
        }

        impl NicKind {
            fn build(self) -> SharedNic {
                match self {
                    NicKind::Lambda => Nic::symmetric(RateLimiter::lambda_style(
                        mib(1200.0),
                        mib(20.0),
                        mib(10.0),
                        SimDuration::from_millis(100),
                        mib(7.5),
                        IdleRefill {
                            threshold: SimDuration::from_millis(300),
                            fraction: 1.0,
                        },
                    )),
                    NicKind::Ec2 => {
                        Nic::symmetric(RateLimiter::continuous(mib(800.0), mib(60.0), mib(25.0)))
                    }
                    NicKind::Service => {
                        Nic::symmetric(RateLimiter::pure_rate(mib(65536.0), DEFAULT_SLICE))
                    }
                    NicKind::Unlimited => Nic::unlimited(),
                }
            }
        }

        #[derive(Debug, Clone)]
        struct Xfer {
            src: usize,
            dst: usize,
            mib: u64,
            /// Start instant; the low four bits are the transfer's index, so
            /// no two slice grids coincide (the documented residual).
            start_ns: u64,
            flow_cap: bool,
            fabric: bool,
            /// Dropped by a `race` this long after its start, if set.
            deadline_ms: Option<u64>,
        }

        #[derive(Debug, Clone)]
        struct Scenario {
            nics: Vec<NicKind>,
            xfers: Vec<Xfer>,
        }

        fn scenario() -> impl Strategy<Value = Scenario> {
            let nic = prop_oneof![
                3 => Just(NicKind::Lambda),
                1 => Just(NicKind::Ec2),
                2 => Just(NicKind::Service),
                1 => Just(NicKind::Unlimited),
            ];
            let xfer = (
                (0usize..16, 1usize..16, 1u64..100),
                (0u64..25_000_000, any::<bool>(), 0u64..4, 0u64..60),
            );
            (
                prop::collection::vec(nic, 2..=5),
                prop::collection::vec(xfer, 1..=12),
            )
                .prop_map(|(nics, raw)| {
                    let n = nics.len();
                    let xfers = raw
                        .into_iter()
                        .enumerate()
                        .map(
                            |(i, ((src, hop, mib), (start, flow_cap, fabric, deadline)))| {
                                let (src, dst) = (src % n, (src % n + 1 + hop % (n - 1)) % n);
                                Xfer {
                                    src,
                                    dst,
                                    mib,
                                    start_ns: start << 4 | i as u64,
                                    flow_cap,
                                    // The binding fabric never meets a slotted
                                    // bucket: the other documented residual.
                                    fabric: fabric == 0
                                        && nics[src] != NicKind::Lambda
                                        && nics[dst] != NicKind::Lambda,
                                    deadline_ms: (deadline < 15).then_some(20 + 40 * deadline),
                                }
                            },
                        )
                        .collect();
                    Scenario { nics, xfers }
                })
        }

        /// What a run must reproduce to the bit: completions in order, the
        /// stalled slices of completed transfers, and every limiter's
        /// `[tokens, oneoff, consumed, refilled]` as of the end of the run.
        #[derive(Debug, PartialEq)]
        struct Outcome {
            completions: Vec<(usize, Option<TransferStats>)>,
            stalled_slices: u64,
            ledgers: Vec<[u64; 4]>,
        }

        /// What it need not: the timers it took; whether a transfer whose
        /// limiters are all slotted or unlimited stalled two slices in a
        /// row; and `refilled` of the service buckets — a sum of f64
        /// deltas that groups differently once a sleeping transfer's polls
        /// are gone, held to 1e-12 relative instead (and zeroed in
        /// `Outcome::ledgers`).
        struct Aside {
            timers: u64,
            slotted_stall: bool,
            service_refilled: Vec<f64>,
        }

        /// Runs `sc` on the per-slice reference or on `transfer`.
        fn run(sc: &Scenario, reference: bool) -> (Outcome, Aside) {
            let mut sim = Sim::new(3);
            let reg = sim.install_metrics();
            let nics: Vec<SharedNic> = sc.nics.iter().map(|k| k.build()).collect();
            let fabric = Fabric::rate_capped("vpc", mib(150.0));
            let completions = Rc::new(RefCell::new(Vec::new()));
            let ref_stalls = Rc::new(Cell::new(0u64));
            let slotted_stall = Rc::new(Cell::new(false));
            for (i, x) in sc.xfers.iter().enumerate() {
                let ctx = sim.ctx();
                let (src, dst) = (Rc::clone(&nics[x.src]), Rc::clone(&nics[x.dst]));
                let opts = TransferOpts {
                    flows: 1,
                    flow_cap: x.flow_cap.then_some(mib(90.0)),
                    fabric: x.fabric.then(|| fabric.clone()),
                    ..Default::default()
                };
                let quiet = |k: NicKind| k == NicKind::Lambda || k == NicKind::Unlimited;
                let slotted_only = !x.fabric && quiet(sc.nics[x.src]) && quiet(sc.nics[x.dst]);
                let long_stall = if slotted_only {
                    Rc::clone(&slotted_stall)
                } else {
                    Rc::new(Cell::new(false))
                };
                let (x, completions, ref_stalls) =
                    (x.clone(), Rc::clone(&completions), Rc::clone(&ref_stalls));
                sim.spawn(async move {
                    ctx.sleep(SimDuration::from_nanos(x.start_ns)).await;
                    let bytes = x.mib * MIB;
                    let moved = async {
                        if reference {
                            let (stats, stalled) =
                                transfer_per_slice(&ctx, &src, &dst, bytes, &opts, &long_stall)
                                    .await;
                            ref_stalls.set(ref_stalls.get() + stalled);
                            stats
                        } else {
                            transfer(&ctx, &src, &dst, bytes, &opts).await
                        }
                    };
                    let stats = match x.deadline_ms {
                        None => Some(moved.await),
                        Some(ms) => {
                            match race(moved, ctx.sleep(SimDuration::from_millis(ms))).await {
                                Either::Left(stats) => Some(stats),
                                Either::Right(()) => None,
                            }
                        }
                    };
                    completions.borrow_mut().push((i, stats));
                });
            }
            let end = sim.run();
            let snap = reg.snapshot();
            // The last poll of a bucket differs between the runs (it may be
            // one that was slept through), so bring all to the same instant.
            let ledger = |l: &mut RateLimiter| {
                l.advance(end);
                [l.tokens(), l.oneoff(), l.consumed(), l.refilled()].map(f64::to_bits)
            };
            let mut ledgers = vec![ledger(&mut fabric.limiter.borrow_mut())];
            let mut service_refilled = Vec::new();
            for (nic, &kind) in nics.iter().zip(&sc.nics) {
                let nic = &mut *nic.borrow_mut();
                for limiter in [&mut nic.inbound, &mut nic.outbound] {
                    let mut bits = ledger(limiter);
                    if kind == NicKind::Service {
                        service_refilled.push(limiter.refilled());
                        bits[3] = 0;
                    }
                    ledgers.push(bits);
                }
            }
            let outcome = Outcome {
                completions: completions.take(),
                stalled_slices: if reference {
                    ref_stalls.get()
                } else {
                    snap.counters["net.transfer.stalled_slices"]
                },
                ledgers,
            };
            let aside = Aside {
                timers: snap.counters["sim.timer.inserts"],
                slotted_stall: slotted_stall.get(),
                service_refilled,
            };
            (outcome, aside)
        }

        fn close(a: &[f64], b: &[f64]) -> bool {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(a, b)| (a - b).abs() <= 1e-12 * a.abs().max(b.abs()))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]
            /// Eliding a stall changes nothing a per-slice poller would have
            /// seen: same completions in the same order, same stalled
            /// slices, same bits in every bucket — cancelled transfers
            /// included — with fewer timers.
            #[test]
            fn elided_stalls_match_per_slice_polling(sc in scenario()) {
                let (expect, reference) = run(&sc, true);
                let (got, elided) = run(&sc, false);
                prop_assert_eq!(&got, &expect, "{:?}", sc);
                prop_assert!(
                    close(&elided.service_refilled, &reference.service_refilled),
                    "service refills drifted: {:?}", sc
                );
                prop_assert!(elided.timers <= reference.timers, "more timers: {:?}", sc);
                if reference.slotted_stall {
                    prop_assert!(elided.timers < reference.timers, "no stall elided: {:?}", sc);
                }
            }
        }

        /// The proptest must not pass vacuously: this scenario stalls on a
        /// slotted bucket behind a service bucket, as a Lambda reading S3
        /// does, drops one transfer mid-stall, and still matches.
        #[test]
        fn a_cancelled_slotted_stall_is_elided_without_trace() {
            let xfer = |i: u64, deadline_ms| Xfer {
                src: 1,
                dst: 0,
                mib: 60,
                start_ns: 3_000_000 * i + i,
                flow_cap: false,
                fabric: false,
                deadline_ms,
            };
            let sc = Scenario {
                nics: vec![NicKind::Lambda, NicKind::Service],
                xfers: vec![xfer(0, None), xfer(1, Some(180)), xfer(2, None)],
            };
            let (expect, reference) = run(&sc, true);
            let (got, elided) = run(&sc, false);
            assert_eq!(got, expect);
            assert!(close(&elided.service_refilled, &reference.service_refilled));
            assert!(expect.stalled_slices > 100, "{expect:?}");
            assert_eq!(expect.completions[0], (1, None), "dropped at its deadline");
            assert!(
                elided.timers * 3 < reference.timers,
                "{} vs {} timers",
                elided.timers,
                reference.timers
            );
        }
    }

    #[test]
    fn concurrent_transfers_share_one_nic() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let client = lambda_nic();
            let server = Nic::unlimited();
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let ctx2 = ctx.clone();
                    let client = Rc::clone(&client);
                    let server = Rc::clone(&server);
                    ctx.spawn(async move {
                        transfer(&ctx2, &server, &client, 150 * MIB, &TransferOpts::default()).await
                    })
                })
                .collect();
            join_all(handles).await
        });
        sim.run();
        let stats = h.try_take().unwrap();
        // Combined 300 MiB fits the burst budget: both finish ~0.25s.
        let end = stats
            .iter()
            .map(|s| s.end.as_secs_f64())
            .fold(0.0, f64::max);
        assert!(end < 0.35, "end {end}");
    }
}
