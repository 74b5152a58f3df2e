//! The network I/O measurement function (paper Sec. 3.1): an iPerf3-like
//! traffic generator against simulated endpoints, sampling throughput at
//! 20 ms intervals — the instrument behind Figs. 5–7.

use skyrise_net::{presets, transfer, Fabric, Nic, SharedNic, TransferOpts};
use skyrise_sim::{race, Either, IntervalSeries, SimCtx, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Sampling interval of the paper's network plots.
pub const SAMPLE_INTERVAL: SimDuration = SimDuration::from_millis(20);

/// Traffic direction relative to the function under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Server -> function (download).
    Inbound,
    /// Function -> server (upload).
    Outbound,
}

/// Configuration of one network measurement.
#[derive(Clone)]
pub struct NetIoConfig {
    /// Traffic direction under test.
    pub direction: Direction,
    /// Total measurement window.
    pub duration: SimDuration,
    /// Optional silent break `(start, length)` within the window — the
    /// Fig. 5 experiment sends, pauses 3 s, then sends again.
    pub pause: Option<(SimDuration, SimDuration)>,
    /// Parallel TCP connections (one per vCPU in the paper's setup).
    pub flows: u32,
    /// Per-flow cap (EC2's 5 Gbps single-flow limit), if any.
    pub flow_cap: Option<f64>,
    /// Shared fabric constraint (customer VPC), if any.
    pub fabric: Option<Fabric>,
}

impl Default for NetIoConfig {
    fn default() -> Self {
        NetIoConfig {
            direction: Direction::Inbound,
            duration: SimDuration::from_secs(5),
            pause: None,
            flows: 4,
            flow_cap: Some(presets::EC2_SINGLE_FLOW_CAP),
            fabric: None,
        }
    }
}

/// Drive traffic through `client` for the configured window and return
/// the 20 ms throughput series (bytes per bucket).
pub async fn measure(ctx: &SimCtx, client: &SharedNic, cfg: &NetIoConfig) -> IntervalSeries {
    let recorder = Rc::new(RefCell::new(IntervalSeries::new(
        ctx.now(),
        SAMPLE_INTERVAL,
    )));
    let server = Nic::unlimited();
    let opts = TransferOpts {
        flows: cfg.flows,
        flow_cap: cfg.flow_cap,
        fabric: cfg.fabric.clone(),
        recorder: Some(Rc::clone(&recorder)),
        label: None,
    };
    let start = ctx.now();
    let phases: Vec<(SimTime, SimTime)> = match cfg.pause {
        Some((at, len)) => vec![
            (start, start + at),
            (start + at + len, start + cfg.duration),
        ],
        None => vec![(start, start + cfg.duration)],
    };
    for (phase_start, phase_end) in phases {
        if ctx.now() < phase_start {
            ctx.sleep_until(phase_start).await;
        }
        // Stream "unlimited" data until the phase deadline: issue large
        // transfers and cancel the tail one at the deadline.
        while ctx.now() < phase_end {
            let remaining = phase_end - ctx.now();
            let deadline = ctx.sleep(remaining);
            let chunk = 4u64 << 30; // far more than any phase can move
            let tx = async {
                match cfg.direction {
                    Direction::Inbound => transfer(ctx, &server, client, chunk, &opts).await,
                    Direction::Outbound => transfer(ctx, client, &server, chunk, &opts).await,
                }
            };
            match race(tx, deadline).await {
                Either::Left(_) => continue, // chunk finished early (never, in practice)
                Either::Right(()) => break,  // deadline: cancel in-flight tail
            }
        }
    }
    Rc::try_unwrap(recorder)
        .map(RefCell::into_inner)
        .unwrap_or_else(|rc| rc.borrow().clone())
}

/// Burst characteristics extracted from a throughput series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstProbe {
    /// Peak sustained rate during the burst (bytes/s).
    pub burst_bw: f64,
    /// Steady-state rate after exhaustion (bytes/s).
    pub baseline_bw: f64,
    /// Token-bucket capacity estimate: bytes moved above baseline.
    pub bucket_bytes: f64,
}

/// Analyse a series into burst/baseline/bucket (the Fig. 6 metrics).
/// `burst_window` buckets at the start estimate the burst rate; the final
/// quarter of the series estimates the baseline.
pub fn analyze_burst(series: &IntervalSeries) -> BurstProbe {
    let rates = series.rates_per_sec();
    if rates.is_empty() {
        return BurstProbe {
            burst_bw: 0.0,
            baseline_bw: 0.0,
            bucket_bytes: 0.0,
        };
    }
    let burst_window = 5.min(rates.len());
    let burst_bw = rates[..burst_window].iter().sum::<f64>() / burst_window as f64;
    let tail_start = rates.len() - (rates.len() / 4).max(1);
    let baseline_bw = rates[tail_start..].iter().sum::<f64>() / (rates.len() - tail_start) as f64;
    // The baseline itself is spiky (slotted refill), so estimating the
    // bucket per-interval overcounts; the excess over the whole window is
    // robust: total bytes minus what the baseline alone would have moved.
    let span = series.interval().as_secs_f64() * rates.len() as f64;
    let bucket_bytes = (series.total() - baseline_bw * span).max(0.0);
    BurstProbe {
        burst_bw,
        baseline_bw,
        bucket_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyrise_sim::{Sim, GIB, MIB};

    #[test]
    fn lambda_inbound_fig5_shape() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let nic = presets::lambda_nic();
            let cfg = NetIoConfig {
                duration: SimDuration::from_secs(5),
                pause: Some((SimDuration::from_secs(1), SimDuration::from_secs(3))),
                ..NetIoConfig::default()
            };
            measure(&ctx, &nic, &cfg).await
        });
        sim.run();
        let series = h.try_take().unwrap();
        let rates = series.rates_per_sec();
        // Initial burst at ~1.2 GiB/s for ~250 ms.
        assert!(
            rates[0] > 1.1 * GIB as f64,
            "initial burst {:.2e}",
            rates[0]
        );
        let burst_buckets = rates.iter().take(15).filter(|&&r| r > GIB as f64).count();
        assert!(
            (10..=14).contains(&burst_buckets),
            "{burst_buckets} buckets of burst"
        );
        // After the 3 s pause (phase 2 starts at t=4 s, bucket 200): a
        // second, shorter burst from the refilled rechargeable half.
        let second = &rates[200..];
        assert!(
            second[0] > 1.1 * GIB as f64,
            "second burst {:.2e}",
            second[0]
        );
        let second_burst = second.iter().filter(|&&r| r > GIB as f64).count();
        assert!(
            second_burst < burst_buckets,
            "second burst shorter: {second_burst} vs {burst_buckets}"
        );
    }

    #[test]
    fn analyze_burst_recovers_lambda_parameters() {
        let mut sim = Sim::new(2);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let nic = presets::lambda_nic();
            let cfg = NetIoConfig {
                duration: SimDuration::from_secs(8),
                ..NetIoConfig::default()
            };
            let series = measure(&ctx, &nic, &cfg).await;
            analyze_burst(&series)
        });
        sim.run();
        let probe = h.try_take().unwrap();
        assert!((probe.burst_bw - 1.2 * GIB as f64).abs() / (1.2 * GIB as f64) < 0.1);
        assert!(
            (probe.baseline_bw - 75.0 * MIB as f64).abs() < 15.0 * MIB as f64,
            "baseline {:.1} MiB/s",
            probe.baseline_bw / MIB as f64
        );
        let bucket_mib = probe.bucket_bytes / MIB as f64;
        assert!(
            (250.0..=360.0).contains(&bucket_mib),
            "bucket {bucket_mib} MiB"
        );
    }

    #[test]
    fn outbound_bucket_is_independent_and_slower() {
        let mut sim = Sim::new(3);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let nic = presets::lambda_nic();
            let cfg_in = NetIoConfig {
                duration: SimDuration::from_secs(1),
                ..NetIoConfig::default()
            };
            let inbound = measure(&ctx, &nic, &cfg_in).await;
            // Outbound immediately after: its bucket is untouched.
            let cfg_out = NetIoConfig {
                direction: Direction::Outbound,
                duration: SimDuration::from_secs(1),
                ..NetIoConfig::default()
            };
            let outbound = measure(&ctx, &nic, &cfg_out).await;
            (analyze_burst(&inbound), analyze_burst(&outbound))
        });
        sim.run();
        let (inb, outb) = h.try_take().unwrap();
        assert!(outb.burst_bw > 0.9 * GIB as f64, "outbound still bursts");
        assert!(outb.burst_bw < inb.burst_bw, "outbound reduced vs inbound");
    }

    #[test]
    fn vpc_fabric_caps_aggregate() {
        let mut sim = Sim::new(4);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let fabric = Fabric::rate_capped("vpc", 2.0 * GIB as f64);
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let ctx2 = ctx.clone();
                    let fabric = fabric.clone();
                    ctx.spawn(async move {
                        let nic = presets::lambda_nic();
                        let cfg = NetIoConfig {
                            duration: SimDuration::from_millis(200),
                            fabric: Some(fabric),
                            ..NetIoConfig::default()
                        };
                        measure(&ctx2, &nic, &cfg).await.total()
                    })
                })
                .collect();
            let totals = skyrise_sim::join_all(handles).await;
            totals.iter().sum::<f64>()
        });
        sim.run();
        let total = h.try_take().unwrap();
        // 8 x 1.2 GiB/s unconstrained would move ~1.9 GiB in 200 ms; the
        // 2 GiB/s fabric caps it at ~0.4 GiB.
        assert!(total < 0.6 * GIB as f64, "fabric-capped total {total}");
    }
}
