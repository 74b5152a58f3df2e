//! Figures 5–7: serverless network characterisation.

use crate::in_sim;
use skyrise::compute::nic_for;
use skyrise::micro::{
    analyze_burst, ascii_chart, measure, Direction, ExperimentResult, NamedSeries, NetIoConfig,
};
use skyrise::net::presets;
use skyrise::prelude::*;
use skyrise::pricing::ec2_instance;

/// Fig. 5: function network throughput at 20 ms intervals, with a 3 s
/// sleep that refills the (rechargeable half of the) token bucket.
pub fn fig05() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig05",
        "Function network throughput at 20 ms intervals with refill pause",
    );
    r.param("duration", "8s").param("pause", "1s..4s");

    let (inbound, outbound) = in_sim(0xF105, |ctx| {
        Box::pin(async move {
            let cfg = |direction| NetIoConfig {
                direction,
                duration: SimDuration::from_secs(8),
                pause: Some((SimDuration::from_secs(1), SimDuration::from_secs(3))),
                ..NetIoConfig::default()
            };
            let nic_in = presets::lambda_nic();
            let inbound = measure(&ctx, &nic_in, &cfg(Direction::Inbound)).await;
            let nic_out = presets::lambda_nic();
            let outbound = measure(&ctx, &nic_out, &cfg(Direction::Outbound)).await;
            (inbound, outbound)
        })
    });

    let to_gibs = |s: &skyrise::sim::IntervalSeries| {
        NamedSeries::new(
            "",
            s.points()
                .into_iter()
                .map(|(x, y)| (x, y / GIB as f64))
                .collect(),
        )
    };
    let mut s_in = to_gibs(&inbound);
    s_in.name = "inbound GiB/s".into();
    let mut s_out = to_gibs(&outbound);
    s_out.name = "outbound GiB/s".into();
    println!("{}", ascii_chart(&[s_in.clone(), s_out.clone()], 100, 16));

    let probe_in = analyze_burst(&inbound);
    let probe_out = analyze_burst(&outbound);
    r.scalar("inbound_burst_gib_s", probe_in.burst_bw / GIB as f64);
    r.scalar("outbound_burst_gib_s", probe_out.burst_bw / GIB as f64);
    r.scalar("inbound_baseline_mib_s", probe_in.baseline_bw / MIB as f64);
    r.push_series(s_in);
    r.push_series(s_out);
    r
}

/// Fig. 6: EC2 C6g and Lambda network bursting: burst and baseline
/// throughput plus token-bucket size per instance size.
pub fn fig06() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig06",
        "EC2 C6g and Lambda network bursting: burst/baseline throughput and bucket size",
    );
    let sizes = [
        "c6g.medium",
        "c6g.large",
        "c6g.xlarge",
        "c6g.2xlarge",
        "c6g.4xlarge",
        "c6g.8xlarge",
        "c6g.12xlarge",
        "c6g.16xlarge",
    ];
    let mut burst_pts = Vec::new();
    let mut base_pts = Vec::new();
    let mut bucket_pts = Vec::new();
    let mut names: Vec<String> = Vec::new();

    for (idx, name) in sizes.iter().enumerate() {
        let spec = ec2_instance(name).expect("catalog");
        // Measure long enough to drain the bucket and observe baseline;
        // the paper's runs took 3 to 45 minutes depending on size.
        let drain_secs = if spec.net_bucket_bytes() > 0.0 {
            spec.net_bucket_bytes() / (spec.net_burst_bps() - spec.net_baseline_bps()).max(1.0)
        } else {
            0.0
        };
        let duration = SimDuration::from_secs_f64((drain_secs * 1.6).max(10.0));
        let probe = in_sim(0xF600 + idx as u64, move |ctx| {
            Box::pin(async move {
                let nic = nic_for(&spec);
                let cfg = NetIoConfig {
                    duration,
                    flows: 8,
                    ..NetIoConfig::default()
                };
                let series = measure(&ctx, &nic, &cfg).await;
                analyze_burst(&series)
            })
        });
        names.push(name.to_string());
        burst_pts.push((idx as f64, probe.burst_bw * 8.0 / 1e9)); // Gbps
        base_pts.push((idx as f64, probe.baseline_bw * 8.0 / 1e9));
        bucket_pts.push((idx as f64, probe.bucket_bytes / GIB as f64));
        r.scalar(&format!("{name}_burst_gbps"), probe.burst_bw * 8.0 / 1e9);
        r.scalar(
            &format!("{name}_bucket_gib"),
            probe.bucket_bytes / GIB as f64,
        );
    }

    // Lambda alongside.
    let lambda_probe = in_sim(0xF6FF, |ctx| {
        Box::pin(async move {
            let nic = presets::lambda_nic();
            let cfg = NetIoConfig {
                duration: SimDuration::from_secs(10),
                ..NetIoConfig::default()
            };
            let series = measure(&ctx, &nic, &cfg).await;
            analyze_burst(&series)
        })
    });
    let li = sizes.len() as f64;
    names.push("lambda".into());
    burst_pts.push((li, lambda_probe.burst_bw * 8.0 / 1e9));
    base_pts.push((li, lambda_probe.baseline_bw * 8.0 / 1e9));
    bucket_pts.push((li, lambda_probe.bucket_bytes / GIB as f64));
    r.scalar("lambda_burst_gbps", lambda_probe.burst_bw * 8.0 / 1e9);
    r.scalar("lambda_bucket_gib", lambda_probe.bucket_bytes / GIB as f64);

    let mut rows = vec![vec![
        "Instance".to_string(),
        "Burst [Gbps]".into(),
        "Baseline [Gbps]".into(),
        "Bucket [GiB]".into(),
    ]];
    for (i, n) in names.iter().enumerate() {
        rows.push(vec![
            n.clone(),
            format!("{:.2}", burst_pts[i].1),
            format!("{:.2}", base_pts[i].1),
            format!("{:.2}", bucket_pts[i].1),
        ]);
    }
    println!("{}", skyrise::micro::text_table(&rows));

    r.push_series(NamedSeries::new("burst_gbps", burst_pts));
    r.push_series(NamedSeries::new("baseline_gbps", base_pts));
    r.push_series(NamedSeries::new("bucket_gib", bucket_pts));
    r
}

/// Fig. 7: aggregated network throughput for 32–256 concurrent functions,
/// with and without a customer-owned VPC.
pub fn fig07() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig07",
        "Aggregated function network throughput, with/without VPC",
    );
    let counts = [32usize, 64, 128, 256];
    let mut no_vpc_burst = Vec::new();
    let mut vpc_burst = Vec::new();
    let mut no_vpc_base = Vec::new();

    for (idx, &n) in counts.iter().enumerate() {
        for vpc in [false, true] {
            let (agg_burst, agg_base) = in_sim(0xF700 + idx as u64 * 2 + vpc as u64, move |ctx| {
                Box::pin(async move {
                    let fabric = vpc
                        .then(|| Fabric::rate_capped("customer-vpc", presets::VPC_AGGREGATE_CAP));
                    let handles: Vec<_> = (0..n)
                        .map(|i| {
                            let ctx2 = ctx.clone();
                            let fabric = fabric.clone();
                            ctx.spawn(async move {
                                // Small per-sandbox variation, as the platform applies.
                                let scale = 1.0 + ((i % 7) as f64 - 3.0) * 0.01;
                                let nic = presets::lambda_nic_scaled(scale, scale);
                                let cfg = NetIoConfig {
                                    duration: SimDuration::from_secs(3),
                                    fabric,
                                    ..NetIoConfig::default()
                                };
                                measure(&ctx2, &nic, &cfg).await
                            })
                        })
                        .collect();
                    let series = join_all(handles).await;
                    let mut agg = series[0].clone();
                    for s in &series[1..] {
                        agg.merge(s);
                    }
                    let probe = analyze_burst(&agg);
                    (probe.burst_bw, probe.baseline_bw)
                })
            });
            let x = n as f64;
            if vpc {
                vpc_burst.push((x, agg_burst / GIB as f64));
            } else {
                no_vpc_burst.push((x, agg_burst / GIB as f64));
                no_vpc_base.push((x, agg_base / GIB as f64));
            }
        }
    }

    println!(
        "{}",
        ascii_chart(
            &[
                NamedSeries::new("burst (no VPC) GiB/s", no_vpc_burst.clone()),
                NamedSeries::new("burst (VPC) GiB/s", vpc_burst.clone()),
                NamedSeries::new("baseline (no VPC) GiB/s", no_vpc_base.clone()),
            ],
            80,
            14,
        )
    );
    r.scalar(
        "no_vpc_burst_at_256_gib_s",
        no_vpc_burst.last().expect("points").1,
    );
    r.scalar(
        "vpc_burst_at_256_gib_s",
        vpc_burst.last().expect("points").1,
    );
    r.push_series(NamedSeries::new("no_vpc_burst", no_vpc_burst));
    r.push_series(NamedSeries::new("vpc_burst", vpc_burst));
    r.push_series(NamedSeries::new("no_vpc_baseline", no_vpc_base));
    r
}
