//! Figures 14–15: resource effects translated to query performance.

use crate::datasets::load_paper_datasets;
use crate::{in_sim, in_sim_traced};
use skyrise::engine::{cpu, queries, QueryConfig};
use skyrise::micro::{ascii_chart, text_table, ExperimentResult, NamedSeries};
use skyrise::net::presets;
use skyrise::prelude::*;

/// Analytic network model of a Lambda worker ingesting `bytes`: burst at
/// 1.2 GiB/s until the 300 MiB budget (plus concurrent refill) drains,
/// then the 75 MiB/s baseline.
pub fn network_model_secs(bytes: f64) -> f64 {
    let burst = presets::LAMBDA_BURST_IN;
    let base = 75.0 * MIB as f64;
    let budget = presets::LAMBDA_RECHARGEABLE + presets::LAMBDA_ONEOFF;
    // Burst phase: tokens + refill feed the burst rate.
    let t_burst = budget / (burst - base);
    let bytes_in_burst = burst * t_burst;
    if bytes <= bytes_in_burst {
        bytes / burst
    } else {
        t_burst + (bytes - bytes_in_burst) / base
    }
}

/// Fig. 14: query worker throughput for input sizes within and beyond
/// the network burst budget (TPC-H Q6): network model vs I/O stack vs
/// scan operator vs complete query.
pub fn fig14() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig14",
        "Worker throughput within/beyond the network burst budget (TPC-H Q6)",
    );
    let partition_mib = 182.4;
    let mut model_pts = Vec::new();
    let mut io_pts = Vec::new();
    let mut scan_pts = Vec::new();
    let mut query_pts = Vec::new();

    for k in 1..=6usize {
        let input_bytes = k as f64 * partition_mib * MIB as f64;
        model_pts.push((
            input_bytes / GIB as f64,
            input_bytes / network_model_secs(input_bytes) / GIB as f64,
        ));

        let (response, profile) = in_sim_traced(0xFE14 + k as u64, move |ctx| {
            Box::pin(async move {
                let meter = shared_meter();
                let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
                // 8 workers x k partitions each.
                load_paper_datasets(&storage, 0.005, (8 * k) as f64 / 996.0).unwrap();
                let lambda = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
                let engine = Skyrise::deploy_simple(&ctx, ComputePlatform::Faas(lambda), storage);
                engine.warm(12).await;
                let config = QueryConfig {
                    target_bytes_per_worker: (k as f64 * partition_mib * MIB as f64) as u64,
                    ..QueryConfig::default()
                };
                engine
                    .run_profiled(&queries::q6(), config)
                    .await
                    .expect("q6")
            })
        });
        let scan = &response.stages[0];
        let fragments = scan.fragments;
        let bytes_per_worker = scan.logical_bytes_read as f64 / fragments as f64;
        let io_secs = scan.io_secs_total / fragments as f64;
        let cpu_secs = scan.cpu_secs_total / fragments as f64;
        assert!(fragments >= 4, "enough parallelism ({fragments})");
        // The largest input doubles as the acceptance profile: per-operator
        // time and cost breakdown for TPC-H Q6.
        if k == 6 {
            println!("{}", profile.render(&response));
            r.scalar("q6_profile_runtime_secs", response.runtime_secs);
            r.scalar("q6_profile_coldstart_share", profile.coldstart_share);
            for (op, secs) in &profile.operator_secs {
                r.scalar(&format!("q6_op_{}_secs", op.replace('-', "_")), *secs);
            }
            if let Some(cost) = &profile.cost {
                r.scalar("q6_profile_cost_usd", cost.total_usd());
            }
        }
        let x = bytes_per_worker / GIB as f64;
        // "Scan operator": fetch + I/O stack + decode (the worker's I/O phase).
        scan_pts.push((x, bytes_per_worker / io_secs / GIB as f64));
        // "I/O stack": remove the decode share (charged during the I/O phase).
        let decode = cpu::decode_cost(bytes_per_worker, 4.0).as_secs_f64();
        io_pts.push((
            x,
            bytes_per_worker / (io_secs - decode).max(1e-9) / GIB as f64,
        ));
        // Complete query: I/O + operators.
        query_pts.push((x, bytes_per_worker / (io_secs + cpu_secs) / GIB as f64));
    }

    println!(
        "{}",
        ascii_chart(
            &[
                NamedSeries::new("network model GiB/s", model_pts.clone()),
                NamedSeries::new("I/O stack GiB/s", io_pts.clone()),
                NamedSeries::new("scan GiB/s", scan_pts.clone()),
                NamedSeries::new("query GiB/s", query_pts.clone()),
            ],
            90,
            16,
        )
    );
    // Burst exploitation speedup: per-byte speed within the budget vs at
    // the largest input (paper: "up to 53% faster").
    let speedup = query_pts[0].1 / query_pts.last().expect("points").1;
    r.scalar("within_budget_speedup", speedup);
    r.scalar("model_tput_within_gib_s", model_pts[0].1);
    r.scalar("query_tput_within_gib_s", query_pts[0].1);
    r.scalar(
        "query_tput_beyond_gib_s",
        query_pts.last().expect("points").1,
    );
    r.push_series(NamedSeries::new("network_model", model_pts));
    r.push_series(NamedSeries::new("io_stack", io_pts));
    r.push_series(NamedSeries::new("scan", scan_pts));
    r.push_series(NamedSeries::new("query", query_pts));
    r
}

/// Fig. 15: IOPS throughput of S3 classes/modes and their impact on
/// TPC-H Q12 and its shuffle.
pub fn fig15() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig15",
        "S3 class/warm-state impact on TPC-H Q12 and its shuffle",
    );
    let fragments = 64u32;
    r.param("join_fragments", fragments);

    let mut rows = vec![vec![
        "Shuffle storage".to_string(),
        "Query [s]".into(),
        "Shuffle stage [s]".into(),
        "Shuffle IOPS".into(),
    ]];
    for (arm, label) in [
        (0u64, "S3 Standard (new)"),
        (1, "S3 Standard (warmed)"),
        (2, "S3 Express"),
    ] {
        let (query_secs, shuffle_secs, shuffle_iops) = in_sim(0xFE15 + arm, move |ctx| {
            Box::pin(async move {
                let meter = shared_meter();
                let base = Storage::S3(S3Bucket::standard(&ctx, &meter));
                load_paper_datasets(&base, 0.01, 0.15).unwrap();
                let shuffle = match arm {
                    0 => Storage::S3(S3Bucket::standard(&ctx, &meter)),
                    1 => {
                        let bucket = S3Bucket::standard(&ctx, &meter);
                        // "a bucket that has just been used for query
                        // execution for 15 minutes" — warmed partitions.
                        bucket.warm_to(5);
                        Storage::S3(bucket)
                    }
                    _ => Storage::S3(S3Bucket::express(&ctx, &meter)),
                };
                let lambda = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
                let engine = Skyrise::deploy(&ctx, ComputePlatform::Faas(lambda), base, shuffle);
                engine.warm(80).await;

                let mut plan = queries::q12();
                for p in plan.pipelines.iter_mut() {
                    if p.id != 3 {
                        p.fragments = Some(fragments);
                    }
                }
                let response = engine.run_default(&plan).await.expect("q12");
                // The join pipeline (id 2) reads both shuffles.
                let join = response
                    .stages
                    .iter()
                    .find(|s| s.pipeline == 2)
                    .expect("join stage");
                let iops = join.storage_requests as f64 / join.duration_secs.max(1e-9);
                (response.runtime_secs, join.duration_secs, iops)
            })
        });
        rows.push(vec![
            label.into(),
            format!("{query_secs:.2}"),
            format!("{shuffle_secs:.2}"),
            format!("{shuffle_iops:.0}"),
        ]);
        let key = label
            .replace(['(', ')'], "")
            .replace(' ', "_")
            .to_lowercase();
        r.scalar(&format!("{key}_query_secs"), query_secs);
        r.scalar(&format!("{key}_shuffle_secs"), shuffle_secs);
        r.scalar(&format!("{key}_shuffle_iops"), shuffle_iops);
    }
    println!("{}", text_table(&rows));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_model_has_burst_knee() {
        let within = 200.0 * MIB as f64;
        let beyond = 1_200.0 * MIB as f64;
        let tput_within = within / network_model_secs(within);
        let tput_beyond = beyond / network_model_secs(beyond);
        assert!(tput_within > GIB as f64, "within budget ~1.2 GiB/s");
        assert!(
            tput_beyond < 0.35 * GIB as f64,
            "beyond drops toward baseline"
        );
    }
}
