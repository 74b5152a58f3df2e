//! Tables 4–6: dataset inventory, variability, and FaaS-vs-IaaS
//! economics.

use crate::datasets::{load_paper_datasets, PAPER_TABLES};
use crate::in_sim;
use skyrise::data::{spf, tpch, tpcxbb};
use skyrise::engine::{queries, QueryConfig, QueryResponse, Skyrise};
use skyrise::micro::{text_table, ExperimentResult};
use skyrise::prelude::*;
use skyrise::pricing::LambdaPricing;
use skyrise::sim::metrics::summary;
use std::rc::Rc;

/// Table 4: datasets at SF1000 — sizes extrapolated from our SPF
/// encoding of sampled data, partition counts from the paper's layout.
pub fn table04() -> ExperimentResult {
    let mut r = ExperimentResult::new("table04", "Datasets used in the experiments (SF1000)");
    let sample_sf = 0.01;
    let t = tpch::generate(sample_sf, 7);
    let bb = tpcxbb::generate(sample_sf * 10.0, 7);

    // ZSTD typically compresses these tables ~1.6x better than our
    // lightweight encodings; apply that documented equivalence factor.
    const ZSTD_EQUIVALENCE: f64 = 0.62;

    let mut rows = vec![vec![
        "TPC table".to_string(),
        "Size [GiB]".into(),
        "# partitions".into(),
        "Partition size [MiB]".into(),
    ]];
    for spec in PAPER_TABLES {
        let (batch, rows_at_sf1000): (&Batch, f64) = match spec.name {
            "h_lineitem" => (
                &t.lineitem,
                t.lineitem.num_rows() as f64 / sample_sf * 1000.0 * sample_sf / sample_sf,
            ),
            "h_orders" => (&t.orders, tpch::orders_rows(1000.0) as f64),
            "bb_clickstreams" => (&bb.clickstreams, tpcxbb::clickstream_rows(1000.0) as f64),
            _ => (&bb.item, tpcxbb::item_rows(1000.0) as f64),
        };
        let encoded = spf::write(std::slice::from_ref(batch), 8192);
        let bytes_per_row = encoded.len() as f64 / batch.num_rows() as f64;
        let rows1000 = if spec.name == "h_lineitem" {
            batch.num_rows() as f64 / sample_sf * 1000.0
        } else {
            rows_at_sf1000
        };
        let total_gib = rows1000 * bytes_per_row * ZSTD_EQUIVALENCE / GIB as f64;
        let part_mib = total_gib * 1024.0 / spec.sf1000_partitions as f64;
        rows.push(vec![
            spec.name.into(),
            format!("{total_gib:.1}"),
            spec.sf1000_partitions.to_string(),
            format!("{part_mib:.1}"),
        ]);
        r.scalar(&format!("{}_sf1000_gib", spec.name), total_gib);
        r.scalar(&format!("{}_partition_mib", spec.name), part_mib);
    }
    println!("{}", text_table(&rows));
    r
}

/// One suite run: all four queries back to back; returns total runtime.
async fn run_suite(engine: &Rc<Skyrise>, config: &QueryConfig) -> f64 {
    let mut total = 0.0;
    for plan in queries::suite() {
        let response = engine
            .run(&plan, config.clone())
            .await
            .expect("suite query");
        total += response.runtime_secs;
    }
    total
}

/// Table 5: performance variability between and within regions, for cold
/// (spread over a workday) and warm (back-to-back) runs.
pub fn table05() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "table05",
        "Variability between/within regions (MR vs us-east-1, CoV %)",
    );
    let reps = 5usize;
    let fraction = 0.02;
    r.param("reps", reps).param("fraction", fraction);

    let mut medians: Vec<[f64; 2]> = Vec::new(); // [cold, warm] per region
    let mut covs: Vec<[f64; 2]> = Vec::new();
    let regions = Region::table5();

    for (ri, region) in regions.iter().enumerate() {
        let region = region.clone();
        let (cold_runs, warm_runs) = in_sim(0xE500 + ri as u64, move |ctx| {
            Box::pin(async move {
                let meter = shared_meter();
                let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
                load_paper_datasets(&storage, 0.004, fraction).unwrap();
                let lambda = LambdaPlatform::new(&ctx, &meter, region);
                let engine = Skyrise::deploy_simple(
                    &ctx,
                    ComputePlatform::Faas(Rc::clone(&lambda)),
                    storage,
                );
                let config = QueryConfig {
                    target_bytes_per_worker: 256 << 20,
                    ..QueryConfig::default()
                };

                // Cold: repetitions spread across a workday (paper: 15-min
                // intervals over a workday); sandboxes expire in between.
                ctx.sleep_until(skyrise::sim::SimTime::from_nanos(9 * 3_600 * 1_000_000_000))
                    .await;
                let mut cold = Vec::new();
                for _ in 0..reps {
                    // Co-tenant workloads keep the account's sandbox-scaling
                    // pool (almost) drained, with the residual varying run
                    // to run: each cold cluster startup rides the region's
                    // refill rate plus that local jitter — the paper's EU
                    // contention and its "localized factors".
                    let drain = ctx.with_rng(|r| r.gen_range_f64(0.995, 1.0));
                    lambda.consume_scaling_burst(3_000.0 * drain);
                    cold.push(run_suite(&engine, &config).await);
                    ctx.sleep(SimDuration::from_mins(95)).await;
                }
                // Warm: back-to-back over three hours.
                let mut warm = Vec::new();
                run_suite(&engine, &config).await; // warmup
                for _ in 0..reps {
                    warm.push(run_suite(&engine, &config).await);
                }
                (cold, warm)
            })
        });
        medians.push([summary::median(&cold_runs), summary::median(&warm_runs)]);
        covs.push([
            summary::cov_percent(&cold_runs),
            summary::cov_percent(&warm_runs),
        ]);
    }

    let mut rows = vec![vec![
        "Measure".to_string(),
        "US".into(),
        "EU".into(),
        "AP".into(),
    ]];
    for (mi, (label, idx)) in [("Cold MR (US)", 0usize), ("Warm MR (US)", 1)]
        .iter()
        .enumerate()
    {
        let _ = mi;
        let mut row = vec![label.to_string()];
        for reg in 0..3 {
            row.push(format!("{:.2}", medians[reg][*idx] / medians[0][*idx]));
        }
        rows.push(row);
    }
    for (label, idx) in [("Cold CoV", 0usize), ("Warm CoV", 1)] {
        let mut row = vec![label.to_string()];
        row.extend(covs.iter().map(|c| format!("{:.2}", c[idx])));
        rows.push(row);
    }
    println!("{}", text_table(&rows));

    for (reg, name) in ["us", "eu", "ap"].iter().enumerate() {
        r.scalar(&format!("{name}_cold_median_secs"), medians[reg][0]);
        r.scalar(&format!("{name}_warm_median_secs"), medians[reg][1]);
        r.scalar(&format!("{name}_cold_mr"), medians[reg][0] / medians[0][0]);
        r.scalar(&format!("{name}_warm_mr"), medians[reg][1] / medians[0][1]);
        r.scalar(&format!("{name}_cold_cov"), covs[reg][0]);
        r.scalar(&format!("{name}_warm_cov"), covs[reg][1]);
    }
    r
}

/// Per-query measurements for Table 6.
struct QueryEconomics {
    iaas_secs: f64,
    faas_secs: f64,
    cumulated_secs: f64,
    faas_cost_cents: f64,
    break_even_per_hour: f64,
    peak_to_avg: f64,
    storage_requests: u64,
    shuffle_io_kib: (f64, f64),
    storage_cost_cents: f64,
    peak_workers: u32,
}

fn measure_query(plan_idx: usize) -> QueryEconomics {
    in_sim(0xE600 + plan_idx as u64, move |ctx| {
        Box::pin(async move {
            let plan = if plan_idx == 0 {
                queries::q6()
            } else {
                queries::q12()
            };
            let meter = shared_meter();
            let fraction = 0.2;
            // Burst-calibrated workers: one ~182 MiB partition each (the
            // paper's own recommendation, and what makes its Q6 cluster
            // 201 workers wide at 996 partitions). This also recreates
            // Q12's tens-of-thousands-of-requests shuffle.
            let config = QueryConfig {
                target_bytes_per_worker: 190 << 20,
                ..QueryConfig::default()
            };

            // FaaS arm (functions warmed up, paper Sec. 5.2).
            let s1 = Storage::S3(S3Bucket::standard(&ctx, &meter));
            load_paper_datasets(&s1, 0.01, fraction).unwrap();
            let lambda = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
            let engine = Skyrise::deploy_simple(&ctx, ComputePlatform::Faas(lambda), s1);
            // Discover the peak parallelism with one warmup run.
            let warmup = engine.run(&plan, config.clone()).await.expect("warmup");
            let peak = warmup.peak_workers();
            engine.warm(peak as usize + 8).await;

            // Measured FaaS run with metering deltas.
            let (gb_s0, inv0, req_cost0) = {
                let m = meter.borrow();
                (
                    m.lambda.gb_seconds,
                    m.lambda.invocations,
                    m.report().storage_request_usd,
                )
            };
            let faas: QueryResponse = engine.run(&plan, config.clone()).await.expect("faas run");
            let (gb_s1, inv1, req_cost1, requests) = {
                let m = meter.borrow();
                (
                    m.lambda.gb_seconds,
                    m.lambda.invocations,
                    m.report().storage_request_usd,
                    faas.total_requests(),
                )
            };
            let pricing = LambdaPricing::arm();
            let faas_cost =
                (gb_s1 - gb_s0) * pricing.gb_second() + (inv1 - inv0) as f64 * pricing.per_request;
            let storage_cost = req_cost1 - req_cost0;

            // IaaS arm: peak-provisioned c6g.xlarge cluster.
            let s2 = Storage::S3(S3Bucket::standard(&ctx, &meter));
            load_paper_datasets(&s2, 0.01, fraction).unwrap();
            let fleet = Ec2Fleet::new(&ctx, &meter);
            let vms = fleet
                .launch_many(&LaunchConfig::on_demand("c6g.xlarge"), peak as usize)
                .await;
            let cluster = ShimCluster::new(&ctx, vms, 4);
            let cluster_usd_h = cluster.usd_per_hour();
            let iaas_engine = Skyrise::deploy_simple(&ctx, ComputePlatform::Shim(cluster), s2);
            let iaas = iaas_engine.run(&plan, config).await.expect("iaas run");

            // Shuffle object size range across shuffle-writing stages.
            let mut shuffle_sizes: Vec<f64> = faas
                .stages
                .iter()
                .filter(|s| {
                    s.downstream_fragments > 0 && s.pipeline != faas.stages.last().unwrap().pipeline
                })
                .filter_map(|s| s.mean_shuffle_object_bytes())
                .collect();
            shuffle_sizes.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let shuffle_kib = (
                shuffle_sizes.first().copied().unwrap_or(0.0) / KIB as f64,
                shuffle_sizes.last().copied().unwrap_or(0.0) / KIB as f64,
            );

            QueryEconomics {
                iaas_secs: iaas.runtime_secs,
                faas_secs: faas.runtime_secs,
                cumulated_secs: faas.cumulative_worker_secs,
                faas_cost_cents: faas_cost * 100.0,
                break_even_per_hour: cluster_usd_h / faas_cost,
                peak_to_avg: faas.peak_workers() as f64 / faas.average_workers(),
                storage_requests: requests,
                shuffle_io_kib: shuffle_kib,
                storage_cost_cents: storage_cost * 100.0,
                peak_workers: peak,
            }
        })
    })
}

/// Table 6: execution statistics and derived economic metrics for TPC-H
/// Q6 and Q12 (FaaS vs peak-provisioned IaaS).
pub fn table06() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "table06",
        "Execution statistics and economics: break-even FaaS throughput, peak-to-average nodes",
    );
    let q6 = measure_query(0);
    let q12 = measure_query(1);

    let rows = vec![
        vec!["Metric".to_string(), "H-Q6".into(), "H-Q12".into()],
        vec![
            "IaaS runtime [s]".into(),
            format!("{:.1}", q6.iaas_secs),
            format!("{:.1}", q12.iaas_secs),
        ],
        vec![
            "FaaS runtime [s]".into(),
            format!("{:.1}", q6.faas_secs),
            format!("{:.1}", q12.faas_secs),
        ],
        vec![
            "Cumulated time [s]".into(),
            format!("{:.1}", q6.cumulated_secs),
            format!("{:.1}", q12.cumulated_secs),
        ],
        vec![
            "FaaS cost [c]".into(),
            format!("{:.2}", q6.faas_cost_cents),
            format!("{:.2}", q12.faas_cost_cents),
        ],
        vec![
            "Break-even [Q/h]".into(),
            format!("{:.0}", q6.break_even_per_hour),
            format!("{:.0}", q12.break_even_per_hour),
        ],
        vec![
            "Peak-to-average nodes".into(),
            format!("{:.2}x", q6.peak_to_avg),
            format!("{:.2}x", q12.peak_to_avg),
        ],
        vec![
            "Peak workers".into(),
            q6.peak_workers.to_string(),
            q12.peak_workers.to_string(),
        ],
        vec![
            "Storage requests".into(),
            q6.storage_requests.to_string(),
            q12.storage_requests.to_string(),
        ],
        vec![
            "Shuffle I/O size [KiB]".into(),
            format!("{:.1}", q6.shuffle_io_kib.1),
            format!("{:.1} - {:.0}", q12.shuffle_io_kib.0, q12.shuffle_io_kib.1),
        ],
        vec![
            "Storage cost [c]".into(),
            format!("{:.3}", q6.storage_cost_cents),
            format!("{:.3}", q12.storage_cost_cents),
        ],
    ];
    println!("{}", text_table(&rows));

    r.scalar("q6_slowdown", q6.faas_secs / q6.iaas_secs);
    r.scalar("q12_slowdown", q12.faas_secs / q12.iaas_secs);
    r.scalar("q6_break_even_qph", q6.break_even_per_hour);
    r.scalar("q12_break_even_qph", q12.break_even_per_hour);
    r.scalar("q6_faas_cost_cents", q6.faas_cost_cents);
    r.scalar("q12_faas_cost_cents", q12.faas_cost_cents);
    r.scalar("q12_peak_to_avg", q12.peak_to_avg);
    r.scalar("q12_storage_requests", q12.storage_requests as f64);
    r
}
