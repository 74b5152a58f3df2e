//! `*.probe.*`, `data.*` and `engine.kernel.*`: host-time microbenchmarks
//! in which the harness alone drives one layer's public functions. They
//! run in the traced pass only, each a few times, and report the median.

use crate::span::Recorder;
use crate::stats::median;
use skyrise::data::{spf, tpch, tpcxbb, Batch};
use skyrise::engine::bind::execute_chain;
use skyrise::engine::expr::{CmpOp, Expr, UdfRegistry};
use skyrise::engine::operators::partition_batch;
use skyrise::engine::plan::{AggExpr, AggFunc, AggMode, Op};
use skyrise::micro::storageio::{run_closed_loop, StorageIoConfig};
use skyrise::net::presets::lambda_nic;
use skyrise::net::{transfer, Nic, TransferOpts};
use skyrise::pricing::shared_meter;
use skyrise::sim::{join_all, Sim, SimDuration, MIB};
use skyrise::storage::{S3Bucket, S3Config, Storage};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 3;

/// Median host seconds of `REPS` calls of `f`, each under a span.
fn time(rec: &Recorder, name: &str, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let _span = rec.span(name);
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Run every probe; `(metric name, value)` pairs.
pub fn run(rec: &Recorder, seed: u64, payload_sf: f64) -> Vec<(String, f64)> {
    let _span = rec.span("probes");
    let mut out = Vec::new();
    sim_probes(rec, seed, &mut out);
    net_probes(rec, seed, &mut out);
    storage_probes(rec, seed, &mut out);
    let tables = data_probes(rec, seed, payload_sf, &mut out);
    kernel_probes(rec, &tables, &mut out);
    out
}

fn sim_probes(rec: &Recorder, seed: u64, out: &mut Vec<(String, f64)>) {
    // 64 tasks, each a chain of 4096 timers.
    const TASKS: u64 = 64;
    const SLEEPS: u64 = 4096;
    let secs = time(rec, "sim.sleep_chain", || {
        let mut sim = Sim::new(seed);
        for t in 0..TASKS {
            let ctx = sim.ctx();
            sim.spawn(async move {
                for i in 0..SLEEPS {
                    ctx.sleep(SimDuration::from_micros(1 + (i * 7 + t) % 13))
                        .await;
                }
            });
        }
        black_box(sim.run());
    });
    out.push((
        "sim.probe.sleep_chain_mev_s".into(),
        (TASKS * SLEEPS) as f64 / secs / 1e6,
    ));

    // 64 rounds of spawning 4096 tasks and joining them, as `s3_ramp`
    // spawns one task per request and joins each window.
    const ROUNDS: u64 = 64;
    const SPAWNS: u64 = 4096;
    let secs = time(rec, "sim.spawn_join", || {
        let mut sim = Sim::new(seed);
        let ctx = sim.ctx();
        sim.spawn(async move {
            for _ in 0..ROUNDS {
                let handles = (0..SPAWNS).map(|i| ctx.spawn(async move { i })).collect();
                black_box(join_all(handles).await);
            }
        });
        black_box(sim.run());
    });
    out.push((
        "sim.probe.spawn_join_mev_s".into(),
        (ROUNDS * SPAWNS) as f64 / secs / 1e6,
    ));
}

fn net_probes(rec: &Recorder, seed: u64, out: &mut Vec<(String, f64)>) {
    let mut probe = |name: &str, span: &str, bytes: u64, transfers: u64| {
        let secs = time(rec, span, || {
            let mut sim = Sim::new(seed);
            let ctx = sim.ctx();
            sim.spawn(async move {
                // Capped per request as `storage` caps an S3 Standard read,
                // so a bulk transfer is sliced as `bulk_transfer`'s are.
                let opts = TransferOpts {
                    flows: 1,
                    flow_cap: Some(S3Config::standard().read_bw),
                    ..TransferOpts::default()
                };
                let sink = Nic::unlimited();
                for _ in 0..transfers {
                    // A fresh sandbox NIC, so every transfer starts on a
                    // full token bucket.
                    black_box(transfer(&ctx, &lambda_nic(), &sink, bytes, &opts).await);
                }
            });
            black_box(sim.run());
        });
        out.push((name.into(), secs * 1e6 / transfers as f64));
    };
    probe("net.probe.bulk_us", "net.bulk", 64 * MIB, 1_000);
    probe("net.probe.small_us", "net.small", 1024, 200_000);
}

fn storage_probes(rec: &Recorder, seed: u64, out: &mut Vec<(String, f64)>) {
    for (name, span, write) in [
        ("storage.probe.get_ok_us", "storage.get_ok", false),
        ("storage.probe.put_ok_us", "storage.put_ok", true),
    ] {
        let mut ok = 0.0;
        let secs = time(rec, span, || {
            let mut sim = Sim::new(seed);
            let ctx = sim.ctx();
            let handle = sim.spawn(async move {
                let storage = Storage::S3(S3Bucket::standard(&ctx, &shared_meter()));
                // 64 threads stay under one partition's quota in either
                // direction, so every request takes the success path.
                let cfg = StorageIoConfig {
                    clients: 2,
                    threads_per_client: 32,
                    write,
                    duration: SimDuration::from_secs(40),
                    ..StorageIoConfig::default()
                };
                run_closed_loop(&ctx, &storage, &cfg).await
            });
            sim.run();
            let result = handle.try_take().expect("the probe loop ran to its end");
            assert_eq!(
                result.fail_series.total(),
                0.0,
                "{name} left the success path"
            );
            ok = result.ops_series.total();
        });
        out.push((name.into(), secs * 1e6 / ok));
    }
}

fn data_probes(
    rec: &Recorder,
    seed: u64,
    payload_sf: f64,
    out: &mut Vec<(String, f64)>,
) -> tpch::TpchTables {
    let mut tables = None;
    let secs = time(rec, "data.tpch_gen", || {
        tables = Some(tpch::generate(payload_sf, seed))
    });
    let tables = tables.expect("generated");
    let rows = (tables.lineitem.num_rows() + tables.orders.num_rows()) as f64;
    out.push(("data.tpch_gen_mrows_s".into(), rows / secs / 1e6));

    let mut rows = 0.0;
    let secs = time(rec, "data.bb_gen", || {
        let bb = tpcxbb::generate(payload_sf * 10.0, seed);
        rows = (bb.clickstreams.num_rows() + bb.item.num_rows()) as f64;
    });
    out.push(("data.bb_gen_mrows_s".into(), rows / secs / 1e6));

    let lineitem = std::slice::from_ref(&tables.lineitem);
    let mut file = None;
    let secs = time(rec, "data.spf_encode", || {
        file = Some(spf::write(lineitem, 8192))
    });
    let file = file.expect("encoded");
    let mib = file.len() as f64 / MIB as f64;
    out.push(("data.spf_encode_mib_s".into(), mib / secs));

    let secs = time(rec, "data.spf_decode", || {
        black_box(spf::read_all(&file, None).expect("decodes"));
    });
    out.push(("data.spf_decode_mib_s".into(), mib / secs));
    // Q6's four columns: file bytes covered per second when the reader
    // may skip the other seven.
    let q6 = ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"].map(String::from);
    let secs = time(rec, "data.spf_decode_proj", || {
        black_box(spf::read_all(&file, Some(&q6)).expect("decodes"));
    });
    out.push(("data.spf_decode_proj_mib_s".into(), mib / secs));
    tables
}

/// One big batch as the stream of fixed-size batches a worker sees.
fn stream_of(batch: &Batch) -> Vec<Batch> {
    let n = batch.num_rows();
    (0..n.div_ceil(8192))
        .map(|i| batch.slice(i * 8192, ((i + 1) * 8192).min(n)))
        .collect()
}

/// The vectorised kernels on LINEITEM, through `bind::execute_chain` and
/// `partition_batch` only: never the legacy oracle or its toggles.
fn kernel_probes(rec: &Recorder, tables: &tpch::TpchTables, out: &mut Vec<(String, f64)>) {
    // Input 0 streams through every chain; input 1 is the join's build side.
    let inputs = [stream_of(&tables.lineitem), stream_of(&tables.orders)];
    let rows = tables.lineitem.num_rows() as f64;
    let udfs = UdfRegistry::new();
    let sum = |col: &str, name: &str| AggExpr::new(AggFunc::Sum, Expr::col(col), name);
    let count = || AggExpr::new(AggFunc::Count, Expr::lit_i64(1), "cnt");
    let by_flag_and_status = vec!["l_returnflag".to_string(), "l_linestatus".to_string()];

    let chains: [(&str, Vec<Op>); 5] = [
        (
            "agg_string_keys",
            vec![Op::HashAggregate {
                group_by: by_flag_and_status.clone(),
                aggregates: vec![
                    sum("l_quantity", "sum_qty"),
                    sum("l_extendedprice", "sum_price"),
                    AggExpr::new(AggFunc::Avg, Expr::col("l_discount"), "avg_disc"),
                    count(),
                ],
                mode: AggMode::Single,
            }],
        ),
        (
            "agg_int_key",
            vec![Op::HashAggregate {
                group_by: vec!["l_orderkey".into()],
                aggregates: vec![sum("l_extendedprice", "sum_price"), count()],
                mode: AggMode::Single,
            }],
        ),
        (
            "join_orderkey",
            vec![Op::HashJoin {
                build_input: 1,
                build_key: "o_orderkey".into(),
                probe_key: "l_orderkey".into(),
                build_columns: vec!["o_totalprice".into()],
            }],
        ),
        (
            "sort_multi_key",
            vec![Op::Sort {
                by: vec![
                    ("l_returnflag".into(), true),
                    ("l_shipdate".into(), false),
                    ("l_orderkey".into(), true),
                ],
            }],
        ),
        (
            "filter_agg_fused",
            vec![
                Op::Filter {
                    predicate: Expr::col("l_quantity").cmp(CmpOp::Lt, Expr::lit_f64(24.0)),
                },
                Op::HashAggregate {
                    group_by: by_flag_and_status,
                    aggregates: vec![
                        sum("l_extendedprice", "sum_price"),
                        AggExpr::new(AggFunc::Avg, Expr::col("l_discount"), "avg_disc"),
                        count(),
                    ],
                    mode: AggMode::Single,
                },
            ],
        ),
    ];
    for (kernel, ops) in &chains {
        let secs = time(rec, &format!("engine.kernel.{kernel}"), || {
            black_box(execute_chain(ops, &inputs, &udfs).expect("kernel runs"));
        });
        out.push((format!("engine.kernel.{kernel}.mrows_s"), rows / secs / 1e6));
    }

    let keys = ["l_returnflag".to_string(), "l_orderkey".to_string()];
    let secs = time(rec, "engine.kernel.partition_32", || {
        black_box(partition_batch(&tables.lineitem, &keys, 32).expect("partitions"));
    });
    out.push((
        "engine.kernel.partition_32.mrows_s".into(),
        rows / secs / 1e6,
    ));
}
