//! `query_suite`: the paper's four queries, one at a time, on Lambda and S3
//! Standard over half of the Table 4 layout, sandboxes cold at the first
//! query. The only workload where `engine`, `data`, and `compute` work,
//! and the only one with a meaningful virtual latency and bill;
//! `storage`/`net` are reached through ranged and suffix GETs.

use super::{add_counters, ensure, per_attempt_layers, Rep, Workload};
use crate::span::Recorder;
use skyrise::compute::{ComputePlatform, LambdaPlatform, Region};
use skyrise::data::{date, tpch, tpcxbb, Batch, Value};
use skyrise::engine::{
    load_dataset, queries, DatasetLayout, ProfileCost, QueryConfig, QueryProfile, QueryResponse,
    Skyrise,
};
use skyrise::pricing::shared_meter;
use skyrise::sim::{fnv1a64, Sim, MIB};
use skyrise::storage::{S3Bucket, Storage};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Scale factor of the generated payload (TPCx-BB at ten times it).
pub const PAYLOAD_SF: f64 = 0.05;
/// Share of the SF1000 partition count that is loaded; partitions keep
/// their paper-scale logical size.
pub const FRACTION: f64 = 0.5;
const ROWS_PER_GROUP: usize = 8192;
const QUERIES: [&str; 4] = ["q1", "q6", "q12", "bb_q3"];

/// Table 4: dataset name, partitions at SF1000, partition size in MiB.
const TABLE4: [(&str, f64, f64); 4] = [
    (queries::H_LINEITEM, 996.0, 182.4),
    (queries::H_ORDERS, 249.0, 176.1),
    (queries::BB_CLICKSTREAMS, 1000.0, 92.7),
    (queries::BB_ITEM, 1.0, 75.8),
];

struct Tables {
    tpch: tpch::TpchTables,
    bb: tpcxbb::TpcxBbTables,
}

impl Tables {
    fn batch(&self, dataset: &str) -> &Batch {
        match dataset {
            queries::H_LINEITEM => &self.tpch.lineitem,
            queries::H_ORDERS => &self.tpch.orders,
            queries::BB_CLICKSTREAMS => &self.bb.clickstreams,
            _ => &self.bb.item,
        }
    }
}

pub struct QuerySuite {
    seed: u64,
    tables: Rc<Tables>,
    /// Scalar recomputation of Q1 and Q6, made when first checked against.
    expected: OnceCell<(Vec<Vec<Value>>, f64)>,
}

/// One query as the harness saw it from outside.
struct Ran {
    response: Result<QueryResponse, String>,
    profile: Option<QueryProfile>,
    cost: ProfileCost,
    host_s: f64,
}

impl QuerySuite {
    pub fn generate(seed: u64) -> Self {
        QuerySuite {
            seed,
            tables: Rc::new(Tables {
                tpch: tpch::generate(PAYLOAD_SF, seed),
                bb: tpcxbb::generate(PAYLOAD_SF * 10.0, seed),
            }),
            expected: OnceCell::new(),
        }
    }

    fn check(&self, query: &str, rows: &[Vec<Value>]) -> Result<(), String> {
        let (q1, q6) = self.expected.get_or_init(|| {
            let lineitem = &self.tables.tpch.lineitem;
            (scalar_q1(lineitem), scalar_q6(lineitem))
        });
        match query {
            "q1" => rows_match(rows, q1),
            "q6" => rows_match(rows, &[vec![Value::Float64(*q6)]]),
            _ => ensure(!rows.is_empty(), || "no result row".into()),
        }
    }
}

impl Workload for QuerySuite {
    fn rep(&self, rec: &Recorder, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let mut sim = Sim::new(self.seed);
        let registry = traced.then(|| sim.install_metrics());
        // The simulator's own tracer feeds `run_profiled`'s coldstart and
        // operator breakdown.
        if traced {
            sim.install_tracer();
        }
        let sanitizer = sim.enable_sanitizer();
        let ctx = sim.ctx();
        let meter = shared_meter();
        let (task_meter, tables, task_rec) = (meter.clone(), Rc::clone(&self.tables), rec.clone());

        let handle = sim.spawn(async move {
            let storage = Storage::S3(S3Bucket::standard(&ctx, &task_meter));
            let load = task_rec.span("load");
            let loading = Instant::now();
            for (name, sf1000_partitions, partition_mib) in TABLE4 {
                let layout = DatasetLayout {
                    name: name.into(),
                    partitions: ((sf1000_partitions * FRACTION).round() as usize).max(1),
                    target_partition_logical_bytes: Some((partition_mib * MIB as f64) as u64),
                    rows_per_group: ROWS_PER_GROUP,
                };
                load_dataset(&storage, &layout, tables.batch(name)).expect("datasets load");
            }
            let load_s = loading.elapsed().as_secs_f64();
            drop(load);
            let lambda = LambdaPlatform::new(&ctx, &task_meter, Region::us_east_1());
            let engine = Skyrise::deploy_simple(&ctx, ComputePlatform::Faas(lambda), storage);

            let mut ran = Vec::new();
            let before_all = task_meter.borrow().report();
            for (query, plan) in QUERIES.into_iter().zip(queries::suite()) {
                let _span = task_rec.span(query);
                let before = task_meter.borrow().report();
                let started = Instant::now();
                let (response, profile) = if traced {
                    match engine.run_profiled(&plan, QueryConfig::default()).await {
                        Ok((response, profile)) => (Ok(response), Some(profile)),
                        Err(e) => (Err(e.to_string()), None),
                    }
                } else {
                    (
                        engine.run_default(&plan).await.map_err(|e| e.to_string()),
                        None,
                    )
                };
                ran.push(Ran {
                    response,
                    profile,
                    cost: ProfileCost::delta(&before, &task_meter.borrow().report()),
                    host_s: started.elapsed().as_secs_f64(),
                });
            }
            let bill = ProfileCost::delta(&before_all, &task_meter.borrow().report());
            (ran, load_s, bill)
        });
        sim.run();
        let (ran, load_s, bill) = handle.try_take().expect("the suite ran to its end");
        rep.ops = meter.borrow().total_storage_requests();
        rep.cost_usd = bill.total_usd();
        rep.stat_u64("suite.storage_attempts", rep.ops);
        rep.stat_u64(
            "suite.schedule_digest",
            sanitizer.report().map_or(0, |r| r.digest),
        );

        rep.phase("load", load_s);

        let _check = rec.span("check");
        let (mut io_s, mut cpu_s, mut worker_s, mut coldstart_s) = (0.0, 0.0, 0.0, 0.0);
        for (query, ran) in QUERIES.into_iter().zip(&ran) {
            rep.phase(query, ran.host_s);
            let response = match &ran.response {
                Ok(response) => response,
                Err(e) => {
                    rep.operation(query, Err(e.clone()));
                    continue;
                }
            };
            let rows = response.rows.as_deref().unwrap_or_default();
            rep.operation(query, self.check(query, rows));
            let usd = ran.cost.total_usd();
            rep.virtual_s += response.runtime_secs;
            rep.stat_f64(&format!("{query}.virtual_s"), response.runtime_secs);
            rep.stat_u64(&format!("{query}.requests"), response.total_requests());
            rep.stat_f64(&format!("{query}.usd"), usd);
            rep.stat_u64(&format!("{query}.rows"), rows.len() as u64);
            rep.stat_u64(
                &format!("{query}.row_digest"),
                fnv1a64(format!("{rows:?}").as_bytes()),
            );
            // Q6 is scan-bound, so its bill grows with the partitions
            // scanned and converts to the paper's full layout by 1/FRACTION.
            if query == "q6" {
                rep.headline
                    .push(("query_suite.q6.usd_at_sf1000".into(), usd / FRACTION));
            }

            for stage in &response.stages {
                io_s += stage.io_secs_total;
                cpu_s += stage.cpu_secs_total;
            }
            worker_s += response.cumulative_worker_secs;
            if let Some(profile) = &ran.profile {
                coldstart_s += profile.coldstart_secs;
                rep.layer(&format!("engine.{query}.virtual_s"), response.runtime_secs);
                rep.layer(&format!("engine.{query}.host_s"), ran.host_s);
                rep.layer(
                    &format!("engine.{query}.requests"),
                    response.total_requests() as f64,
                );
                rep.layer(&format!("engine.{query}.usd"), usd);
            }
        }
        if let Some(registry) = registry {
            let layers: BTreeMap<&str, f64> = BTreeMap::from([
                ("pricing.lambda_compute_usd", bill.lambda_compute_usd),
                ("pricing.lambda_request_usd", bill.lambda_request_usd),
                ("pricing.storage_request_usd", bill.storage_request_usd),
                ("pricing.storage_capacity_usd", bill.storage_capacity_usd),
                ("pricing.ec2_usd", bill.ec2_usd),
                ("engine.io_virtual_s", io_s),
                ("engine.cpu_virtual_s", cpu_s),
                ("engine.worker_virtual_s", worker_s),
                ("compute.coldstart_virtual_s", coldstart_s),
                (
                    "compute.coldstart_share",
                    coldstart_s / (coldstart_s + worker_s),
                ),
                ("data.load_dataset_s", load_s),
            ]);
            for (name, v) in layers {
                rep.layer(name, v);
            }
            add_counters(&mut rep.layers, &registry.snapshot().counters);
            per_attempt_layers(&mut rep);
        }
        rep
    }
}

/// Result rows equal the expected ones: strings exactly, numbers to 1e-9
/// relative (the engine sums partial aggregates in another order).
fn rows_match(got: &[Vec<Value>], want: &[Vec<Value>]) -> Result<(), String> {
    let same = got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.len() == w.len()
                && g.iter().zip(w).all(|(g, w)| match (g, w) {
                    (Value::Utf8(g), Value::Utf8(w)) => g == w,
                    (Value::Utf8(_), _) | (_, Value::Utf8(_)) => false,
                    (g, w) => {
                        let (g, w) = (g.as_f64(), w.as_f64());
                        (g - w).abs() <= 1e-9 * w.abs().max(g.abs())
                    }
                })
        });
    ensure(same, || {
        format!("got {got:?}, the scalar recomputation gives {want:?}")
    })
}

/// TPC-H Q1 over the generated rows, one row at a time.
fn scalar_q1(lineitem: &Batch) -> Vec<Vec<Value>> {
    let cutoff = date::from_ymd(1998, 12, 1) - 90;
    let flag = lineitem.column("l_returnflag").as_str();
    let status = lineitem.column("l_linestatus").as_str();
    let qty = lineitem.column("l_quantity").as_f64();
    let price = lineitem.column("l_extendedprice").as_f64();
    let disc = lineitem.column("l_discount").as_f64();
    let tax = lineitem.column("l_tax").as_f64();
    let shipdate = lineitem.column("l_shipdate").as_i64();
    // (sum_qty, sum_base_price, sum_disc_price, sum_charge, sum_disc, count)
    let mut groups: BTreeMap<(&str, &str), [f64; 6]> = BTreeMap::new();
    for i in 0..lineitem.num_rows() {
        if shipdate[i] > cutoff {
            continue;
        }
        let disc_price = price[i] * (1.0 - disc[i]);
        let g = groups.entry((&flag[i], &status[i])).or_default();
        g[0] += qty[i];
        g[1] += price[i];
        g[2] += disc_price;
        g[3] += disc_price * (1.0 + tax[i]);
        g[4] += disc[i];
        g[5] += 1.0;
    }
    groups
        .into_iter()
        .map(|((flag, status), g)| {
            let n = g[5];
            let mut row = vec![Value::Utf8(flag.into()), Value::Utf8(status.into())];
            row.extend(
                [g[0], g[1], g[2], g[3], g[0] / n, g[1] / n, g[4] / n, n].map(Value::Float64),
            );
            row
        })
        .collect()
}

/// TPC-H Q6 over the generated rows, one row at a time.
fn scalar_q6(lineitem: &Batch) -> f64 {
    let (from, to) = (date::from_ymd(1994, 1, 1), date::from_ymd(1995, 1, 1));
    let qty = lineitem.column("l_quantity").as_f64();
    let price = lineitem.column("l_extendedprice").as_f64();
    let disc = lineitem.column("l_discount").as_f64();
    let shipdate = lineitem.column("l_shipdate").as_i64();
    (0..lineitem.num_rows())
        .filter(|&i| {
            (from..to).contains(&shipdate[i]) && (0.05..=0.07).contains(&disc[i]) && qty[i] < 24.0
        })
        .map(|i| price[i] * disc[i])
        .sum()
}
