//! End-to-end query correctness: the distributed engine (FaaS and IaaS
//! deployments, real coldstarts, real shuffles through simulated S3) must
//! produce the same answers as the row-at-a-time reference executor.

use skyrise::data::{tpch, tpcxbb};
use skyrise::engine::{queries, QueryConfig, QueryResponse};
use skyrise::prelude::*;
use skyrise_oracle::reference::{self, rows_approx_eq};
use std::rc::Rc;

const SF: f64 = 0.01;
const SEED: u64 = 20_240_101;

/// Load the four datasets into a storage service (unscaled payloads).
fn load_all(storage: &Storage, tables: &tpch::TpchTables, bb: &tpcxbb::TpcxBbTables) {
    let layouts = [
        ("h_lineitem", 12, &tables.lineitem),
        ("h_orders", 6, &tables.orders),
        ("bb_clickstreams", 8, &bb.clickstreams),
        ("bb_item", 1, &bb.item),
    ];
    for (name, parts, batch) in layouts {
        skyrise::engine::load_dataset(
            storage,
            &DatasetLayout {
                name: name.into(),
                partitions: parts,
                target_partition_logical_bytes: None,
                rows_per_group: 4096,
            },
            batch,
        )
        .unwrap();
    }
}

/// Run one plan on a fresh FaaS deployment; returns the response.
fn run_faas(plan: &PhysicalPlan, config: QueryConfig) -> QueryResponse {
    let mut sim = Sim::new(SEED);
    let ctx = sim.ctx();
    let plan = plan.clone();
    let h = sim.spawn(async move {
        let meter = shared_meter();
        let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
        let tables = tpch::generate(SF, SEED);
        let bb = tpcxbb::generate(SF * 10.0, SEED);
        load_all(&storage, &tables, &bb);
        let lambda = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
        let engine = Skyrise::deploy_simple(&ctx, ComputePlatform::Faas(lambda), storage);
        engine.run(&plan, config).await.expect("query runs")
    });
    sim.run();
    h.try_take().expect("finished")
}

fn small_config(parallel: u32) -> QueryConfig {
    QueryConfig {
        // Small fragments so multiple workers and real shuffles happen
        // even at SF 0.01.
        target_bytes_per_worker: 64 * 1024,
        max_parallelism: parallel,
        include_rows: true,
        ..QueryConfig::default()
    }
}

#[test]
fn q6_matches_reference_on_faas() {
    let response = run_faas(&queries::q6(), small_config(6));
    let rows = response.rows.expect("inlined rows");
    assert_eq!(rows.len(), 1);
    let got = rows[0][0].as_f64();
    let expect = reference::q6(&tpch::generate(SF, SEED).lineitem);
    assert!(
        (got - expect).abs() / expect < 1e-9,
        "engine {got} vs reference {expect}"
    );
    // Q6 is two stages: scan+partial agg, then final agg.
    assert_eq!(response.stages.len(), 2);
    assert!(response.stages[0].fragments > 1, "parallel scan");
    assert!(response.runtime_secs > 0.0);
}

#[test]
fn q1_matches_reference_on_faas() {
    let response = run_faas(&queries::q1(), small_config(6));
    let rows = response.rows.expect("inlined rows");
    let expect = reference::q1(&tpch::generate(SF, SEED).lineitem);
    assert_eq!(rows.len(), 4, "A/F, N/F, N/O, R/F");
    assert!(
        rows_approx_eq(&rows, &expect, 1e-9),
        "Q1 mismatch:\n{rows:?}\nvs\n{expect:?}"
    );
}

#[test]
fn q12_matches_reference_on_faas() {
    let response = run_faas(&queries::q12(), small_config(4));
    let rows = response.rows.expect("inlined rows");
    let t = tpch::generate(SF, SEED);
    let expect = reference::q12(&t.lineitem, &t.orders);
    assert!(
        rows_approx_eq(&rows, &expect, 1e-9),
        "Q12 mismatch:\n{rows:?}\nvs\n{expect:?}"
    );
    // Q12 runs four pipelines (two scans, join, final agg).
    assert_eq!(response.stages.len(), 4);
}

#[test]
fn bb_q3_matches_reference_on_faas() {
    let response = run_faas(&queries::bb_q3("Electronics", 10, 30), small_config(4));
    let rows = response.rows.expect("inlined rows");
    let bb = tpcxbb::generate(SF * 10.0, SEED);
    let expect = reference::bb_q3(&bb.clickstreams, &bb.item, "Electronics", 10, 30);
    assert!(
        rows_approx_eq(&rows, &expect, 1e-9),
        "Q3 mismatch:\n{rows:?}\nvs\n{expect:?}"
    );
}

#[test]
fn faas_and_iaas_agree_on_q6() {
    let mut sim = Sim::new(SEED);
    let ctx = sim.ctx();
    let h = sim.spawn(async move {
        let meter = shared_meter();
        let tables = tpch::generate(SF, SEED);
        let bb = tpcxbb::generate(SF * 10.0, SEED);

        // FaaS arm.
        let s1 = Storage::S3(S3Bucket::standard(&ctx, &meter));
        load_all(&s1, &tables, &bb);
        let lambda = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
        let faas = Skyrise::deploy_simple(&ctx, ComputePlatform::Faas(lambda), s1);
        let r1 = faas
            .run(&queries::q6(), small_config(4))
            .await
            .expect("faas");

        // IaaS arm: same plan on a VM cluster behind the shim.
        let s2 = Storage::S3(S3Bucket::standard(&ctx, &meter));
        load_all(&s2, &tables, &bb);
        let fleet = Ec2Fleet::new(&ctx, &meter);
        let vms = fleet
            .launch_many(&LaunchConfig::on_demand("c6g.xlarge"), 8)
            .await;
        let cluster = ShimCluster::new(&ctx, vms, 4);
        let iaas = Skyrise::deploy_simple(&ctx, ComputePlatform::Shim(cluster), s2);
        let r2 = iaas
            .run(&queries::q6(), small_config(4))
            .await
            .expect("iaas");
        (r1, r2)
    });
    sim.run();
    let (r1, r2) = h.try_take().unwrap();
    let v1 = r1.rows.unwrap()[0][0].as_f64();
    let v2 = r2.rows.unwrap()[0][0].as_f64();
    assert!((v1 - v2).abs() / v1.abs() < 1e-9, "{v1} vs {v2}");
    // The FaaS run pays coldstarts; the provisioned IaaS run does not.
    let cold1: u32 = r1.stages.iter().map(|s| s.cold_starts).sum();
    let cold2: u32 = r2.stages.iter().map(|s| s.cold_starts).sum();
    assert!(cold1 > 0);
    assert_eq!(cold2, 0);
}

#[test]
fn warm_runs_are_faster_than_cold() {
    let mut sim = Sim::new(SEED + 1);
    let ctx = sim.ctx();
    let h = sim.spawn(async move {
        let meter = shared_meter();
        let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
        let tables = tpch::generate(SF, SEED);
        let bb = tpcxbb::generate(SF * 10.0, SEED);
        load_all(&storage, &tables, &bb);
        let lambda = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
        let engine = Skyrise::deploy_simple(&ctx, ComputePlatform::Faas(lambda), storage);
        let cold = engine
            .run(&queries::q6(), small_config(6))
            .await
            .expect("cold run");
        // Immediately rerun: sandboxes are warm.
        let warm = engine
            .run(&queries::q6(), small_config(6))
            .await
            .expect("warm run");
        (cold, warm)
    });
    sim.run();
    let (cold, warm) = h.try_take().unwrap();
    let cold_starts: u32 = warm.stages.iter().map(|s| s.cold_starts).sum();
    assert_eq!(cold_starts, 0, "second run fully warm");
    assert!(
        warm.runtime_secs < cold.runtime_secs,
        "warm {} vs cold {}",
        warm.runtime_secs,
        cold.runtime_secs
    );
}

#[test]
fn query_costs_are_metered() {
    let mut sim = Sim::new(SEED);
    let ctx = sim.ctx();
    let h = sim.spawn(async move {
        let meter = shared_meter();
        let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
        let tables = tpch::generate(SF, SEED);
        let bb = tpcxbb::generate(SF * 10.0, SEED);
        load_all(&storage, &tables, &bb);
        let lambda = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
        let engine = Skyrise::deploy_simple(&ctx, ComputePlatform::Faas(lambda), storage);
        engine
            .run(&queries::q6(), small_config(6))
            .await
            .expect("runs");
        let m = meter.borrow();
        let report = m.report();
        (
            m.lambda.invocations,
            m.total_storage_requests(),
            report.total_usd(),
        )
    });
    sim.run();
    let (invocations, requests, usd) = h.try_take().unwrap();
    assert!(invocations >= 3, "coordinator + workers: {invocations}");
    assert!(requests > 20, "chunked reads + shuffle: {requests}");
    assert!(usd > 0.0);
}

#[test]
fn determinism_same_seed_same_response() {
    let a = run_faas(&queries::q6(), small_config(4));
    let b = run_faas(&queries::q6(), small_config(4));
    assert_eq!(a.runtime_secs, b.runtime_secs);
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.total_requests(), b.total_requests());
    let _ = Rc::new(()); // silence unused-import lint paths
}

#[test]
fn write_combining_preserves_q12_results_with_fewer_writes() {
    // combine=4: four shuffle buckets share an object. Answers must be
    // identical; shuffle write count must drop ~4x.
    let run = |combine: u32| {
        let mut sim = Sim::new(SEED);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let meter = shared_meter();
            let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
            let tables = tpch::generate(SF, SEED);
            let bb = tpcxbb::generate(SF * 10.0, SEED);
            load_all(&storage, &tables, &bb);
            let lambda = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
            let engine = Skyrise::deploy_simple(&ctx, ComputePlatform::Faas(lambda), storage);
            let mut plan = queries::q12();
            for p in plan.pipelines.iter_mut() {
                if let skyrise::engine::Sink::ShuffleWrite { combine: c, .. } = &mut p.sink {
                    *c = combine;
                }
            }
            let response = engine.run(&plan, small_config(8)).await.expect("q12 runs");
            let writes = {
                let m = meter.borrow();
                m.storage[&StorageService::S3Standard].write_requests
            };
            (response.rows.expect("rows"), writes)
        });
        sim.run();
        h.try_take().expect("finished")
    };
    let (rows1, writes1) = run(1);
    let (rows4, writes4) = run(4);
    let t = tpch::generate(SF, SEED);
    let expect = reference::q12(&t.lineitem, &t.orders);
    assert!(rows_approx_eq(&rows1, &expect, 1e-9));
    assert!(
        rows_approx_eq(&rows4, &expect, 1e-9),
        "combined shuffle must not change results"
    );
    assert!(
        (writes4 as f64) < 0.55 * writes1 as f64,
        "write combining cuts shuffle writes: {writes1} -> {writes4}"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "schedules 300+ workers; run with --release"
)]
fn two_level_invocation_handles_wide_fanouts() {
    // >=256 fragments flips the coordinator into two-level invocation
    // (fan-out helpers). Results must be unchanged and all fragments served.
    let mut sim = Sim::new(SEED);
    let ctx = sim.ctx();
    let h = sim.spawn(async move {
        let meter = shared_meter();
        let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
        let tables = tpch::generate(0.02, SEED);
        skyrise::engine::load_dataset(
            &storage,
            &DatasetLayout {
                name: "h_lineitem".into(),
                partitions: 300,
                target_partition_logical_bytes: None,
                rows_per_group: 4096,
            },
            &tables.lineitem,
        )
        .unwrap();
        let lambda = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
        let engine = Skyrise::deploy_simple(&ctx, ComputePlatform::Faas(lambda), storage);
        let response = engine
            .run(
                &queries::q6(),
                QueryConfig {
                    target_bytes_per_worker: 1, // one partition per worker
                    max_parallelism: 400,
                    include_rows: true,
                    ..QueryConfig::default()
                },
            )
            .await
            .expect("wide query runs");
        let revenue = response.rows.unwrap()[0][0].as_f64();
        (revenue, response.stages[0].fragments)
    });
    sim.run();
    let (revenue, fragments) = h.try_take().unwrap();
    assert_eq!(fragments, 300, "one worker per partition");
    let expect = reference::q6(&tpch::generate(0.02, SEED).lineitem);
    assert!(
        (revenue - expect).abs() / expect < 1e-9,
        "{revenue} vs {expect}"
    );
}
