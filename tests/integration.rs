//! Cross-crate integration tests: the pieces of the platform working
//! together in ways no single crate exercises alone.

use skyrise::data::spf;
use skyrise::engine::{load_dataset, queries};
use skyrise::prelude::*;
use skyrise::storage::{RetryPolicy, RetryingClient};
use std::rc::Rc;

/// SPF's three-request remote protocol against simulated S3: trailer →
/// footer → column chunks, all as billed ranged GETs.
#[test]
fn spf_remote_reads_via_ranged_gets() {
    let mut sim = Sim::new(11);
    let ctx = sim.ctx();
    let meter = shared_meter();
    let meter2 = meter.clone();
    let h = sim.spawn(async move {
        let bucket = S3Bucket::standard(&ctx, &meter2);
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]);
        let batch = Batch::new(
            schema,
            vec![
                Column::Int64((0..10_000).collect()),
                Column::Float64((0..10_000).map(|i| i as f64 * 0.5).collect()),
            ],
        );
        let file = spf::write(std::slice::from_ref(&batch), 2_000);
        let file_len = file.len() as u64;
        bucket.backdoor().put("t.spf", Blob::new(file));

        let opts = RequestOpts::default();
        let range = |offset, len| ByteRange::Bytes { offset, len };
        let trailer = bucket
            .read(
                "t.spf",
                range(file_len - spf::TRAILER_LEN, spf::TRAILER_LEN),
                &opts,
            )
            .await
            .unwrap();
        let (fstart, flen) = spf::footer_range(&trailer.blob.bytes, file_len).unwrap();
        let footer = bucket
            .read("t.spf", range(fstart, flen), &opts)
            .await
            .unwrap();
        let footer = spf::parse_footer(&footer.blob.bytes).unwrap();
        assert_eq!(footer.total_rows(), 10_000);
        assert_eq!(footer.row_groups.len(), 5);

        // Fetch only column "v" of row group 3.
        let meta = &footer.row_groups[3].chunks[1];
        let chunk = bucket
            .read("t.spf", range(meta.offset, meta.len), &opts)
            .await
            .unwrap();
        let col = spf::decode_chunk(meta, &chunk.blob.bytes).unwrap();
        assert_eq!(col.as_f64()[0], 6_000.0 * 0.5);
        batch.num_rows()
    });
    sim.run();
    assert_eq!(h.try_take().unwrap(), 10_000);
    // Exactly three billed GETs.
    let m = meter.borrow();
    assert_eq!(
        m.storage[&skyrise::pricing::StorageService::S3Standard].read_requests,
        3
    );
}

/// The usage meter's invoice matches a hand-computed bill for a known
/// sequence of operations.
#[test]
fn invoice_matches_hand_computation() {
    let mut sim = Sim::new(12);
    let ctx = sim.ctx();
    let meter = shared_meter();
    let meter2 = meter.clone();
    sim.spawn(async move {
        let bucket = S3Bucket::standard(&ctx, &meter2);
        let opts = RequestOpts::default();
        // 10 puts + 20 gets of 1 MiB objects, spaced out to avoid throttles.
        for i in 0..10 {
            bucket
                .put(&format!("k{i}"), Blob::synthetic(1 << 20), &opts)
                .await
                .unwrap();
        }
        for i in 0..20 {
            bucket
                .read(&format!("k{}", i % 10), ByteRange::Full, &opts)
                .await
                .unwrap();
            ctx.sleep(SimDuration::from_millis(5)).await;
        }
    });
    sim.run();
    let report = meter.borrow().report();
    // S3 Standard: $5/M writes, $0.4/M reads, no transfer fees.
    let expect = 10.0 * 5e-6 + 20.0 * 4e-7;
    assert!(
        (report.storage_request_usd - expect).abs() < 1e-12,
        "{} vs {expect}",
        report.storage_request_usd
    );
}

/// Barriers: a worker polls the shared barrier object until the driver
/// opens it (the paper's subflow-synchronisation mechanism).
#[test]
fn barrier_blocks_pipeline_until_opened() {
    let mut sim = Sim::new(13);
    let ctx = sim.ctx();
    let h = sim.spawn(async move {
        let meter = shared_meter();
        let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
        let t = skyrise::data::tpch::generate(0.002, 3);
        load_dataset(
            &storage,
            &DatasetLayout {
                name: "h_lineitem".into(),
                partitions: 2,
                target_partition_logical_bytes: None,
                rows_per_group: 4096,
            },
            &t.lineitem,
        )
        .unwrap();
        let lambda = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
        let engine = Skyrise::deploy_simple(&ctx, ComputePlatform::Faas(lambda), storage);

        // Inject a barrier into Q6's scan pipeline.
        let mut plan = queries::q6();
        plan.pipelines[0].ops.insert(
            0,
            skyrise::engine::Op::Barrier {
                name: "scan-gate".into(),
            },
        );

        let engine2 = Rc::clone(&engine);
        let ctx2 = ctx.clone();
        let runner = ctx.spawn(async move { engine2.run_default(&plan).await });
        // Let the query start; it must be blocked at the barrier.
        ctx.sleep(SimDuration::from_secs(30)).await;
        assert!(!runner.is_finished(), "query blocked at barrier");
        engine.open_barrier("scan-gate");
        let response = runner.await.expect("query completes after barrier opens");
        let _ = ctx2;
        response.runtime_secs
    });
    sim.run();
    let runtime = h.try_take().unwrap();
    assert!(
        runtime >= 30.0,
        "runtime includes the barrier wait: {runtime}"
    );
}

/// Repeatedly rejected clients back off exponentially and become
/// stragglers (the paper's Fig. 11 explanation).
#[test]
fn throttled_clients_become_stragglers() {
    let mut sim = Sim::new(14);
    let ctx = sim.ctx();
    let h = sim.spawn(async move {
        let meter = shared_meter();
        let bucket = S3Bucket::standard(&ctx, &meter);
        bucket.backdoor().put("hot", Blob::synthetic(1024));
        let storage = Storage::S3(bucket);
        let client = RetryingClient::new(storage, ctx.clone(), RetryPolicy::eager());

        // A burst far over a single partition's capacity.
        let handles: Vec<_> = (0..9_000)
            .map(|_| {
                let client = client.clone();
                let ctx2 = ctx.clone();
                ctx.spawn(async move {
                    let t0 = ctx2.now();
                    let out = client
                        .read("hot", ByteRange::Full, 1024, &RequestOpts::default())
                        .await;
                    (out.is_ok(), (ctx2.now() - t0).as_secs_f64())
                })
            })
            .collect();
        let results = join_all(handles).await;
        let ok = results.iter().filter(|(ok, _)| *ok).count();
        let slowest = results.iter().map(|&(_, d)| d).fold(0.0f64, f64::max);
        let median = {
            let mut d: Vec<f64> = results.iter().map(|&(_, d)| d).collect();
            d.sort_by(|a, b| a.partial_cmp(b).unwrap());
            d[d.len() / 2]
        };
        (ok, median, slowest)
    });
    sim.run();
    let (ok, median, slowest) = h.try_take().unwrap();
    assert!(ok > 8_000, "retries recover most requests: {ok}");
    // Stragglers wait out multiple exponential backoffs.
    assert!(
        slowest > 10.0 * median && slowest > 1.0,
        "straggler {slowest}s vs median {median}s"
    );
}

/// Lambda network burst interacts with storage: a worker-sized download
/// within the budget is an order of magnitude faster than beyond it.
#[test]
fn network_burst_shapes_storage_downloads() {
    let mut sim = Sim::new(15);
    let ctx = sim.ctx();
    let h = sim.spawn(async move {
        let meter = shared_meter();
        let bucket = S3Bucket::standard(&ctx, &meter);
        bucket.backdoor().put("small", Blob::synthetic(180 << 20));
        bucket.backdoor().put("big", Blob::synthetic(900 << 20));
        let storage = Storage::S3(bucket);

        let mut rates = Vec::new();
        for key in ["small", "big"] {
            let nic = skyrise::net::presets::lambda_nic();
            let opts = RequestOpts::from_nic(&nic);
            let t0 = ctx.now();
            // Chunked parallel fetch, as the engine does.
            let logical: u64 = if key == "small" { 180 << 20 } else { 900 << 20 };
            let chunk = 8 << 20;
            let handles: Vec<_> = (0..logical / chunk)
                .map(|i| {
                    let storage = storage.clone();
                    let opts = opts.clone();
                    let key = key.to_string();
                    ctx.spawn(async move {
                        let real_len = 4096u64; // synthetic payload length
                        let real_chunk = (real_len * chunk / logical).max(1);
                        let off = (i * real_chunk).min(real_len - 1);
                        let len = real_chunk.min(real_len - off);
                        storage
                            .read(&key, ByteRange::Bytes { offset: off, len }, &opts)
                            .await
                            .map(drop)
                    })
                })
                .collect();
            for r in join_all(handles).await {
                r.unwrap();
            }
            rates.push(logical as f64 / (ctx.now() - t0).as_secs_f64());
        }
        (rates[0], rates[1])
    });
    sim.run();
    let (small_rate, big_rate) = h.try_take().unwrap();
    assert!(
        small_rate > 3.0 * big_rate,
        "within-budget {small_rate:.2e} B/s vs beyond {big_rate:.2e} B/s"
    );
}

/// A full end-to-end run is bit-identical across replays of the same
/// seed: runtimes, invoices, and result bytes.
#[test]
fn full_stack_determinism() {
    fn run() -> (f64, f64, u64) {
        let mut sim = Sim::new(777);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let meter2 = meter.clone();
        let h = sim.spawn(async move {
            let storage = Storage::S3(S3Bucket::standard(&ctx, &meter2));
            let t = skyrise::data::tpch::generate(0.005, 3);
            load_dataset(
                &storage,
                &DatasetLayout {
                    name: "h_lineitem".into(),
                    partitions: 6,
                    target_partition_logical_bytes: Some(64 << 20),
                    rows_per_group: 4096,
                },
                &t.lineitem,
            )
            .unwrap();
            let lambda = LambdaPlatform::new(&ctx, &meter2, Region::eu_west_1());
            let engine = Skyrise::deploy_simple(&ctx, ComputePlatform::Faas(lambda), storage);
            let r = engine.run_default(&queries::q6()).await.unwrap();
            (r.runtime_secs, r.total_requests())
        });
        sim.run();
        let (runtime, requests) = h.try_take().unwrap();
        let usd = meter.borrow().report().total_usd();
        (runtime, usd, requests)
    }
    let a = run();
    let b = run();
    assert_eq!(a, b);
}
