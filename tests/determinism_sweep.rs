//! Same-seed determinism in every debug `cargo test`: each cheap experiment
//! run once, on one harness worker, against the simulation digests
//! committed in `results/<id>.digests.csv`, and one query at smoke size
//! run twice. The seven together on four workers are
//! `tests/parallel_determinism.rs`'s.

#[path = "support/same_seed.rs"]
mod same_seed;

macro_rules! sweep {
    ($($name:ident),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                let name = stringify!($name);
                same_seed::assert_matches_committed(&[name], 1);
            }
        )+
    };
}

// Static pricing tables + the fastest network figure.
sweep!(table01, table02, table03, table04, table07, table08, fig05);

/// Q6 on cold Lambda + S3 Standard, twice at one seed. Partitions carry a
/// paper-scale logical size, so scan workers outrun their NIC's burst
/// budget and wait on its slotted refill — the stalls `net::transfer`
/// sleeps through with one timer must not cost a bit of reproducibility.
#[test]
fn q6_smoke_repeats_bit_for_bit() {
    use skyrise::data::tpch;
    use skyrise::engine::queries;
    use skyrise::prelude::*;

    const SEED: u64 = 13;
    let run = || {
        let mut sim = Sim::new(SEED);
        let registry = sim.install_metrics();
        let sanitizer = sim.enable_sanitizer();
        let ctx = sim.ctx();
        let meter = shared_meter();
        let task_meter = meter.clone();
        let handle = sim.spawn(async move {
            let storage = Storage::S3(S3Bucket::standard(&ctx, &task_meter));
            let layout = DatasetLayout {
                name: queries::H_LINEITEM.into(),
                partitions: 6,
                target_partition_logical_bytes: Some(900 * MIB),
                rows_per_group: 2048,
            };
            let lineitem = tpch::generate(0.002, SEED).lineitem;
            load_dataset(&storage, &layout, &lineitem).expect("dataset loads");
            let lambda = LambdaPlatform::new(&ctx, &task_meter, Region::us_east_1());
            let engine = Skyrise::deploy_simple(&ctx, ComputePlatform::Faas(lambda), storage);
            let config = QueryConfig {
                include_rows: true,
                ..QueryConfig::default()
            };
            engine.run(&queries::q6(), config).await.expect("q6 runs")
        });
        sim.run();
        let response = handle.try_take().expect("q6 finished");
        let snapshot = registry.snapshot();
        assert!(
            snapshot.counters["net.transfer.stalled_slices"] > 0,
            "no transfer stalled: the smoke no longer reaches the throttled regime"
        );
        let bill = meter.borrow().report().total_usd();
        (
            response.rows.expect("inlined rows"),
            response.runtime_secs.to_bits(),
            bill.to_bits(),
            sanitizer.report(),
            snapshot.canonical_json(),
        )
    };
    let (first, second) = (run(), run());
    assert_eq!(first.0, second.0, "result rows diverged");
    assert_eq!(first.1, second.1, "runtime_secs diverged");
    assert_eq!(first.2, second.2, "bill diverged");
    assert_eq!(first.3, second.3, "sanitizer digest diverged");
    assert_eq!(first.4, second.4, "telemetry snapshot diverged");
}
