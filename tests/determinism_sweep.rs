//! Double-run determinism sweep: every experiment's simulation is executed
//! twice with the same seed and the runtime sanitizer's state digests must
//! be byte-identical. A divergence fails with the label of the first
//! diverging simulation and the event index of the first diverging digest
//! checkpoint (see `skyrise_sim::SanitizerReport::first_divergence`).
//!
//! Cheap experiments run in every `cargo test`; the long-running figures
//! are `#[ignore]`d in debug builds (mirroring `experiments_smoke.rs`) and
//! covered by release-mode CI / `cargo test --release -- --ignored`.

use skyrise::micro::ExperimentResult;
use skyrise_bench::experiments as e;
use skyrise_bench::harness::{run_jobs, ExperimentJob};

/// Run `f` twice with the same seeds — as two jobs on two parallel harness
/// workers — and assert the sanitizer digest trails match
/// simulation-by-simulation. Going through the harness makes every sweep
/// entry double as a check that worker threads don't perturb a run.
/// Both jobs run with telemetry registries installed, so the sweep also
/// proves the metrics layer is bit-stable: registry snapshots must be
/// byte-identical (and their digests are folded into the sanitizer trail).
fn assert_deterministic(name: &'static str, f: fn() -> ExperimentResult) {
    let jobs = vec![
        ExperimentJob {
            name,
            run: f,
            trace_out: None,
            metrics: true,
        },
        ExperimentJob {
            name,
            run: f,
            trace_out: None,
            metrics: true,
        },
    ];
    let mut done = run_jobs(jobs, 2);
    let b = done.pop().expect("two completed jobs");
    let a = done.pop().expect("two completed jobs");
    assert_eq!(a.sims, b.sims, "{name}: simulation count diverged");
    // Every simulation must have produced a sanitizer digest (the harness
    // enables the sanitizer unconditionally). Experiments that are pure
    // pricing arithmetic run zero simulations and pass vacuously.
    assert_eq!(
        a.digests.len() as u64,
        a.sims,
        "{name}: a simulation ran without its sanitizer"
    );
    assert_eq!(
        a.digests.len(),
        b.digests.len(),
        "{name}: runs executed a different number of sanitized simulations"
    );
    for ((label_a, rep_a), (label_b, rep_b)) in a.digests.iter().zip(&b.digests) {
        assert_eq!(label_a, label_b, "{name}: simulation order diverged");
        if rep_a != rep_b {
            panic!(
                "{name}: nondeterminism in {label_a}: digests {:#018x} vs {:#018x} \
                 ({} vs {} events), first divergence at event {:?}",
                rep_a.digest,
                rep_b.digest,
                rep_a.events,
                rep_b.events,
                rep_a.first_divergence(rep_b)
            );
        }
    }
    // Telemetry itself must be bit-stable, not just hash-equal: the merged
    // registry snapshots of both runs serialize to identical bytes.
    assert_eq!(
        a.metrics.canonical_json(),
        b.metrics.canonical_json(),
        "{name}: telemetry snapshot diverged between same-seed runs"
    );
    if a.sims > 0 {
        assert!(
            !a.metrics.is_empty(),
            "{name}: simulations ran without registering any metric"
        );
    }
}

macro_rules! sweep {
    ($($(#[$attr:meta])* $name:ident),+ $(,)?) => {
        $(
            $(#[$attr])*
            #[test]
            fn $name() {
                assert_deterministic(stringify!($name), e::$name);
            }
        )+
    };
}

sweep! {
    // Cheap: static pricing tables + the fastest network figure.
    table01,
    table02,
    table03,
    table04,
    table07,
    table08,
    fig05,
    // Long-running simulations: skipped under debug (tier-1) builds.
    #[cfg_attr(debug_assertions, ignore)]
    table05,
    #[cfg_attr(debug_assertions, ignore)]
    table06,
    #[cfg_attr(debug_assertions, ignore)]
    fig06,
    #[cfg_attr(debug_assertions, ignore)]
    fig07,
    #[cfg_attr(debug_assertions, ignore)]
    fig08,
    #[cfg_attr(debug_assertions, ignore)]
    fig09,
    #[cfg_attr(debug_assertions, ignore)]
    fig10,
    #[cfg_attr(debug_assertions, ignore)]
    fig11,
    #[cfg_attr(debug_assertions, ignore)]
    fig12,
    #[cfg_attr(debug_assertions, ignore)]
    fig13,
    #[cfg_attr(debug_assertions, ignore)]
    fig14,
    #[cfg_attr(debug_assertions, ignore)]
    fig15,
    #[cfg_attr(debug_assertions, ignore)]
    ablation_combining,
    #[cfg_attr(debug_assertions, ignore)]
    ablation_binary_size,
    #[cfg_attr(debug_assertions, ignore)]
    extra_observations,
    // Faulted configuration: the fault plan's injections must replay
    // byte-identically — two same-seed runs of the fault-rate sweep
    // (retries, speculation, crashes and all) compare digest-equal.
    #[cfg_attr(debug_assertions, ignore)]
    reliability,
}

/// Smoke-sized end-to-end determinism that `cargo test -q` runs in debug
/// builds too (the sweeps above that reach the engine are release-only):
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
