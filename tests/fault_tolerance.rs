//! Fault-tolerance end-to-end: with a fault plan injecting transient
//! handler failures, sandbox crashes, coldstart spikes, and storage
//! throttling, the engine's per-task retries and speculative re-execution
//! keep the full query suite correct — while the same seed with retries
//! disabled demonstrably fails. Faulted executions must also stay
//! bit-for-bit deterministic (identical sanitizer digest trails).

use skyrise::data::{tpch, tpcxbb};
use skyrise::engine::{queries, QueryConfig, Skyrise, TaskPolicy};
use skyrise::prelude::*;
use skyrise::sim::{FaultConfig, SanitizerReport};
use skyrise_oracle::reference::{self, rows_approx_eq};
use std::rc::Rc;

const SF: f64 = 0.01;
const SEED: u64 = 20_260_806;

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

/// Generate data, load it, and deploy a FaaS engine.
fn deploy(ctx: &SimCtx) -> Rc<Skyrise> {
    let meter = shared_meter();
    let storage = Storage::S3(S3Bucket::standard(ctx, &meter));
    let tables = tpch::generate(SF, SEED);
    let bb = tpcxbb::generate(SF * 10.0, SEED);
    load_all(&storage, &tables, &bb);
    let lambda = LambdaPlatform::new(ctx, &meter, Region::us_east_1());
    Skyrise::deploy_simple(ctx, ComputePlatform::Faas(lambda), storage)
}

/// An aggressive fault mix: roughly a third of invocations fail.
fn faulty() -> FaultConfig {
    FaultConfig {
        invoke_transient_prob: 0.3,
        sandbox_crash_prob: 0.05,
        coldstart_spike_prob: 0.1,
        storage_throttle_prob: 0.05,
        ..FaultConfig::default()
    }
}

/// Small fragments so multiple workers and real shuffles happen at SF 0.01.
fn config_with(policy: TaskPolicy) -> QueryConfig {
    QueryConfig {
        target_bytes_per_worker: 64 * 1024,
        max_parallelism: 6,
        include_rows: true,
        task_policy: policy,
    }
}

#[test]
fn suite_completes_correctly_under_faults_with_retries() {
    let mut sim = Sim::new(SEED);
    sim.install_faults(faulty());
    let ctx = sim.ctx();
    let h = sim.spawn(async move {
        let engine = deploy(&ctx);
        let config = config_with(TaskPolicy {
            max_attempts: 10,
            ..TaskPolicy::default()
        });
        let mut responses = Vec::new();
        for plan in queries::suite() {
            responses.push(
                engine
                    .run(&plan, config.clone())
                    .await
                    .expect("query completes under injected faults"),
            );
        }
        responses
    });
    sim.run();
    let responses = h.try_take().expect("finished");

    // Every query still answers correctly (suite order: q1, q6, q12, bb_q3).
    let t = tpch::generate(SF, SEED);
    let bb = tpcxbb::generate(SF * 10.0, SEED);
    let q1_rows = responses[0].rows.as_ref().expect("q1 rows");
    assert!(
        rows_approx_eq(q1_rows, &reference::q1(&t.lineitem), 1e-9),
        "Q1 mismatch under faults"
    );
    let q6_got = responses[1].rows.as_ref().expect("q6 rows")[0][0].as_f64();
    let q6_ref = reference::q6(&t.lineitem);
    assert!(
        (q6_got - q6_ref).abs() / q6_ref < 1e-9,
        "Q6 {q6_got} vs reference {q6_ref}"
    );
    let q12_rows = responses[2].rows.as_ref().expect("q12 rows");
    assert!(
        rows_approx_eq(q12_rows, &reference::q12(&t.lineitem, &t.orders), 1e-9),
        "Q12 mismatch under faults"
    );
    let q3_rows = responses[3].rows.as_ref().expect("bb_q3 rows");
    assert!(
        rows_approx_eq(
            q3_rows,
            &reference::bb_q3(&bb.clickstreams, &bb.item, "Electronics", 10, 30),
            1e-9
        ),
        "BB Q3 mismatch under faults"
    );

    // The fault plan forced actual re-invocations somewhere in the suite.
    let retries: u32 = responses
        .iter()
        .flat_map(|r| &r.stages)
        .map(|s| s.task_retries)
        .sum();
    let speculative: u32 = responses
        .iter()
        .flat_map(|r| &r.stages)
        .map(|s| s.speculative_invokes)
        .sum();
    assert!(
        retries + speculative > 0,
        "expected nonzero retry/straggler counters under a 30% fault rate"
    );
    let failed_secs: f64 = responses
        .iter()
        .flat_map(|r| &r.stages)
        .map(|s| s.failed_attempt_secs)
        .sum();
    assert!(failed_secs > 0.0, "failed attempts should have cost time");
}

#[test]
fn stragglers_trigger_speculative_duplicates() {
    // No faults at all: speculation comes purely from the (deliberately
    // tiny) straggler timeout, and the first completion wins.
    let mut sim = Sim::new(SEED);
    let ctx = sim.ctx();
    let h = sim.spawn(async move {
        let engine = deploy(&ctx);
        let config = config_with(TaskPolicy {
            max_attempts: 3,
            straggler_base_secs: 0.15,
            straggler_bw: 1e12,
            straggler_slack: 1.0,
            speculate: true,
        });
        engine
            .run(&queries::q6(), config)
            .await
            .expect("q6 with speculation")
    });
    sim.run();
    let response = h.try_take().expect("finished");

    let got = response.rows.as_ref().expect("rows")[0][0].as_f64();
    let expect = reference::q6(&tpch::generate(SF, SEED).lineitem);
    assert!(
        (got - expect).abs() / expect < 1e-9,
        "speculative duplicates must not corrupt the result"
    );
    let speculative: u32 = response.stages.iter().map(|s| s.speculative_invokes).sum();
    assert!(
        speculative > 0,
        "a 150ms straggler timeout must re-trigger cold workers"
    );
    // No failures were injected, so no attempt actually failed.
    let retries: u32 = response.stages.iter().map(|s| s.task_retries).sum();
    assert_eq!(
        retries, 0,
        "speculation must not be booked as failure retries"
    );
}

#[test]
fn retries_disabled_fails_under_same_faults() {
    // Same seed and fault plan as the passing suite run, but the policy
    // allows a single attempt per task: the first injected fault anywhere
    // is terminal for its query.
    let mut sim = Sim::new(SEED);
    sim.install_faults(faulty());
    let ctx = sim.ctx();
    let h = sim.spawn(async move {
        let engine = deploy(&ctx);
        let config = config_with(TaskPolicy::disabled());
        for plan in queries::suite() {
            if let Err(err) = engine.run(&plan, config.clone()).await {
                return Some(err.to_string());
            }
        }
        None
    });
    sim.run();
    let failure = h.try_take().expect("finished");
    let message = failure.expect("with retries disabled, a ~30% fault rate must sink a query");
    assert!(
        message.contains("fault") || message.contains("crashed") || message.contains("attempts"),
        "unexpected failure mode: {message}"
    );
}

fn digest_run() -> (f64, SanitizerReport) {
    let mut sim = Sim::new(SEED);
    sim.install_faults(faulty());
    let sanitizer = sim.enable_sanitizer();
    let ctx = sim.ctx();
    let h = sim.spawn(async move {
        let engine = deploy(&ctx);
        let config = config_with(TaskPolicy {
            max_attempts: 10,
            ..TaskPolicy::default()
        });
        engine
            .run(&queries::q12(), config)
            .await
            .expect("q12 under faults")
            .runtime_secs
    });
    sim.run();
    (
        h.try_take().expect("finished"),
        sanitizer.report().expect("sanitizer report"),
    )
}

#[test]
fn faulted_runs_are_digest_identical() {
    let (runtime_a, report_a) = digest_run();
    let (runtime_b, report_b) = digest_run();
    assert_eq!(
        runtime_a.to_bits(),
        runtime_b.to_bits(),
        "same seed + same fault plan must reproduce the exact runtime"
    );
    assert_eq!(
        report_a,
        report_b,
        "digest trails diverged; first divergence at event {:?}",
        report_a.first_divergence(&report_b)
    );
}

#[test]
fn a_damaged_plan_is_a_typed_error_after_one_coordinator_invocation() {
    use skyrise::engine::{InputSpec, PhysicalPlan, Sink};
    // A plan reaches the coordinator as JSON from outside; each defect
    // `PhysicalPlan::check` names used to panic inside the handler.
    type Damage = fn(&mut PhysicalPlan);
    let defects: [(Damage, &str); 5] = [
        (
            |p| p.pipelines[1].id = p.pipelines[0].id,
            "is defined twice",
        ),
        (
            |p| {
                p.pipelines[0]
                    .inputs
                    .push(InputSpec::Shuffle { from_pipeline: 99 })
            },
            "reads the shuffle of pipeline 99",
        ),
        (
            |p| {
                let last = p.pipelines.last().expect("q12 has pipelines").id;
                p.pipelines[0].inputs.push(InputSpec::Shuffle {
                    from_pipeline: last,
                });
            },
            "depend on each other in a cycle",
        ),
        (
            |p| {
                let shuffle = p.pipelines[0].sink.clone();
                p.pipelines.last_mut().expect("q12 has pipelines").sink = shuffle;
            },
            "exactly one pipeline writes the result, not []",
        ),
        (
            |p| p.pipelines[0].sink = Sink::Result,
            "exactly one pipeline writes the result, not [",
        ),
    ];
    let mut sim = Sim::new(SEED);
    sim.install_metrics();
    let ctx = sim.ctx();
    let h = sim.spawn(async move {
        let engine = deploy(&ctx);
        let config = config_with(TaskPolicy {
            max_attempts: 10,
            ..TaskPolicy::default()
        });
        let mut failures = Vec::new();
        for (damage, _) in defects {
            let mut plan = queries::q12();
            damage(&mut plan);
            let err = engine.run(&plan, config.clone()).await;
            failures.push(err.expect_err("a damaged plan must not run").to_string());
        }
        let counters = ctx.metrics().snapshot().counters;
        // The engine is still whole: the undamaged plan runs on it.
        engine
            .run(&queries::q12(), config)
            .await
            .expect("q12 after the damaged plans");
        (failures, counters)
    });
    sim.run();
    let (failures, counters) = h.try_take().expect("the simulation ran to its end");
    for (message, (_, want)) in failures.iter().zip(defects) {
        assert!(
            message.contains("plan error") && message.contains(want),
            "expected `{want}` in: {message}"
        );
    }
    // Deterministic failures are not retried: the damaged plans cost one
    // invocation each, the coordinator's, and none reached a worker.
    assert_eq!(counters["faas.invoke.count"], defects.len() as u64);
    assert!(!counters.contains_key("engine.coordinator.retries"));
}
