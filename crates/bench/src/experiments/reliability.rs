//! Reliability tax: query latency and cost as a function of the injected
//! fault rate, with per-task retry and speculative re-execution keeping
//! the TPC-H suite correct throughout. Complements the paper's
//! fault-tolerance discussion (Sec. 3.2) with a quantitative sweep: every
//! retried attempt and speculative duplicate is billed, so reliability
//! shows up as a measurable latency/cost overhead.

use crate::datasets::load_paper_datasets;
use crate::{full_profile, in_sim_faulted};
use skyrise::engine::{queries, Skyrise, TaskPolicy};
use skyrise::micro::{text_table, ExperimentResult, NamedSeries};
use skyrise::prelude::*;
use skyrise::pricing::CostReport;
use skyrise::sim::FaultConfig;

/// Aggregates of one full-suite run at a single fault rate.
struct RateOutcome {
    runtime_secs: f64,
    cost_usd: f64,
    task_retries: u64,
    speculative: u64,
    failed_secs: f64,
    faults_injected: u64,
}

fn run_rate(idx: usize, rate: f64) -> RateOutcome {
    let faults = FaultConfig {
        storage_throttle_prob: rate / 5.0,
        storage_timeout_prob: rate / 10.0,
        ..FaultConfig::compute(rate)
    };
    in_sim_faulted(0xFA17_0000 + idx as u64, faults, move |ctx| {
        Box::pin(async move {
            let meter = shared_meter();
            let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
            load_paper_datasets(&storage, 0.004, 0.02).unwrap();
            let lambda = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
            let engine = Skyrise::deploy_simple(&ctx, ComputePlatform::Faas(lambda), storage);
            let config = QueryConfig {
                target_bytes_per_worker: 256 << 20,
                task_policy: TaskPolicy {
                    max_attempts: 6,
                    straggler_base_secs: 60.0,
                    ..TaskPolicy::default()
                },
                ..QueryConfig::default()
            };

            let before = meter.borrow().report();
            let mut out = RateOutcome {
                runtime_secs: 0.0,
                cost_usd: 0.0,
                task_retries: 0,
                speculative: 0,
                failed_secs: 0.0,
                faults_injected: 0,
            };
            for plan in queries::suite() {
                let response = engine
                    .run(&plan, config.clone())
                    .await
                    .expect("query completes under injected faults");
                out.runtime_secs += response.runtime_secs;
                for s in &response.stages {
                    out.task_retries += u64::from(s.task_retries);
                    out.speculative += u64::from(s.speculative_invokes);
                    out.failed_secs += s.failed_attempt_secs;
                }
            }
            let after = meter.borrow().report();
            out.cost_usd = CostReport::delta(&before, &after).total_usd();
            let stats = ctx.faults().stats();
            out.faults_injected = stats.transients
                + stats.crashes_armed
                + stats.coldstart_spikes
                + stats.storage_throttles
                + stats.storage_timeouts;
            out
        })
    })
}

/// Reliability sweep: the TPC-H suite under increasing injected fault
/// rates, with retries and speculative re-execution enabled.
pub fn reliability() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "reliability",
        "Reliability tax: suite latency/cost vs injected fault rate",
    );
    let rates: Vec<f64> = if full_profile() {
        vec![0.0, 0.01, 0.02, 0.05, 0.10]
    } else {
        vec![0.0, 0.02, 0.05]
    };
    r.param("queries", "q1,q6,q12,bb_q3");
    r.param("rates", format!("{rates:?}"));
    r.param("max_attempts", 6);

    let outcomes: Vec<RateOutcome> = rates
        .iter()
        .enumerate()
        .map(|(i, &p)| run_rate(i, p))
        .collect();

    let mut rows = vec![vec![
        "Fault rate".to_string(),
        "Runtime [s]".into(),
        "Cost [$]".into(),
        "Retries".into(),
        "Speculative".into(),
        "Failed [s]".into(),
        "Injected".into(),
    ]];
    for (&p, o) in rates.iter().zip(&outcomes) {
        rows.push(vec![
            format!("{p:.2}"),
            format!("{:.2}", o.runtime_secs),
            format!("{:.4}", o.cost_usd),
            o.task_retries.to_string(),
            o.speculative.to_string(),
            format!("{:.2}", o.failed_secs),
            o.faults_injected.to_string(),
        ]);
    }
    println!("{}", text_table(&rows));

    let points = |f: &dyn Fn(&RateOutcome) -> f64| -> Vec<(f64, f64)> {
        rates
            .iter()
            .zip(&outcomes)
            .map(|(&p, o)| (p, f(o)))
            .collect()
    };
    r.push_series(NamedSeries::new(
        "suite_runtime_secs",
        points(&|o| o.runtime_secs),
    ));
    r.push_series(NamedSeries::new("suite_cost_usd", points(&|o| o.cost_usd)));
    r.push_series(NamedSeries::new(
        "task_retries",
        points(&|o| o.task_retries as f64),
    ));
    r.push_series(NamedSeries::new(
        "speculative_invokes",
        points(&|o| o.speculative as f64),
    ));
    r.push_series(NamedSeries::new(
        "failed_attempt_secs",
        points(&|o| o.failed_secs),
    ));
    r.push_series(NamedSeries::new(
        "faults_injected",
        points(&|o| o.faults_injected as f64),
    ));

    for (&p, o) in rates.iter().zip(&outcomes) {
        let tag = format!("rate_{:03}", (p * 100.0).round() as u32);
        r.scalar(&format!("{tag}_runtime_secs"), o.runtime_secs);
        r.scalar(&format!("{tag}_cost_usd"), o.cost_usd);
        r.scalar(&format!("{tag}_task_retries"), o.task_retries as f64);
        r.scalar(&format!("{tag}_faults_injected"), o.faults_injected as f64);
    }
    let base = &outcomes[0];
    let peak = outcomes.last().expect("at least one rate");
    if base.runtime_secs > 0.0 {
        r.scalar(
            "peak_rate_runtime_overhead_pct",
            100.0 * (peak.runtime_secs - base.runtime_secs) / base.runtime_secs,
        );
    }
    if base.cost_usd > 0.0 {
        r.scalar(
            "peak_rate_cost_overhead_pct",
            100.0 * (peak.cost_usd - base.cost_usd) / base.cost_usd,
        );
    }
    r
}
