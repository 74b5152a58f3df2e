//! The four workloads, and what one repetition of any of them reports.

pub mod bulk_transfer;
pub mod iops_closed;
pub mod query_suite;
pub mod s3_ramp;

use crate::span::Recorder;
use skyrise::micro::storageio::{run_closed_loop, StorageIoConfig, StorageIoResult};
use skyrise::pricing::{shared_meter, SharedMeter, StorageService};
use skyrise::sim::{Sim, SimCtx};
use skyrise::storage::{DynamoTable, EfsFilesystem, S3Bucket, Storage};
use std::collections::BTreeMap;
use std::time::Instant;

/// A workload: inputs made from a seed, and repetitions of identical work
/// over them.
pub trait Workload {
    /// One repetition. With `traced`, the simulations carry a metric
    /// registry and the repetition fills in [`Rep::layers`].
    fn rep(&self, rec: &Recorder, traced: bool) -> Rep;
}

/// Build the named workload's inputs from `seed`.
pub fn generate(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "query_suite" => Box::new(query_suite::QuerySuite::generate(seed)),
        "iops_closed" => Box::new(iops_closed::IopsClosed { seed }),
        "s3_ramp" => Box::new(s3_ramp::S3Ramp { seed }),
        "bulk_transfer" => Box::new(bulk_transfer::BulkTransfer { seed }),
        _ => return None,
    })
}

/// What one repetition produced.
#[derive(Default)]
pub struct Rep {
    /// Host seconds of each phase (a query, an arm, the dataset load), in
    /// the same order on every repetition. What the harness does between
    /// phases, its checks above all, is in none of them.
    pub phases: Vec<(String, f64)>,
    /// Modelled storage attempts, successful and failed.
    pub ops: u64,
    /// Virtual seconds the modelled fleet needed: the queries' runtimes,
    /// the ramp's duration, or the arms' median request latencies.
    pub virtual_s: f64,
    /// Metered bill of the repetition.
    pub cost_usd: f64,
    /// Simulated headline values under their `reference.json` keys.
    pub headline: Vec<(String, f64)>,
    /// Every simulated statistic, floats as raw bits. Repetitions of one
    /// seed must agree on all of them, traced or not.
    pub stats: BTreeMap<String, u64>,
    /// Per-layer metrics (traced repetitions only).
    pub layers: BTreeMap<String, f64>,
    /// Operations attempted: one per query or arm.
    pub operations: u64,
    /// One line per operation that returned an error or failed a check.
    pub failures: Vec<String>,
    /// Lines for the traced report that are not metrics.
    pub notes: Vec<String>,
}

impl Rep {
    pub fn stat_u64(&mut self, name: &str, v: u64) {
        self.stats.insert(name.to_string(), v);
    }

    pub fn stat_f64(&mut self, name: &str, v: f64) {
        self.stats.insert(name.to_string(), v.to_bits());
    }

    pub fn phase(&mut self, name: &str, host_s: f64) {
        self.phases.push((name.to_string(), host_s));
    }

    pub fn layer(&mut self, name: &str, v: f64) {
        self.layers.insert(name.to_string(), v);
    }

    /// Count one operation and keep its failure, if any.
    pub fn operation(&mut self, what: &str, outcome: Result<(), String>) {
        self.operations += 1;
        if let Err(why) = outcome {
            self.failures.push(format!("{what}: {why}"));
        }
    }
}

/// `Ok` when `cond` holds, else the message.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// A storage backend the arms run against.
pub struct Backend {
    /// Metric-name part; equals the program's `storage.<slug>.*` slug.
    pub slug: &'static str,
    pub service: StorageService,
    pub make: fn(&SimCtx, &SharedMeter) -> Storage,
}

pub const S3_STANDARD: Backend = Backend {
    slug: "s3_standard",
    service: StorageService::S3Standard,
    make: |ctx, meter| Storage::S3(S3Bucket::standard(ctx, meter)),
};
pub const S3_EXPRESS: Backend = Backend {
    slug: "s3_express",
    service: StorageService::S3Express,
    make: |ctx, meter| Storage::S3(S3Bucket::express(ctx, meter)),
};
pub const DYNAMODB: Backend = Backend {
    slug: "dynamodb",
    service: StorageService::DynamoDb,
    make: |ctx, meter| Storage::Dynamo(DynamoTable::on_demand(ctx, meter)),
};
pub const EFS: Backend = Backend {
    slug: "efs",
    service: StorageService::Efs,
    make: |ctx, meter| Storage::Efs(EfsFilesystem::elastic(ctx, meter)),
};

pub fn direction(write: bool) -> &'static str {
    if write {
        "write"
    } else {
        "read"
    }
}

/// Counts of one closed-loop arm, as the driver, the usage meter, and (when
/// traced) the program's telemetry saw them.
pub struct Arm {
    /// `<backend>.<read|write>`.
    pub name: String,
    /// Host seconds of the arm's `Sim::run`, timed from outside.
    pub host_s: f64,
    pub ok: u64,
    pub failed: u64,
    pub result: StorageIoResult,
    /// Telemetry counters (traced arms only).
    pub counters: Option<BTreeMap<String, u64>>,
}

/// Events and host time per attempt in one simulation, successes beside
/// rejects: which request path the simulation mostly took, and its cost.
pub fn attempt_note(
    name: &str,
    ok: u64,
    failed: u64,
    host_s: f64,
    counters: &BTreeMap<String, u64>,
) -> String {
    let attempts = (ok + failed) as f64;
    format!(
        "{name}: {ok} ok, {failed} rejected, {:.3} timers and {:.3} polls per attempt, {:.3} host us per attempt",
        counters["sim.timer.inserts"] as f64 / attempts,
        counters["sim.executor.polls"] as f64 / attempts,
        host_s * 1e6 / attempts,
    )
}

/// What the driver of one simulation counted.
pub struct Seen {
    pub ok: u64,
    pub failed: u64,
    pub write: bool,
    pub object_bytes: u64,
}

/// The storage conservation checks of one simulation: the usage meter saw
/// the driver's attempts and failures, bytes moved are successes times the
/// object size, and (when traced) the program's telemetry counted the same
/// successes. Returns the bytes moved beside the verdict.
pub fn conservation(
    meter: &SharedMeter,
    backend: &Backend,
    seen: &Seen,
    counters: Option<&BTreeMap<String, u64>>,
) -> (u64, Result<(), String>) {
    let usage = meter
        .borrow()
        .storage
        .get(&backend.service)
        .cloned()
        .unwrap_or_default();
    let Seen { ok, failed, .. } = *seen;
    let moved = if seen.write {
        usage.bytes_written
    } else {
        usage.bytes_read
    };
    let metered = usage.read_requests + usage.write_requests;
    let mut verdict = ensure(metered == ok + failed, || {
        format!("meter saw {metered} attempts, the driver {ok} ok + {failed} failed")
    })
    .and(ensure(usage.failed_requests == failed, || {
        format!(
            "meter saw {} failures, the driver {failed}",
            usage.failed_requests
        )
    }))
    .and(ensure(moved == ok * seen.object_bytes, || {
        format!(
            "{moved} bytes moved for {ok} ok operations of {} bytes",
            seen.object_bytes
        )
    }));
    if let Some(counters) = counters {
        let counted = counters
            .get(&format!("storage.{}.ops_ok", backend.slug))
            .copied();
        verdict = verdict.and(ensure(counted == Some(ok), || {
            format!("telemetry saw {counted:?} ok operations, the driver {ok}")
        }));
    }
    (moved, verdict)
}

/// Run one closed-loop arm in a simulation of its own and check that the
/// three views of it conserve requests and bytes.
pub fn run_arm(
    seed: u64,
    backend: &Backend,
    cfg: StorageIoConfig,
    rec: &Recorder,
    traced: bool,
    rep: &mut Rep,
) -> Arm {
    let name = format!("{}.{}", backend.slug, direction(cfg.write));
    let _span = rec.span(&name);
    let mut sim = Sim::new(seed);
    let registry = traced.then(|| sim.install_metrics());
    let sanitizer = sim.enable_sanitizer();
    let ctx = sim.ctx();
    let meter = shared_meter();
    let make = backend.make;
    let (task_meter, task_cfg) = (meter.clone(), cfg.clone());
    let started = Instant::now();
    let handle = sim.spawn(async move {
        let storage = make(&ctx, &task_meter);
        run_closed_loop(&ctx, &storage, &task_cfg).await
    });
    let end = sim.run();
    let host_s = started.elapsed().as_secs_f64();
    let result = handle.try_take().expect("the closed loop ran to its end");
    let digest = sanitizer.report().map_or(0, |r| r.digest);

    let ok = result.ops_series.total() as u64;
    let failed = result.fail_series.total() as u64;
    let usd = meter.borrow().report().total_usd();
    let counters = registry.map(|r| r.snapshot().counters);
    let seen = Seen {
        ok,
        failed,
        write: cfg.write,
        object_bytes: cfg.object_bytes,
    };
    let (moved, conserved) = conservation(&meter, backend, &seen, counters.as_ref());
    let outcome = ensure(ok > 0, || "no operation succeeded".into()).and(conserved);
    rep.operation(&name, outcome);
    rep.phase(&name, host_s);

    // The virtual clock of a closed loop is its request latency. The time
    // at which the simulation went idle is not used: it ends on the slowest
    // request still in flight at the deadline, a draw from the latency tail.
    let latency_s = result.latency.median();
    rep.ops += ok + failed;
    rep.virtual_s += latency_s;
    rep.cost_usd += usd;
    rep.stat_u64(&format!("{name}.ok"), ok);
    rep.stat_u64(&format!("{name}.failed"), failed);
    rep.stat_u64(&format!("{name}.bytes"), moved);
    rep.stat_f64(&format!("{name}.median_latency_s"), latency_s);
    rep.stat_f64(&format!("{name}.idle_at_s"), end.as_secs_f64());
    rep.stat_f64(&format!("{name}.usd"), usd);
    rep.stat_u64(&format!("{name}.schedule_digest"), digest);
    Arm {
        name,
        host_s,
        ok,
        failed,
        result,
        counters,
    }
}

/// The benchmark's metric for one of the program's counters, if it keeps
/// it (the mapping `README.md` documents).
fn metric_for(counter: &str) -> Option<&str> {
    Some(match counter {
        "sim.timer.inserts" => "sim.timer_inserts",
        "sim.executor.polls" => "sim.polls",
        "sim.executor.tasks_spawned" => "sim.tasks_spawned",
        "net.transfer.count" => "net.transfers",
        "net.transfer.stalled_slices" => "net.stalled_slices",
        "net.fabric.throttle_onsets" => "net.throttle_onsets",
        "faas.invoke.count" => "compute.invokes",
        "faas.sandbox.cold_starts" => "compute.cold_starts",
        "faas.sandbox.warm_starts" => "compute.warm_starts",
        "engine.task.retries" => "engine.task_retries",
        "storage.client.retries"
        | "storage.client.throttles"
        | "storage.client.timeouts"
        | "engine.shuffle.bytes_read"
        | "engine.shuffle.bytes_decoded"
        | "engine.shuffle.bytes_pruned"
        | "engine.arena.bytes_allocated" => counter,
        _ if counter.starts_with("net.lane.") && counter.ends_with(".bytes") => "net.bytes",
        _ if counter.starts_with("storage.")
            && (counter.ends_with(".ops_ok") || counter.ends_with(".ops_failed")) =>
        {
            counter
        }
        _ => return None,
    })
}

/// Add the program's counters of one simulation into `layers` under the
/// benchmark's names.
pub fn add_counters(layers: &mut BTreeMap<String, f64>, counters: &BTreeMap<String, u64>) {
    for (counter, &v) in counters {
        if let Some(name) = metric_for(counter) {
            *layers.entry(name.to_string()).or_insert(0.0) += v as f64;
        }
    }
}

/// Derive the per-attempt ratios from the counts already in `rep.layers`.
pub fn per_attempt_layers(rep: &mut Rep) {
    let attempts = rep.ops as f64;
    let count = |name: &str| rep.layers.get(name).copied().unwrap_or(0.0);
    let failed: f64 = rep
        .layers
        .iter()
        .filter(|(name, _)| name.ends_with(".ops_failed"))
        .map(|(_, v)| v)
        .sum();
    let (timers, polls) = (count("sim.timer_inserts"), count("sim.polls"));
    rep.layer("storage.reject_share", failed / attempts);
    rep.layer("sim.timers_per_op", timers / attempts);
    rep.layer("sim.polls_per_op", polls / attempts);
}
