//! `s3_ramp`: Fig. 12's operating point. An open-loop timetable offers an
//! S3 Standard bucket 1.05 × its current capacity in 5 s windows until it
//! has split into 9 partitions (49.5K IOPS at paper scale). Every request is a spawned task and about
//! 95 % succeed, so this is the `storage` success path, the split logic,
//! and `sim` task spawning: the same storage layer as `iops_closed`, used
//! differently.
//!
//! The timetable lives in virtual time, so the generator is never late;
//! there is no lateness figure to report.

use super::{
    add_counters, attempt_note, conservation, ensure, per_attempt_layers, Rep, Seen, Workload,
    S3_STANDARD,
};
use crate::span::Recorder;
use skyrise::pricing::shared_meter;
use skyrise::sim::{Sim, SimDuration};
use skyrise::storage::{Blob, RequestOpts, S3Bucket, S3Config, Storage};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Partition IOPS are scaled down and splits sped up, as in the repo's
/// fast profile; headline values are converted back to paper scale.
const IOPS_SCALE: f64 = 0.02;
const SPLIT_INTERVAL_SECS: u64 = 80;
const PAPER_SPLIT_INTERVAL_SECS: f64 = 315.0;
const OVERLOAD: f64 = 1.05;
const WINDOW_SECS: f64 = 5.0;
const TARGET_PARTITIONS: usize = 12;
const OBJECT_BYTES: u64 = 1024;
const KEY: &str = "ramp/obj";

pub struct S3Ramp {
    pub seed: u64,
}

/// State of the ramp when the bucket first held `partitions`.
struct Milestone {
    partitions: usize,
    virtual_s: f64,
    usd: f64,
}

struct Outcome {
    requests: u64,
    milestones: Vec<Milestone>,
}

impl Workload for S3Ramp {
    fn rep(&self, rec: &Recorder, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let _span = rec.span("s3_standard.ramp");
        let mut sim = Sim::new(self.seed);
        let registry = traced.then(|| sim.install_metrics());
        let sanitizer = sim.enable_sanitizer();
        let ctx = sim.ctx();
        let meter = shared_meter();
        let task_meter = meter.clone();
        let ok = Rc::new(Cell::new(0u64));
        let task_ok = Rc::clone(&ok);

        let mut cfg = S3Config::standard();
        cfg.read_iops_per_partition *= IOPS_SCALE;
        cfg.write_iops *= IOPS_SCALE;
        cfg.split_interval = SimDuration::from_secs(SPLIT_INTERVAL_SECS);
        cfg.window = SimDuration::from_secs(2);
        let per_partition = cfg.read_iops_per_partition;

        let started = Instant::now();
        let handle = sim.spawn(async move {
            let bucket = S3Bucket::new(ctx.clone(), task_meter.clone(), cfg);
            let storage = Storage::S3(Rc::clone(&bucket));
            storage.backdoor_put(KEY, Blob::synthetic(OBJECT_BYTES));
            let start = ctx.now();
            let mut requests = 0u64;
            let mut milestones: Vec<Milestone> = Vec::new();
            let mut window_start = start;
            // Strictly open loop: each window's requests go onto a fixed
            // timetable and the next window starts on time, whatever is
            // still in flight. Waiting for a window's stragglers would open
            // quiet gaps that reset S3's overload detection at random.
            while bucket.partition_count() < TARGET_PARTITIONS {
                let rate = bucket.partition_count() as f64 * per_partition * OVERLOAD;
                let n = (rate * WINDOW_SECS) as u64;
                for i in 0..n {
                    let at = window_start + SimDuration::from_secs_f64(i as f64 / rate);
                    let (task_ctx, storage, ok) =
                        (ctx.clone(), storage.clone(), Rc::clone(&task_ok));
                    // Detached: the simulation runs until the last request
                    // has completed, joined or not.
                    ctx.spawn(async move {
                        task_ctx.sleep_until(at).await;
                        if storage.get(KEY, &RequestOpts::default()).await.is_ok() {
                            ok.set(ok.get() + 1);
                        }
                    });
                }
                requests += n;
                window_start += SimDuration::from_secs_f64(WINDOW_SECS);
                ctx.sleep_until(window_start).await;
                let partitions = bucket.partition_count();
                if milestones.last().map(|m| m.partitions) != Some(partitions) {
                    milestones.push(Milestone {
                        partitions,
                        virtual_s: (ctx.now() - start).as_secs_f64(),
                        usd: task_meter.borrow().report().total_usd(),
                    });
                }
            }
            Outcome {
                requests,
                milestones,
            }
        });
        let end = sim.run();
        let host_s = started.elapsed().as_secs_f64();
        let out = handle.try_take().expect("the ramp ran to its end");
        let ok = ok.get();
        let failed = out.requests - ok;
        let usd = meter.borrow().report().total_usd();
        let counters = registry.map(|r| r.snapshot().counters);
        let last = out.milestones.last().map_or(0, |m| m.partitions);
        let seen = Seen {
            ok,
            failed,
            write: false,
            object_bytes: OBJECT_BYTES,
        };
        let (_, conserved) = conservation(&meter, &S3_STANDARD, &seen, counters.as_ref());
        let outcome = ensure(last >= TARGET_PARTITIONS, || {
            format!("the ramp stopped at {last} partitions")
        })
        .and(conserved);
        rep.operation("s3_standard.ramp", outcome);
        rep.phase("s3_standard.ramp", host_s);

        // Back to paper scale: virtual time by the split-interval ratio,
        // request volume (and so the bill) by that and the IOPS scale.
        let time_factor = PAPER_SPLIT_INTERVAL_SECS / SPLIT_INTERVAL_SECS as f64;
        let at = |reached: &dyn Fn(&Milestone) -> bool| out.milestones.iter().find(|m| reached(m));
        if let Some(m) = at(&|m| m.partitions >= 5) {
            rep.headline.push((
                "s3_ramp.minutes_to_5_partitions".into(),
                m.virtual_s * time_factor / 60.0,
            ));
        }
        let paper_iops = |m: &Milestone| m.partitions as f64 * per_partition / IOPS_SCALE;
        if let Some(m) = at(&|m| paper_iops(m) >= 49_000.0) {
            rep.headline.push((
                "s3_ramp.hours_to_50k_iops".into(),
                m.virtual_s * time_factor / 3600.0,
            ));
            rep.headline.push((
                "s3_ramp.usd_to_50k_iops".into(),
                m.usd * time_factor / IOPS_SCALE,
            ));
        }

        rep.ops = out.requests;
        rep.virtual_s = end.as_secs_f64();
        rep.cost_usd = usd;
        rep.stat_u64("ramp.requests", out.requests);
        rep.stat_u64("ramp.ok", ok);
        rep.stat_u64("ramp.partitions", last as u64);
        rep.stat_f64("ramp.virtual_s", end.as_secs_f64());
        rep.stat_f64("ramp.usd", usd);
        rep.stat_u64(
            "ramp.schedule_digest",
            sanitizer.report().map_or(0, |r| r.digest),
        );
        for m in &out.milestones {
            rep.stat_f64(
                &format!("ramp.virtual_s_to_{}_partitions", m.partitions),
                m.virtual_s,
            );
        }
        if let Some(counters) = &counters {
            rep.layer("storage.ramp.requests", out.requests as f64);
            rep.layer("storage.ramp.virtual_s", end.as_secs_f64());
            rep.layer("storage.ramp.partitions", last as f64);
            rep.layer("storage.ramp.usd", usd);
            add_counters(&mut rep.layers, counters);
            per_attempt_layers(&mut rep);
            rep.notes.push(attempt_note(
                "s3_standard.ramp",
                ok,
                failed,
                host_s,
                counters,
            ));
        }
        rep
    }
}
