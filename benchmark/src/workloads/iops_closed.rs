//! `iops_closed`: Fig. 9's operating point at half its client fleet. 32
//! clients × 32 threads issue 1 KiB requests in a closed loop, reads beside
//! writes on every backend. Seven arms are over 80 % 503 rejects (one timer
//! each). The 1024 threads offer S3 Express reads about 200K requests a
//! second, under its 220K quota, so that arm is all successes (two timers
//! each): the reject and the success path of the request code each have an
//! arm of their own. `net` sees one slice per successful operation and
//! `engine` nothing.

use super::{
    add_counters, attempt_note, per_attempt_layers, run_arm, Rep, Workload, DYNAMODB, EFS,
    S3_EXPRESS, S3_STANDARD,
};
use crate::span::Recorder;
use skyrise::micro::storageio::StorageIoConfig;
use skyrise::sim::SimDuration;

const CLIENTS: usize = 32;
const THREADS_PER_CLIENT: usize = 32;
const OBJECT_BYTES: u64 = 1024;
/// Virtual seconds per arm. Two, so that steady-state IOPS can be counted
/// in the second one, after the admission burst allowance is spent.
const ARM_VIRTUAL_SECS: u64 = 2;

pub struct IopsClosed {
    pub seed: u64,
}

impl Workload for IopsClosed {
    fn rep(&self, rec: &Recorder, traced: bool) -> Rep {
        let mut rep = Rep::default();
        for backend in [&S3_STANDARD, &S3_EXPRESS, &DYNAMODB, &EFS] {
            for write in [false, true] {
                let cfg = StorageIoConfig {
                    clients: CLIENTS,
                    threads_per_client: THREADS_PER_CLIENT,
                    object_bytes: OBJECT_BYTES,
                    write,
                    duration: SimDuration::from_secs(ARM_VIRTUAL_SECS),
                    client_nic: None,
                    keyspace_per_thread: 4,
                };
                let arm = run_arm(self.seed, backend, cfg, rec, traced, &mut rep);
                // Successful operations that completed in the second
                // virtual second: the steady-state rate Fig. 9 reports.
                let ok_iops = arm
                    .result
                    .ops_series
                    .totals()
                    .get(1)
                    .copied()
                    .unwrap_or(0.0);
                rep.stat_f64(&format!("{}.ok_iops", arm.name), ok_iops);
                // Fig. 9 gives numbers for these three backends (EFS it
                // only shows missing its documented quota). Express reads
                // are client-limited here, so they say nothing of the model.
                let saturated = arm.name != "s3_express.read";
                if saturated && matches!(backend.slug, "s3_standard" | "s3_express" | "dynamodb") {
                    rep.headline
                        .push((format!("iops_closed.{}.ok_iops", arm.name), ok_iops));
                }
                if let Some(counters) = &arm.counters {
                    let attempts = (arm.ok + arm.failed) as f64;
                    rep.layer(
                        &format!("storage.{}.host_us_per_op", arm.name),
                        arm.host_s * 1e6 / attempts,
                    );
                    rep.layer(&format!("storage.{}.ok_iops", arm.name), ok_iops);
                    add_counters(&mut rep.layers, counters);
                    rep.notes.push(attempt_note(
                        &arm.name, arm.ok, arm.failed, arm.host_s, counters,
                    ));
                }
            }
        }
        if traced {
            per_attempt_layers(&mut rep);
        }
        rep
    }
}
