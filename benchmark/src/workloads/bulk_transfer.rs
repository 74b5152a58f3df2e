//! `bulk_transfer`: Fig. 8's operating point. 128 client VMs × 32 threads
//! move 64 MiB objects through `c6gn.2xlarge` NICs, so `net::transfer`'s
//! slice loop and token buckets do most of the work and the per-request
//! `storage` code little. An optimisation of the request path should leave
//! this workload where it is.

use super::{
    add_counters, attempt_note, per_attempt_layers, run_arm, Rep, Workload, S3_EXPRESS, S3_STANDARD,
};
use crate::span::Recorder;
use skyrise::compute::nic_for;
use skyrise::micro::storageio::StorageIoConfig;
use skyrise::pricing::ec2_instance;
use skyrise::sim::{SimDuration, GIB};
use std::rc::Rc;

const CLIENTS: usize = 128;
const THREADS_PER_CLIENT: usize = 32;
const OBJECT_BYTES: u64 = 64 << 20;
const ARM_VIRTUAL_SECS: u64 = 2;
const CLIENT_INSTANCE: &str = "c6gn.2xlarge";

pub struct BulkTransfer {
    pub seed: u64,
}

impl Workload for BulkTransfer {
    fn rep(&self, rec: &Recorder, traced: bool) -> Rep {
        let mut rep = Rep::default();
        for backend in [&S3_STANDARD, &S3_EXPRESS] {
            for write in [false, true] {
                let cfg = StorageIoConfig {
                    clients: CLIENTS,
                    threads_per_client: THREADS_PER_CLIENT,
                    object_bytes: OBJECT_BYTES,
                    write,
                    duration: SimDuration::from_secs(ARM_VIRTUAL_SECS),
                    client_nic: Some(Rc::new(|| {
                        nic_for(&ec2_instance(CLIENT_INSTANCE).expect("in the EC2 catalog"))
                    })),
                    keyspace_per_thread: 2,
                };
                let arm = run_arm(self.seed, backend, cfg, rec, traced, &mut rep);
                // Bytes of the operations that completed inside the arm's
                // virtual window, over the window. (`bytes_per_sec` divides
                // by the time the last straggler took to drain.)
                let in_window: f64 = arm
                    .result
                    .ops_series
                    .totals()
                    .iter()
                    .take(ARM_VIRTUAL_SECS as usize)
                    .sum();
                let gib_s = in_window * OBJECT_BYTES as f64 / GIB as f64 / ARM_VIRTUAL_SECS as f64;
                rep.stat_f64(&format!("{}.gib_s", arm.name), gib_s);
                // Fig. 8 shows both classes scaling to one aggregate read
                // throughput; it gives no separate figure for writes.
                if !write {
                    rep.headline
                        .push((format!("bulk_transfer.{}.gib_s", arm.name), gib_s));
                }
                if let Some(counters) = &arm.counters {
                    rep.layer(&format!("storage.bulk.{}.host_s", arm.name), arm.host_s);
                    rep.layer(&format!("storage.bulk.{}.gib_s", arm.name), gib_s);
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
