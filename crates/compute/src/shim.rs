//! The IaaS shim layer: "a shim layer that resembles the Lambda execution
//! environment to run functions on VM hosts" (paper Sec. 3.1).
//!
//! The same handler binaries registered with the FaaS platform run here on
//! a provisioned VM cluster. Invocations are queued and distributed across
//! the available worker slots (paper Sec. 3.2); there are no coldstarts
//! and no per-invocation billing — the VMs bill by lifetime.

use crate::ec2::Vm;
use crate::faas::{ExecEnv, FaasError, FunctionConfig, Handler, InvokeResult};
use skyrise_sim::sync::Semaphore;
use skyrise_sim::SimCtx;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A VM cluster running function handlers behind the shim layer.
pub struct ShimCluster {
    ctx: SimCtx,
    vms: Vec<Rc<Vm>>,
    /// One slot per `vcpus_per_worker` vCPUs on each VM.
    slots: Semaphore,
    free_slots: RefCell<Vec<usize>>, // VM indices
    functions: RefCell<BTreeMap<String, (FunctionConfig, Handler)>>,
    vcpus_per_worker: u32,
}

impl ShimCluster {
    /// Build a cluster over booted VMs; each VM contributes
    /// `vcpus / vcpus_per_worker` worker slots (at least one).
    pub fn new(ctx: &SimCtx, vms: Vec<Rc<Vm>>, vcpus_per_worker: u32) -> Rc<Self> {
        assert!(!vms.is_empty(), "cluster needs at least one VM");
        let mut free = Vec::new();
        for (idx, vm) in vms.iter().enumerate() {
            let slots = (vm.vcpus() / vcpus_per_worker).max(1);
            for _ in 0..slots {
                free.push(idx);
            }
        }
        let total = free.len();
        Rc::new(ShimCluster {
            ctx: ctx.clone(),
            vms,
            slots: Semaphore::new(total),
            free_slots: RefCell::new(free),
            functions: RefCell::new(BTreeMap::new()),
            vcpus_per_worker,
        })
    }

    /// Deploy a function binary onto the cluster.
    pub fn register(&self, config: FunctionConfig, handler: Handler) {
        self.functions
            .borrow_mut()
            .insert(config.name.clone(), (config, handler));
    }

    /// Total worker slots.
    pub fn total_slots(&self) -> usize {
        self.vms
            .iter()
            .map(|vm| (vm.vcpus() / self.vcpus_per_worker).max(1) as usize)
            .sum()
    }

    /// The cluster's hourly cost (peak-provisioned).
    pub fn usd_per_hour(&self) -> f64 {
        self.vms.iter().map(|vm| vm.usd_per_hour()).sum()
    }

    /// Invoke a function on the head node without occupying a worker slot
    /// (the coordinator endpoint: it must never deadlock the slot pool it
    /// schedules workers onto).
    pub async fn invoke_unqueued(
        self: &Rc<Self>,
        name: &str,
        payload: String,
    ) -> Result<InvokeResult, FaasError> {
        let function = self.lookup(name)?;
        self.run(function, 0, payload).await
    }

    /// Invoke a function: queue for a slot, run on its VM. No coldstarts.
    pub async fn invoke(
        self: &Rc<Self>,
        name: &str,
        payload: String,
    ) -> Result<InvokeResult, FaasError> {
        let function = self.lookup(name)?;
        // Queue for a slot — "it queues and distributes the fragments
        // across the available worker slots".
        let _guard = self.slots.acquire().await;
        let vm_idx = self
            .free_slots
            .borrow_mut()
            .pop()
            .expect("slot semaphore and free list in sync");
        let result = self.run(function, vm_idx, payload).await;
        self.free_slots.borrow_mut().push(vm_idx);
        result
    }

    /// The registered function `name`.
    fn lookup(&self, name: &str) -> Result<(FunctionConfig, Handler), FaasError> {
        let fns = self.functions.borrow();
        let (config, handler) = fns
            .get(name)
            .ok_or_else(|| FaasError::UnknownFunction(name.to_string()))?;
        Ok((config.clone(), Rc::clone(handler)))
    }

    /// Run a looked-up function on VM `vm_idx`.
    async fn run(
        &self,
        (config, handler): (FunctionConfig, Handler),
        vm_idx: usize,
        payload: String,
    ) -> Result<InvokeResult, FaasError> {
        let vm = Rc::clone(&self.vms[vm_idx]);
        let started = self.ctx.now();
        let env = ExecEnv {
            ctx: self.ctx.clone(),
            nic: Rc::clone(&vm.nic),
            cold_start: false,
            vcpus: self.vcpus_per_worker as f64,
            memory_mib: config.memory_mib,
            instance_id: vm.id,
        };
        let output = handler(env, payload)
            .await
            .map_err(FaasError::HandlerFailed)?;
        Ok(InvokeResult {
            output,
            duration: self.ctx.now().duration_since(started),
            cold_start: false,
            sandbox_id: vm.id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ec2::{Ec2Fleet, LaunchConfig};
    use crate::faas::handler;
    use skyrise_pricing::shared_meter;
    use skyrise_sim::{join_all, Sim, SimDuration};

    async fn cluster(ctx: &SimCtx, n: usize) -> Rc<ShimCluster> {
        let meter = shared_meter();
        let fleet = Ec2Fleet::new(ctx, &meter);
        let vms = fleet
            .launch_many(&LaunchConfig::on_demand("c6g.xlarge"), n)
            .await;
        ShimCluster::new(ctx, vms, 4)
    }

    #[test]
    fn invoke_runs_without_coldstart() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let cluster = cluster(&ctx, 2).await;
            cluster.register(
                FunctionConfig::worker("f"),
                handler(|env: ExecEnv, p: String| async move {
                    env.ctx.sleep(SimDuration::from_millis(10)).await;
                    Ok(p)
                }),
            );
            let t0 = ctx.now();
            let r = cluster.invoke("f", "hi".into()).await.unwrap();
            (r, (ctx.now() - t0).as_secs_f64())
        });
        sim.run();
        let (r, elapsed) = h.try_take().unwrap();
        assert!(!r.cold_start);
        assert_eq!(r.output, "hi");
        assert!(elapsed < 0.02, "no startup overhead: {elapsed}");
    }

    #[test]
    fn slots_queue_excess_invocations() {
        let mut sim = Sim::new(2);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            // 2 x c6g.xlarge at 4 vCPUs/worker = 2 slots.
            let cluster = cluster(&ctx, 2).await;
            assert_eq!(cluster.total_slots(), 2);
            cluster.register(
                FunctionConfig::worker("f"),
                handler(|env: ExecEnv, p: String| async move {
                    env.ctx.sleep(SimDuration::from_millis(100)).await;
                    Ok(p)
                }),
            );
            let t0 = ctx.now();
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    let c = Rc::clone(&cluster);
                    ctx.spawn(async move { c.invoke("f", String::new()).await.unwrap() })
                })
                .collect();
            join_all(handles).await;
            (ctx.now() - t0).as_secs_f64()
        });
        sim.run();
        let elapsed = h.try_take().unwrap();
        // 6 tasks, 2 slots, 100 ms each => 3 waves = ~300 ms.
        assert!((elapsed - 0.3).abs() < 0.02, "elapsed {elapsed}");
    }

    #[test]
    fn bigger_vms_contribute_more_slots() {
        let mut sim = Sim::new(3);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let meter = shared_meter();
            let fleet = Ec2Fleet::new(&ctx, &meter);
            let vms = fleet
                .launch_many(&LaunchConfig::on_demand("c6g.4xlarge"), 3)
                .await;
            let cluster = ShimCluster::new(&ctx, vms, 4);
            cluster.total_slots()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), 12); // 16 vCPUs / 4 per worker x 3
    }

    #[test]
    fn cluster_hourly_price_sums_vms() {
        let mut sim = Sim::new(4);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let cluster = cluster(&ctx, 284).await;
            cluster.usd_per_hour()
        });
        sim.run();
        // The paper's Q12 cluster: 284 x c6g.xlarge = $38.62/h.
        let usd = h.try_take().unwrap();
        assert!((usd - 284.0 * 0.136).abs() < 1e-9);
    }
}
