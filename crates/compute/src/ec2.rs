//! The EC2 VM fleet: instance launch, network provisioning from the
//! instance catalog, and lifetime billing.

use skyrise_net::{presets::ec2_nic, SharedNic};
use skyrise_pricing::{ec2_instance, Ec2InstanceSpec, SharedMeter};
use skyrise_sim::{SimCtx, SimDuration, SimTime};
use std::cell::Cell;
use std::rc::Rc;

/// A running (or terminated) virtual machine.
pub struct Vm {
    /// Instance id within the fleet.
    pub id: u64,
    /// Catalog entry this VM was launched from.
    pub spec: Ec2InstanceSpec,
    /// The VM's network interface.
    pub nic: SharedNic,
    started: SimTime,
    terminated: Cell<Option<SimTime>>,
    ctx: SimCtx,
    meter: SharedMeter,
    /// Pay the reserved rate instead of on-demand.
    reserved: bool,
}

impl Vm {
    /// vCPU count.
    pub fn vcpus(&self) -> u32 {
        self.spec.vcpus
    }

    /// Hourly price under the VM's pricing model.
    pub fn usd_per_hour(&self) -> f64 {
        if self.reserved {
            self.spec.reserved_usd_per_hour
        } else {
            self.spec.od_usd_per_hour
        }
    }

    /// Stop the VM, billing its lifetime. Idempotent.
    pub fn terminate(&self) {
        if self.terminated.get().is_some() {
            return;
        }
        let now = self.ctx.now();
        self.terminated.set(Some(now));
        let seconds = now.duration_since(self.started).as_secs_f64();
        self.meter
            .borrow_mut()
            .record_ec2(self.spec.name, self.usd_per_hour(), seconds);
    }

    /// Uptime so far (or total if terminated).
    pub fn uptime(&self) -> SimDuration {
        let end = self.terminated.get().unwrap_or(self.ctx.now());
        end.duration_since(self.started)
    }
}

/// Launch configuration for a batch of VMs.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Instance type name (must exist in the catalog).
    pub instance_type: String,
    /// Reserved pricing instead of on-demand.
    pub reserved: bool,
    /// Median boot time until the instance is serviceable.
    pub boot_median: SimDuration,
    /// Lognormal sigma of the boot time.
    pub boot_sigma: f64,
}

impl LaunchConfig {
    /// On-demand launch of a type with typical boot behaviour.
    pub fn on_demand(instance_type: &str) -> Self {
        LaunchConfig {
            instance_type: instance_type.to_string(),
            reserved: false,
            boot_median: SimDuration::from_secs(35),
            boot_sigma: 0.25,
        }
    }
}

/// Factory for VMs; owns the shared meter and ID sequence.
pub struct Ec2Fleet {
    ctx: SimCtx,
    meter: SharedMeter,
    next_id: Cell<u64>,
}

impl Ec2Fleet {
    /// New fleet bound to a simulation and meter.
    pub fn new(ctx: &SimCtx, meter: &SharedMeter) -> Rc<Self> {
        Rc::new(Ec2Fleet {
            ctx: ctx.clone(),
            meter: Rc::clone(meter),
            next_id: Cell::new(0),
        })
    }

    /// Launch one VM; resolves when it has booted.
    pub async fn launch(&self, cfg: &LaunchConfig) -> Rc<Vm> {
        let spec = ec2_instance(&cfg.instance_type)
            .unwrap_or_else(|| panic!("unknown instance type {}", cfg.instance_type));
        let boot = self.ctx.with_rng(|r| {
            let secs = r.gen_lognormal(cfg.boot_median.as_secs_f64().ln(), cfg.boot_sigma);
            SimDuration::from_secs_f64(secs)
        });
        self.ctx.sleep(boot).await;
        let nic = nic_for(&spec);
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        self.meter.borrow_mut().record_ec2_start(spec.name);
        Rc::new(Vm {
            id,
            spec,
            nic,
            started: self.ctx.now(),
            terminated: Cell::new(None),
            ctx: self.ctx.clone(),
            meter: Rc::clone(&self.meter),
            reserved: cfg.reserved,
        })
    }

    /// Launch `n` VMs concurrently; resolves when all have booted.
    pub async fn launch_many(self: &Rc<Self>, cfg: &LaunchConfig, n: usize) -> Vec<Rc<Vm>> {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let fleet = Rc::clone(self);
                let cfg = cfg.clone();
                self.ctx.spawn(async move { fleet.launch(&cfg).await })
            })
            .collect();
        skyrise_sim::join_all(handles).await
    }
}

/// Build a NIC from an instance's published network characteristics.
/// Instances whose bucket capacity is zero have no burst mechanism (their
/// baseline equals their burst bandwidth).
pub fn nic_for(spec: &Ec2InstanceSpec) -> SharedNic {
    if spec.net_bucket_bytes() <= 0.0 {
        skyrise_net::Nic::symmetric(skyrise_net::RateLimiter::continuous(
            spec.net_baseline_bps(),
            spec.net_baseline_bps(),
            // A slice worth of tokens keeps a pure rate limit flowing.
            spec.net_baseline_bps() * skyrise_net::DEFAULT_SLICE.as_secs_f64(),
        ))
    } else {
        ec2_nic(
            spec.net_burst_bps(),
            spec.net_baseline_bps(),
            spec.net_bucket_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyrise_pricing::shared_meter;
    use skyrise_sim::{Sim, MIB};

    #[test]
    fn launch_boots_then_bills_on_terminate() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let meter2 = meter.clone();
        let h = sim.spawn(async move {
            let fleet = Ec2Fleet::new(&ctx, &meter2);
            let vm = fleet.launch(&LaunchConfig::on_demand("c6g.xlarge")).await;
            let boot_done = ctx.now().as_secs_f64();
            ctx.sleep(SimDuration::from_secs(3600)).await;
            vm.terminate();
            vm.terminate(); // idempotent
            (boot_done, vm.uptime().as_secs_f64())
        });
        sim.run();
        let (boot, uptime) = h.try_take().unwrap();
        assert!(boot > 15.0 && boot < 90.0, "boot {boot}");
        assert!((uptime - 3600.0).abs() < 1e-6);
        let report = meter.borrow().report();
        assert!((report.ec2_usd - 0.136).abs() < 1e-9, "{}", report.ec2_usd);
        assert_eq!(meter.borrow().ec2["c6g.xlarge"].instances_started, 1);
    }

    #[test]
    fn launch_many_boots_in_parallel() {
        let mut sim = Sim::new(2);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let fleet = Ec2Fleet::new(&ctx, &meter);
            let vms = fleet
                .launch_many(&LaunchConfig::on_demand("c6g.large"), 64)
                .await;
            (vms.len(), ctx.now().as_secs_f64())
        });
        sim.run();
        let (n, elapsed) = h.try_take().unwrap();
        assert_eq!(n, 64);
        // Parallel boot: bounded by the slowest instance, not the sum.
        assert!(elapsed < 120.0, "elapsed {elapsed}");
    }

    #[test]
    fn reserved_pricing_applies() {
        let mut sim = Sim::new(3);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let fleet = Ec2Fleet::new(&ctx, &meter);
            let cfg = LaunchConfig {
                reserved: true,
                ..LaunchConfig::on_demand("c6gn.xlarge")
            };
            let vm = fleet.launch(&cfg).await;
            vm.usd_per_hour()
        });
        sim.run();
        assert!((h.try_take().unwrap() - 0.0676).abs() < 1e-9);
    }

    #[test]
    fn nic_matches_catalog_bandwidth() {
        let spec = ec2_instance("c6gn.2xlarge").unwrap();
        let nic = nic_for(&spec);
        let n = nic.borrow();
        // 25 Gbps burst = 3.125 GB/s.
        assert!((n.inbound.burst_rate() - 25e9 / 8.0).abs() < 1.0);
        assert!((n.inbound.baseline_rate() - 12.5e9 / 8.0).abs() < 1.0);
    }

    #[test]
    fn large_instances_have_no_burst() {
        let spec = ec2_instance("c6g.16xlarge").unwrap();
        let nic = nic_for(&spec);
        let n = nic.borrow();
        assert!((n.inbound.burst_rate() - n.inbound.baseline_rate()).abs() < 1.0);
        // And the bucket holds well under a second of traffic.
        assert!(n.inbound.capacity() < n.inbound.baseline_rate() * 0.1);
        let _ = MIB;
    }

    #[test]
    #[should_panic(expected = "unknown instance type")]
    fn unknown_type_panics() {
        let mut sim = Sim::new(4);
        let ctx = sim.ctx();
        let meter = shared_meter();
        sim.spawn(async move {
            let fleet = Ec2Fleet::new(&ctx, &meter);
            fleet.launch(&LaunchConfig::on_demand("z9.mega")).await;
        });
        sim.run();
    }
}
