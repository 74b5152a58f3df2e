//! # skyrise-compute — simulated compute services
//!
//! * [`faas::LambdaPlatform`] — the Lambda control plane: admission,
//!   burst scaling, coldstarts, warm pools, sandbox NICs, GB-second
//!   billing.
//! * [`ec2::Ec2Fleet`] — VM launches with catalog-driven network
//!   provisioning and lifetime billing.
//! * [`shim::ShimCluster`] — the paper's shim layer running the same
//!   function handlers on provisioned VMs.
//! * [`region::Region`] — per-region contention profiles for the
//!   variability analysis.
//!
//! [`ComputePlatform`] unifies FaaS and IaaS deployment behind one
//! `invoke` call, which is exactly how the paper's query engine swaps
//! between execution modes (Fig. 4).

#![warn(missing_docs)]

pub mod ec2;
pub mod faas;
pub mod region;
pub mod shim;

pub use ec2::{nic_for, Ec2Fleet, LaunchConfig, Vm};
pub use faas::{
    handler, ExecEnv, FaasError, FunctionConfig, Handler, InvokeResult, LambdaPlatform,
    LocalBoxFuture, MAX_PAYLOAD,
};
pub use region::Region;
pub use shim::ShimCluster;

use std::rc::Rc;

/// A deployment target for function handlers: serverless or server-based.
#[derive(Clone)]
pub enum ComputePlatform {
    /// AWS Lambda (FaaS execution mode).
    Faas(Rc<LambdaPlatform>),
    /// EC2 VM cluster behind the shim layer (IaaS execution mode).
    Shim(Rc<ShimCluster>),
}

impl ComputePlatform {
    /// Register a function on whichever platform this is.
    pub fn register(&self, config: FunctionConfig, handler: Handler) {
        match self {
            ComputePlatform::Faas(p) => p.register(config, handler),
            ComputePlatform::Shim(c) => c.register(config, handler),
        }
    }

    /// Invoke a function by name.
    pub async fn invoke(&self, name: &str, payload: String) -> Result<InvokeResult, FaasError> {
        match self {
            ComputePlatform::Faas(p) => p.invoke(name, payload).await,
            ComputePlatform::Shim(c) => c.invoke(name, payload).await,
        }
    }

    /// The usage meter behind this platform, when it exposes one (FaaS
    /// bills through the platform; the shim's VMs are billed at launch).
    pub fn meter(&self) -> Option<skyrise_pricing::SharedMeter> {
        match self {
            ComputePlatform::Faas(p) => Some(p.meter()),
            ComputePlatform::Shim(_) => None,
        }
    }

    /// Display name of the execution mode.
    pub fn mode(&self) -> &'static str {
        match self {
            ComputePlatform::Faas(_) => "FaaS",
            ComputePlatform::Shim(_) => "IaaS",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec2::{Ec2Fleet, LaunchConfig};
    use skyrise_pricing::shared_meter;
    use skyrise_sim::{Sim, SimDuration};

    #[test]
    fn platform_enum_dispatches_both_modes() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let meter = shared_meter();
            let body = handler(|env: ExecEnv, p: String| async move {
                env.ctx.sleep(SimDuration::from_millis(5)).await;
                Ok(format!(
                    "{}:{}",
                    if env.cold_start { "cold" } else { "warm" },
                    p
                ))
            });

            let lambda = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
            let faas = ComputePlatform::Faas(lambda);
            faas.register(FunctionConfig::worker("f"), Rc::clone(&body));
            let faas_out = faas.invoke("f", "x".into()).await.unwrap().output;

            let fleet = Ec2Fleet::new(&ctx, &meter);
            let vms = fleet
                .launch_many(&LaunchConfig::on_demand("c6g.xlarge"), 1)
                .await;
            let shim = ComputePlatform::Shim(ShimCluster::new(&ctx, vms, 4));
            shim.register(FunctionConfig::worker("f"), body);
            let shim_out = shim.invoke("f", "x".into()).await.unwrap().output;

            (faas_out, shim_out, faas.mode(), shim.mode())
        });
        sim.run();
        let (faas_out, shim_out, m1, m2) = h.try_take().unwrap();
        assert_eq!(faas_out, "cold:x");
        assert_eq!(shim_out, "warm:x");
        assert_eq!((m1, m2), ("FaaS", "IaaS"));
    }
}
