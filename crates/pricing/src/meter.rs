//! Usage metering and cost estimation.
//!
//! The paper "track\[s\] service usage via a client hook that counts all
//! requests, including failures and retries" and derives experiment cost
//! from the price list (Sec. 4.1). [`UsageMeter`] is that hook: every
//! simulated service records its consumption here, and [`UsageMeter::report`]
//! turns the counters into an itemised invoice.

use crate::catalog::{LambdaPricing, StoragePricing, StorageService};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-storage-service usage counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StorageUsage {
    /// Read requests issued (including failures).
    pub read_requests: u64,
    /// Write requests issued (including failures).
    pub write_requests: u64,
    /// Requests rejected (throttled/timeout) — billed all the same when the
    /// service receives them, and the paper counts them explicitly.
    pub failed_requests: u64,
    /// Logical bytes successfully read.
    pub bytes_read: u64,
    /// Logical bytes successfully written.
    pub bytes_written: u64,
    /// Accumulated read-request cost (computed per request, since the
    /// DynamoDB/S3 Express unit math depends on per-request size).
    pub read_cost: f64,
    /// Accumulated write-request cost.
    pub write_cost: f64,
    /// GiB-seconds of stored capacity.
    pub gib_seconds_stored: f64,
}

/// Per-EC2-type usage counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Ec2Usage {
    /// Total billed instance-seconds.
    pub instance_seconds: f64,
    /// Hourly price of this instance type.
    pub usd_per_hour: f64,
    /// Instances launched.
    pub instances_started: u64,
}

/// Lambda usage counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LambdaUsage {
    /// Function invocations.
    pub invocations: u64,
    /// Billed GB-seconds.
    pub gb_seconds: f64,
}

/// The experiment-wide usage ledger.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UsageMeter {
    /// Lambda usage counters.
    pub lambda: LambdaUsage,
    /// Per-instance-type EC2 usage.
    pub ec2: BTreeMap<String, Ec2Usage>,
    /// Per-service storage usage.
    pub storage: BTreeMap<StorageService, StorageUsage>,
}

impl UsageMeter {
    /// Fresh, empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one function invocation of `memory_gb` (decimal GB) lasting
    /// `seconds` of billed duration.
    pub fn record_lambda(&mut self, memory_gb: f64, seconds: f64) {
        self.lambda.invocations += 1;
        self.lambda.gb_seconds += memory_gb * seconds;
    }

    /// Record VM runtime for an instance type at an hourly price.
    pub fn record_ec2(&mut self, instance_type: &str, usd_per_hour: f64, seconds: f64) {
        let e = self.ec2.entry(instance_type.to_string()).or_default();
        e.usd_per_hour = usd_per_hour;
        e.instance_seconds += seconds;
    }

    /// Record an instance launch (for reporting).
    pub fn record_ec2_start(&mut self, instance_type: &str) {
        self.ec2
            .entry(instance_type.to_string())
            .or_default()
            .instances_started += 1;
    }

    /// Record one storage request. Failed requests still count and cost.
    pub fn record_storage_request(
        &mut self,
        service: StorageService,
        write: bool,
        bytes: u64,
        failed: bool,
    ) {
        let pricing = StoragePricing::of(service);
        let u = self.storage.entry(service).or_default();
        let cost = pricing.request_cost(write, bytes);
        if write {
            u.write_requests += 1;
            u.write_cost += cost;
            if !failed {
                u.bytes_written += bytes;
            }
        } else {
            u.read_requests += 1;
            u.read_cost += cost;
            if !failed {
                u.bytes_read += bytes;
            }
        }
        if failed {
            u.failed_requests += 1;
        }
    }

    /// Record stored capacity over time.
    pub fn record_storage_capacity(&mut self, service: StorageService, bytes: u64, seconds: f64) {
        let u = self.storage.entry(service).or_default();
        u.gib_seconds_stored += bytes as f64 / (1u64 << 30) as f64 * seconds;
    }

    /// Total requests across services (including failures).
    pub fn total_storage_requests(&self) -> u64 {
        self.storage
            .values()
            .map(|u| u.read_requests + u.write_requests)
            .sum()
    }

    /// Produce an itemised cost report.
    pub fn report(&self) -> CostReport {
        let lambda_pricing = LambdaPricing::arm();
        let lambda_compute = {
            // Apply the usage tiers progressively.
            let mut remaining = self.lambda.gb_seconds;
            let mut floor = 0.0;
            let mut usd = 0.0;
            for &(ceil, price) in &lambda_pricing.gb_second_tiers {
                let in_tier = (remaining).min(ceil - floor);
                usd += in_tier * price;
                remaining -= in_tier;
                floor = ceil;
                if remaining <= 0.0 {
                    break;
                }
            }
            usd
        };
        let lambda_requests = self.lambda.invocations as f64 * lambda_pricing.per_request;

        let ec2_usd: f64 = self
            .ec2
            .values()
            .map(|e| e.instance_seconds / 3600.0 * e.usd_per_hour)
            .sum();

        let mut storage_requests_usd = 0.0;
        let mut storage_capacity_usd = 0.0;
        let mut per_service = BTreeMap::new();
        for (&svc, u) in &self.storage {
            let pricing = StoragePricing::of(svc);
            let req = u.read_cost + u.write_cost;
            let cap = pricing.storage_per_gib_month * u.gib_seconds_stored / (30.0 * 86_400.0);
            storage_requests_usd += req;
            storage_capacity_usd += cap;
            per_service.insert(svc, req + cap);
        }

        CostReport {
            lambda_compute_usd: lambda_compute,
            lambda_request_usd: lambda_requests,
            ec2_usd,
            storage_request_usd: storage_requests_usd,
            storage_capacity_usd,
            per_storage_service_usd: per_service,
        }
    }
}

/// An itemised invoice over a [`UsageMeter`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CostReport {
    /// Lambda GB-second charges (tiered).
    pub lambda_compute_usd: f64,
    /// Lambda per-request charges.
    pub lambda_request_usd: f64,
    /// EC2 instance-hour charges.
    pub ec2_usd: f64,
    /// Storage request + transfer charges.
    pub storage_request_usd: f64,
    /// Storage capacity (GiB-month) charges.
    pub storage_capacity_usd: f64,
    /// Storage total per service.
    pub per_storage_service_usd: BTreeMap<StorageService, f64>,
}

impl CostReport {
    /// Grand total in dollars.
    pub fn total_usd(&self) -> f64 {
        self.lambda_compute_usd
            + self.lambda_request_usd
            + self.ec2_usd
            + self.storage_request_usd
            + self.storage_capacity_usd
    }

    /// Compute-only total (FaaS + IaaS).
    pub fn compute_usd(&self) -> f64 {
        self.lambda_compute_usd + self.lambda_request_usd + self.ec2_usd
    }

    /// Storage-only total.
    pub fn storage_usd(&self) -> f64 {
        self.storage_request_usd + self.storage_capacity_usd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_costs_accumulate() {
        let mut m = UsageMeter::new();
        // 1000 invocations of a 2 GB function for 1 s each.
        for _ in 0..1000 {
            m.record_lambda(2.0, 1.0);
        }
        let r = m.report();
        let expect_compute = 2000.0 * 0.0000133334;
        assert!((r.lambda_compute_usd - expect_compute).abs() < 1e-9);
        assert!((r.lambda_request_usd - 1000.0 * 2e-7).abs() < 1e-12);
    }

    #[test]
    fn lambda_tier_pricing_kicks_in() {
        let mut m = UsageMeter::new();
        m.lambda.gb_seconds = 7e9; // 6B at tier 1, 1B at tier 2
        let r = m.report();
        let expect = 6e9 * 0.0000133334 + 1e9 * 0.0000120001;
        assert!((r.lambda_compute_usd - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn ec2_hours_priced() {
        let mut m = UsageMeter::new();
        m.record_ec2("c6g.xlarge", 0.136, 7200.0);
        m.record_ec2("c6g.xlarge", 0.136, 1800.0);
        let r = m.report();
        assert!((r.ec2_usd - 0.136 * 2.5).abs() < 1e-9);
    }

    #[test]
    fn failed_requests_still_cost() {
        let mut m = UsageMeter::new();
        m.record_storage_request(StorageService::S3Standard, false, 1024, false);
        m.record_storage_request(StorageService::S3Standard, false, 1024, true);
        let r = m.report();
        assert!((r.storage_request_usd - 8e-7).abs() < 1e-12);
        let u = &m.storage[&StorageService::S3Standard];
        assert_eq!(u.failed_requests, 1);
        assert_eq!(u.bytes_read, 1024, "failed request moved no data");
    }

    #[test]
    fn keeping_s3_warm_for_100k_iops_costs_144_per_hour() {
        // The paper: "Keeping S3 warm for 100K IOPS costs $144 per hour."
        let mut m = UsageMeter::new();
        let requests_per_hour = 100_000u64 * 3600;
        // Record in bulk: same price per request.
        let per_req = StoragePricing::of(StorageService::S3Standard).request_cost(false, 1024);
        let usd = per_req * requests_per_hour as f64;
        assert!((usd - 144.0).abs() < 0.5, "{usd}");
        m.record_storage_request(StorageService::S3Standard, false, 1024, false);
        assert_eq!(m.total_storage_requests(), 1);
    }

    #[test]
    fn capacity_cost_by_service() {
        let mut m = UsageMeter::new();
        let gib = 1u64 << 30;
        m.record_storage_capacity(StorageService::DynamoDb, gib, 30.0 * 86_400.0);
        let r = m.report();
        assert!((r.storage_capacity_usd - 0.25).abs() < 1e-9);
    }

    #[test]
    fn report_totals_are_consistent() {
        let mut m = UsageMeter::new();
        m.record_lambda(1.0, 10.0);
        m.record_ec2("c6g.large", 0.068, 3600.0);
        m.record_storage_request(StorageService::S3Express, true, 1 << 20, false);
        let r = m.report();
        let sum = r.compute_usd() + r.storage_usd();
        assert!((r.total_usd() - sum).abs() < 1e-12);
        assert!(r.total_usd() > 0.068);
    }
}
