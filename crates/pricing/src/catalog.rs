//! The AWS price catalog (us-east-1, July 2024) as cited by the paper's
//! Tables 1 and 2, plus the EBS/NVMe prices its Sec. 5.3 analysis needs.
//!
//! All monetary values are US dollars unless a field name says otherwise.

use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Lambda
// ---------------------------------------------------------------------------

/// Memory granted per vCPU-equivalent: "1 vCPU equivalent per 1,769 MiB".
pub const LAMBDA_MIB_PER_VCPU: f64 = 1769.0;
/// Minimum configurable function memory (GiB).
pub const LAMBDA_MIN_MEMORY_GIB: f64 = 0.125;
/// Maximum configurable function memory (GiB).
pub const LAMBDA_MAX_MEMORY_GIB: f64 = 10.0;
/// Lambda network bandwidth is constant over instance sizes: ~0.63 Gbps.
pub const LAMBDA_NETWORK_GBPS: f64 = 0.63;

/// ARM (Graviton) Lambda pricing with monthly usage tiers.
#[derive(Debug, Clone)]
pub struct LambdaPricing {
    /// $/GB-second per tier: (tier ceiling in GB-s, price). The last tier
    /// ceiling is `f64::INFINITY`.
    pub gb_second_tiers: Vec<(f64, f64)>,
    /// $ per request.
    pub per_request: f64,
    /// Ephemeral storage beyond the free 512 MiB: $/GiB-month equivalent
    /// (Table 1 reports 8.12 ¢/GiB-mo).
    pub ephemeral_per_gib_month: f64,
    /// Free ephemeral storage (GiB).
    pub ephemeral_free_gib: f64,
}

impl LambdaPricing {
    /// The published ARM pricing.
    pub fn arm() -> Self {
        LambdaPricing {
            gb_second_tiers: vec![
                (6e9, 0.0000133334),
                (15e9, 0.0000120001),
                (f64::INFINITY, 0.0000106667),
            ],
            per_request: 0.20 / 1e6,
            ephemeral_per_gib_month: 0.0812,
            ephemeral_free_gib: 0.5,
        }
    }

    /// First-tier $/GB-second (what a small account pays).
    pub fn gb_second(&self) -> f64 {
        self.gb_second_tiers[0].1
    }

    /// ¢/GiB-hour at the first tier (Table 1's headline 4.80).
    pub fn cents_per_gib_hour(&self) -> f64 {
        self.gb_second() * 3600.0 * 100.0
    }

    /// ¢/GiB-hour at the last tier (Table 1's 3.84).
    pub fn cents_per_gib_hour_cheapest(&self) -> f64 {
        self.gb_second_tiers.last().expect("tiers non-empty").1 * 3600.0 * 100.0
    }

    /// Cost of one invocation: `memory_gib` for `seconds`, plus the request.
    pub fn invocation_cost(&self, memory_gib: f64, seconds: f64) -> f64 {
        self.gb_second() * memory_gib * seconds + self.per_request
    }
}

// ---------------------------------------------------------------------------
// EC2
// ---------------------------------------------------------------------------

/// Local NVMe SSD attached to an instance (c6gd variants).
#[derive(Debug, Clone, Copy)]
pub struct SsdSpec {
    /// Number of drives.
    pub count: u32,
    /// Capacity per drive (GB).
    pub gb_each: f64,
    /// 4 KiB random-read IOPS per drive.
    pub read_iops_4k: f64,
    /// 4 KiB random-write IOPS per drive.
    pub write_iops_4k: f64,
    /// Sequential bandwidth per drive (MiB/s).
    pub bandwidth_mibps: f64,
}

/// One EC2 instance type: configuration and pricing.
#[derive(Debug, Clone)]
pub struct Ec2InstanceSpec {
    /// Instance type name.
    pub name: &'static str,
    /// Virtual CPUs.
    pub vcpus: u32,
    /// Memory capacity (GiB).
    pub memory_gib: f64,
    /// On-demand hourly price.
    pub od_usd_per_hour: f64,
    /// Effective hourly price under a reserved commitment.
    pub reserved_usd_per_hour: f64,
    /// Sustained network bandwidth (Gbps).
    pub net_baseline_gbps: f64,
    /// Burst network bandwidth (Gbps); equals baseline for large sizes.
    pub net_burst_gbps: f64,
    /// Network token-bucket capacity (GiB). Grows with instance size —
    /// the paper's Fig. 6 reports this alongside burst/baseline bandwidth.
    pub net_bucket_gib: f64,
    /// Local NVMe, if any (c6gd).
    pub ssd: Option<SsdSpec>,
}

impl Ec2InstanceSpec {
    /// ¢ per GiB of RAM per hour, on demand.
    pub fn cents_per_gib_hour(&self) -> f64 {
        self.od_usd_per_hour / self.memory_gib * 100.0
    }

    /// ¢ per vCPU-hour, on demand.
    pub fn cents_per_vcpu_hour(&self) -> f64 {
        self.od_usd_per_hour / self.vcpus as f64 * 100.0
    }

    /// Baseline network bandwidth in bytes/second.
    pub fn net_baseline_bps(&self) -> f64 {
        self.net_baseline_gbps * 1e9 / 8.0
    }

    /// Burst network bandwidth in bytes/second.
    pub fn net_burst_bps(&self) -> f64 {
        self.net_burst_gbps * 1e9 / 8.0
    }

    /// Network bucket capacity in bytes.
    pub fn net_bucket_bytes(&self) -> f64 {
        self.net_bucket_gib * (1u64 << 30) as f64
    }
}

/// The instance types used throughout the paper. Reserved prices use the
/// common ~0.61× (1-yr) factor except c6gn, where the paper's Table 8
/// implies a deeper (3-yr all-upfront, ~0.39×) commitment.
pub fn ec2_catalog() -> Vec<Ec2InstanceSpec> {
    let c6g = |name, vcpus, mem: f64, od: f64, base, burst, bucket| Ec2InstanceSpec {
        name,
        vcpus,
        memory_gib: mem,
        od_usd_per_hour: od,
        reserved_usd_per_hour: od * 0.61,
        net_baseline_gbps: base,
        net_burst_gbps: burst,
        net_bucket_gib: bucket,
        ssd: None,
    };
    vec![
        c6g("c6g.medium", 1, 2.0, 0.034, 0.5, 10.0, 1.2),
        c6g("c6g.large", 2, 4.0, 0.068, 0.75, 10.0, 2.4),
        c6g("c6g.xlarge", 4, 8.0, 0.136, 1.25, 10.0, 4.8),
        c6g("c6g.2xlarge", 8, 16.0, 0.272, 2.5, 10.0, 9.6),
        c6g("c6g.4xlarge", 16, 32.0, 0.544, 5.0, 10.0, 19.2),
        c6g("c6g.8xlarge", 32, 64.0, 1.088, 12.0, 12.0, 0.0),
        c6g("c6g.12xlarge", 48, 96.0, 1.632, 20.0, 20.0, 0.0),
        c6g("c6g.16xlarge", 64, 128.0, 2.176, 25.0, 25.0, 0.0),
        // Network-optimised: ~4x the network throughput of same-size c6g.
        Ec2InstanceSpec {
            name: "c6gn.xlarge",
            vcpus: 4,
            memory_gib: 8.0,
            od_usd_per_hour: 0.1728,
            reserved_usd_per_hour: 0.0676,
            net_baseline_gbps: 6.3,
            net_burst_gbps: 25.0,
            net_bucket_gib: 9.6,
            ssd: None,
        },
        Ec2InstanceSpec {
            name: "c6gn.2xlarge",
            vcpus: 8,
            memory_gib: 16.0,
            od_usd_per_hour: 0.3456,
            reserved_usd_per_hour: 0.1352,
            net_baseline_gbps: 12.5,
            net_burst_gbps: 25.0,
            net_bucket_gib: 19.2,
            ssd: None,
        },
        Ec2InstanceSpec {
            name: "c6gn.16xlarge",
            vcpus: 64,
            memory_gib: 128.0,
            od_usd_per_hour: 2.7648,
            reserved_usd_per_hour: 1.0816,
            net_baseline_gbps: 100.0,
            net_burst_gbps: 100.0,
            net_bucket_gib: 0.0,
            ssd: None,
        },
        // Local-NVMe variants used by the storage-hierarchy analysis.
        Ec2InstanceSpec {
            name: "c6gd.xlarge",
            vcpus: 4,
            memory_gib: 8.0,
            od_usd_per_hour: 0.1536,
            reserved_usd_per_hour: 0.0937,
            net_baseline_gbps: 1.25,
            net_burst_gbps: 10.0,
            net_bucket_gib: 4.8,
            ssd: Some(SsdSpec {
                count: 1,
                gb_each: 237.0,
                read_iops_4k: 53_750.0,
                write_iops_4k: 22_500.0,
                bandwidth_mibps: 258.0,
            }),
        },
        Ec2InstanceSpec {
            name: "c6gd.16xlarge",
            vcpus: 64,
            memory_gib: 128.0,
            od_usd_per_hour: 2.4576,
            reserved_usd_per_hour: 1.4991,
            net_baseline_gbps: 25.0,
            net_burst_gbps: 25.0,
            net_bucket_gib: 0.0,
            ssd: Some(SsdSpec {
                count: 2,
                gb_each: 1900.0,
                read_iops_4k: 430_000.0,
                write_iops_4k: 180_000.0,
                bandwidth_mibps: 2064.0,
            }),
        },
    ]
}

/// Look an instance up by name.
pub fn ec2_instance(name: &str) -> Option<Ec2InstanceSpec> {
    ec2_catalog().into_iter().find(|i| i.name == name)
}

// ---------------------------------------------------------------------------
// Serverless storage
// ---------------------------------------------------------------------------

/// Identifier of a storage service in the catalog and usage meter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum StorageService {
    /// S3 Standard object storage.
    S3Standard,
    /// S3 Express One Zone.
    S3Express,
    /// DynamoDB on-demand.
    DynamoDb,
    /// EFS elastic throughput.
    Efs,
}

impl StorageService {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            StorageService::S3Standard => "S3 Standard",
            StorageService::S3Express => "S3 Express",
            StorageService::DynamoDb => "DynamoDB",
            StorageService::Efs => "EFS",
        }
    }

    /// All services, in Table 2 order.
    pub fn all() -> [StorageService; 4] {
        [
            StorageService::S3Standard,
            StorageService::S3Express,
            StorageService::DynamoDb,
            StorageService::Efs,
        ]
    }
}

/// Pricing of one serverless storage service (Table 2).
#[derive(Debug, Clone)]
pub struct StoragePricing {
    /// The service this entry prices.
    pub service: StorageService,
    /// $ per read request (for DynamoDB: per read *unit*).
    pub read_request: f64,
    /// $ per write request (for DynamoDB: per write *unit*).
    pub write_request: f64,
    /// Bytes covered by one request unit for reads (`u64::MAX` = size-independent).
    pub read_unit_bytes: u64,
    /// Bytes covered by one write unit.
    pub write_unit_bytes: u64,
    /// $ per GiB transferred on reads.
    pub transfer_read_per_gib: f64,
    /// $ per GiB transferred on writes.
    pub transfer_write_per_gib: f64,
    /// Bytes per request exempt from transfer charges (S3 Express: 512 KiB).
    pub transfer_free_bytes: u64,
    /// $ per GiB-month stored (lower bound of the published range).
    pub storage_per_gib_month: f64,
}

impl StoragePricing {
    /// Pricing table entry for a service.
    pub fn of(service: StorageService) -> StoragePricing {
        match service {
            StorageService::S3Standard => StoragePricing {
                service,
                read_request: 0.40 / 1e6,
                write_request: 5.00 / 1e6,
                read_unit_bytes: u64::MAX,
                write_unit_bytes: u64::MAX,
                transfer_read_per_gib: 0.0,
                transfer_write_per_gib: 0.0,
                transfer_free_bytes: 0,
                storage_per_gib_month: 0.023,
            },
            StorageService::S3Express => StoragePricing {
                service,
                read_request: 0.20 / 1e6,
                write_request: 2.50 / 1e6,
                read_unit_bytes: u64::MAX,
                write_unit_bytes: u64::MAX,
                transfer_read_per_gib: 0.0015,
                transfer_write_per_gib: 0.008,
                transfer_free_bytes: 512 * 1024,
                storage_per_gib_month: 0.16,
            },
            StorageService::DynamoDb => StoragePricing {
                service,
                read_request: 0.25 / 1e6,
                write_request: 1.25 / 1e6,
                read_unit_bytes: 4 * 1024, // strongly-consistent read unit
                write_unit_bytes: 1024,
                transfer_read_per_gib: 0.0,
                transfer_write_per_gib: 0.0,
                transfer_free_bytes: 0,
                storage_per_gib_month: 0.25,
            },
            StorageService::Efs => StoragePricing {
                service,
                read_request: 0.0,
                write_request: 0.0,
                read_unit_bytes: u64::MAX,
                write_unit_bytes: u64::MAX,
                transfer_read_per_gib: 0.03,
                transfer_write_per_gib: 0.06,
                transfer_free_bytes: 0,
                storage_per_gib_month: 0.16,
            },
        }
    }

    /// Cost of one request of `bytes`, reading (`write = false`) or writing.
    pub fn request_cost(&self, write: bool, bytes: u64) -> f64 {
        let (per_unit, unit, per_gib) = if write {
            (
                self.write_request,
                self.write_unit_bytes,
                self.transfer_write_per_gib,
            )
        } else {
            (
                self.read_request,
                self.read_unit_bytes,
                self.transfer_read_per_gib,
            )
        };
        let units = if unit == u64::MAX {
            1
        } else {
            bytes.div_ceil(unit).max(1)
        };
        let billable = bytes.saturating_sub(self.transfer_free_bytes);
        per_unit * units as f64 + per_gib * billable as f64 / (1u64 << 30) as f64
    }

    /// Cost of keeping `bytes` stored for `seconds`.
    pub fn storage_cost(&self, bytes: u64, seconds: f64) -> f64 {
        const SECONDS_PER_MONTH: f64 = 30.0 * 86_400.0;
        self.storage_per_gib_month * bytes as f64 / (1u64 << 30) as f64 * seconds
            / SECONDS_PER_MONTH
    }
}

/// Cross-region data transfer: $/GB (used by Table 7's X-Region row).
pub const CROSS_REGION_TRANSFER_PER_GB: f64 = 0.02;

/// EBS gp3: $/GB-month.
pub const EBS_GP3_PER_GB_MONTH: f64 = 0.08;
/// EBS gp3 baseline IOPS (included).
pub const EBS_GP3_BASE_IOPS: f64 = 3000.0;
/// EBS gp3 baseline throughput (MB/s, included).
pub const EBS_GP3_BASE_MBPS: f64 = 125.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_price_range_matches_table1() {
        let p = LambdaPricing::arm();
        assert!((p.cents_per_gib_hour() - 4.80).abs() < 0.01);
        assert!((p.cents_per_gib_hour_cheapest() - 3.84).abs() < 0.01);
        // ¢/vCPU-h = ¢/GiB-h * 1.769
        let vcpu_h = p.cents_per_gib_hour() * LAMBDA_MIB_PER_VCPU / 1024.0;
        assert!((vcpu_h - 8.29).abs() < 0.3, "{vcpu_h}");
    }

    #[test]
    fn lambda_invocation_cost() {
        let p = LambdaPricing::arm();
        // 6.91 GiB (4 vCPU) for 1 second ≈ the paper's worker sizing.
        let gib = 7076.0 / 1024.0;
        let c = p.invocation_cost(gib * 1.073_741_824, 1.0); // GiB -> GB
        assert!(c > 9e-5 && c < 1.1e-4, "{c}");
    }

    #[test]
    fn ec2_memory_price_range_matches_table1() {
        let cat = ec2_catalog();
        let max_cents = cat
            .iter()
            .filter(|i| i.name.starts_with("c6g."))
            .map(|i| i.cents_per_gib_hour())
            .fold(0.0f64, f64::max);
        assert!((max_cents - 1.70).abs() < 0.01, "{max_cents}");
        let min_reserved = cat
            .iter()
            .filter(|i| i.name.starts_with("c6g."))
            .map(|i| i.reserved_usd_per_hour / i.memory_gib * 100.0)
            .fold(f64::INFINITY, f64::min);
        assert!(min_reserved > 0.6 && min_reserved < 1.2, "{min_reserved}");
    }

    #[test]
    fn ec2_vcpu_price_matches_table1() {
        let xl = ec2_instance("c6g.xlarge").unwrap();
        assert!((xl.cents_per_vcpu_hour() - 3.40).abs() < 0.01);
    }

    #[test]
    fn ec2_network_range_matches_table1() {
        let cat = ec2_catalog();
        let c6g: Vec<_> = cat.iter().filter(|i| i.name.starts_with("c6g.")).collect();
        let min = c6g
            .iter()
            .map(|i| i.net_baseline_gbps)
            .fold(f64::INFINITY, f64::min);
        let max = c6g.iter().map(|i| i.net_baseline_gbps).fold(0.0, f64::max);
        assert_eq!(min, 0.5);
        assert_eq!(max, 25.0);
    }

    #[test]
    fn s3_request_cost_is_size_independent() {
        let p = StoragePricing::of(StorageService::S3Standard);
        assert_eq!(p.request_cost(false, 1), p.request_cost(false, 5 << 40));
        assert!((p.request_cost(false, 1024) - 4e-7).abs() < 1e-12);
        assert!((p.request_cost(true, 1024) - 5e-6).abs() < 1e-12);
    }

    #[test]
    fn s3_express_charges_transfer_beyond_512kib() {
        let p = StoragePricing::of(StorageService::S3Express);
        let small = p.request_cost(false, 512 * 1024);
        assert!((small - 2e-7).abs() < 1e-12, "free below 512 KiB");
        let big = p.request_cost(false, 16 * 1024 * 1024);
        // 15.5 MiB billable * 0.0015/GiB ≈ 2.27e-5, plus the request.
        assert!(
            (big - (2e-7 + 15.5 / 1024.0 * 0.0015)).abs() < 1e-9,
            "{big}"
        );
    }

    #[test]
    fn dynamodb_charges_per_unit() {
        let p = StoragePricing::of(StorageService::DynamoDb);
        // 1 KiB read: one 4-KiB unit.
        assert!((p.request_cost(false, 1024) - 2.5e-7).abs() < 1e-14);
        // 9 KiB read: three units.
        assert!((p.request_cost(false, 9 * 1024) - 7.5e-7).abs() < 1e-14);
        // 400 KiB write: 400 units.
        assert!((p.request_cost(true, 400 * 1024) - 400.0 * 1.25e-6).abs() < 1e-10);
    }

    #[test]
    fn efs_charges_transfer_only() {
        let p = StoragePricing::of(StorageService::Efs);
        let gib = 1u64 << 30;
        assert!((p.request_cost(false, gib) - 0.03).abs() < 1e-12);
        assert!((p.request_cost(true, gib) - 0.06).abs() < 1e-12);
    }

    #[test]
    fn storage_cost_monthly_rate() {
        let p = StoragePricing::of(StorageService::S3Standard);
        let one_gib_one_month = p.storage_cost(1 << 30, 30.0 * 86_400.0);
        assert!((one_gib_one_month - 0.023).abs() < 1e-9);
    }

    #[test]
    fn s3_cheapest_by_an_order_of_magnitude() {
        let s3 = StoragePricing::of(StorageService::S3Standard).storage_per_gib_month;
        for svc in [
            StorageService::S3Express,
            StorageService::DynamoDb,
            StorageService::Efs,
        ] {
            assert!(StoragePricing::of(svc).storage_per_gib_month >= 6.0 * s3);
        }
    }

    #[test]
    fn catalog_lookup() {
        assert!(ec2_instance("c6g.xlarge").is_some());
        assert!(ec2_instance("m5.large").is_none());
        assert_eq!(ec2_instance("c6gd.xlarge").unwrap().ssd.unwrap().count, 1);
    }
}
