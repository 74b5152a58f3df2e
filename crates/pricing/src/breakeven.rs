//! Break-even analysis (paper Sec. 5.3): two cloud variants of Gray's
//! five-minute rule, and the break-even access size for shuffling through
//! object storage versus a VM cluster.
//!
//! The formulas are implemented verbatim:
//!
//! * capacity-priced tiers (RAM, SSD, EBS):
//!   `BEI = PagesPerMB / AccessesPerSecondPerDisk * RentPerHourPerDisk / RentPerHourPerMBofRAM`
//! * request-priced tiers (S3, DynamoDB):
//!   `BEI = PagesPerMB * PricePerAccessToTier2 / RentPerSecondPerMBofTier1`
//! * shuffle media:
//!   `BEAS = PricePerAccess * MBPerHourPerServer / RentPerHourPerServer`
//!
//! Calibrated attribution constants (documented in EXPERIMENTS.md): RAM is
//! priced at its marginal share of the instance price (~13% of the per-GiB
//! C6g rate), the SSD "disk unit" is the c6gd.xlarge NVMe at its price
//! premium over c6g.xlarge, and the EBS unit is a 400 GB gp3 volume.

use crate::catalog::{
    ec2_instance, StoragePricing, StorageService, CROSS_REGION_TRANSFER_PER_GB, EBS_GP3_BASE_IOPS,
    EBS_GP3_BASE_MBPS, EBS_GP3_PER_GB_MONTH,
};

/// RAM rent attribution: fraction of an instance's per-GiB price charged
/// to memory (the rest buys CPU, network, and margin).
pub const RAM_ATTRIBUTION: f64 = 0.1324;

/// $/MB-hour of VM RAM under the attribution above (≈ 2.2e-6).
pub fn ram_rent_per_mb_hour() -> f64 {
    let xl = ec2_instance("c6g.xlarge").expect("catalog has c6g.xlarge");
    xl.cents_per_gib_hour() / 100.0 / 1024.0 * RAM_ATTRIBUTION
}

/// $/MB-second of VM RAM.
pub fn ram_rent_per_mb_second() -> f64 {
    ram_rent_per_mb_hour() / 3600.0
}

/// $/MB-second of local NVMe capacity (priced at its per-GiB-month rate,
/// Table 1's upper bound 5.41 ¢/GiB-mo).
pub fn ssd_rent_per_mb_second() -> f64 {
    0.0541 / 1024.0 / (30.0 * 86_400.0)
}

/// Break-even interval for capacity-priced tier-2 (seconds).
pub fn bei_capacity(
    pages_per_mb: f64,
    accesses_per_second_per_disk: f64,
    rent_per_hour_per_disk: f64,
    rent_per_hour_per_mb_ram: f64,
) -> f64 {
    pages_per_mb / accesses_per_second_per_disk * rent_per_hour_per_disk / rent_per_hour_per_mb_ram
}

/// Break-even interval for request-priced tier-2 (seconds).
pub fn bei_request(
    pages_per_mb: f64,
    price_per_access: f64,
    rent_per_sec_per_mb_tier1: f64,
) -> f64 {
    pages_per_mb * price_per_access / rent_per_sec_per_mb_tier1
}

/// Break-even access size for shuffling via request-priced storage (MB),
/// with a *size-independent* price per access.
pub fn beas(
    price_per_access: f64,
    mb_per_hour_per_server: f64,
    rent_per_hour_per_server: f64,
) -> f64 {
    price_per_access * mb_per_hour_per_server / rent_per_hour_per_server
}

/// BEAS when the access price itself grows with size (S3 Express transfer
/// fees): solve `size * vm_cost_per_mb = request + (size - free) * fee_per_mb`.
/// Returns `None` when the fee slope exceeds the VM cost slope — the
/// storage class then never breaks even (the paper's finding for Express).
pub fn beas_with_transfer_fee(
    request_price: f64,
    fee_per_mb: f64,
    free_mb: f64,
    mb_per_hour_per_server: f64,
    rent_per_hour_per_server: f64,
) -> Option<f64> {
    let vm_cost_per_mb = rent_per_hour_per_server / mb_per_hour_per_server;
    let slope = vm_cost_per_mb - fee_per_mb;
    if slope <= 0.0 {
        return None;
    }
    let size = (request_price - fee_per_mb * free_mb) / slope;
    (size > 0.0).then_some(size)
}

// ---------------------------------------------------------------------------
// Table 7: break-even intervals across the cloud storage hierarchy
// ---------------------------------------------------------------------------

/// Access sizes of Table 7, in bytes.
pub const TABLE7_ACCESS_SIZES: [u64; 4] = [4 << 10, 16 << 10, 4 << 20, 16 << 20];

/// Tier-1/tier-2 combinations of Table 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HierarchyPair {
    /// VM RAM over local NVMe.
    RamSsd,
    /// VM RAM over an EBS gp3 volume.
    RamEbs,
    /// VM RAM over S3 Standard.
    RamS3Standard,
    /// VM RAM over S3 Express One Zone.
    RamS3Express,
    /// Local NVMe over S3 Standard.
    SsdS3Standard,
    /// Local NVMe over S3 Express One Zone.
    SsdS3Express,
    /// Local NVMe over cross-region S3.
    SsdS3CrossRegion,
}

impl HierarchyPair {
    /// Row label as printed by the paper.
    pub fn label(self) -> &'static str {
        match self {
            HierarchyPair::RamSsd => "RAM/SSD",
            HierarchyPair::RamEbs => "RAM/EBS",
            HierarchyPair::RamS3Standard => "RAM/S3 Standard",
            HierarchyPair::RamS3Express => "RAM/S3 Express",
            HierarchyPair::SsdS3Standard => "SSD/S3 Standard",
            HierarchyPair::SsdS3Express => "SSD/S3 Express",
            HierarchyPair::SsdS3CrossRegion => "SSD/S3 X-Region",
        }
    }

    /// All rows in table order.
    pub fn all() -> [HierarchyPair; 7] {
        [
            HierarchyPair::RamSsd,
            HierarchyPair::RamEbs,
            HierarchyPair::RamS3Standard,
            HierarchyPair::RamS3Express,
            HierarchyPair::SsdS3Standard,
            HierarchyPair::SsdS3Express,
            HierarchyPair::SsdS3CrossRegion,
        ]
    }
}

/// Break-even interval in seconds for one Table 7 cell.
pub fn table7_cell(pair: HierarchyPair, access_bytes: u64) -> f64 {
    let pages_per_mb = 1e6 / access_bytes as f64;
    let ram_h = ram_rent_per_mb_hour();
    let ram_s = ram_rent_per_mb_second();
    let ssd_s = ssd_rent_per_mb_second();

    match pair {
        HierarchyPair::RamSsd => {
            let spec = ec2_instance("c6gd.xlarge").expect("catalog");
            let ssd = spec.ssd.expect("c6gd has NVMe");
            // Disk rent = the c6gd premium over the same-size c6g.
            let base = ec2_instance("c6g.xlarge").expect("catalog");
            let rent_disk = spec.od_usd_per_hour - base.od_usd_per_hour;
            let by_iops = ssd.read_iops_4k;
            let by_bw = ssd.bandwidth_mibps * (1 << 20) as f64 / access_bytes as f64;
            bei_capacity(pages_per_mb, by_iops.min(by_bw), rent_disk, ram_h)
        }
        HierarchyPair::RamEbs => {
            // Unit: 400 GB gp3 volume at baseline IOPS/throughput.
            let rent_disk = 400.0 * EBS_GP3_PER_GB_MONTH / (30.0 * 24.0);
            let by_iops = EBS_GP3_BASE_IOPS;
            let by_bw = EBS_GP3_BASE_MBPS * 1e6 / access_bytes as f64;
            bei_capacity(pages_per_mb, by_iops.min(by_bw), rent_disk, ram_h)
        }
        HierarchyPair::RamS3Standard => {
            let p = StoragePricing::of(StorageService::S3Standard);
            bei_request(pages_per_mb, p.request_cost(false, access_bytes), ram_s)
        }
        HierarchyPair::RamS3Express => {
            let p = StoragePricing::of(StorageService::S3Express);
            bei_request(pages_per_mb, p.request_cost(false, access_bytes), ram_s)
        }
        HierarchyPair::SsdS3Standard => {
            let p = StoragePricing::of(StorageService::S3Standard);
            bei_request(pages_per_mb, p.request_cost(false, access_bytes), ssd_s)
        }
        HierarchyPair::SsdS3Express => {
            let p = StoragePricing::of(StorageService::S3Express);
            bei_request(pages_per_mb, p.request_cost(false, access_bytes), ssd_s)
        }
        HierarchyPair::SsdS3CrossRegion => {
            let p = StoragePricing::of(StorageService::S3Standard);
            let price = p.request_cost(false, access_bytes)
                + access_bytes as f64 / 1e9 * CROSS_REGION_TRANSFER_PER_GB;
            bei_request(pages_per_mb, price, ssd_s)
        }
    }
}

/// The complete Table 7 as `(row, [seconds per access size])`.
pub fn table7() -> Vec<(HierarchyPair, [f64; 4])> {
    HierarchyPair::all()
        .into_iter()
        .map(|pair| {
            let mut cells = [0.0; 4];
            for (i, &sz) in TABLE7_ACCESS_SIZES.iter().enumerate() {
                cells[i] = table7_cell(pair, sz);
            }
            (pair, cells)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 8: break-even access sizes for shuffle media
// ---------------------------------------------------------------------------

/// One Table 8 column: an instance type under a pricing model.
#[derive(Debug, Clone)]
pub struct ShuffleCluster {
    /// Instance type name.
    pub instance: &'static str,
    /// Reserved pricing instead of on-demand.
    pub reserved: bool,
}

impl ShuffleCluster {
    /// Column label.
    pub fn label(&self) -> String {
        format!(
            "{} {}",
            self.instance,
            if self.reserved {
                "reserved"
            } else {
                "on-demand"
            }
        )
    }

    fn rent_per_hour(&self) -> f64 {
        let spec = ec2_instance(self.instance).expect("catalog");
        if self.reserved {
            spec.reserved_usd_per_hour
        } else {
            spec.od_usd_per_hour
        }
    }

    fn mb_per_hour(&self) -> f64 {
        let spec = ec2_instance(self.instance).expect("catalog");
        spec.net_baseline_bps() / 1e6 * 3600.0
    }
}

/// The paper's Table 8 columns.
pub fn table8_clusters() -> Vec<ShuffleCluster> {
    vec![
        ShuffleCluster {
            instance: "c6g.xlarge",
            reserved: false,
        },
        ShuffleCluster {
            instance: "c6g.8xlarge",
            reserved: false,
        },
        ShuffleCluster {
            instance: "c6gn.xlarge",
            reserved: false,
        },
        ShuffleCluster {
            instance: "c6gn.xlarge",
            reserved: true,
        },
    ]
}

/// Break-even access size (MB) for S3 Standard against a cluster.
pub fn table8_s3_standard(cluster: &ShuffleCluster) -> f64 {
    let p = StoragePricing::of(StorageService::S3Standard);
    beas(
        p.request_cost(false, 1),
        cluster.mb_per_hour(),
        cluster.rent_per_hour(),
    )
}

/// Break-even access size (MB) for S3 Express — `None` means it never
/// breaks even (its transfer fee exceeds the VM network cost per MB).
pub fn table8_s3_express(cluster: &ShuffleCluster) -> Option<f64> {
    let p = StoragePricing::of(StorageService::S3Express);
    let fee_per_mb = p.transfer_read_per_gib / 1024.0; // $/MiB ≈ $/MB here
    beas_with_transfer_fee(
        p.read_request,
        fee_per_mb,
        0.5,
        cluster.mb_per_hour(),
        cluster.rent_per_hour(),
    )
}

/// Render a duration in the paper's style: "38s", "27min", "12h", "59d".
pub fn humanize_secs(s: f64) -> String {
    if s < 90.0 {
        format!("{}s", s.round() as i64)
    } else if s < 90.0 * 60.0 {
        format!("{}min", (s / 60.0).round() as i64)
    } else if s < 36.0 * 3600.0 {
        format!("{}h", (s / 3600.0).round() as i64)
    } else {
        format!("{}d", (s / 86_400.0).round() as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(pair: HierarchyPair, kib: u64) -> f64 {
        table7_cell(pair, kib << 10)
    }

    #[test]
    fn ram_s3_standard_matches_paper_row() {
        // Paper: 2d / 12h / 3min / 41s.
        assert!((cell(HierarchyPair::RamS3Standard, 4) / 86_400.0 - 2.0).abs() < 0.2);
        assert!((cell(HierarchyPair::RamS3Standard, 16) / 3600.0 - 12.0).abs() < 1.0);
        assert!((cell(HierarchyPair::RamS3Standard, 4 << 10) / 60.0 - 3.0).abs() < 0.5);
        assert!((cell(HierarchyPair::RamS3Standard, 16 << 10) - 41.0).abs() < 4.0);
    }

    #[test]
    fn ram_s3_express_matches_paper_row() {
        // Paper: 23h / 6h / 36min / 39min.
        assert!((cell(HierarchyPair::RamS3Express, 4) / 3600.0 - 23.0).abs() < 1.5);
        assert!((cell(HierarchyPair::RamS3Express, 16) / 3600.0 - 6.0).abs() < 0.5);
        assert!((cell(HierarchyPair::RamS3Express, 4 << 10) / 60.0 - 36.0).abs() < 3.0);
        assert!((cell(HierarchyPair::RamS3Express, 16 << 10) / 60.0 - 39.0).abs() < 3.0);
    }

    #[test]
    fn ssd_s3_rows_match_paper() {
        // SSD/S3 Standard: 59d / 15d / 1h / 21min.
        assert!((cell(HierarchyPair::SsdS3Standard, 4) / 86_400.0 - 59.0).abs() < 5.0);
        assert!((cell(HierarchyPair::SsdS3Standard, 16) / 86_400.0 - 15.0).abs() < 1.5);
        assert!((cell(HierarchyPair::SsdS3Standard, 4 << 10) / 3600.0 - 1.3).abs() < 0.4);
        assert!((cell(HierarchyPair::SsdS3Standard, 16 << 10) / 60.0 - 21.0).abs() < 2.5);
        // SSD/S3 X-Region: 70d / 26d / 11d / 11d (constant for large sizes).
        assert!((cell(HierarchyPair::SsdS3CrossRegion, 4) / 86_400.0 - 70.0).abs() < 4.0);
        assert!((cell(HierarchyPair::SsdS3CrossRegion, 16) / 86_400.0 - 26.0).abs() < 2.0);
        let d4 = cell(HierarchyPair::SsdS3CrossRegion, 4 << 10) / 86_400.0;
        let d16 = cell(HierarchyPair::SsdS3CrossRegion, 16 << 10) / 86_400.0;
        assert!((d4 - 12.0).abs() < 1.5, "{d4}");
        assert!(
            (d4 - d16).abs() / d4 < 0.05,
            "transfer fee dominates: constant"
        );
    }

    #[test]
    fn ram_ssd_is_seconds_scale() {
        // Paper: 38s / 31s / 31s / 31s — an order of magnitude below a
        // decade ago, constant for bandwidth-bound sizes.
        let s4 = cell(HierarchyPair::RamSsd, 4);
        assert!(s4 > 20.0 && s4 < 60.0, "{s4}");
        let s16 = cell(HierarchyPair::RamSsd, 16);
        let s4m = cell(HierarchyPair::RamSsd, 4 << 10);
        let s16m = cell(HierarchyPair::RamSsd, 16 << 10);
        assert!((s16 - s4m).abs() / s4m < 0.35, "{s16} vs {s4m}");
        assert!((s4m - s16m).abs() / s4m < 0.01, "bandwidth-bound constancy");
    }

    #[test]
    fn ram_ebs_is_minutes_scale() {
        // Paper: 27min / 7min / 3min / 3min.
        assert!((cell(HierarchyPair::RamEbs, 4) / 60.0 - 29.0).abs() < 5.0);
        assert!((cell(HierarchyPair::RamEbs, 16) / 60.0 - 7.4).abs() < 2.0);
        assert!((cell(HierarchyPair::RamEbs, 4 << 10) / 60.0 - 3.0).abs() < 1.0);
    }

    #[test]
    fn hierarchy_ordering_holds() {
        // For small accesses: SSD << EBS << S3 Express << S3 Standard.
        let ssd = cell(HierarchyPair::RamSsd, 4);
        let ebs = cell(HierarchyPair::RamEbs, 4);
        let s3x = cell(HierarchyPair::RamS3Express, 4);
        let s3 = cell(HierarchyPair::RamS3Standard, 4);
        assert!(ssd < ebs && ebs < s3x && s3x < s3);
    }

    #[test]
    fn table8_matches_paper() {
        let clusters = table8_clusters();
        // Paper: 2 MiB / 2 MiB / 7 MiB / 16 MiB.
        let got: Vec<f64> = clusters.iter().map(table8_s3_standard).collect();
        assert!((got[0] - 1.65).abs() < 0.3, "c6g.xlarge od: {}", got[0]);
        assert!((got[1] - 2.0).abs() < 0.4, "c6g.8xlarge od: {}", got[1]);
        assert!((got[2] - 6.6).abs() < 1.0, "c6gn.xlarge od: {}", got[2]);
        assert!((got[3] - 16.8).abs() < 2.0, "c6gn.xlarge rsv: {}", got[3]);
        // Within-family constancy (od c6g.xlarge vs c6g.8xlarge ~ equal):
        assert!((got[0] - got[1]).abs() / got[1] < 0.25);
    }

    #[test]
    fn s3_express_never_breaks_even() {
        for cluster in table8_clusters() {
            assert!(
                table8_s3_express(&cluster).is_none(),
                "{} should never break even",
                cluster.label()
            );
        }
    }

    #[test]
    fn beas_formula_direct() {
        // 1 MB/s server at $1/h with $1/M requests → BEAS = 3.6 MB.
        let v = beas(1e-6, 3600.0, 1.0);
        assert!((v - 0.0036).abs() < 1e-9);
    }

    #[test]
    fn beas_with_fee_below_slope_solves() {
        // VM cost 1e-6 $/MB; fee 5e-7 $/MB; request 1e-6; free 0.5 MB.
        let v = beas_with_transfer_fee(1e-6, 5e-7, 0.5, 3.6e9 / 3600.0, 1.0).unwrap();
        // slope = 1e-6 - 5e-7 = 5e-7; size = (1e-6 - 2.5e-7)/5e-7 = 1.5 MB.
        assert!((v - 1.5).abs() < 1e-9, "{v}");
    }

    #[test]
    fn humanize_matches_paper_style() {
        assert_eq!(humanize_secs(38.0), "38s");
        assert_eq!(humanize_secs(27.0 * 60.0), "27min");
        assert_eq!(humanize_secs(12.0 * 3600.0), "12h");
        assert_eq!(humanize_secs(59.0 * 86_400.0), "59d");
    }
}
