//! Tables 1–3, 7, 8: catalog- and formula-driven tables (no simulation).

use skyrise::micro::{text_table, ExperimentResult};
use skyrise::pricing::breakeven::{
    humanize_secs, table7, table8_clusters, table8_s3_express, table8_s3_standard,
    TABLE7_ACCESS_SIZES,
};
use skyrise::pricing::{ec2_catalog, LambdaPricing, StoragePricing, StorageService};

/// Table 1: configuration and pricing of AWS compute services.
pub fn table01() -> ExperimentResult {
    let mut r = ExperimentResult::new("table01", "Configuration and pricing of AWS compute");
    let lambda = LambdaPricing::arm();
    let cat = ec2_catalog();
    let c6g: Vec<_> = cat.iter().filter(|i| i.name.starts_with("c6g.")).collect();

    let mem_price_min = c6g
        .iter()
        .map(|i| i.reserved_usd_per_hour / i.memory_gib * 100.0)
        .fold(f64::INFINITY, f64::min);
    let mem_price_max = c6g
        .iter()
        .map(|i| i.cents_per_gib_hour())
        .fold(0.0f64, f64::max);
    let vcpu_min = c6g
        .iter()
        .map(|i| i.reserved_usd_per_hour / i.vcpus as f64 * 100.0)
        .fold(f64::INFINITY, f64::min);
    let vcpu_max = c6g
        .iter()
        .map(|i| i.cents_per_vcpu_hour())
        .fold(0.0f64, f64::max);
    let net_min = c6g
        .iter()
        .map(|i| i.net_baseline_gbps)
        .fold(f64::INFINITY, f64::min);
    let net_max = c6g
        .iter()
        .map(|i| i.net_baseline_gbps)
        .fold(0.0f64, f64::max);

    let rows = vec![
        vec!["Resource".into(), "Lambda (ARM)".into(), "EC2 (C6g)".into()],
        vec![
            "Memory capacity [GiB]".into(),
            "0.125 - 10".into(),
            "2 - 128".into(),
        ],
        vec![
            "Memory price [c/GiB-h]".into(),
            format!(
                "{:.2} - {:.2}",
                lambda.cents_per_gib_hour_cheapest(),
                lambda.cents_per_gib_hour()
            ),
            format!("{mem_price_min:.2} - {mem_price_max:.2}"),
        ],
        vec![
            "Compute capacity [vCPU]".into(),
            "memory-based (1/1769 MiB)".into(),
            "1 - 64".into(),
        ],
        vec![
            "Compute price [c/vCPU-h]".into(),
            format!(
                "{:.2} - {:.2}",
                lambda.cents_per_gib_hour_cheapest() * 1.769 / 1.024,
                lambda.cents_per_gib_hour() * 1.769 / 1.024
            ),
            format!("{vcpu_min:.2} - {vcpu_max:.2}"),
        ],
        vec![
            "Network bandwidth [Gbps]".into(),
            "0.63 (constant)".into(),
            format!("{net_min} - {net_max}"),
        ],
        vec![
            "Ephemeral storage [GiB]".into(),
            "0.5 - 10".into(),
            "0 - 3,800 (C6gd)".into(),
        ],
    ];
    println!("{}", text_table(&rows));
    r.scalar("lambda_cents_per_gib_h_max", lambda.cents_per_gib_hour());
    r.scalar("ec2_cents_per_gib_h_max", mem_price_max);
    r.scalar(
        "lambda_to_ec2_memory_price_ratio",
        lambda.cents_per_gib_hour() / mem_price_max,
    );
    r
}

/// Table 2: pricing of AWS serverless storage services.
pub fn table02() -> ExperimentResult {
    let mut r = ExperimentResult::new("table02", "Pricing of AWS serverless storage services");
    let mut rows = vec![vec![
        "Service".into(),
        "Read [c/M]".into(),
        "Write [c/M]".into(),
        "Xfer read [c/GiB]".into(),
        "Xfer write [c/GiB]".into(),
        "Storage [c/GiB-mo]".into(),
    ]];
    for svc in StorageService::all() {
        let p = StoragePricing::of(svc);
        rows.push(vec![
            svc.name().into(),
            format!("{:.0}", p.read_request * 1e6 * 100.0),
            format!("{:.0}", p.write_request * 1e6 * 100.0),
            format!("{:.2}", p.transfer_read_per_gib * 100.0),
            format!("{:.2}", p.transfer_write_per_gib * 100.0),
            format!("{:.1}", p.storage_per_gib_month * 100.0),
        ]);
    }
    println!("{}", text_table(&rows));
    let s3 = StoragePricing::of(StorageService::S3Standard);
    r.scalar(
        "s3_warm_100k_iops_usd_per_hour",
        s3.read_request * 100_000.0 * 3600.0,
    );
    r
}

/// Table 3: overview of experiment configurations (descriptive).
pub fn table03() -> ExperimentResult {
    let r = ExperimentResult::new("table03", "Overview of experiment configurations");
    let rows: Vec<Vec<String>> = vec![
        vec![
            "System under test".into(),
            "Driver".into(),
            "Functions".into(),
            "Parameters".into(),
            "Metrics".into(),
        ],
        vec![
            "Lambda".into(),
            "FaaS platform".into(),
            "minimal, network I/O, storage I/O".into(),
            "instance size & count".into(),
            "I/O throughput, startup latency, idle lifetime".into(),
        ],
        vec![
            "EC2".into(),
            "IaaS platform".into(),
            "network I/O, storage I/O".into(),
            "instance type & count".into(),
            "I/O throughput, startup latency".into(),
        ],
        vec![
            "S3, DynamoDB, EFS".into(),
            "IaaS & FaaS".into(),
            "storage I/O".into(),
            "file size & count".into(),
            "I/O throughput, IOPS, latency".into(),
        ],
        vec![
            "Skyrise query engine".into(),
            "data system".into(),
            "query coordinator, query worker".into(),
            "queries, data size, deployment".into(),
            "query latency & cost".into(),
        ],
    ];
    println!("{}", text_table(&rows));
    r
}

/// Table 7: break-even intervals across the cloud storage hierarchy.
pub fn table07() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "table07",
        "Break-even intervals for data access sizes and storage combinations",
    );
    let mut rows = vec![vec![
        "Access size".into(),
        "4 KiB".into(),
        "16 KiB".into(),
        "4 MiB".into(),
        "16 MiB".into(),
    ]];
    for (pair, cells) in table7() {
        let mut row = vec![pair.label().to_string()];
        row.extend(cells.iter().map(|&s| humanize_secs(s)));
        rows.push(row);
        for (i, &secs) in cells.iter().enumerate() {
            r.scalar(
                &format!(
                    "{}_{}b_secs",
                    pair.label().replace(['/', ' '], "_"),
                    TABLE7_ACCESS_SIZES[i]
                ),
                secs,
            );
        }
    }
    println!("{}", text_table(&rows));
    r
}

/// Table 8: break-even access sizes for shuffle media.
pub fn table08() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "table08",
        "Break-even data access sizes for instance types and storage systems",
    );
    let clusters = table8_clusters();
    let mut header = vec!["Storage".to_string()];
    header.extend(clusters.iter().map(|c| c.label()));
    let mut std_row = vec!["S3 Standard".to_string()];
    let mut xps_row = vec!["S3 Express".to_string()];
    for c in &clusters {
        let beas_mb = table8_s3_standard(c);
        std_row.push(format!(
            "{:.0} MiB",
            (beas_mb * 1e6 / (1 << 20) as f64).round()
        ));
        r.scalar(
            &format!("s3std_{}_mb", c.label().replace(' ', "_")),
            beas_mb,
        );
        xps_row.push(match table8_s3_express(c) {
            Some(mb) => format!("{mb:.0} MB"),
            None => "never".into(),
        });
    }
    println!("{}", text_table(&[header, std_row, xps_row]));
    r.param(
        "s3_express",
        "never breaks even (transfer fee > VM network cost)",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findings::fresh_failures;

    /// Tables 1, 2, 7 and 8 hold their rows of the findings table when
    /// freshly computed, not only in the committed `results/`.
    #[test]
    fn tables_produce_expected_headline_numbers() {
        for result in [table01(), table02(), table07(), table08()] {
            let fails = fresh_failures(&result);
            assert!(fails.is_empty(), "{}", fails.join("\n"));
        }
        assert!(!table07().scalars.is_empty());
        assert!(table08().scalars.len() == 4);
        let _ = table03();
    }
}
