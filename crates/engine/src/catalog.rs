//! The dataset catalog and loader.
//!
//! Datasets live as partitioned SPF objects in shared storage, described
//! by a JSON catalog object ("the coordinator fetches the metadata on the
//! referenced pipeline input datasets, including the number and sizes of
//! the files", paper Sec. 3.2).
//!
//! The loader applies **logical-size scaling** (see `skyrise-data`): the
//! carried payload is generated at a small scale factor while each
//! partition advertises the logical size the paper's Table 4 reports for
//! SF1000. Network transfer times, request counts, and invoices all see
//! logical bytes; operator input sees the payload.

use crate::error::EngineError;
use skyrise_data::{spf, Batch};
use skyrise_storage::{Blob, ByteRange, RequestOpts, RetryingClient, Storage};

/// One partition (object) of a dataset.
#[derive(Debug, Clone)]
pub struct PartitionMeta {
    /// Object key.
    pub key: String,
    /// Real (payload) size in bytes.
    pub payload_bytes: u64,
    /// Logical size in bytes (payload x scale).
    pub logical_bytes: u64,
    /// Payload rows.
    pub payload_rows: u64,
    /// Logical rows (payload rows x scale).
    pub logical_rows: u64,
}
serde::impl_json! { struct PartitionMeta {
    key, payload_bytes, logical_bytes, payload_rows, logical_rows,
} }

/// Catalog entry of one dataset.
#[derive(Debug, Clone)]
pub struct DatasetMeta {
    /// Dataset name (catalog key stem).
    pub name: String,
    /// Per-partition metadata, in key order.
    pub partitions: Vec<PartitionMeta>,
}
serde::impl_json! { struct DatasetMeta { name, partitions } }

impl DatasetMeta {
    /// Catalog object key for a dataset name.
    pub fn catalog_key(name: &str) -> String {
        format!("catalog/{name}.json")
    }

    /// Total logical bytes across partitions.
    pub fn total_logical_bytes(&self) -> u64 {
        self.partitions.iter().map(|p| p.logical_bytes).sum()
    }

    /// Mean partition logical size (bytes).
    pub fn mean_partition_bytes(&self) -> f64 {
        if self.partitions.is_empty() {
            0.0
        } else {
            self.total_logical_bytes() as f64 / self.partitions.len() as f64
        }
    }
}

/// How a table should be laid out in storage.
#[derive(Debug, Clone)]
pub struct DatasetLayout {
    /// Dataset name to register.
    pub name: String,
    /// Number of partitions (objects).
    pub partitions: usize,
    /// Target *logical* size per partition (bytes). The loader scales the
    /// payload to advertise this. `None` disables scaling (logical =
    /// payload).
    pub target_partition_logical_bytes: Option<u64>,
    /// SPF row-group size.
    pub rows_per_group: usize,
}

/// Write a table into storage as a partitioned SPF dataset and register
/// it in the catalog. Uses the backdoor (dataset setup is not billed).
pub fn load_dataset(
    storage: &Storage,
    layout: &DatasetLayout,
    table: &Batch,
) -> Result<DatasetMeta, EngineError> {
    let rows = table.num_rows();
    let parts = layout.partitions.max(1);
    let rows_per_part = rows.div_ceil(parts);
    let mut partitions = Vec::with_capacity(parts);
    for p in 0..parts {
        let start = (p * rows_per_part).min(rows);
        let end = ((p + 1) * rows_per_part).min(rows);
        let payload_rows = (end - start) as u64;
        let encoded = spf::write_rows(table, start..end, layout.rows_per_group.max(1));
        let payload_bytes = encoded.len() as u64;
        let scale = match layout.target_partition_logical_bytes {
            Some(target) if payload_bytes > 0 => (target as f64 / payload_bytes as f64).max(1.0),
            _ => 1.0,
        };
        let key = format!("data/{}/part-{p:05}.spf", layout.name);
        let blob = Blob::scaled(encoded, scale);
        let meta = PartitionMeta {
            key: key.clone(),
            payload_bytes,
            logical_bytes: blob.logical_len(),
            payload_rows,
            logical_rows: (payload_rows as f64 * scale).round() as u64,
        };
        storage.backdoor_put(&key, blob);
        partitions.push(meta);
    }
    let meta = DatasetMeta {
        name: layout.name.clone(),
        partitions,
    };
    let json = serde_json::to_string(&meta)?;
    storage.backdoor_put(&DatasetMeta::catalog_key(&layout.name), Blob::new(json));
    Ok(meta)
}

/// Fetch a dataset's catalog entry (a billed, retried read, as the
/// coordinator does it — a stray tail-latency request must not stall the
/// whole query).
pub async fn fetch_dataset(
    client: &RetryingClient,
    name: &str,
    opts: &RequestOpts,
) -> Result<DatasetMeta, EngineError> {
    let (read, _) = client
        .read(&DatasetMeta::catalog_key(name), ByteRange::Full, 4096, opts)
        .await?;
    let meta: DatasetMeta = serde_json::from_slice(&read.blob.bytes)?;
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyrise_data::{Column, DataType, Field, Schema};
    use skyrise_pricing::shared_meter;
    use skyrise_sim::Sim;
    use skyrise_storage::S3Bucket;

    fn table(n: usize) -> Batch {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]);
        Batch::new(
            schema,
            vec![
                Column::Int64((0..n as i64).collect()),
                Column::Float64((0..n).map(|i| i as f64).collect()),
            ],
        )
    }

    #[test]
    fn load_partitions_and_catalog_roundtrip() {
        let mut sim = Sim::new(1);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
            let layout = DatasetLayout {
                name: "t".into(),
                partitions: 4,
                target_partition_logical_bytes: None,
                rows_per_group: 100,
            };
            let meta = load_dataset(&storage, &layout, &table(1000)).unwrap();
            assert_eq!(meta.partitions.len(), 4);
            assert_eq!(
                meta.partitions.iter().map(|p| p.payload_rows).sum::<u64>(),
                1000
            );
            let client = RetryingClient::new(
                storage.clone(),
                ctx.clone(),
                skyrise_storage::RetryPolicy::eager(),
            );
            let fetched = fetch_dataset(&client, "t", &RequestOpts::default())
                .await
                .unwrap();
            assert_eq!(fetched.partitions.len(), 4);
            // Partition objects are readable SPF files.
            let blob = storage
                .get(&meta.partitions[0].key, &RequestOpts::default())
                .await
                .unwrap();
            let batches = spf::read_all(&blob.bytes, None).unwrap();
            let rows: usize = batches.iter().map(Batch::num_rows).sum();
            assert_eq!(rows as u64, meta.partitions[0].payload_rows);
        });
        sim.run();
        h.try_take().unwrap();
    }

    #[test]
    fn logical_scaling_hits_target() {
        let mut sim = Sim::new(2);
        let ctx = sim.ctx();
        let meter = shared_meter();
        let h = sim.spawn(async move {
            let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
            let target = 64 * 1024 * 1024u64;
            let layout = DatasetLayout {
                name: "scaled".into(),
                partitions: 2,
                target_partition_logical_bytes: Some(target),
                rows_per_group: 512,
            };
            let meta = load_dataset(&storage, &layout, &table(2000)).unwrap();
            for p in &meta.partitions {
                let rel = (p.logical_bytes as f64 - target as f64).abs() / target as f64;
                assert!(rel < 0.01, "logical {} vs target {target}", p.logical_bytes);
                assert!(p.payload_bytes < 100_000);
                assert!(p.logical_rows > p.payload_rows);
            }
            assert!(meta.total_logical_bytes() >= 2 * target - 1024);
            assert!(meta.mean_partition_bytes() > 0.0);
        });
        sim.run();
        h.try_take().unwrap();
    }
}
