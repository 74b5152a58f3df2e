//! What the chain executor ([`crate::bind`]) and the shuffle writer share:
//! chain statistics, the partial-aggregate naming convention, typed column
//! assembly, and hash partitioning of whole batches.

use crate::error::EngineError;
use crate::plan::{AggExpr, AggFunc};
use skyrise_data::keys::{self, SelSpec};
use skyrise_data::{Batch, Column, Utf8Column, Value};
use skyrise_sim::{fnv1a64_fold, FNV64_OFFSET};
use std::borrow::Cow;
use std::rc::Rc;

/// Execution statistics of one operator chain run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpChainStats {
    /// Rows entering the chain (payload rows of input 0).
    pub rows_in: u64,
    /// Rows leaving the chain.
    pub rows_out: u64,
}

/// Names of the output columns of a partial aggregate for `agg`.
pub fn partial_columns(agg: &AggExpr) -> Vec<String> {
    match agg.func {
        AggFunc::Avg => vec![format!("{}__sum", agg.name), format!("{}__cnt", agg.name)],
        _ => vec![agg.name.clone()],
    }
}

/// A column typed after its first value; later values of another type are
/// coerced to it, and no values at all make an empty `Float64` column.
pub fn column_from_values(vals: &[Value]) -> Column {
    match vals.first() {
        Some(Value::Int64(_)) => Column::Int64(
            vals.iter()
                .map(|v| match v {
                    Value::Int64(x) => *x,
                    other => other.as_f64() as i64,
                })
                .collect(),
        ),
        Some(Value::Utf8(_)) => Column::utf8(vals.iter().map(|v| match v {
            Value::Utf8(s) => Cow::Borrowed(s.as_str()),
            other => Cow::Owned(other.to_string()),
        })),
        Some(Value::Bool(_)) => Column::Bool(
            vals.iter()
                .map(|v| matches!(v, Value::Bool(true)))
                .collect(),
        ),
        _ => Column::Float64(vals.iter().map(Value::as_f64).collect()),
    }
}

/// Per-row shuffle hashes of the named key columns, computed
/// column-at-a-time with the batched, four-lane-unrolled `mix64` fold
/// from `skyrise_data::keys` — no per-row key values and no per-byte FNV
/// chain on the numeric types. Row `r`'s hash folds each key column with
/// `h * 31 + col_hash`, matching the test oracle's row-at-a-time
/// `partition_hash` bit-for-bit.
pub(crate) fn partition_hashes(
    batch: &Batch,
    partition_by: &[String],
) -> Result<Vec<u64>, EngineError> {
    let mut hashes = vec![0u64; batch.num_rows()];
    for name in partition_by {
        let col = batch
            .schema
            .index_of(name)
            .map(|i| &batch.columns[i])
            .ok_or_else(|| EngineError::Plan(format!("unknown key column {name}")))?;
        match col {
            Column::Int64(v) => keys::fold_hash_i64(&mut hashes, v),
            Column::Float64(v) => keys::fold_hash_f64(&mut hashes, v),
            Column::Bool(v) => keys::fold_hash_bool(&mut hashes, v),
            Column::Utf8(v) => {
                // Strings hash their bytes (FNV-1a digest through the
                // mix64 finalizer), once per dictionary entry.
                let digest = |s: &String| fnv1a64_fold(FNV64_OFFSET, s.as_bytes());
                let kh: Vec<u64> = v
                    .dict()
                    .iter()
                    .map(|s| keys::hash_key_utf8(digest(s)))
                    .collect();
                for (h, &c) in hashes.iter_mut().zip(v.codes()) {
                    *h = h.wrapping_mul(31).wrapping_add(kh[c as usize]);
                }
            }
        }
    }
    Ok(hashes)
}

/// Hash-partition a batch's rows into `n` buckets by key columns — the
/// shuffle writer. Returns one (possibly empty) batch per bucket.
pub fn partition_batch(
    batch: &Batch,
    partition_by: &[String],
    n: usize,
) -> Result<Vec<Batch>, EngineError> {
    partition_parts(&[(batch, SelSpec::All)], partition_by, n)
}

/// The partition kernel, a two-pass counting scatter over the live rows
/// of `parts` (batches of one schema, at least one): pass 1 gives every
/// live row the bucket `hash % n` and counts the buckets, pass 2 appends
/// column by column to bucket columns allocated at exactly those sizes.
/// A bucket keeps stream order; without key columns every row hashes to
/// bucket 0.
pub(crate) fn partition_parts(
    parts: &[(&Batch, SelSpec)],
    partition_by: &[String],
    n: usize,
) -> Result<Vec<Batch>, EngineError> {
    assert!(n > 0);
    let live: usize = parts.iter().map(|(b, s)| s.count(b.num_rows())).sum();
    let mut ids = Vec::with_capacity(live);
    let mut counts = vec![0usize; n];
    for (batch, sel) in parts {
        let hashes = partition_hashes(batch, partition_by)?;
        for r in sel.iter(batch.num_rows()) {
            let bucket = (hashes[r] % n as u64) as u32;
            counts[bucket as usize] += 1;
            ids.push(bucket);
        }
    }
    let schema = &parts[0].0.schema;
    let mut buckets = vec![Vec::with_capacity(schema.len()); n];
    for c in 0..schema.len() {
        let chunks = parts.iter().map(|(batch, sel)| (&batch.columns[c], *sel));
        let columns: Vec<Column> = match &parts[0].0.columns[c] {
            Column::Int64(_) => scatter(chunks.map(|(v, s)| (v.as_i64(), s)), &ids, &counts)
                .map(Column::Int64)
                .collect(),
            Column::Float64(_) => scatter(chunks.map(|(v, s)| (v.as_f64(), s)), &ids, &counts)
                .map(Column::Float64)
                .collect(),
            Column::Utf8(_) => {
                // One dictionary for every bucket: the parts' codes in it.
                let columns: Vec<&Utf8Column> = chunks.map(|(v, _)| v.as_str()).collect();
                let (dict, codes) = Utf8Column::unify(&columns);
                let chunks = codes.iter().zip(parts).map(|(v, (_, s))| (&v[..], *s));
                scatter(chunks, &ids, &counts)
                    .map(|codes| Column::Utf8(Utf8Column::new(Rc::clone(&dict), codes)))
                    .collect()
            }
            Column::Bool(_) => scatter(chunks.map(|(v, s)| (v.as_bool(), s)), &ids, &counts)
                .map(Column::Bool)
                .collect(),
        };
        for (bucket, column) in buckets.iter_mut().zip(columns) {
            bucket.push(column);
        }
    }
    Ok(buckets
        .into_iter()
        .map(|columns| Batch::new(Rc::clone(schema), columns))
        .collect())
}

/// Pass 2 of [`partition_parts`] for one column: the live values of
/// `chunks`, each appended to the bucket `ids` names for its row.
fn scatter<'a, T: Clone + 'a>(
    chunks: impl Iterator<Item = (&'a [T], SelSpec<'a>)>,
    ids: &[u32],
    counts: &[usize],
) -> impl Iterator<Item = Vec<T>> {
    let mut out: Vec<Vec<T>> = counts.iter().map(|&k| Vec::with_capacity(k)).collect();
    let mut ids = ids.iter();
    for (values, sel) in chunks {
        for (r, &bucket) in sel.iter(values.len()).zip(&mut ids) {
            out[bucket as usize].push(values[r].clone());
        }
    }
    out.into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::tests::lineitems;

    #[test]
    fn partition_batch_is_complete_and_disjoint() {
        let input = Batch::concat(&lineitems());
        let parts = partition_batch(&input, &["k".to_string()], 4).unwrap();
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(Batch::num_rows).sum();
        assert_eq!(total, input.num_rows());
        // Same key always lands in the same bucket.
        let again = partition_batch(&input, &["k".to_string()], 4).unwrap();
        for (a, b) in parts.iter().zip(&again) {
            assert_eq!(a.columns, b.columns);
        }
    }

    #[test]
    fn partition_without_keys_goes_to_bucket_zero() {
        let input = Batch::concat(&lineitems());
        let parts = partition_batch(&input, &[], 3).unwrap();
        assert_eq!(parts[0].num_rows(), 5);
        assert_eq!(parts[1].num_rows(), 0);
    }
}
