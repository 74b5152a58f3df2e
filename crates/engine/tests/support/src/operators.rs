//! The row-at-a-time oracle: the engine's first operator chain, kept as
//! the independent implementation `skyrise_engine::bind` is compared
//! against. Every key is a [`ScalarKey`] (one heap value per row per key
//! column), groups live in a `BTreeMap`, and column names are looked up
//! per batch. It shares the plan types, the expression evaluator and
//! `column_from_values` with the production kernels, and nothing else.

use skyrise_data::keys::{self, bits_to_f64, total_order_bits};
use skyrise_data::{Batch, Column, DataType, Field, Schema, Value};
use skyrise_engine::expr::{evaluate, evaluate_mask, NamedExpr, UdfRegistry};
use skyrise_engine::operators::{column_from_values, partial_columns, OpChainStats};
use skyrise_engine::plan::{AggExpr, AggFunc, AggMode, Op};
use skyrise_engine::EngineError;
use skyrise_sim::{fnv1a64_fold, FNV64_OFFSET};
use std::collections::BTreeMap;
use std::rc::Rc;

/// A hashable, totally-ordered scalar usable as a group/join/sort key.
/// Floats participate via `f64::total_cmp` (exact-bits equality).
///
/// The production kernels run on `skyrise_data::KeyBuffer`'s normalized
/// fixed-width encoding (see `skyrise_engine::bind`), whose order is
/// defined as this type's.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarKey {
    /// Integer key.
    I64(i64),
    /// String key.
    Str(String),
    /// Boolean key.
    Bool(bool),
    /// Total-order key over the float's bits (see
    /// [`skyrise_data::total_order_bits`]).
    F64(u64),
}

impl ScalarKey {
    /// From a value (never fails; floats key by total order).
    pub fn try_from_value(v: &Value) -> Result<ScalarKey, EngineError> {
        Ok(match v {
            Value::Int64(x) => ScalarKey::I64(*x),
            Value::Utf8(s) => ScalarKey::Str(s.clone()),
            Value::Bool(b) => ScalarKey::Bool(*b),
            Value::Float64(x) => ScalarKey::F64(total_order_bits(*x)),
        })
    }

    /// Key of one row of a column, without going through a `Value`.
    pub fn from_column(col: &Column, row: usize) -> ScalarKey {
        match col {
            Column::Int64(v) => ScalarKey::I64(v[row]),
            Column::Utf8(v) => ScalarKey::Str(v[row].to_owned()),
            Column::Bool(v) => ScalarKey::Bool(v[row]),
            Column::Float64(v) => ScalarKey::F64(total_order_bits(v[row])),
        }
    }

    /// Back to a value.
    pub fn into_value(self) -> Value {
        match self {
            ScalarKey::I64(x) => Value::Int64(x),
            ScalarKey::Str(s) => Value::Utf8(s),
            ScalarKey::Bool(b) => Value::Bool(b),
            ScalarKey::F64(bits) => Value::Float64(bits_to_f64(bits)),
        }
    }

    /// Stable hash for shuffle partitioning — must agree between writer
    /// and reader fragments. Mirrors the batched `mix64` lane hash in
    /// `skyrise_data::keys` (one finalizer over the normalized key word,
    /// type-tagged); strings FNV their bytes first, which is the only
    /// remaining per-row use of FNV-1a (it stays the sanitizer-digest
    /// hash).
    pub fn partition_hash(&self) -> u64 {
        match self {
            ScalarKey::I64(x) => keys::hash_key_i64(*x),
            ScalarKey::Str(s) => keys::hash_key_utf8(fnv1a64_fold(FNV64_OFFSET, s.as_bytes())),
            ScalarKey::Bool(b) => keys::hash_key_bool(*b),
            ScalarKey::F64(bits) => keys::hash_key_f64_bits(*bits),
        }
    }
}

#[cfg(test)]
mod key_tests {
    use super::*;

    #[test]
    fn float_keys_order_totally() {
        let mut keys: Vec<ScalarKey> = [-5.0, f64::NEG_INFINITY, 0.0, 3.5, -0.1, f64::INFINITY]
            .iter()
            .map(|&x| ScalarKey::try_from_value(&Value::Float64(x)).unwrap())
            .collect();
        keys.sort();
        let back: Vec<f64> = keys
            .into_iter()
            .map(|k| match k.into_value() {
                Value::Float64(x) => x,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            back,
            vec![f64::NEG_INFINITY, -5.0, -0.1, 0.0, 3.5, f64::INFINITY]
        );
    }

    #[test]
    fn float_key_round_trips_bits() {
        for x in [-1.25e300, -0.0, 0.0, 1.0, 6.02e23] {
            let k = ScalarKey::try_from_value(&Value::Float64(x)).unwrap();
            let Value::Float64(y) = k.into_value() else {
                unreachable!()
            };
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Pin `partition_hash` to the batched mix64 lane hash in
    /// `skyrise_data::keys`: the scalar oracle and the vectorised
    /// partitioner must agree bit-for-bit, and strings must keep feeding
    /// the workspace FNV-1a digest through the same finalizer.
    #[test]
    fn partition_hash_matches_batched_mix64() {
        use skyrise_data::keys::{
            hash_key_bool, hash_key_f64_bits, hash_key_i64, hash_key_utf8, mix64, norm_i64,
            HASH_TAG_BOOL, HASH_TAG_I64, HASH_TAG_UTF8,
        };
        use skyrise_sim::fnv1a64;
        assert_eq!(ScalarKey::I64(42).partition_hash(), hash_key_i64(42));
        assert_eq!(
            ScalarKey::I64(42).partition_hash(),
            mix64(norm_i64(42) ^ HASH_TAG_I64)
        );
        assert_eq!(
            ScalarKey::Str("foobar".into()).partition_hash(),
            hash_key_utf8(fnv1a64(b"foobar"))
        );
        assert_eq!(
            ScalarKey::Str("foobar".into()).partition_hash(),
            mix64(fnv1a64(b"foobar") ^ HASH_TAG_UTF8)
        );
        assert_eq!(ScalarKey::Bool(true).partition_hash(), hash_key_bool(true));
        assert_eq!(
            ScalarKey::Bool(false).partition_hash(),
            mix64(HASH_TAG_BOOL)
        );
        let bits = total_order_bits(1.5);
        assert_eq!(
            ScalarKey::F64(bits).partition_hash(),
            hash_key_f64_bits(bits)
        );
    }
}

/// Extract key columns of a batch as per-row composite keys.
fn row_keys(batch: &Batch, columns: &[String]) -> Result<Vec<Vec<ScalarKey>>, EngineError> {
    let cols: Vec<&Column> = columns
        .iter()
        .map(|c| {
            batch
                .schema
                .index_of(c)
                .map(|i| &batch.columns[i])
                .ok_or_else(|| EngineError::Plan(format!("unknown key column {c}")))
        })
        .collect::<Result<_, _>>()?;
    let mut out = Vec::with_capacity(batch.num_rows());
    for row in 0..batch.num_rows() {
        let key = cols
            .iter()
            .map(|c| ScalarKey::from_column(c, row))
            .collect::<Vec<_>>();
        out.push(key);
    }
    Ok(out)
}

/// Run an operator chain over materialised inputs. `inputs[0]` is the
/// streamed side; other inputs are consumed by join/sessionise operators.
pub fn execute_ops(
    ops: &[Op],
    inputs: &[Vec<Batch>],
    udfs: &UdfRegistry,
) -> Result<(Vec<Batch>, OpChainStats), EngineError> {
    let mut stream: Vec<Batch> = inputs
        .first()
        .cloned()
        .ok_or_else(|| EngineError::Plan("pipeline has no inputs".into()))?;
    let mut stats = OpChainStats {
        rows_in: stream.iter().map(|b| b.num_rows() as u64).sum(),
        rows_out: 0,
    };
    for op in ops {
        stream = apply_op(op, stream, inputs, udfs)?;
    }
    stats.rows_out = stream.iter().map(|b| b.num_rows() as u64).sum();
    Ok((stream, stats))
}

fn apply_op(
    op: &Op,
    stream: Vec<Batch>,
    inputs: &[Vec<Batch>],
    udfs: &UdfRegistry,
) -> Result<Vec<Batch>, EngineError> {
    match op {
        Op::Filter { predicate } => stream
            .iter()
            .map(|b| Ok(b.filter(&evaluate_mask(predicate, b, udfs)?)))
            .collect(),
        Op::Project { exprs } => stream.iter().map(|b| project(b, exprs, udfs)).collect(),
        Op::HashAggregate {
            group_by,
            aggregates,
            mode,
        } => hash_aggregate(&stream, group_by, aggregates, *mode, udfs).map(|b| vec![b]),
        Op::HashJoin {
            build_input,
            build_key,
            probe_key,
            build_columns,
        } => {
            let build = inputs
                .get(*build_input)
                .ok_or_else(|| EngineError::Plan(format!("no build input {build_input}")))?;
            hash_join(&stream, build, build_key, probe_key, build_columns)
        }
        Op::Sort { by } => sort(&stream, by).map(|b| vec![b]),
        Op::Limit { n } => Ok(limit(stream, *n as usize)),
        Op::SessionizeQ3 {
            category_input,
            window,
        } => {
            let items = inputs
                .get(*category_input)
                .ok_or_else(|| EngineError::Plan(format!("no input {category_input}")))?;
            sessionize_q3(&stream, items, *window).map(|b| vec![b])
        }
        // The worker intercepts barriers before execution; inside the
        // operator chain they are a no-op passthrough.
        Op::Barrier { .. } => Ok(stream),
    }
}

fn project(batch: &Batch, exprs: &[NamedExpr], udfs: &UdfRegistry) -> Result<Batch, EngineError> {
    let mut fields = Vec::with_capacity(exprs.len());
    let mut columns = Vec::with_capacity(exprs.len());
    for ne in exprs {
        let col = evaluate(&ne.expr, batch, udfs)?;
        fields.push(Field::new(&ne.name, col.data_type()));
        columns.push(col);
    }
    Ok(Batch::new(Schema::new(fields), columns))
}

// ---------------------------------------------------------------------------
// aggregation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AggState {
    Sum(f64),
    Count(i64),
    Avg { sum: f64, count: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Sum => AggState::Sum(0.0),
            AggFunc::Count => AggState::Count(0),
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, v: &Value) {
        match self {
            AggState::Sum(s) => *s += v.as_f64(),
            AggState::Count(c) => *c += 1,
            AggState::Avg { sum, count } => {
                *sum += v.as_f64();
                *count += 1;
            }
            AggState::Min(m) => merge_minmax(m, v, false),
            AggState::Max(m) => merge_minmax(m, v, true),
        }
    }

    /// Merge a partial-state row (Final mode).
    fn merge(&mut self, primary: &Value, secondary: Option<&Value>) {
        match self {
            AggState::Sum(s) => *s += primary.as_f64(),
            AggState::Count(c) => *c += primary.as_f64() as i64,
            AggState::Avg { sum, count } => {
                *sum += primary.as_f64();
                *count += secondary.expect("avg partial has a count column").as_f64() as i64;
            }
            AggState::Min(m) => merge_minmax(m, primary, false),
            AggState::Max(m) => merge_minmax(m, primary, true),
        }
    }
}

fn merge_minmax(state: &mut Option<Value>, v: &Value, is_max: bool) {
    let better = match state {
        None => true,
        Some(cur) => {
            let ord = match (&*cur, v) {
                (Value::Int64(a), Value::Int64(b)) => b.cmp(a),
                (Value::Utf8(a), Value::Utf8(b)) => b.cmp(a),
                _ => v
                    .as_f64()
                    .partial_cmp(&cur.as_f64())
                    .unwrap_or(std::cmp::Ordering::Equal),
            };
            if is_max {
                ord == std::cmp::Ordering::Greater
            } else {
                ord == std::cmp::Ordering::Less
            }
        }
    };
    if better {
        *state = Some(v.clone());
    }
}

fn hash_aggregate(
    stream: &[Batch],
    group_by: &[String],
    aggregates: &[AggExpr],
    mode: AggMode,
    udfs: &UdfRegistry,
) -> Result<Batch, EngineError> {
    // Deterministic group order: BTreeMap keyed on the composite key.
    let mut groups: std::collections::BTreeMap<Vec<ScalarKey>, Vec<AggState>> =
        std::collections::BTreeMap::new();

    for batch in stream {
        if batch.num_rows() == 0 {
            continue;
        }
        let keys = row_keys(batch, group_by)?;
        match mode {
            AggMode::Partial | AggMode::Single => {
                // Evaluate agg arguments once per batch.
                let args: Vec<Column> = aggregates
                    .iter()
                    .map(|a| match a.func {
                        AggFunc::Count => Ok(Column::Int64(vec![1; batch.num_rows()])),
                        _ => evaluate(&a.expr, batch, udfs),
                    })
                    .collect::<Result<_, _>>()?;
                for (row, key) in keys.into_iter().enumerate() {
                    let states = groups.entry(key).or_insert_with(|| {
                        aggregates.iter().map(|a| AggState::new(a.func)).collect()
                    });
                    for (s, col) in states.iter_mut().zip(&args) {
                        s.update(&col.value(row));
                    }
                }
            }
            AggMode::Final => {
                // Read partial-state columns by naming convention.
                let cols: Vec<(Column, Option<Column>)> = aggregates
                    .iter()
                    .map(|a| {
                        let names = partial_columns(a);
                        let primary = batch
                            .schema
                            .index_of(&names[0])
                            .map(|i| batch.columns[i].clone())
                            .ok_or_else(|| {
                                EngineError::Plan(format!("missing partial column {}", names[0]))
                            })?;
                        let secondary = names
                            .get(1)
                            .map(|n| {
                                batch
                                    .schema
                                    .index_of(n)
                                    .map(|i| batch.columns[i].clone())
                                    .ok_or_else(|| {
                                        EngineError::Plan(format!("missing partial column {n}"))
                                    })
                            })
                            .transpose()?;
                        Ok((primary, secondary))
                    })
                    .collect::<Result<_, EngineError>>()?;
                for (row, key) in keys.into_iter().enumerate() {
                    let states = groups.entry(key).or_insert_with(|| {
                        aggregates.iter().map(|a| AggState::new(a.func)).collect()
                    });
                    for (s, (primary, secondary)) in states.iter_mut().zip(&cols) {
                        s.merge(
                            &primary.value(row),
                            secondary.as_ref().map(|c| c.value(row)).as_ref(),
                        );
                    }
                }
            }
        }
    }

    // Assemble the output batch.
    let empty_schema_types: Vec<DataType> = group_by.iter().map(|_| DataType::Utf8).collect();
    let _ = empty_schema_types;
    let mut fields: Vec<Field> = Vec::new();
    let mut columns: Vec<Column> = Vec::new();

    // Group columns (types inferred from the first key).
    for (gi, gname) in group_by.iter().enumerate() {
        let mut vals: Vec<Value> = Vec::with_capacity(groups.len());
        for key in groups.keys() {
            vals.push(key[gi].clone().into_value());
        }
        let col = column_from_values(&vals);
        fields.push(Field::new(gname, col.data_type()));
        columns.push(col);
    }

    // Aggregate columns.
    let emit_final = !matches!(mode, AggMode::Partial);
    for (ai, agg) in aggregates.iter().enumerate() {
        match (agg.func, emit_final) {
            (AggFunc::Avg, false) => {
                let mut sums = Vec::with_capacity(groups.len());
                let mut counts = Vec::with_capacity(groups.len());
                for states in groups.values() {
                    let AggState::Avg { sum, count } = &states[ai] else {
                        unreachable!()
                    };
                    sums.push(*sum);
                    counts.push(*count);
                }
                fields.push(Field::new(&format!("{}__sum", agg.name), DataType::Float64));
                columns.push(Column::Float64(sums));
                fields.push(Field::new(&format!("{}__cnt", agg.name), DataType::Int64));
                columns.push(Column::Int64(counts));
            }
            _ => {
                let mut vals: Vec<Value> = Vec::with_capacity(groups.len());
                for states in groups.values() {
                    vals.push(match &states[ai] {
                        AggState::Sum(s) => Value::Float64(*s),
                        AggState::Count(c) => Value::Int64(*c),
                        AggState::Avg { sum, count } => Value::Float64(if *count == 0 {
                            0.0
                        } else {
                            sum / *count as f64
                        }),
                        AggState::Min(m) | AggState::Max(m) => {
                            m.clone().unwrap_or(Value::Float64(f64::NAN))
                        }
                    });
                }
                let col = column_from_values(&vals);
                fields.push(Field::new(&agg.name, col.data_type()));
                columns.push(col);
            }
        }
    }

    if groups.is_empty() && group_by.is_empty() && emit_final {
        // Global aggregate over zero rows still yields one row of zeros.
        for (f, c) in fields.iter().zip(columns.iter_mut()) {
            let _ = f;
            match c {
                Column::Float64(v) => v.push(0.0),
                Column::Int64(v) => v.push(0),
                Column::Utf8(_) => *c = Column::utf8([""]),
                Column::Bool(v) => v.push(false),
            }
        }
    }

    Ok(Batch::new(Schema::new(fields), columns))
}

// ---------------------------------------------------------------------------
// join
// ---------------------------------------------------------------------------

fn hash_join(
    probe: &[Batch],
    build: &[Batch],
    build_key: &str,
    probe_key: &str,
    build_columns: &[String],
) -> Result<Vec<Batch>, EngineError> {
    if build.is_empty() || probe.is_empty() {
        return Err(EngineError::Plan(
            "hash join requires materialised build and probe inputs".into(),
        ));
    }
    let build_all = Batch::concat(build);
    let build_keys = row_keys(&build_all, &[build_key.to_string()])?;
    let mut table: BTreeMap<ScalarKey, Vec<usize>> = BTreeMap::new();
    for (row, mut key) in build_keys.into_iter().enumerate() {
        table
            .entry(key.pop().expect("single key"))
            .or_default()
            .push(row);
    }

    let build_col_refs: Vec<(&Field, &Column)> = build_columns
        .iter()
        .map(|name| {
            build_all
                .schema
                .index_of(name)
                .map(|i| (&build_all.schema.fields[i], &build_all.columns[i]))
                .ok_or_else(|| EngineError::Plan(format!("unknown build column {name}")))
        })
        .collect::<Result<_, _>>()?;

    let mut out = Vec::new();
    for pb in probe {
        let probe_keys = row_keys(pb, &[probe_key.to_string()])?;
        let mut probe_idx = Vec::new();
        let mut build_idx = Vec::new();
        for (prow, mut key) in probe_keys.into_iter().enumerate() {
            if let Some(matches) = table.get(&key.pop().expect("single key")) {
                for &brow in matches {
                    probe_idx.push(prow);
                    build_idx.push(brow);
                }
            }
        }
        let mut fields: Vec<Field> = pb.schema.fields.clone();
        let mut columns: Vec<Column> = pb.take(&probe_idx).columns;
        for (f, c) in &build_col_refs {
            fields.push((*f).clone());
            columns.push(c.take(&build_idx));
        }
        out.push(Batch::new(Schema::new(fields), columns));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// sort / limit
// ---------------------------------------------------------------------------

fn sort(stream: &[Batch], by: &[(String, bool)]) -> Result<Batch, EngineError> {
    if stream.is_empty() {
        return Err(EngineError::Plan("sort over no batches".into()));
    }
    let all = Batch::concat(stream);
    let keys: Vec<(Vec<ScalarKey>, bool)> = by
        .iter()
        .map(|(name, asc)| Ok((row_keys_single(&all, name)?, *asc)))
        .collect::<Result<_, EngineError>>()?;
    let mut idx: Vec<usize> = (0..all.num_rows()).collect();
    idx.sort_by(|&a, &b| {
        for (col, asc) in &keys {
            let ord = col[a].cmp(&col[b]);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(all.take(&idx))
}

fn row_keys_single(batch: &Batch, name: &str) -> Result<Vec<ScalarKey>, EngineError> {
    let i = batch
        .schema
        .index_of(name)
        .ok_or_else(|| EngineError::Plan(format!("unknown sort column {name}")))?;
    Ok((0..batch.num_rows())
        .map(|r| ScalarKey::from_column(&batch.columns[i], r))
        .collect())
}

fn limit(stream: Vec<Batch>, n: usize) -> Vec<Batch> {
    let mut remaining = n;
    let mut out = Vec::new();
    for b in stream {
        if remaining == 0 {
            // Keep the schema alive with an empty batch if nothing was
            // emitted yet (n == 0).
            if out.is_empty() {
                out.push(b.slice(0, 0));
            }
            break;
        }
        let take = b.num_rows().min(remaining);
        remaining -= take;
        out.push(b.slice(0, take));
    }
    out
}

// ---------------------------------------------------------------------------
// TPCx-BB Q3 sessionisation
// ---------------------------------------------------------------------------

/// For each purchase of a category item, count category items viewed in
/// the preceding `window` clicks of the same user session stream. Emits
/// `(item_sk, views)` partial counts.
fn sessionize_q3(clicks: &[Batch], items: &[Batch], window: usize) -> Result<Batch, EngineError> {
    let category: std::collections::BTreeSet<i64> = items
        .iter()
        .flat_map(|b| b.column("i_item_sk").as_i64().iter().copied())
        .collect();
    if clicks.is_empty() {
        return Ok(Batch::new(
            Schema::new(vec![
                Field::new("item_sk", DataType::Int64),
                Field::new("views", DataType::Int64),
            ]),
            vec![Column::Int64(vec![]), Column::Int64(vec![])],
        ));
    }
    let all = Batch::concat(clicks);
    let users = all.column("wcs_user_sk").as_i64();
    let dates = all.column("wcs_click_date_sk").as_i64();
    let times = all.column("wcs_click_time_sk").as_i64();
    let item_sk = all.column("wcs_item_sk").as_i64();
    let sales = all.column("wcs_sales_sk").as_i64();

    // Order clicks per user by (date, time).
    let mut idx: Vec<usize> = (0..all.num_rows()).collect();
    idx.sort_by_key(|&i| (users[i], dates[i], times[i]));

    let mut views: std::collections::BTreeMap<i64, i64> = std::collections::BTreeMap::new();
    let mut start = 0usize;
    while start < idx.len() {
        let user = users[idx[start]];
        let mut end = start;
        while end < idx.len() && users[idx[end]] == user {
            end += 1;
        }
        let session = &idx[start..end];
        for (pos, &click) in session.iter().enumerate() {
            let is_purchase = sales[click] != 0 && category.contains(&item_sk[click]);
            if !is_purchase {
                continue;
            }
            let from = pos.saturating_sub(window);
            for &prior in &session[from..pos] {
                let viewed = item_sk[prior];
                if category.contains(&viewed) {
                    *views.entry(viewed).or_insert(0) += 1;
                }
            }
        }
        start = end;
    }

    Ok(Batch::new(
        Schema::new(vec![
            Field::new("item_sk", DataType::Int64),
            Field::new("views", DataType::Int64),
        ]),
        vec![
            Column::Int64(views.keys().copied().collect()),
            Column::Int64(views.values().copied().collect()),
        ],
    ))
}

/// Row-at-a-time `ScalarKey` partitioner, the oracle the vectorised
/// `operators::partition_batch` is property-tested against.
pub fn partition_batch_scalar(
    batch: &Batch,
    partition_by: &[String],
    n: usize,
) -> Result<Vec<Batch>, EngineError> {
    assert!(n > 0);
    if partition_by.is_empty() {
        let mut out = vec![Batch::empty(Rc::clone(&batch.schema)); n];
        out[0] = batch.clone();
        return Ok(out);
    }
    let keys = row_keys(batch, partition_by)?;
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (row, key) in keys.iter().enumerate() {
        let mut h = 0u64;
        for k in key {
            h = h.wrapping_mul(31).wrapping_add(k.partition_hash());
        }
        buckets[(h % n as u64) as usize].push(row);
    }
    Ok(buckets.into_iter().map(|rows| batch.take(&rows)).collect())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use skyrise_engine::expr::{ArithOp, CmpOp, Expr};

    pub(crate) fn udfs() -> UdfRegistry {
        UdfRegistry::with_builtins()
    }

    pub(crate) fn lineitems() -> Vec<Batch> {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("price", DataType::Float64),
            Field::new("flag", DataType::Utf8),
        ]);
        vec![
            Batch::new(
                Rc::clone(&schema),
                vec![
                    Column::Int64(vec![1, 2, 3]),
                    Column::Float64(vec![10.0, 20.0, 30.0]),
                    Column::utf8(["A", "B", "A"]),
                ],
            ),
            Batch::new(
                schema,
                vec![
                    Column::Int64(vec![4, 5]),
                    Column::Float64(vec![40.0, 50.0]),
                    Column::utf8(["B", "A"]),
                ],
            ),
        ]
    }

    #[test]
    fn filter_project_chain() {
        let ops = vec![
            Op::Filter {
                predicate: Expr::col("k").cmp(CmpOp::Ge, Expr::lit_i64(2)),
            },
            Op::Project {
                exprs: vec![NamedExpr::new(
                    "double",
                    Expr::col("price").arith(ArithOp::Mul, Expr::lit_f64(2.0)),
                )],
            },
        ];
        let (out, stats) = execute_ops(&ops, &[lineitems()], &udfs()).unwrap();
        let all = Batch::concat(&out);
        assert_eq!(all.column("double").as_f64(), &[40.0, 60.0, 80.0, 100.0]);
        assert_eq!(stats.rows_in, 5);
        assert_eq!(stats.rows_out, 4);
    }

    #[test]
    fn single_phase_aggregate() {
        let ops = vec![Op::HashAggregate {
            group_by: vec!["flag".into()],
            aggregates: vec![
                AggExpr::new(AggFunc::Sum, Expr::col("price"), "total"),
                AggExpr::new(AggFunc::Count, Expr::lit_i64(1), "cnt"),
                AggExpr::new(AggFunc::Avg, Expr::col("price"), "avg_price"),
                AggExpr::new(AggFunc::Max, Expr::col("k"), "max_k"),
            ],
            mode: AggMode::Single,
        }];
        let (out, _) = execute_ops(&ops, &[lineitems()], &udfs()).unwrap();
        let b = &out[0];
        assert_eq!(b.column("flag"), &Column::utf8(["A", "B"]));
        assert_eq!(b.column("total").as_f64(), &[90.0, 60.0]);
        assert_eq!(b.column("cnt").as_i64(), &[3, 2]);
        assert_eq!(b.column("avg_price").as_f64(), &[30.0, 30.0]);
        assert_eq!(b.column("max_k").as_i64(), &[5, 4]);
    }

    #[test]
    fn partial_then_final_equals_single() {
        let aggs = vec![
            AggExpr::new(AggFunc::Sum, Expr::col("price"), "total"),
            AggExpr::new(AggFunc::Avg, Expr::col("price"), "avg_price"),
            AggExpr::new(AggFunc::Count, Expr::lit_i64(1), "cnt"),
            AggExpr::new(AggFunc::Min, Expr::col("k"), "min_k"),
        ];
        let group = vec!["flag".to_string()];
        // Split the input across two "fragments".
        let input = lineitems();
        let partial_op = Op::HashAggregate {
            group_by: group.clone(),
            aggregates: aggs.clone(),
            mode: AggMode::Partial,
        };
        let (p1, _) = execute_ops(
            std::slice::from_ref(&partial_op),
            &[vec![input[0].clone()]],
            &udfs(),
        )
        .unwrap();
        let (p2, _) = execute_ops(
            std::slice::from_ref(&partial_op),
            &[vec![input[1].clone()]],
            &udfs(),
        )
        .unwrap();
        let final_op = Op::HashAggregate {
            group_by: group.clone(),
            aggregates: aggs.clone(),
            mode: AggMode::Final,
        };
        let merged: Vec<Batch> = p1.into_iter().chain(p2).collect();
        let (fin, _) = execute_ops(std::slice::from_ref(&final_op), &[merged], &udfs()).unwrap();

        let single_op = Op::HashAggregate {
            group_by: group,
            aggregates: aggs,
            mode: AggMode::Single,
        };
        let (single, _) = execute_ops(std::slice::from_ref(&single_op), &[input], &udfs()).unwrap();
        assert_eq!(fin[0].columns, single[0].columns);
    }

    #[test]
    fn hash_join_inner() {
        let orders_schema = Schema::new(vec![
            Field::new("o_key", DataType::Int64),
            Field::new("prio", DataType::Utf8),
        ]);
        let orders = vec![Batch::new(
            orders_schema,
            vec![
                Column::Int64(vec![1, 2, 4]),
                Column::utf8(["HI", "LO", "HI"]),
            ],
        )];
        let ops = vec![Op::HashJoin {
            build_input: 1,
            build_key: "o_key".into(),
            probe_key: "k".into(),
            build_columns: vec!["prio".into()],
        }];
        let (out, _) = execute_ops(&ops, &[lineitems(), orders], &udfs()).unwrap();
        let all = Batch::concat(&out);
        assert_eq!(all.num_rows(), 3); // keys 1, 2, 4 match
        assert_eq!(all.column("k").as_i64(), &[1, 2, 4]);
        assert_eq!(all.column("prio"), &Column::utf8(["HI", "LO", "HI"]));
    }

    #[test]
    fn join_duplicates_multiply() {
        let left_schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
        let left = vec![Batch::new(left_schema, vec![Column::Int64(vec![7, 7])])];
        let right_schema = Schema::new(vec![
            Field::new("rk", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]);
        let right = vec![Batch::new(
            right_schema,
            vec![Column::Int64(vec![7, 7, 8]), Column::Int64(vec![1, 2, 3])],
        )];
        let ops = vec![Op::HashJoin {
            build_input: 1,
            build_key: "rk".into(),
            probe_key: "k".into(),
            build_columns: vec!["v".into()],
        }];
        let (out, _) = execute_ops(&ops, &[left, right], &udfs()).unwrap();
        assert_eq!(Batch::concat(&out).num_rows(), 4); // 2 x 2
    }

    #[test]
    fn sort_and_limit() {
        let ops = vec![
            Op::Sort {
                by: vec![("flag".into(), true), ("k".into(), false)],
            },
            Op::Limit { n: 3 },
        ];
        let (out, _) = execute_ops(&ops, &[lineitems()], &udfs()).unwrap();
        let all = Batch::concat(&out);
        assert_eq!(all.column("k").as_i64(), &[5, 3, 1]);
    }

    #[test]
    fn sessionize_counts_prior_views() {
        let schema = Schema::new(vec![
            Field::new("wcs_user_sk", DataType::Int64),
            Field::new("wcs_click_date_sk", DataType::Int64),
            Field::new("wcs_click_time_sk", DataType::Int64),
            Field::new("wcs_item_sk", DataType::Int64),
            Field::new("wcs_sales_sk", DataType::Int64),
        ]);
        // User 1 views items 10, 11, 10 then buys item 12.
        let clicks = vec![Batch::new(
            schema,
            vec![
                Column::Int64(vec![1, 1, 1, 1]),
                Column::Int64(vec![0, 0, 0, 0]),
                Column::Int64(vec![1, 2, 3, 4]),
                Column::Int64(vec![10, 11, 10, 12]),
                Column::Int64(vec![0, 0, 0, 99]),
            ],
        )];
        let item_schema = Schema::new(vec![Field::new("i_item_sk", DataType::Int64)]);
        let items = vec![Batch::new(
            item_schema,
            vec![Column::Int64(vec![10, 12])], // category: items 10, 12
        )];
        let ops = vec![Op::SessionizeQ3 {
            category_input: 1,
            window: 10,
        }];
        let (out, _) = execute_ops(&ops, &[clicks, items], &udfs()).unwrap();
        let b = &out[0];
        // Item 11 is outside the category; item 10 viewed twice before
        // the purchase of category item 12.
        assert_eq!(b.column("item_sk").as_i64(), &[10]);
        assert_eq!(b.column("views").as_i64(), &[2]);
    }

    #[test]
    fn barrier_is_passthrough_in_chain() {
        let ops = vec![Op::Barrier {
            name: "scan-done".into(),
        }];
        let (out, stats) = execute_ops(&ops, &[lineitems()], &udfs()).unwrap();
        assert_eq!(stats.rows_in, stats.rows_out);
        assert_eq!(Batch::concat(&out).num_rows(), 5);
    }
}
