//! Columnar in-memory representation: schemas, columns, record batches.
//!
//! The engine's operators are vectorised over [`Batch`]es (the paper's
//! workers "use a vectorized execution model"). Dates are stored as days
//! since the Unix epoch in `Int64` columns, strings as a [`Utf8Column`]:
//! a sorted dictionary and one code per row.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::ops::Index;
use std::rc::Rc;

/// Logical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit float.
    Float64,
    /// UTF-8 string.
    Utf8,
    /// Boolean.
    Bool,
    /// Days since 1970-01-01, stored as i64.
    Date,
}

/// A named, typed column slot in a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl Field {
    /// Shorthand constructor.
    pub fn new(name: &str, data_type: DataType) -> Self {
        Field {
            name: name.to_string(),
            data_type,
        }
    }
}

/// An ordered set of fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Ordered fields.
    pub fields: Vec<Field>,
}

impl Schema {
    /// Build from fields.
    pub fn new(fields: Vec<Field>) -> Rc<Self> {
        Rc::new(Schema { fields })
    }

    /// Index of a field by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Field indices of a projection, in the order named (`None`: every
    /// field), or the first name the schema lacks.
    pub fn indices_of<'a>(&self, names: Option<&'a [String]>) -> Result<Vec<usize>, &'a str> {
        match names {
            None => Ok((0..self.len()).collect()),
            Some(names) => names
                .iter()
                .map(|n| self.index_of(n).ok_or(n.as_str()))
                .collect(),
        }
    }

    /// Field count.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Schema restricted to the given field indices.
    pub fn project(&self, indices: &[usize]) -> Rc<Schema> {
        Schema::new(indices.iter().map(|&i| self.fields[i].clone()).collect())
    }
}

/// A scalar value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Integer scalar.
    Int64(i64),
    /// Float scalar.
    Float64(f64),
    /// String scalar.
    Utf8(String),
    /// Boolean scalar.
    Bool(bool),
}

impl Value {
    /// Best-effort f64 view (for aggregate arithmetic).
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Int64(v) => *v as f64,
            Value::Float64(v) => *v,
            Value::Bool(b) => *b as i64 as f64,
            Value::Utf8(_) => f64::NAN,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Utf8(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// A string column: a shared dictionary of distinct strings in ascending
/// order, and one `u32` code per row into it. Code order is string order,
/// so kernels compare, group, sort and move codes, never strings.
///
/// The dictionary may hold entries no row references: `take`, `filter`
/// and `slice` keep it whole, and [`unify`](Self::unify) keeps every
/// part's entries. Such phantom entries are never observed: equality
/// compares the rows' strings, and kernels use codes only for their order.
#[derive(Debug, Clone, Default)]
pub struct Utf8Column {
    dict: Rc<[String]>,
    codes: Vec<u32>,
}

impl Utf8Column {
    /// A column of `codes` into `dict`. Panics unless `dict` is strictly
    /// ascending and every code indexes it.
    pub fn new(dict: Rc<[String]>, codes: Vec<u32>) -> Utf8Column {
        assert!(
            dict.windows(2).all(|w| w[0] < w[1]),
            "dictionary not sorted and distinct"
        );
        assert!(
            codes.iter().all(|&c| (c as usize) < dict.len()),
            "code outside the dictionary"
        );
        Utf8Column { dict, codes }
    }

    /// The dictionary: ascending, distinct.
    pub fn dict(&self) -> &Rc<[String]> {
        &self.dict
    }

    /// One code per row.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The rows' strings, in order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.codes.iter().map(|&c| self.dict[c as usize].as_str())
    }

    fn with_codes(&self, codes: Vec<u32>) -> Utf8Column {
        let dict = Rc::clone(&self.dict);
        Utf8Column { dict, codes }
    }

    /// The codes of each of `parts` in one dictionary: the parts' own when
    /// they all hold equal ones, else the sorted union of theirs. Panics
    /// if `parts` is empty.
    pub fn unify<'a>(parts: &[&'a Utf8Column]) -> (Rc<[String]>, Vec<Cow<'a, [u32]>>) {
        let first = &parts[0].dict;
        if parts.iter().all(|p| p.dict == *first) {
            let codes = parts.iter().map(|p| Cow::Borrowed(&p.codes[..])).collect();
            return (Rc::clone(first), codes);
        }
        // The union's codes are, part after part, those of each part's
        // dictionary entries.
        let union: Utf8Column = parts.iter().flat_map(|p| p.dict.iter()).collect();
        let mut to = &union.codes[..];
        let codes = parts
            .iter()
            .map(|p| {
                let (mine, rest) = to.split_at(p.dict.len());
                to = rest;
                Cow::Owned(p.codes.iter().map(|&c| mine[c as usize]).collect())
            })
            .collect();
        (union.dict, codes)
    }
}

impl<S: AsRef<str>> FromIterator<S> for Utf8Column {
    fn from_iter<I: IntoIterator<Item = S>>(values: I) -> Utf8Column {
        let values: Vec<S> = values.into_iter().collect();
        let mut dict: Vec<&str> = values.iter().map(AsRef::as_ref).collect();
        dict.sort_unstable();
        dict.dedup();
        let code = |v: &S| dict.binary_search(&v.as_ref()).expect("in the dictionary") as u32;
        let codes = values.iter().map(code).collect();
        let dict = dict.into_iter().map(str::to_owned).collect();
        Utf8Column { dict, codes }
    }
}

impl Index<usize> for Utf8Column {
    type Output = str;

    fn index(&self, row: usize) -> &str {
        &self.dict[self.codes[row] as usize]
    }
}

impl PartialEq for Utf8Column {
    /// Row by row, by value, whatever the dictionaries.
    fn eq(&self, other: &Utf8Column) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// A typed column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer column (also dates, as epoch days).
    Int64(Vec<i64>),
    /// Float column.
    Float64(Vec<f64>),
    /// String column.
    Utf8(Utf8Column),
    /// Boolean column.
    Bool(Vec<bool>),
}

impl Column {
    /// A string column of `values`.
    pub fn utf8<S: AsRef<str>>(values: impl IntoIterator<Item = S>) -> Column {
        Column::Utf8(values.into_iter().collect())
    }

    /// Row count.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v) => v.len(),
            Column::Float64(v) => v.len(),
            Column::Utf8(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type (`Date` indistinguishable from `Int64`).
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(_) => DataType::Int64,
            Column::Float64(_) => DataType::Float64,
            Column::Utf8(_) => DataType::Utf8,
            Column::Bool(_) => DataType::Bool,
        }
    }

    /// Scalar at `row` (panics out of bounds).
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int64(v) => Value::Int64(v[row]),
            Column::Float64(v) => Value::Float64(v[row]),
            Column::Utf8(v) => Value::Utf8(v[row].to_owned()),
            Column::Bool(v) => Value::Bool(v[row]),
        }
    }

    /// Keep rows where `mask` is true. Panics on length mismatch.
    pub fn filter(&self, mask: &[bool]) -> Column {
        assert_eq!(mask.len(), self.len(), "mask length mismatch");
        fn keep<T: Copy>(v: &[T], mask: &[bool]) -> Vec<T> {
            v.iter()
                .zip(mask)
                .filter(|&(_x, &m)| m)
                .map(|(&x, &_m)| x)
                .collect()
        }
        match self {
            Column::Int64(v) => Column::Int64(keep(v, mask)),
            Column::Float64(v) => Column::Float64(keep(v, mask)),
            Column::Utf8(v) => Column::Utf8(v.with_codes(keep(&v.codes, mask))),
            Column::Bool(v) => Column::Bool(keep(v, mask)),
        }
    }

    /// Gather rows by index.
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int64(v) => Column::Int64(indices.iter().map(|&i| v[i]).collect()),
            Column::Float64(v) => Column::Float64(indices.iter().map(|&i| v[i]).collect()),
            Column::Utf8(v) => {
                Column::Utf8(v.with_codes(indices.iter().map(|&i| v.codes[i]).collect()))
            }
            Column::Bool(v) => Column::Bool(indices.iter().map(|&i| v[i]).collect()),
        }
    }

    /// Gather rows by `u32` index — the engine's selection vectors are
    /// `u32`, so this avoids widening them just to call [`take`](Self::take).
    pub fn take_u32(&self, indices: &[u32]) -> Column {
        match self {
            Column::Int64(v) => Column::Int64(indices.iter().map(|&i| v[i as usize]).collect()),
            Column::Float64(v) => Column::Float64(indices.iter().map(|&i| v[i as usize]).collect()),
            Column::Utf8(v) => {
                Column::Utf8(v.with_codes(indices.iter().map(|&i| v.codes[i as usize]).collect()))
            }
            Column::Bool(v) => Column::Bool(indices.iter().map(|&i| v[i as usize]).collect()),
        }
    }

    /// Gather `(part, row)` locations across several column chunks of the
    /// same type into one output column — a concat-free multi-batch take.
    /// Panics if `parts` is empty or the types disagree.
    pub fn gather(parts: &[&Column], locs: &[(u32, u32)]) -> Column {
        fn at<T: Copy>(vs: &[impl AsRef<[T]>], locs: &[(u32, u32)]) -> Vec<T> {
            let at = |&(p, r): &(u32, u32)| vs[p as usize].as_ref()[r as usize];
            locs.iter().map(at).collect()
        }
        match parts[0] {
            Column::Int64(_) => {
                let vs: Vec<&[i64]> = parts.iter().map(|c| c.as_i64()).collect();
                Column::Int64(at(&vs, locs))
            }
            Column::Float64(_) => {
                let vs: Vec<&[f64]> = parts.iter().map(|c| c.as_f64()).collect();
                Column::Float64(at(&vs, locs))
            }
            Column::Utf8(_) => {
                let vs: Vec<&Utf8Column> = parts.iter().map(|c| c.as_str()).collect();
                let (dict, codes) = Utf8Column::unify(&vs);
                Column::Utf8(Utf8Column {
                    dict,
                    codes: at(&codes, locs),
                })
            }
            Column::Bool(_) => {
                let vs: Vec<&[bool]> = parts.iter().map(|c| c.as_bool()).collect();
                Column::Bool(at(&vs, locs))
            }
        }
    }

    /// Rows `[start, end)`.
    pub fn slice(&self, start: usize, end: usize) -> Column {
        match self {
            Column::Int64(v) => Column::Int64(v[start..end].to_vec()),
            Column::Float64(v) => Column::Float64(v[start..end].to_vec()),
            Column::Utf8(v) => Column::Utf8(v.with_codes(v.codes[start..end].to_vec())),
            Column::Bool(v) => Column::Bool(v[start..end].to_vec()),
        }
    }

    /// The rows of `parts`, one column after another. Panics if `parts`
    /// is empty or the types disagree.
    pub fn concat(parts: &[&Column]) -> Column {
        match parts[0] {
            Column::Int64(_) => Column::Int64(
                parts
                    .iter()
                    .map(|c| c.as_i64())
                    .collect::<Vec<_>>()
                    .concat(),
            ),
            Column::Float64(_) => Column::Float64(
                parts
                    .iter()
                    .map(|c| c.as_f64())
                    .collect::<Vec<_>>()
                    .concat(),
            ),
            Column::Utf8(_) => {
                let vs: Vec<&Utf8Column> = parts.iter().map(|c| c.as_str()).collect();
                let (dict, codes) = Utf8Column::unify(&vs);
                Column::Utf8(Utf8Column {
                    dict,
                    codes: codes.concat(),
                })
            }
            Column::Bool(_) => Column::Bool(
                parts
                    .iter()
                    .map(|c| c.as_bool())
                    .collect::<Vec<_>>()
                    .concat(),
            ),
        }
    }

    /// Int64 view (panics otherwise) — hot paths avoid `value()`.
    pub fn as_i64(&self) -> &[i64] {
        match self {
            Column::Int64(v) => v,
            other => panic!("expected Int64, got {:?}", other.data_type()),
        }
    }

    /// Float64 view.
    pub fn as_f64(&self) -> &[f64] {
        match self {
            Column::Float64(v) => v,
            other => panic!("expected Float64, got {:?}", other.data_type()),
        }
    }

    /// Utf8 view.
    pub fn as_str(&self) -> &Utf8Column {
        match self {
            Column::Utf8(v) => v,
            other => panic!("expected Utf8, got {:?}", other.data_type()),
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> &[bool] {
        match self {
            Column::Bool(v) => v,
            other => panic!("expected Bool, got {:?}", other.data_type()),
        }
    }
}

/// A horizontal slice of a table: one column vector per schema field.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// The batch's schema.
    pub schema: Rc<Schema>,
    /// One column per schema field.
    pub columns: Vec<Column>,
}

impl Batch {
    /// Build from schema and columns; validates lengths.
    pub fn new(schema: Rc<Schema>, columns: Vec<Column>) -> Self {
        assert_eq!(schema.len(), columns.len(), "schema/column count mismatch");
        if let Some(first) = columns.first() {
            for c in &columns {
                assert_eq!(c.len(), first.len(), "ragged batch");
            }
        }
        Batch { schema, columns }
    }

    /// Zero-row batch with the given schema.
    pub fn empty(schema: Rc<Schema>) -> Self {
        let columns = schema
            .fields
            .iter()
            .map(|f| match f.data_type {
                DataType::Int64 | DataType::Date => Column::Int64(Vec::new()),
                DataType::Float64 => Column::Float64(Vec::new()),
                DataType::Utf8 => Column::Utf8(Utf8Column::default()),
                DataType::Bool => Column::Bool(Vec::new()),
            })
            .collect();
        Batch { schema, columns }
    }

    /// Row count.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Column by field name.
    pub fn column(&self, name: &str) -> &Column {
        let idx = self
            .schema
            .index_of(name)
            .unwrap_or_else(|| panic!("no column {name}"));
        &self.columns[idx]
    }

    /// Keep rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Batch {
        Batch {
            schema: Rc::clone(&self.schema),
            columns: self.columns.iter().map(|c| c.filter(mask)).collect(),
        }
    }

    /// Keep only the given field indices.
    pub fn project(&self, indices: &[usize]) -> Batch {
        Batch {
            schema: self.schema.project(indices),
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
        }
    }

    /// Gather rows by index.
    pub fn take(&self, indices: &[usize]) -> Batch {
        Batch {
            schema: Rc::clone(&self.schema),
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
        }
    }

    /// Gather rows by `u32` selection vector.
    pub fn take_u32(&self, indices: &[u32]) -> Batch {
        Batch {
            schema: Rc::clone(&self.schema),
            columns: self.columns.iter().map(|c| c.take_u32(indices)).collect(),
        }
    }

    /// Gather `(part, row)` locations across several batches sharing a
    /// schema into one batch, without concatenating the inputs first.
    /// Panics if `parts` is empty.
    pub fn gather(parts: &[&Batch], locs: &[(u32, u32)]) -> Batch {
        let schema = Rc::clone(&parts[0].schema);
        let n_cols = parts[0].columns.len();
        let columns = (0..n_cols)
            .map(|ci| {
                let chunks: Vec<&Column> = parts.iter().map(|b| &b.columns[ci]).collect();
                Column::gather(&chunks, locs)
            })
            .collect();
        Batch { schema, columns }
    }

    /// Rows `[start, end)`.
    pub fn slice(&self, start: usize, end: usize) -> Batch {
        Batch {
            schema: Rc::clone(&self.schema),
            columns: self.columns.iter().map(|c| c.slice(start, end)).collect(),
        }
    }

    /// Concatenate batches sharing a schema. Panics on empty input.
    pub fn concat(batches: &[Batch]) -> Batch {
        let first = batches.first().expect("concat needs at least one batch");
        let columns = (0..first.columns.len())
            .map(|ci| {
                let chunks: Vec<&Column> = batches.iter().map(|b| &b.columns[ci]).collect();
                Column::concat(&chunks)
            })
            .collect();
        Batch {
            schema: Rc::clone(&first.schema),
            columns,
        }
    }

    /// One row as a vector of scalars. Allocates a `Vec` and clones any
    /// strings per call — reference/oracle and result-formatting paths
    /// only; hot kernels go column-direct (`as_i64` & friends, `take_u32`).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Approximate in-memory size (bytes) — used for fragment planning.
    pub fn approx_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|c| match c {
                Column::Int64(v) => v.len() * 8,
                Column::Float64(v) => v.len() * 8,
                Column::Bool(v) => v.len(),
                Column::Utf8(v) => v.iter().map(|s| s.len() + 8).sum(),
            })
            .sum()
    }
}

/// Civil-date helpers (days since 1970-01-01), Howard Hinnant's algorithm.
pub mod date {
    /// `(year, month, day)` → days since the epoch.
    pub fn from_ymd(y: i64, m: u32, d: u32) -> i64 {
        let y = if m <= 2 { y - 1 } else { y };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = (y - era * 400) as u64;
        let mp = ((m + 9) % 12) as u64;
        let doy = (153 * mp + 2) / 5 + d as u64 - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146_097 + doe as i64 - 719_468
    }

    /// Days since the epoch → `(year, month, day)`.
    pub fn to_ymd(days: i64) -> (i64, u32, u32) {
        let z = days + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = (z - era * 146_097) as u64;
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
        let y = yoe as i64 + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
        (if m <= 2 { y + 1 } else { y }, m, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_batch() -> Batch {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("price", DataType::Float64),
            Field::new("flag", DataType::Utf8),
        ]);
        Batch::new(
            schema,
            vec![
                Column::Int64(vec![1, 2, 3, 4]),
                Column::Float64(vec![10.0, 20.0, 30.0, 40.0]),
                Column::utf8(["a", "b", "a", "c"]),
            ],
        )
    }

    #[test]
    fn schema_lookup_and_projection() {
        let b = sample_batch();
        assert_eq!(b.schema.index_of("price"), Some(1));
        assert_eq!(b.schema.index_of("nope"), None);
        let p = b.project(&[2, 0]);
        assert_eq!(p.schema.fields[0].name, "flag");
        assert_eq!(p.column("id").as_i64(), &[1, 2, 3, 4]);
    }

    #[test]
    fn filter_take_slice() {
        let b = sample_batch();
        let f = b.filter(&[true, false, true, false]);
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.column("id").as_i64(), &[1, 3]);
        let t = b.take(&[3, 0]);
        assert_eq!(t.column("price").as_f64(), &[40.0, 10.0]);
        let s = b.slice(1, 3);
        assert!(s.column("flag").as_str().iter().eq(["b", "a"]));
    }

    #[test]
    fn concat_appends_rows() {
        let b = sample_batch();
        let c = Batch::concat(&[b.clone(), b.clone()]);
        assert_eq!(c.num_rows(), 8);
        assert_eq!(c.column("id").as_i64()[4], 1);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_batch_rejected() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ]);
        Batch::new(
            schema,
            vec![Column::Int64(vec![1]), Column::Int64(vec![1, 2])],
        );
    }

    #[test]
    fn value_round_trip_and_row() {
        let b = sample_batch();
        assert_eq!(b.columns[0].value(2), Value::Int64(3));
        let row = b.row(1);
        assert_eq!(row[2], Value::Utf8("b".into()));
        assert_eq!(Value::Int64(7).as_f64(), 7.0);
    }

    #[test]
    fn empty_batch_has_right_types() {
        let schema = Schema::new(vec![
            Field::new("d", DataType::Date),
            Field::new("x", DataType::Bool),
        ]);
        let b = Batch::empty(schema);
        assert_eq!(b.num_rows(), 0);
        assert_eq!(b.columns[0].data_type(), DataType::Int64);
        assert_eq!(b.columns[1].data_type(), DataType::Bool);
    }

    #[test]
    fn date_round_trips() {
        for (y, m, d) in [(1970, 1, 1), (1992, 1, 1), (1998, 12, 31), (2024, 2, 29)] {
            let days = date::from_ymd(y, m, d);
            assert_eq!(date::to_ymd(days), (y, m, d));
        }
        assert_eq!(date::from_ymd(1970, 1, 1), 0);
        assert_eq!(date::from_ymd(1970, 1, 2), 1);
        // TPC-H Q1 cutoff: 1998-12-01 minus 90 days lands in 1998-09.
        let cutoff = date::from_ymd(1998, 12, 1) - 90;
        assert_eq!(date::to_ymd(cutoff).0, 1998);
    }

    #[test]
    fn take_u32_and_gather_match_take() {
        let b = sample_batch();
        let t = b.take(&[3, 1, 1]);
        let t32 = b.take_u32(&[3, 1, 1]);
        assert_eq!(t, t32);
        let b2 = b.slice(0, 2);
        let g = Batch::gather(&[&b, &b2], &[(1, 0), (0, 3), (1, 1)]);
        assert_eq!(g.column("id").as_i64(), &[1, 4, 2]);
        assert!(g.column("flag").as_str().iter().eq(["a", "c", "b"]));
    }

    #[test]
    fn approx_bytes_counts_strings() {
        let b = sample_batch();
        // 4*8 + 4*8 + (1+8)*4 = 100
        assert_eq!(b.approx_bytes(), 100);
    }

    #[test]
    fn utf8_column_keeps_its_contract() {
        let c = Column::utf8(["b", "a", "b"]);
        assert!(c.as_str().dict().iter().eq(["a", "b"]));
        assert_eq!(c.as_str().codes(), &[1, 0, 1]);
        assert_eq!(&c.as_str()[2], "b");
        assert_eq!(
            Batch::empty(Schema::new(vec![Field::new("s", DataType::Utf8)])).columns[0],
            Column::utf8([""; 0])
        );
        let dict: Rc<[String]> = ["a".to_string(), "b".to_string()].into();
        assert!(std::panic::catch_unwind(|| Utf8Column::new(dict.clone(), vec![2])).is_err());
        let unsorted: Rc<[String]> = ["b".to_string(), "a".to_string()].into();
        assert!(std::panic::catch_unwind(|| Utf8Column::new(unsorted, vec![0])).is_err());
    }

    /// A string that often collides, sometimes non-ASCII, sometimes unique.
    fn any_string() -> impl Strategy<Value = String> {
        prop_oneof![3 => "[ab]{0,2}", 1 => "[aé中😀]{1,3}", 1 => "[a-z]{8}"]
    }

    /// A string column and its model. The column is a `take` of one built
    /// over a larger pool, so its dictionary holds entries no row uses.
    fn utf8_part() -> impl Strategy<Value = (Column, Vec<String>)> {
        let pool = prop::collection::vec(any_string(), 1..12);
        let rows = prop::collection::vec(0usize..64, 0..20);
        (pool, rows).prop_map(|(pool, rows)| {
            let rows: Vec<usize> = rows.iter().map(|r| r % pool.len()).collect();
            let model = rows.iter().map(|&r| pool[r].clone()).collect();
            (Column::utf8(&pool).take(&rows), model)
        })
    }

    fn model_of(c: &Column) -> Vec<String> {
        c.as_str().iter().map(str::to_owned).collect()
    }

    proptest! {
        /// Every row operation of a string column against `Vec<String>`,
        /// across parts with different dictionaries.
        #[test]
        fn utf8_column_matches_a_vec_of_strings(
            parts in prop::collection::vec(utf8_part(), 1..4),
            picks in prop::collection::vec((0usize..8, 0usize..32), 0..30),
            cut in (0usize..32, 0usize..32),
        ) {
            let (a, model) = &parts[0];
            let n = model.len();
            prop_assert_eq!(&model_of(a), model);
            prop_assert_eq!(a, &Column::utf8(model));
            for (r, s) in model.iter().enumerate() {
                prop_assert_eq!(a.value(r), Value::Utf8(s.clone()));
            }
            let rows: Vec<usize> = picks.iter().filter(|_| n > 0).map(|&(_, r)| r % n).collect();
            let want: Vec<String> = rows.iter().map(|&r| model[r].clone()).collect();
            prop_assert_eq!(model_of(&a.take(&rows)), want.clone());
            let rows32: Vec<u32> = rows.iter().map(|&r| r as u32).collect();
            prop_assert_eq!(model_of(&a.take_u32(&rows32)), want);
            let mask: Vec<bool> = (0..n).map(|r| model[r].len() % 2 == 0).collect();
            let kept: Vec<String> = model.iter().filter(|s| s.len() % 2 == 0).cloned().collect();
            prop_assert_eq!(model_of(&a.filter(&mask)), kept);
            let (lo, hi) = ((cut.0 % (n + 1)).min(cut.1 % (n + 1)), (cut.0 % (n + 1)).max(cut.1 % (n + 1)));
            prop_assert_eq!(model_of(&a.slice(lo, hi)), model[lo..hi].to_vec());

            let columns: Vec<&Column> = parts.iter().map(|(c, _)| c).collect();
            let all: Vec<String> = parts.iter().flat_map(|(_, m)| m.iter().cloned()).collect();
            let joined = Column::concat(&columns);
            prop_assert_eq!(model_of(&joined), all.clone());
            prop_assert_eq!(&joined, &Column::utf8(&all));
            let batches: Vec<Batch> = columns
                .iter()
                .map(|&c| Batch::new(Schema::new(vec![Field::new("s", DataType::Utf8)]), vec![c.clone()]))
                .collect();
            prop_assert_eq!(&Batch::concat(&batches).columns[0], &joined);
            let bytes: usize = all.iter().map(|s| s.len() + 8).sum();
            prop_assert_eq!(Batch::concat(&batches).approx_bytes(), bytes);
            let locs: Vec<(u32, u32)> = picks
                .iter()
                .map(|&(p, r)| (p % parts.len(), r))
                .filter(|&(p, _)| !parts[p].1.is_empty())
                .map(|(p, r)| (p as u32, (r % parts[p].1.len()) as u32))
                .collect();
            let want: Vec<String> = locs.iter().map(|&(p, r)| parts[p as usize].1[r as usize].clone()).collect();
            prop_assert_eq!(model_of(&Column::gather(&columns, &locs)), want);
            // The merged dictionary stays ascending and distinct.
            let dict = joined.as_str().dict();
            prop_assert!(dict.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
