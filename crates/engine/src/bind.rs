//! Operator binding and the selection-vector executor: the engine's one
//! chain executor.
//!
//! 1. **Binding pass** — once per `WorkerTask`, every column the kernels
//!    index by (group, join, sort and session keys, partial-state
//!    columns) is resolved to an index against the pipeline's input
//!    schemas, and every column and UDF an expression names is checked to
//!    exist, so a malformed chain fails before any data is touched. Schema
//!    propagation needs only field *names* (projections rename, joins
//!    append build columns, aggregates emit group + aggregate columns), so
//!    binding never evaluates anything. Expressions stay the plan's
//!    [`Expr`] and are evaluated by [`expr::evaluate`]. A chain that cannot
//!    be bound — an input without batches has no schema, and an operator
//!    cannot build from the input the chain streams — is an
//!    [`EngineError::Plan`].
//! 2. **Selection vectors end-to-end** — `Filter` refines a [`Sel`]
//!    instead of materialising, and every consumer (aggregate, join
//!    probe, sort, sessionise, limit, shuffle partition) accepts the
//!    selection directly: keys are encoded, hashes folded, and
//!    accumulators updated *under the sel*; rows are gathered at most
//!    once, at final emission. `Project` evaluates on the full batch
//!    (expressions are total and row-wise pure) and carries the
//!    selection through untouched.
//! 3. **Normalized-key kernels** — grouping, joining, and sorting run on
//!    [`skyrise_data::KeyBuffer`]'s contiguous fixed-width encoding
//!    (order-equal to the oracle's per-row scalar keys), with typed
//!    per-group accumulators instead of per-row `Value` boxing.
//! 4. **Arena scratch + dictionary reuse** — transient buffers (sel
//!    vectors, key words, gather tables) come from the per-invocation
//!    [`crate::arena::Arena`]; string key columns are dictionary-encoded
//!    once per invocation via [`skyrise_data::DictCache`] no matter how
//!    many operators touch them.
//!
//! Every kernel reproduces, bit for bit, the row-at-a-time oracle that
//! `crates/engine/tests/proptests.rs` compares it against
//! (`skyrise_oracle::operators`, in `tests/support/`): group output order
//! equals the iteration order of the oracle's `BTreeMap` of composite
//! keys, per-group float accumulation order equals its stream-row order,
//! and join match lists keep build-row order.

use crate::arena::{Arena, ArenaReport};
use crate::error::EngineError;
use crate::expr::{self, Expr, ExprError, NamedExpr, UdfRegistry};
use crate::operators::{self, column_from_values, OpChainStats};
use crate::plan::{AggExpr, AggFunc, AggMode, Op};
use skyrise_data::keys::{DictCache, SelSpec};
use skyrise_data::{Batch, Column, Field, KeyBuffer, Schema, Value};
use std::rc::Rc;

// ---------------------------------------------------------------------------
// bound operators
// ---------------------------------------------------------------------------

enum BoundAggKind<'a> {
    /// Partial/Single: evaluate the argument per batch (`None` = Count,
    /// which ignores its argument and never checks it).
    Eval(Option<&'a Expr>),
    /// Final: merge partial-state columns located by index.
    Merge {
        primary: usize,
        secondary: Option<usize>,
    },
}

struct BoundAgg<'a> {
    func: AggFunc,
    name: String,
    kind: BoundAggKind<'a>,
}

/// Column indices of the Q3 click stream used by sessionisation.
struct SessionCols {
    users: usize,
    dates: usize,
    times: usize,
    items: usize,
    sales: usize,
}

/// An operator with its key columns resolved to indices; `build` and
/// `category` index the chain's build sides (pipeline input `i + 1`).
enum BoundOp<'a> {
    Filter(&'a Expr),
    Project(&'a [NamedExpr]),
    HashAggregate {
        group_idx: Vec<usize>,
        group_names: Vec<String>,
        aggs: Vec<BoundAgg<'a>>,
        mode: AggMode,
    },
    HashJoin {
        build: usize,
        build_key: usize,
        probe_key: usize,
        build_cols: Vec<usize>,
    },
    Sort {
        by: Vec<(usize, bool)>,
    },
    Limit(usize),
    SessionizeQ3 {
        category: usize,
        category_col: usize,
        cols: SessionCols,
        window: usize,
    },
    Barrier,
}

fn idx_of(names: &[String], name: &str, what: &str) -> Result<usize, EngineError> {
    names
        .iter()
        .position(|n| n == name)
        .ok_or_else(|| EngineError::Plan(format!("unknown {what} column {name}")))
}

/// Reject the first column or UDF `e` names that does not exist, so that
/// [`expr::evaluate`] cannot fail on a look-up once data flows.
fn check_expr(e: &Expr, names: &[String], udfs: &UdfRegistry) -> Result<(), EngineError> {
    let mut unknown = None;
    e.for_each_node(&mut |node| {
        if unknown.is_some() {
            return;
        }
        unknown = match node {
            Expr::Col(name) if !names.contains(name) => {
                Some(ExprError::UnknownColumn(name.clone()))
            }
            Expr::Udf { name, .. } if udfs.get(name).is_none() => {
                Some(ExprError::UnknownUdf(name.clone()))
            }
            _ => None,
        };
    });
    unknown.map_or(Ok(()), |e| Err(EngineError::Expr(e)))
}

/// The build side a plan's input index names. Input 0 is the stream the
/// chain consumes, so no operator can also materialise it.
fn build_slot(input: usize) -> Result<usize, EngineError> {
    input.checked_sub(1).ok_or_else(|| {
        EngineError::Plan("input 0 is the streamed side: an operator cannot build from it".into())
    })
}

/// Resolve every column reference of an operator chain against the
/// stream's and the build sides' schemas (names only) — once per task,
/// not per batch.
fn bind_ops<'a>(
    ops: &'a [Op],
    stream_names: Vec<String>,
    build_names: &[Vec<String>],
    udfs: &UdfRegistry,
) -> Result<Vec<BoundOp<'a>>, EngineError> {
    let mut cur = stream_names;
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        let bound = match op {
            Op::Filter { predicate } => {
                check_expr(predicate, &cur, udfs)?;
                BoundOp::Filter(predicate)
            }
            Op::Project { exprs } => {
                for ne in exprs {
                    check_expr(&ne.expr, &cur, udfs)?;
                }
                cur = exprs.iter().map(|ne| ne.name.clone()).collect();
                BoundOp::Project(exprs)
            }
            Op::HashAggregate {
                group_by,
                aggregates,
                mode,
            } => {
                let group_idx: Vec<usize> = group_by
                    .iter()
                    .map(|g| idx_of(&cur, g, "key"))
                    .collect::<Result<_, _>>()?;
                let aggs: Vec<BoundAgg> = aggregates
                    .iter()
                    .map(|a: &AggExpr| {
                        let kind = match mode {
                            AggMode::Partial | AggMode::Single => match a.func {
                                AggFunc::Count => BoundAggKind::Eval(None),
                                _ => {
                                    check_expr(&a.expr, &cur, udfs)?;
                                    BoundAggKind::Eval(Some(&a.expr))
                                }
                            },
                            AggMode::Final => {
                                let names = operators::partial_columns(a);
                                let missing = |n: &str| {
                                    EngineError::Plan(format!("missing partial column {n}"))
                                };
                                let primary = cur
                                    .iter()
                                    .position(|n| n == &names[0])
                                    .ok_or_else(|| missing(&names[0]))?;
                                let secondary = names
                                    .get(1)
                                    .map(|n| {
                                        cur.iter().position(|c| c == n).ok_or_else(|| missing(n))
                                    })
                                    .transpose()?;
                                BoundAggKind::Merge { primary, secondary }
                            }
                        };
                        Ok(BoundAgg {
                            func: a.func,
                            name: a.name.clone(),
                            kind,
                        })
                    })
                    .collect::<Result<_, EngineError>>()?;
                let group_names = group_by.clone();
                cur = group_names.clone();
                for a in aggregates {
                    if matches!(mode, AggMode::Partial) {
                        cur.extend(operators::partial_columns(a));
                    } else {
                        cur.push(a.name.clone());
                    }
                }
                BoundOp::HashAggregate {
                    group_idx,
                    group_names,
                    aggs,
                    mode: *mode,
                }
            }
            Op::HashJoin {
                build_input,
                build_key,
                probe_key,
                build_columns,
            } => {
                let build = build_slot(*build_input)?;
                let names = build_names
                    .get(build)
                    .ok_or_else(|| EngineError::Plan(format!("no build input {build_input}")))?;
                let bound = BoundOp::HashJoin {
                    build,
                    build_key: idx_of(names, build_key, "key")?,
                    probe_key: idx_of(&cur, probe_key, "key")?,
                    build_cols: build_columns
                        .iter()
                        .map(|c| idx_of(names, c, "build"))
                        .collect::<Result<_, _>>()?,
                };
                cur.extend(build_columns.iter().cloned());
                bound
            }
            Op::Sort { by } => BoundOp::Sort {
                by: by
                    .iter()
                    .map(|(name, asc)| Ok((idx_of(&cur, name, "sort")?, *asc)))
                    .collect::<Result<_, EngineError>>()?,
            },
            Op::Limit { n } => BoundOp::Limit(*n as usize),
            Op::SessionizeQ3 {
                category_input,
                window,
            } => {
                let category = build_slot(*category_input)?;
                let item_names = build_names
                    .get(category)
                    .ok_or_else(|| EngineError::Plan(format!("no input {category_input}")))?;
                let bound = BoundOp::SessionizeQ3 {
                    category,
                    category_col: idx_of(item_names, "i_item_sk", "key")?,
                    cols: SessionCols {
                        users: idx_of(&cur, "wcs_user_sk", "key")?,
                        dates: idx_of(&cur, "wcs_click_date_sk", "key")?,
                        times: idx_of(&cur, "wcs_click_time_sk", "key")?,
                        items: idx_of(&cur, "wcs_item_sk", "key")?,
                        sales: idx_of(&cur, "wcs_sales_sk", "key")?,
                    },
                    window: *window,
                };
                cur = vec!["item_sk".to_string(), "views".to_string()];
                bound
            }
            Op::Barrier { .. } => BoundOp::Barrier,
        };
        out.push(bound);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// selection-vector stream
// ---------------------------------------------------------------------------

/// Which rows of a batch are live, in order.
#[derive(Debug, Clone)]
pub enum Sel {
    /// Every row.
    All,
    /// The first `n` rows (produced by `Limit` over unfiltered batches).
    Prefix(usize),
    /// Exactly these row indices, in order.
    Rows(Vec<u32>),
}

/// A shared batch plus a selection vector: filters refine [`Sel`] without
/// copying columns; consumers probe/accumulate under the selection and
/// gather at most once, at final emission. The batch is an `Rc` so a
/// selection can ride through `Limit`/`Barrier`/shuffle without cloning
/// column data.
#[derive(Debug, Clone)]
pub struct SelBatch {
    pub(crate) batch: Rc<Batch>,
    pub(crate) sel: Sel,
}

impl SelBatch {
    /// Wrap a fully-live batch.
    pub fn wrap(batch: Batch) -> SelBatch {
        SelBatch {
            batch: Rc::new(batch),
            sel: Sel::All,
        }
    }

    /// The underlying (unselected) batch.
    pub fn batch(&self) -> &Batch {
        &self.batch
    }

    /// Live row count.
    pub fn rows(&self) -> usize {
        match &self.sel {
            Sel::All => self.batch.num_rows(),
            Sel::Prefix(n) => (*n).min(self.batch.num_rows()),
            Sel::Rows(s) => s.len(),
        }
    }

    /// The selection as the encoder's borrowed view.
    fn spec(&self) -> SelSpec<'_> {
        match &self.sel {
            Sel::All => SelSpec::All,
            Sel::Prefix(n) => SelSpec::Prefix(*n),
            Sel::Rows(s) => SelSpec::Rows(s),
        }
    }

    /// Gather the live rows into a standalone batch. Trivial selections
    /// (full range, full prefix, identity row list) return the batch
    /// unchanged — no copy when this holds the only reference.
    pub fn materialise(self) -> Batch {
        let n = self.batch.num_rows();
        let whole = |rc: Rc<Batch>| Rc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone());
        match self.sel {
            Sel::All => whole(self.batch),
            Sel::Prefix(k) if k >= n => whole(self.batch),
            Sel::Prefix(k) => self.batch.slice(0, k),
            Sel::Rows(r) => {
                let identity = r.len() == n && r.iter().enumerate().all(|(i, &x)| x as usize == i);
                if identity {
                    whole(self.batch)
                } else {
                    self.batch.take_u32(&r)
                }
            }
        }
    }
}

fn materialise_all(stream: Vec<SelBatch>) -> Vec<Batch> {
    stream.into_iter().map(SelBatch::materialise).collect()
}

// ---------------------------------------------------------------------------
// the bound executor
// ---------------------------------------------------------------------------

/// Per-invocation execution context: scratch arena, dictionary cache, and
/// the UDFs expressions may call.
struct Ctx<'a> {
    arena: Arena,
    cache: DictCache,
    udfs: &'a UdfRegistry,
}

/// A string dictionary decoded straight from an SPF shuffle segment,
/// addressed by (stream batch index, column index). Seeding it into the
/// executor's [`DictCache`] makes the first key-normalization touch of
/// that column a cache hit — no per-invocation re-sort.
#[derive(Debug, Clone)]
pub struct DictSeed {
    /// Index of the batch within the stream (input 0).
    pub batch: usize,
    /// Column index within that batch.
    pub col: usize,
    /// Sorted distinct values of the column.
    pub dict: Rc<Vec<String>>,
}

/// Field names of a pipeline input, read off its first batch.
fn input_names(input: usize, batches: &[Batch]) -> Result<Vec<String>, EngineError> {
    let first = batches.first().ok_or_else(|| {
        EngineError::Plan(format!(
            "input {input} has no batches, so no schema to bind against"
        ))
    })?;
    Ok(first.schema.fields.iter().map(|f| f.name.clone()).collect())
}

/// Run an operator chain: bind it against the input schemas, then push
/// `stream` (pipeline input 0, owned, so it enters the fused pipeline
/// without a copy) through it under selection vectors, with `builds[i]`
/// serving pipeline input `i + 1`. The output keeps its selection vectors
/// so the caller (the worker's shuffle writer) can go on operating under
/// the sel. `seeds` pre-populates the dictionary cache with dictionaries
/// the shuffle reader decoded from storage (late materialization: the
/// batch `Rc`s wrap exactly the decoded columns, so pointer-identity
/// caching holds from the moment of decode).
pub fn execute_chain_sel(
    ops: &[Op],
    stream: Vec<Batch>,
    builds: &[Vec<Batch>],
    seeds: &[DictSeed],
    udfs: &UdfRegistry,
) -> Result<(Vec<SelBatch>, OpChainStats, ArenaReport), EngineError> {
    let build_names: Vec<Vec<String>> = builds
        .iter()
        .enumerate()
        .map(|(i, batches)| input_names(i + 1, batches))
        .collect::<Result<_, _>>()?;
    let bound = bind_ops(ops, input_names(0, &stream)?, &build_names, udfs)?;
    let ctx = Ctx {
        arena: Arena::current(),
        cache: DictCache::new(),
        udfs,
    };
    ctx.arena.reset();
    let mut stream: Vec<SelBatch> = stream.into_iter().map(SelBatch::wrap).collect();
    for s in seeds {
        if let Some(sb) = stream.get(s.batch) {
            ctx.cache.seed(&sb.batch, s.col, Rc::clone(&s.dict));
        }
    }
    let rows_in = stream.iter().map(|b| b.rows() as u64).sum();
    let mut per_op: Vec<(&'static str, u64)> = Vec::with_capacity(bound.len());
    for (op, bound) in ops.iter().zip(&bound) {
        let before = ctx.arena.bytes_allocated();
        stream = apply_bound(bound, stream, builds, &ctx)?;
        per_op.push((op.label(), ctx.arena.bytes_allocated() - before));
    }
    let stats = OpChainStats {
        rows_in,
        rows_out: stream.iter().map(|b| b.rows() as u64).sum(),
    };
    let report = ArenaReport {
        bytes_allocated: ctx.arena.bytes_allocated(),
        resets: 1,
        per_op,
    };
    Ok((stream, stats, report))
}

/// [`execute_chain_sel`] over borrowed inputs (`inputs[0]`, the stream,
/// is cloned) with the output gathered into plain batches: the shorthand
/// benchmarks and tests call.
pub fn execute_chain(
    ops: &[Op],
    inputs: &[Vec<Batch>],
    udfs: &UdfRegistry,
) -> Result<(Vec<Batch>, OpChainStats), EngineError> {
    let (stream, builds) = inputs
        .split_first()
        .ok_or_else(|| EngineError::Plan("pipeline has no inputs".into()))?;
    let (stream, stats, _report) = execute_chain_sel(ops, stream.clone(), builds, &[], udfs)?;
    Ok((materialise_all(stream), stats))
}

fn apply_bound(
    op: &BoundOp,
    stream: Vec<SelBatch>,
    builds: &[Vec<Batch>],
    ctx: &Ctx,
) -> Result<Vec<SelBatch>, EngineError> {
    match op {
        BoundOp::Filter(pred) => stream
            .into_iter()
            .map(|sb| {
                let mask_col = expr::evaluate(pred, &sb.batch, ctx.udfs)?;
                let mask = expr::expect_bool(&mask_col)?;
                let SelBatch { batch, sel } = sb;
                let n = batch.num_rows();
                let total = match &sel {
                    Sel::All => n,
                    Sel::Prefix(k) => (*k).min(n),
                    Sel::Rows(r) => r.len(),
                };
                let mut keep = ctx.arena.u32s(total);
                match &sel {
                    Sel::All => keep.extend((0..n as u32).filter(|&i| mask[i as usize])),
                    Sel::Prefix(k) => {
                        keep.extend((0..(*k).min(n) as u32).filter(|&i| mask[i as usize]))
                    }
                    Sel::Rows(r) => keep.extend(r.iter().copied().filter(|&i| mask[i as usize])),
                }
                let sel = if keep.len() == total {
                    // Nothing filtered out: the old selection still holds.
                    ctx.arena.recycle_u32(keep);
                    sel
                } else {
                    if let Sel::Rows(old) = sel {
                        ctx.arena.recycle_u32(old);
                    }
                    Sel::Rows(keep)
                };
                Ok(SelBatch { batch, sel })
            })
            .collect::<Result<_, ExprError>>()
            .map_err(EngineError::from),
        BoundOp::Project(exprs) => stream
            .into_iter()
            .map(|sb| {
                // Evaluate over the full batch (total, row-wise pure) and
                // carry the selection through — no gather, no copy beyond
                // the projected columns themselves.
                let mut fields = Vec::with_capacity(exprs.len());
                let mut columns = Vec::with_capacity(exprs.len());
                for ne in *exprs {
                    let col = expr::evaluate(&ne.expr, &sb.batch, ctx.udfs)?;
                    fields.push(Field::new(&ne.name, col.data_type()));
                    columns.push(col);
                }
                Ok(SelBatch {
                    batch: Rc::new(Batch::new(Schema::new(fields), columns)),
                    sel: sb.sel,
                })
            })
            .collect::<Result<_, ExprError>>()
            .map_err(EngineError::from),
        BoundOp::HashAggregate {
            group_idx,
            group_names,
            aggs,
            mode,
        } => hash_aggregate(&stream, group_idx, group_names, aggs, *mode, ctx)
            .map(|b| vec![SelBatch::wrap(b)]),
        BoundOp::HashJoin {
            build,
            build_key,
            probe_key,
            build_cols,
        } => hash_join(
            &stream,
            &builds[*build],
            *build_key,
            *probe_key,
            build_cols,
            ctx,
        ),
        BoundOp::Sort { by } => sort(&stream, by, ctx).map(|b| vec![SelBatch::wrap(b)]),
        BoundOp::Limit(n) => Ok(limit(stream, *n)),
        BoundOp::SessionizeQ3 {
            category,
            category_col,
            cols,
            window,
        } => {
            let items = &builds[*category];
            sessionize_q3(&stream, items, *category_col, cols, *window, ctx)
                .map(|b| vec![SelBatch::wrap(b)])
        }
        BoundOp::Barrier => Ok(stream),
    }
}

/// Prefix-limit directly on selection vectors: truncates selections and
/// converts full batches to `Prefix` selections — never slices or clones
/// column data.
fn limit(stream: Vec<SelBatch>, n: usize) -> Vec<SelBatch> {
    let mut remaining = n;
    let mut out = Vec::new();
    for sb in stream {
        if remaining == 0 {
            if out.is_empty() {
                out.push(SelBatch {
                    batch: sb.batch,
                    sel: Sel::Prefix(0),
                });
            }
            break;
        }
        let take = sb.rows().min(remaining);
        remaining -= take;
        let sel = match sb.sel {
            Sel::All if take == sb.batch.num_rows() => Sel::All,
            Sel::All | Sel::Prefix(_) => Sel::Prefix(take),
            Sel::Rows(mut r) => {
                r.truncate(take);
                Sel::Rows(r)
            }
        };
        out.push(SelBatch {
            batch: sb.batch,
            sel,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// normalized-key kernels
// ---------------------------------------------------------------------------

/// Grouping of all live rows of a batch run by normalized composite key.
struct Grouping {
    keys: KeyBuffer,
    /// Flat live-row index (across non-empty parts, in stream order) →
    /// group id. Group ids are assigned in normalized-key order, which
    /// equals the iteration order of the oracle's `BTreeMap` of keys.
    group_of: Vec<u32>,
    /// Group id → one flat row holding that key.
    rep: Vec<u32>,
}

fn group_rows(parts: &[(&Batch, SelSpec)], cols: &[usize], ctx: &Ctx) -> Grouping {
    let total: usize = parts.iter().map(|(b, s)| s.count(b.num_rows())).sum();
    let words = ctx.arena.u64s(total * cols.len());
    let keys = KeyBuffer::encode_selected(parts, cols, Some(&ctx.cache), words);
    let order = keys.sort_indices();
    let mut group_of = ctx.arena.u32s(keys.rows());
    group_of.resize(keys.rows(), 0);
    let mut rep: Vec<u32> = Vec::new();
    let mut i = 0usize;
    while i < order.len() {
        let start = order[i] as usize;
        let gid = rep.len() as u32;
        rep.push(order[i]);
        while i < order.len() && keys.row(order[i] as usize) == keys.row(start) {
            group_of[order[i] as usize] = gid;
            i += 1;
        }
    }
    Grouping {
        keys,
        group_of,
        rep,
    }
}

/// Typed per-group accumulators: column-direct updates, no per-row
/// `Value` boxing. `Min`/`Max` keep scalar state but only clone a value
/// when it actually replaces the current extremum (matching the oracle's
/// `merge_minmax` semantics exactly).
enum Acc {
    Sum(Vec<f64>),
    Count(Vec<i64>),
    Avg { sums: Vec<f64>, counts: Vec<i64> },
    Min(Vec<Option<Value>>),
    Max(Vec<Option<Value>>),
}

impl Acc {
    fn new(func: AggFunc, n_groups: usize) -> Acc {
        match func {
            AggFunc::Sum => Acc::Sum(vec![0.0; n_groups]),
            AggFunc::Count => Acc::Count(vec![0; n_groups]),
            AggFunc::Avg => Acc::Avg {
                sums: vec![0.0; n_groups],
                counts: vec![0; n_groups],
            },
            AggFunc::Min => Acc::Min(vec![None; n_groups]),
            AggFunc::Max => Acc::Max(vec![None; n_groups]),
        }
    }
}

/// `Value::as_f64` of `col[row]`, without constructing the `Value`.
#[inline]
fn col_f64_at(col: &Column, row: usize) -> f64 {
    match col {
        Column::Int64(v) => v[row] as f64,
        Column::Float64(v) => v[row],
        Column::Bool(v) => v[row] as i64 as f64,
        Column::Utf8(_) => f64::NAN,
    }
}

/// Min/max update mirroring the oracle's `merge_minmax`: same-type int and
/// string keys compare natively, everything else through `as_f64` with
/// ties keeping the incumbent. Clones only on replacement.
fn minmax_update(slot: &mut Option<Value>, col: &Column, row: usize, is_max: bool) {
    use std::cmp::Ordering;
    let ord = match (&*slot, col) {
        (None, _) => Some(Ordering::Greater),
        (Some(Value::Int64(a)), Column::Int64(v)) => Some(v[row].cmp(a)),
        (Some(Value::Utf8(a)), Column::Utf8(v)) => Some(v[row].as_str().cmp(a.as_str())),
        (Some(cur), _) => Some(
            col_f64_at(col, row)
                .partial_cmp(&cur.as_f64())
                .unwrap_or(Ordering::Equal),
        ),
    };
    let replace = match (slot.is_none(), ord) {
        (true, _) => true,
        (false, Some(Ordering::Greater)) => is_max,
        (false, Some(Ordering::Less)) => !is_max,
        _ => false,
    };
    if replace {
        *slot = Some(col.value(row));
    }
}

fn hash_aggregate(
    stream: &[SelBatch],
    group_idx: &[usize],
    group_names: &[String],
    aggs: &[BoundAgg],
    mode: AggMode,
    ctx: &Ctx,
) -> Result<Batch, EngineError> {
    let live: Vec<&SelBatch> = stream.iter().filter(|sb| sb.rows() > 0).collect();
    for sb in &live {
        ctx.cache.pin(&sb.batch);
    }
    let parts: Vec<(&Batch, SelSpec)> = live
        .iter()
        .map(|sb| (sb.batch.as_ref(), sb.spec()))
        .collect();
    let grouping = group_rows(&parts, group_idx, ctx);
    let n_groups = grouping.rep.len();
    let mut accs: Vec<Acc> = aggs.iter().map(|a| Acc::new(a.func, n_groups)).collect();

    // Accumulate in live stream-row order: each group's updates hit in
    // the same order as in the oracle, so float sums agree exactly.
    let mut flat = 0usize;
    for sb in &live {
        let batch = sb.batch.as_ref();
        let n = batch.num_rows();
        match mode {
            AggMode::Partial | AggMode::Single => {
                // Arguments are evaluated over the full batch and read
                // under the selection (totality makes this safe); Count
                // needs no argument at all.
                let args: Vec<Option<Column>> = aggs
                    .iter()
                    .map(|a| match &a.kind {
                        BoundAggKind::Eval(None) => Ok(None),
                        BoundAggKind::Eval(Some(e)) => expr::evaluate(e, batch, ctx.udfs)
                            .map(Some)
                            .map_err(EngineError::from),
                        BoundAggKind::Merge { .. } => unreachable!("bound for Final mode"),
                    })
                    .collect::<Result<_, _>>()?;
                for row in sb.spec().iter(n) {
                    let g = grouping.group_of[flat] as usize;
                    for (acc, arg) in accs.iter_mut().zip(&args) {
                        match (acc, arg) {
                            (Acc::Count(c), _) => c[g] += 1,
                            (Acc::Sum(s), Some(col)) => s[g] += col_f64_at(col, row),
                            (Acc::Avg { sums, counts }, Some(col)) => {
                                sums[g] += col_f64_at(col, row);
                                counts[g] += 1;
                            }
                            (Acc::Min(m), Some(col)) => minmax_update(&mut m[g], col, row, false),
                            (Acc::Max(m), Some(col)) => minmax_update(&mut m[g], col, row, true),
                            _ => unreachable!("non-Count aggregate without argument"),
                        }
                    }
                    flat += 1;
                }
            }
            AggMode::Final => {
                let cols: Vec<(&Column, Option<&Column>)> = aggs
                    .iter()
                    .map(|a| match &a.kind {
                        BoundAggKind::Merge { primary, secondary } => (
                            &batch.columns[*primary],
                            secondary.map(|i| &batch.columns[i]),
                        ),
                        BoundAggKind::Eval(_) => unreachable!("bound for Partial/Single mode"),
                    })
                    .collect();
                for row in sb.spec().iter(n) {
                    let g = grouping.group_of[flat] as usize;
                    for (acc, (primary, secondary)) in accs.iter_mut().zip(&cols) {
                        match acc {
                            Acc::Sum(s) => s[g] += col_f64_at(primary, row),
                            Acc::Count(c) => c[g] += col_f64_at(primary, row) as i64,
                            Acc::Avg { sums, counts } => {
                                sums[g] += col_f64_at(primary, row);
                                counts[g] +=
                                    col_f64_at(secondary.expect("Avg partial needs __cnt"), row)
                                        as i64;
                            }
                            Acc::Min(m) => minmax_update(&mut m[g], primary, row, false),
                            Acc::Max(m) => minmax_update(&mut m[g], primary, row, true),
                        }
                    }
                    flat += 1;
                }
            }
        }
    }

    // Assemble the output batch exactly as the oracle does, with
    // groups in normalized-key (== the oracle's BTreeMap) order.
    let mut fields: Vec<Field> = Vec::new();
    let mut columns: Vec<Column> = Vec::new();
    for (gi, gname) in group_names.iter().enumerate() {
        let vals: Vec<Value> = grouping
            .rep
            .iter()
            .map(|&r| grouping.keys.value(r as usize, gi))
            .collect();
        let col = column_from_values(&vals);
        fields.push(Field::new(gname, col.data_type()));
        columns.push(col);
    }

    let emit_final = !matches!(mode, AggMode::Partial);
    for (agg, acc) in aggs.iter().zip(accs) {
        match (acc, emit_final) {
            (Acc::Avg { sums, counts }, false) => {
                fields.push(Field::new(
                    &format!("{}__sum", agg.name),
                    skyrise_data::DataType::Float64,
                ));
                columns.push(Column::Float64(sums));
                fields.push(Field::new(
                    &format!("{}__cnt", agg.name),
                    skyrise_data::DataType::Int64,
                ));
                columns.push(Column::Int64(counts));
            }
            (Acc::Avg { sums, counts }, true) => {
                let avgs: Vec<f64> = sums
                    .iter()
                    .zip(&counts)
                    .map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
                    .collect();
                fields.push(Field::new(&agg.name, skyrise_data::DataType::Float64));
                columns.push(Column::Float64(avgs));
            }
            (Acc::Sum(s), _) => {
                fields.push(Field::new(&agg.name, skyrise_data::DataType::Float64));
                columns.push(Column::Float64(s));
            }
            (Acc::Count(c), _) => {
                // The oracle's emission funnels through `column_from_values`,
                // whose zero-row case types as Float64 — replicate.
                let col = if c.is_empty() {
                    Column::Float64(Vec::new())
                } else {
                    Column::Int64(c)
                };
                fields.push(Field::new(&agg.name, col.data_type()));
                columns.push(col);
            }
            (Acc::Min(m), _) | (Acc::Max(m), _) => {
                let vals: Vec<Value> = m
                    .into_iter()
                    .map(|v| v.unwrap_or(Value::Float64(f64::NAN)))
                    .collect();
                let col = column_from_values(&vals);
                fields.push(Field::new(&agg.name, col.data_type()));
                columns.push(col);
            }
        }
    }

    if n_groups == 0 && group_names.is_empty() && emit_final {
        // Global aggregate over zero rows still yields one row of zeros.
        for c in columns.iter_mut() {
            match c {
                Column::Float64(v) => v.push(0.0),
                Column::Int64(v) => v.push(0),
                Column::Utf8(v) => v.push(String::new()),
                Column::Bool(v) => v.push(false),
            }
        }
    }

    let Grouping { keys, group_of, .. } = grouping;
    ctx.arena.recycle_u64(keys.into_words());
    ctx.arena.recycle_u32(group_of);
    Ok(Batch::new(Schema::new(fields), columns))
}

fn hash_join(
    probe: &[SelBatch],
    build: &[Batch],
    build_key: usize,
    probe_key: usize,
    build_cols: &[usize],
    ctx: &Ctx,
) -> Result<Vec<SelBatch>, EngineError> {
    if build.is_empty() || probe.is_empty() {
        return Err(EngineError::Plan(
            "hash join requires materialised build and probe inputs".into(),
        ));
    }
    let build_all = Batch::concat(build);
    // Build side: normalized keys sorted (key, row). Equal keys keep
    // build-row order, matching the oracle table's insertion order.
    let kb = KeyBuffer::encode(&[&build_all], &[build_key]);
    let order = kb.sort_indices();
    let mut sorted = ctx.arena.u64s(order.len());
    sorted.extend(order.iter().map(|&r| kb.word(r as usize, 0)));
    let build_col_refs: Vec<(&Field, &Column)> = build_cols
        .iter()
        .map(|&i| (&build_all.schema.fields[i], &build_all.columns[i]))
        .collect();

    let mut out = Vec::new();
    for sb in probe {
        // Probe directly under the selection: encode only the live rows
        // against the build dictionary, binary-search the sorted key run,
        // and gather once at emission.
        let pb = sb.batch.as_ref();
        let n = pb.num_rows();
        let enc = kb.encode_probe_sel(0, &pb.columns[probe_key], sb.spec());
        let mut probe_idx = ctx.arena.u32s(enc.len());
        let mut build_idx = ctx.arena.u32s(enc.len());
        for (prow, e) in sb.spec().iter(n).zip(&enc) {
            let Some(k) = e else { continue };
            let mut j = sorted.partition_point(|&x| x < *k);
            while j < sorted.len() && sorted[j] == *k {
                probe_idx.push(prow as u32);
                build_idx.push(order[j]);
                j += 1;
            }
        }
        let mut fields: Vec<Field> = pb.schema.fields.clone();
        let mut columns: Vec<Column> = pb.take_u32(&probe_idx).columns;
        for (f, c) in &build_col_refs {
            fields.push((*f).clone());
            columns.push(c.take_u32(&build_idx));
        }
        ctx.arena.recycle_u32(probe_idx);
        ctx.arena.recycle_u32(build_idx);
        out.push(SelBatch::wrap(Batch::new(Schema::new(fields), columns)));
    }
    ctx.arena.recycle_u64(sorted);
    Ok(out)
}

/// [`KeyBuffer::argsort`] with its order and scratch drawn from the arena.
fn argsort(keys: &KeyBuffer, ascending: &[bool], ctx: &Ctx) -> Vec<u32> {
    let mut order = ctx.arena.u32s(keys.rows());
    let mut scratch = ctx.arena.u64s(2 * keys.rows());
    keys.argsort(ascending, &mut scratch, &mut order);
    ctx.arena.recycle_u64(scratch);
    order
}

fn sort(stream: &[SelBatch], by: &[(usize, bool)], ctx: &Ctx) -> Result<Batch, EngineError> {
    if stream.is_empty() {
        return Err(EngineError::Plan("sort over no batches".into()));
    }
    for sb in stream {
        ctx.cache.pin(&sb.batch);
    }
    let parts: Vec<(&Batch, SelSpec)> = stream
        .iter()
        .map(|sb| (sb.batch.as_ref(), sb.spec()))
        .collect();
    let (cols, ascending): (Vec<usize>, Vec<bool>) = by.iter().copied().unzip();
    let total: usize = parts.iter().map(|(b, s)| s.count(b.num_rows())).sum();
    let words = ctx.arena.u64s(total * cols.len());
    let kb = KeyBuffer::encode_selected(&parts, &cols, Some(&ctx.cache), words);
    // Location table in live stream order (== the oracle's concat order), then
    // a stable argsort of positions, then one gather straight from the
    // original batches — the concat itself never happens.
    let mut locs = ctx.arena.locs(total);
    for (pi, (b, s)) in parts.iter().enumerate() {
        locs.extend(s.iter(b.num_rows()).map(|r| (pi as u32, r as u32)));
    }
    let idx = argsort(&kb, &ascending, ctx);
    let mut out_locs = ctx.arena.locs(total);
    out_locs.extend(idx.iter().map(|&i| locs[i as usize]));
    let batches: Vec<&Batch> = stream.iter().map(|sb| sb.batch.as_ref()).collect();
    let out = Batch::gather(&batches, &out_locs);
    ctx.arena.recycle_u64(kb.into_words());
    ctx.arena.recycle_locs(locs);
    ctx.arena.recycle_locs(out_locs);
    ctx.arena.recycle_u32(idx);
    Ok(out)
}

fn sessionize_q3(
    clicks: &[SelBatch],
    items: &[Batch],
    category_col: usize,
    cols: &SessionCols,
    window: usize,
    ctx: &Ctx,
) -> Result<Batch, EngineError> {
    use skyrise_data::DataType;
    // Category membership as a sorted vector + binary search (same
    // membership, same ascending iteration as the oracle's BTreeSet).
    let mut category: Vec<i64> = items
        .iter()
        .flat_map(|b| b.columns[category_col].as_i64().iter().copied())
        .collect();
    category.sort_unstable();
    category.dedup();
    let in_category = |x: i64| category.binary_search(&x).is_ok();

    let out_schema = Schema::new(vec![
        Field::new("item_sk", DataType::Int64),
        Field::new("views", DataType::Int64),
    ]);
    if clicks.is_empty() {
        return Ok(Batch::new(
            out_schema,
            vec![Column::Int64(vec![]), Column::Int64(vec![])],
        ));
    }
    // Order clicks per user by (date, time): the three key columns are
    // encoded under the selection and argsorted; only the two payload
    // columns are gathered.
    let parts: Vec<(&Batch, SelSpec)> = clicks
        .iter()
        .map(|sb| (sb.batch.as_ref(), sb.spec()))
        .collect();
    let total: usize = clicks.iter().map(SelBatch::rows).sum();
    let key_cols = [cols.users, cols.dates, cols.times];
    let words = ctx.arena.u64s(total * key_cols.len());
    let keys = KeyBuffer::encode_selected(&parts, &key_cols, None, words);
    let mut item_sk = ctx.arena.i64s(total);
    let mut sales = ctx.arena.i64s(total);
    for (b, sel) in &parts {
        for (out, col) in [(&mut item_sk, cols.items), (&mut sales, cols.sales)] {
            let v = b.columns[col].as_i64();
            match sel {
                SelSpec::Rows(rows) => out.extend(rows.iter().map(|&r| v[r as usize])),
                _ => out.extend_from_slice(&v[..sel.count(v.len())]),
            }
        }
    }
    let idx = argsort(&keys, &[true; 3], ctx);
    let user = |click: u32| keys.word(click as usize, 0);

    let mut views: std::collections::BTreeMap<i64, i64> = std::collections::BTreeMap::new();
    let mut start = 0usize;
    while start < idx.len() {
        let mut end = start;
        while end < idx.len() && user(idx[end]) == user(idx[start]) {
            end += 1;
        }
        let session = &idx[start..end];
        for (pos, &click) in session.iter().enumerate() {
            let click = click as usize;
            let is_purchase = sales[click] != 0 && in_category(item_sk[click]);
            if !is_purchase {
                continue;
            }
            let from = pos.saturating_sub(window);
            for &prior in &session[from..pos] {
                let viewed = item_sk[prior as usize];
                if in_category(viewed) {
                    *views.entry(viewed).or_insert(0) += 1;
                }
            }
        }
        start = end;
    }

    let out = Batch::new(
        out_schema,
        vec![
            Column::Int64(views.keys().copied().collect()),
            Column::Int64(views.values().copied().collect()),
        ],
    );
    ctx.arena.recycle_u32(idx);
    ctx.arena.recycle_u64(keys.into_words());
    for v in [item_sk, sales] {
        ctx.arena.recycle_i64(v);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// shuffle partitioning under selections
// ---------------------------------------------------------------------------

/// Hash-partition a chain's output stream into `n` buckets without
/// materialising it first: the counting scatter that
/// [`operators::partition_batch`] is, under the stream's selections. Row
/// order within a bucket equals concat-then-`partition_batch` order.
pub fn partition_sel(
    output: Vec<SelBatch>,
    partition_by: &[String],
    n: usize,
) -> Result<Vec<Batch>, EngineError> {
    if output.is_empty() {
        return Err(EngineError::Plan("partition over no batches".into()));
    }
    let parts: Vec<(&Batch, SelSpec)> = output
        .iter()
        .map(|sb| (sb.batch.as_ref(), sb.spec()))
        .collect();
    operators::partition_parts(&parts, partition_by, n)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::plan::AggExpr;
    use skyrise_data::DataType;
    use std::rc::Rc;

    fn udfs() -> UdfRegistry {
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
                    Column::Utf8(vec!["A".into(), "B".into(), "A".into()]),
                ],
            ),
            Batch::new(
                schema,
                vec![
                    Column::Int64(vec![4, 5]),
                    Column::Float64(vec![40.0, 50.0]),
                    Column::Utf8(vec!["B".into(), "A".into()]),
                ],
            ),
        ]
    }

    #[test]
    fn binding_errors_match_legacy_shapes() {
        let ops = vec![Op::Sort {
            by: vec![("zzz".into(), true)],
        }];
        let err = execute_chain(&ops, &[lineitems()], &udfs()).unwrap_err();
        assert!(err.to_string().contains("unknown sort column zzz"));
        let ops = vec![Op::Filter {
            predicate: Expr::col("zzz").cmp(crate::expr::CmpOp::Eq, Expr::lit_i64(1)),
        }];
        let err = execute_chain(&ops, &[lineitems()], &udfs()).unwrap_err();
        assert!(err.to_string().contains("unknown column zzz"));
        let ops = vec![Op::Project {
            exprs: vec![NamedExpr::new(
                "p",
                Expr::Udf {
                    name: "nope".into(),
                    args: vec![Expr::col("zzz")],
                },
            )],
        }];
        let err = execute_chain(&ops, &[lineitems()], &udfs()).unwrap_err();
        assert!(matches!(err, EngineError::Expr(ExprError::UnknownUdf(ref u)) if u == "nope"));
        assert!(err.to_string().contains("unknown UDF nope"));
    }

    fn plan_error(ops: &[Op], stream: Vec<Batch>, builds: &[Vec<Batch>]) -> String {
        match execute_chain_sel(ops, stream, builds, &[], &udfs()) {
            Err(EngineError::Plan(m)) => m,
            other => panic!("expected a plan error, got {:?}", other.map(|r| r.1)),
        }
    }

    /// What cannot be bound is a plan error from the one entry point: there
    /// is no second executor to answer instead.
    #[test]
    fn unbindable_chains_are_typed_errors() {
        let barrier = [Op::Barrier { name: "b".into() }];
        assert!(plan_error(&barrier, vec![], &[]).contains("input 0 has no batches"));
        assert!(plan_error(&barrier, lineitems(), &[vec![]]).contains("input 1 has no batches"));
        let join = [Op::HashJoin {
            build_input: 0,
            build_key: "k".into(),
            probe_key: "k".into(),
            build_columns: vec!["flag".into()],
        }];
        assert!(
            plan_error(&join, lineitems(), &[lineitems()]).contains("input 0 is the streamed side")
        );
        let sessionize = [Op::SessionizeQ3 {
            category_input: 0,
            window: 10,
        }];
        assert!(plan_error(&sessionize, lineitems(), &[]).contains("input 0 is the streamed side"));
        // The borrowed shorthand is the same entry point.
        let err = execute_chain(&join, &[lineitems()], &udfs()).unwrap_err();
        assert!(matches!(err, EngineError::Plan(_)));
    }

    #[test]
    fn identity_selections_materialise_without_copying() {
        let b = Rc::new(lineitems().remove(0));
        let data_ptr = b.columns[0].as_i64().as_ptr();
        // Full-range Rows selection.
        let sb = SelBatch {
            batch: b,
            sel: Sel::Rows(vec![0, 1, 2]),
        };
        let out = sb.materialise();
        assert_eq!(out.columns[0].as_i64().as_ptr(), data_ptr);
        // Full prefix.
        let sb = SelBatch {
            batch: Rc::new(out),
            sel: Sel::Prefix(3),
        };
        let out = sb.materialise();
        assert_eq!(out.columns[0].as_i64().as_ptr(), data_ptr);
        // Non-identity selections still gather.
        let sb = SelBatch {
            batch: Rc::new(out),
            sel: Sel::Rows(vec![2, 0]),
        };
        let out = sb.materialise();
        assert_eq!(out.columns[0].as_i64(), &[3, 1]);
    }

    #[test]
    fn limit_keeps_selection_without_slicing() {
        let stream: Vec<SelBatch> = lineitems().into_iter().map(SelBatch::wrap).collect();
        let ptr = stream[0].batch.columns[0].as_i64().as_ptr();
        let out = limit(stream, 2);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].sel, Sel::Prefix(2)));
        // The batch is shared, not sliced.
        assert_eq!(out[0].batch.columns[0].as_i64().as_ptr(), ptr);
        assert_eq!(out[0].clone().materialise().num_rows(), 2);
    }

    #[test]
    fn partition_sel_matches_concat_then_partition() {
        let stream: Vec<SelBatch> = lineitems().into_iter().map(SelBatch::wrap).collect();
        // Filter to odd keys via an explicit selection.
        let filtered: Vec<SelBatch> = stream
            .into_iter()
            .map(|sb| {
                let keep: Vec<u32> = (0..sb.batch.num_rows() as u32)
                    .filter(|&i| sb.batch.columns[0].as_i64()[i as usize] % 2 == 1)
                    .collect();
                SelBatch {
                    batch: sb.batch,
                    sel: Sel::Rows(keep),
                }
            })
            .collect();
        let reference = {
            let batches: Vec<Batch> = filtered.iter().map(|sb| sb.clone().materialise()).collect();
            let merged = Batch::concat(&batches);
            operators::partition_batch(&merged, &["flag".to_string()], 4).unwrap()
        };
        let got = partition_sel(filtered, &["flag".to_string()], 4).unwrap();
        assert_eq!(got.len(), reference.len());
        for (g, r) in got.iter().zip(&reference) {
            assert_eq!(g.columns, r.columns);
        }
    }

    #[test]
    fn execute_chain_sel_reports_arena_usage() {
        let ops = vec![
            Op::Filter {
                predicate: Expr::col("k").cmp(CmpOp::Ge, Expr::lit_i64(2)),
            },
            Op::HashAggregate {
                group_by: vec!["flag".into()],
                aggregates: vec![AggExpr::new(AggFunc::Sum, Expr::col("price"), "total")],
                mode: AggMode::Single,
            },
        ];
        let (out, stats, report) = execute_chain_sel(&ops, lineitems(), &[], &[], &udfs()).unwrap();
        assert_eq!(stats.rows_out, out.iter().map(|b| b.rows() as u64).sum());
        assert_eq!(report.resets, 1);
        assert!(report.bytes_allocated > 0);
        assert_eq!(report.per_op.len(), 2);
        assert_eq!(report.per_op[0].0, "filter");
        assert_eq!(report.per_op[1].0, "hash-aggregate");
        assert!(report.per_op.iter().map(|(_, b)| b).sum::<u64>() <= report.bytes_allocated);
    }
}
