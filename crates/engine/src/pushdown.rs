//! Zone-map predicate pushdown and shuffle-read projection inference.
//!
//! Scans skip SPF row groups whose min/max statistics prove the pushed
//! predicate can never match ("file metadata is read to identify relevant
//! data and push down projections and selections", paper Sec. 3.2). The
//! analysis is conservative: only provably-disjoint groups are skipped.
//!
//! [`shuffle_projection`] runs the same idea on the exchange path: a
//! backward pass over a consumer pipeline's operator chain computes the
//! column set it can possibly touch on one of its inputs, so the shuffle
//! reader decodes only those chunks (DESIGN.md "Shuffle exchange format").

use crate::expr::{CmpOp, Expr};
use crate::operators::partial_columns;
use crate::plan::{AggMode, Op};
use skyrise_data::spf::{ChunkStats, RowGroupMeta};
use skyrise_data::{Schema, Value};
use std::collections::BTreeSet;

/// True when the row group provably contains no matching row.
pub fn prune_row_group(predicate: &Expr, schema: &Schema, rg: &RowGroupMeta) -> bool {
    never_matches(predicate, schema, rg)
}

/// Conservative three-valued analysis: returns true only when no row in
/// the group can satisfy `expr`.
fn never_matches(expr: &Expr, schema: &Schema, rg: &RowGroupMeta) -> bool {
    match expr {
        // AND never matches if any conjunct never matches.
        Expr::And(parts) => parts.iter().any(|p| never_matches(p, schema, rg)),
        // OR never matches only if every disjunct never matches.
        Expr::Or(parts) => !parts.is_empty() && parts.iter().all(|p| never_matches(p, schema, rg)),
        Expr::Cmp { op, left, right } => {
            // Only `col <op> literal` / `literal <op> col` shapes prune.
            match (&**left, &**right) {
                (Expr::Col(c), Expr::Lit(v)) => cmp_never(*op, stats_of(schema, rg, c), v),
                (Expr::Lit(v), Expr::Col(c)) => cmp_never(flip(*op), stats_of(schema, rg, c), v),
                _ => false,
            }
        }
        Expr::InList { expr, list } => {
            if let Expr::Col(c) = &**expr {
                if let Some(stats) = stats_of(schema, rg, c) {
                    return list.iter().all(|v| cmp_never(CmpOp::Eq, Some(stats), v));
                }
            }
            false
        }
        _ => false,
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
    }
}

fn stats_of<'a>(schema: &Schema, rg: &'a RowGroupMeta, col: &str) -> Option<&'a ChunkStats> {
    let idx = schema.index_of(col)?;
    rg.chunks.get(idx)?.stats.as_ref()
}

/// `col <op> lit` can never hold for any value in `[min, max]`?
fn cmp_never(op: CmpOp, stats: Option<&ChunkStats>, lit: &Value) -> bool {
    let Some(stats) = stats else { return false };
    match (&stats.min, &stats.max, lit) {
        (Value::Int64(lo), Value::Int64(hi), Value::Int64(v)) => int_never(op, *lo, *hi, *v),
        (Value::Int64(lo), Value::Int64(hi), Value::Float64(v)) => {
            float_never(op, *lo as f64, *hi as f64, *v)
        }
        (Value::Float64(lo), Value::Float64(hi), Value::Float64(v)) => {
            float_never(op, *lo, *hi, *v)
        }
        (Value::Float64(lo), Value::Float64(hi), Value::Int64(v)) => {
            float_never(op, *lo, *hi, *v as f64)
        }
        (Value::Utf8(lo), Value::Utf8(hi), Value::Utf8(v)) => str_never(op, lo, hi, v),
        _ => false,
    }
}

fn int_never(op: CmpOp, lo: i64, hi: i64, v: i64) -> bool {
    match op {
        CmpOp::Eq => v < lo || v > hi,
        CmpOp::Ne => lo == hi && lo == v,
        CmpOp::Lt => lo >= v,
        CmpOp::Le => lo > v,
        CmpOp::Gt => hi <= v,
        CmpOp::Ge => hi < v,
    }
}

fn float_never(op: CmpOp, lo: f64, hi: f64, v: f64) -> bool {
    match op {
        CmpOp::Eq => v < lo || v > hi,
        CmpOp::Ne => lo == hi && lo == v,
        CmpOp::Lt => lo >= v,
        CmpOp::Le => lo > v,
        CmpOp::Gt => hi <= v,
        CmpOp::Ge => hi < v,
    }
}

fn str_never(op: CmpOp, lo: &str, hi: &str, v: &str) -> bool {
    match op {
        CmpOp::Eq => v < lo || v > hi,
        CmpOp::Ne => lo == hi && lo == v,
        CmpOp::Lt => lo >= v,
        CmpOp::Le => lo > v,
        CmpOp::Gt => hi <= v,
        CmpOp::Ge => hi < v,
    }
}

// ---------------------------------------------------------------------------
// shuffle-read projection inference
// ---------------------------------------------------------------------------

/// Collect every column name referenced by `expr` into `out`.
pub fn expr_columns(expr: &Expr, out: &mut BTreeSet<String>) {
    expr.for_each_node(&mut |node| {
        if let Expr::Col(name) = node {
            out.insert(name.clone());
        }
    });
}

/// Column demand during the backward pass: either "everything the input
/// provides" (unknown schema upstream of a schema-determining operator)
/// or an explicit set.
enum Need {
    All,
    Cols(BTreeSet<String>),
}

impl Need {
    fn add_expr(&mut self, expr: &Expr) {
        if let Need::Cols(cols) = self {
            expr_columns(expr, cols);
        }
    }
}

/// The set of columns the operator chain can possibly touch on pipeline
/// input `input_idx`, inferred by a backward pass from the sink. `None`
/// means "all columns" — either the demand is genuinely unbounded (no
/// schema-determining operator between the input and the sink) or the
/// input is the pass-through stream of an empty chain.
///
/// The result is a *superset* of the columns actually read, so decoding
/// only these from a shuffle segment cannot change query results.
pub fn shuffle_projection(ops: &[Op], input_idx: usize) -> Option<Vec<String>> {
    if input_idx > 0 {
        // Build-side inputs: referenced only by materialising operators.
        let mut cols = BTreeSet::new();
        let mut referenced = false;
        for op in ops {
            match op {
                Op::HashJoin {
                    build_input,
                    build_key,
                    build_columns,
                    ..
                } if *build_input == input_idx => {
                    referenced = true;
                    cols.insert(build_key.clone());
                    cols.extend(build_columns.iter().cloned());
                }
                Op::SessionizeQ3 { category_input, .. } if *category_input == input_idx => {
                    referenced = true;
                    cols.insert("i_item_sk".to_string());
                }
                _ => {}
            }
        }
        return if referenced && !cols.is_empty() {
            Some(cols.into_iter().collect())
        } else {
            None
        };
    }
    // Stream side: walk the chain backwards from "sink needs everything".
    let mut need = Need::All;
    for op in ops.iter().rev() {
        match op {
            Op::Limit { .. } | Op::Barrier { .. } => {}
            Op::Filter { predicate } => need.add_expr(predicate),
            Op::Sort { by } => {
                if let Need::Cols(cols) = &mut need {
                    cols.extend(by.iter().map(|(c, _)| c.clone()));
                }
            }
            Op::Project { exprs } => {
                let mut cols = BTreeSet::new();
                for e in exprs {
                    let wanted = match &need {
                        Need::All => true,
                        Need::Cols(n) => n.contains(&e.name),
                    };
                    if wanted {
                        expr_columns(&e.expr, &mut cols);
                    }
                }
                need = Need::Cols(cols);
            }
            Op::HashAggregate {
                group_by,
                aggregates,
                mode,
            } => {
                let mut cols: BTreeSet<String> = group_by.iter().cloned().collect();
                for a in aggregates {
                    match mode {
                        // Final merges the partial state columns.
                        AggMode::Final => cols.extend(partial_columns(a)),
                        // Conservatively keep the argument's columns even
                        // for Count (whose argument is ignored).
                        AggMode::Partial | AggMode::Single => expr_columns(&a.expr, &mut cols),
                    }
                }
                need = Need::Cols(cols);
            }
            Op::HashJoin {
                probe_key,
                build_columns,
                ..
            } => {
                // Output = stream columns + build_columns; the stream must
                // provide the demanded non-build columns plus the probe key.
                if let Need::Cols(cols) = &mut need {
                    for c in build_columns {
                        cols.remove(c);
                    }
                    cols.insert(probe_key.clone());
                }
            }
            Op::SessionizeQ3 { .. } => {
                need = Need::Cols(
                    [
                        "wcs_user_sk",
                        "wcs_click_date_sk",
                        "wcs_click_time_sk",
                        "wcs_item_sk",
                        "wcs_sales_sk",
                    ]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                );
            }
        }
    }
    match need {
        Need::All => None,
        // Reading zero columns would lose row counts; fall back to all.
        Need::Cols(cols) if cols.is_empty() => None,
        Need::Cols(cols) => Some(cols.into_iter().collect()),
    }
}

/// The chain's leading `Filter` predicates — those that run before any
/// row-reshaping operator, and therefore see the shuffled rows as decoded.
/// Safe for *pruning only*: the filters still execute, so a row group the
/// zone maps cannot disprove passes through unchanged.
pub fn leading_predicates(ops: &[Op]) -> Vec<&Expr> {
    let mut preds = Vec::new();
    for op in ops {
        match op {
            Op::Filter { predicate } => preds.push(predicate),
            Op::Barrier { .. } => {}
            _ => break,
        }
    }
    preds
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyrise_data::spf::{self};
    use skyrise_data::{Batch, Column, DataType, Field};

    fn file() -> (Vec<u8>, Schema, Vec<RowGroupMeta>) {
        // Two row groups: k in [0,49] and [50,99].
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("m", DataType::Utf8),
        ]);
        let batch = Batch::new(
            std::rc::Rc::clone(&schema),
            vec![
                Column::Int64((0..100).collect()),
                Column::utf8((0..100).map(|i| format!("{:03}", i / 50))),
            ],
        );
        let bytes = spf::write(&[batch], 50);
        let footer = spf::read_footer(&bytes).unwrap();
        (
            (*bytes).to_vec(),
            (*footer.schema).clone(),
            footer.row_groups,
        )
    }

    #[test]
    fn equality_prunes_disjoint_groups() {
        let (_, schema, rgs) = file();
        let pred = Expr::col("k").cmp(CmpOp::Eq, Expr::lit_i64(75));
        assert!(prune_row_group(&pred, &schema, &rgs[0]));
        assert!(!prune_row_group(&pred, &schema, &rgs[1]));
    }

    #[test]
    fn range_predicates_prune() {
        let (_, schema, rgs) = file();
        let lt = Expr::col("k").cmp(CmpOp::Lt, Expr::lit_i64(50));
        assert!(!prune_row_group(&lt, &schema, &rgs[0]));
        assert!(prune_row_group(&lt, &schema, &rgs[1]));
        let ge = Expr::col("k").cmp(CmpOp::Ge, Expr::lit_i64(50));
        assert!(prune_row_group(&ge, &schema, &rgs[0]));
        // Flipped literal-first form.
        let flipped = Expr::lit_i64(50).cmp(CmpOp::Gt, Expr::col("k"));
        assert!(!prune_row_group(&flipped, &schema, &rgs[0]));
        assert!(prune_row_group(&flipped, &schema, &rgs[1]));
    }

    #[test]
    fn and_or_combine_correctly() {
        let (_, schema, rgs) = file();
        let p1 = Expr::col("k").cmp(CmpOp::Lt, Expr::lit_i64(10));
        let p2 = Expr::col("k").cmp(CmpOp::Gt, Expr::lit_i64(90));
        // AND with a never-matching conjunct prunes.
        let and = Expr::And(vec![p1.clone(), p2.clone()]);
        assert!(prune_row_group(&and, &schema, &rgs[0]));
        // OR prunes only when all branches prune.
        let or = Expr::Or(vec![p1, p2]);
        assert!(!prune_row_group(&or, &schema, &rgs[0]));
        let or_both_far = Expr::Or(vec![
            Expr::col("k").cmp(CmpOp::Gt, Expr::lit_i64(500)),
            Expr::col("k").cmp(CmpOp::Eq, Expr::lit_i64(-3)),
        ]);
        assert!(prune_row_group(&or_both_far, &schema, &rgs[0]));
    }

    #[test]
    fn in_list_and_strings() {
        let (_, schema, rgs) = file();
        let inlist = Expr::InList {
            expr: Box::new(Expr::col("m")),
            list: vec![Value::Utf8("001".into())],
        };
        assert!(
            prune_row_group(&inlist, &schema, &rgs[0]),
            "group 0 is all 000"
        );
        assert!(!prune_row_group(&inlist, &schema, &rgs[1]));
    }

    #[test]
    fn projection_infers_final_aggregate_partial_columns() {
        use crate::plan::{AggExpr, AggFunc};
        // Q1-style consumer: Final aggregate over shuffled partials.
        let ops = vec![Op::HashAggregate {
            group_by: vec!["flag".into()],
            aggregates: vec![
                AggExpr::new(AggFunc::Sum, Expr::col("qty"), "sum_qty"),
                AggExpr::new(AggFunc::Avg, Expr::col("qty"), "avg_qty"),
            ],
            mode: AggMode::Final,
        }];
        let cols = shuffle_projection(&ops, 0).unwrap();
        assert_eq!(
            cols,
            vec!["avg_qty__cnt", "avg_qty__sum", "flag", "sum_qty"]
        );
    }

    #[test]
    fn projection_tracks_join_probe_side_and_build_side() {
        let ops = vec![
            Op::HashJoin {
                build_input: 1,
                build_key: "o_orderkey".into(),
                probe_key: "l_orderkey".into(),
                build_columns: vec!["o_orderpriority".into()],
            },
            Op::HashAggregate {
                group_by: vec!["o_orderpriority".into()],
                aggregates: vec![],
                mode: AggMode::Partial,
            },
        ];
        // Stream needs only the probe key: the group key comes from the
        // build side.
        assert_eq!(shuffle_projection(&ops, 0).unwrap(), vec!["l_orderkey"]);
        // Build input needs its key plus carried columns.
        assert_eq!(
            shuffle_projection(&ops, 1).unwrap(),
            vec!["o_orderkey", "o_orderpriority"]
        );
        // An input no operator references has unbounded demand.
        assert_eq!(shuffle_projection(&ops, 2), None);
    }

    #[test]
    fn projection_unbounded_without_schema_determining_op() {
        // Filter + Limit never narrow the schema.
        let ops = vec![
            Op::Filter {
                predicate: Expr::col("k").cmp(CmpOp::Gt, Expr::lit_i64(3)),
            },
            Op::Limit { n: 10 },
        ];
        assert_eq!(shuffle_projection(&ops, 0), None);
        assert_eq!(shuffle_projection(&[], 0), None);
    }

    #[test]
    fn projection_includes_filter_and_sort_demand() {
        use crate::expr::NamedExpr;
        let ops = vec![
            Op::Project {
                exprs: vec![
                    NamedExpr {
                        name: "a".into(),
                        expr: Expr::col("x"),
                    },
                    NamedExpr {
                        name: "b".into(),
                        expr: Expr::col("y"),
                    },
                ],
            },
            Op::Filter {
                predicate: Expr::col("a").cmp(CmpOp::Gt, Expr::lit_i64(0)),
            },
            Op::Sort {
                by: vec![("b".into(), true)],
            },
        ];
        // Downstream demand {a, b} maps through the projection to {x, y}.
        assert_eq!(shuffle_projection(&ops, 0).unwrap(), vec!["x", "y"]);
    }

    #[test]
    fn leading_predicates_stop_at_first_reshaping_op() {
        let p1 = Expr::col("k").cmp(CmpOp::Gt, Expr::lit_i64(1));
        let p2 = Expr::col("k").cmp(CmpOp::Lt, Expr::lit_i64(9));
        let ops = vec![
            Op::Filter {
                predicate: p1.clone(),
            },
            Op::Barrier { name: "b".into() },
            Op::Filter {
                predicate: p2.clone(),
            },
            Op::Limit { n: 1 },
            Op::Filter {
                predicate: Expr::col("k").cmp(CmpOp::Eq, Expr::lit_i64(5)),
            },
        ];
        let preds = leading_predicates(&ops);
        assert_eq!(preds, vec![&p1, &p2]);
    }

    #[test]
    fn unknown_columns_and_complex_exprs_never_prune() {
        let (_, schema, rgs) = file();
        let unknown = Expr::col("zzz").cmp(CmpOp::Eq, Expr::lit_i64(1));
        assert!(!prune_row_group(&unknown, &schema, &rgs[0]));
        let complex = Expr::col("k").cmp(CmpOp::Eq, Expr::col("k"));
        assert!(!prune_row_group(&complex, &schema, &rgs[0]));
    }
}
