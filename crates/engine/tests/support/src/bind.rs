//! Fixed-input parity: every operator shape through
//! `skyrise_engine::bind` and through [`crate::operators`], identical
//! batches and statistics.

#[cfg(test)]
mod tests {
    use crate::operators::execute_ops;
    use crate::operators::tests::{lineitems, udfs};
    use skyrise_data::{Batch, Column, DataType, Field, Schema};
    use skyrise_engine::bind::execute_chain;
    use skyrise_engine::expr::{ArithOp, CmpOp, Expr, NamedExpr};
    use skyrise_engine::plan::{AggExpr, AggFunc, AggMode, Op};

    /// Every operator shape through both executors: identical batches.
    fn assert_matches_oracle(ops: &[Op], inputs: &[Vec<Batch>]) {
        let (new, new_stats) = execute_chain(ops, inputs, &udfs()).unwrap();
        let (old, old_stats) = execute_ops(ops, inputs, &udfs()).unwrap();
        let new_all = Batch::concat(&new);
        let old_all = Batch::concat(&old);
        assert_eq!(new_all.schema, old_all.schema);
        assert_eq!(new_all.columns, old_all.columns);
        assert_eq!(new_stats, old_stats);
    }

    #[test]
    fn filter_project_matches_oracle() {
        let ops = vec![
            Op::Filter {
                predicate: Expr::col("k").cmp(CmpOp::Ge, Expr::lit_i64(2)),
            },
            Op::Filter {
                predicate: Expr::col("flag").cmp(CmpOp::Eq, Expr::lit_str("A")),
            },
            Op::Project {
                exprs: vec![NamedExpr::new(
                    "double",
                    Expr::col("price").arith(ArithOp::Mul, Expr::lit_f64(2.0)),
                )],
            },
        ];
        assert_matches_oracle(&ops, &[lineitems()]);
    }

    #[test]
    fn aggregate_matches_oracle_all_modes() {
        let aggs = vec![
            AggExpr::new(AggFunc::Sum, Expr::col("price"), "total"),
            AggExpr::new(AggFunc::Count, Expr::lit_i64(1), "cnt"),
            AggExpr::new(AggFunc::Avg, Expr::col("price"), "avg_price"),
            AggExpr::new(AggFunc::Min, Expr::col("k"), "min_k"),
            AggExpr::new(AggFunc::Max, Expr::col("flag"), "max_flag"),
        ];
        for mode in [AggMode::Single, AggMode::Partial] {
            let ops = vec![Op::HashAggregate {
                group_by: vec!["flag".into()],
                aggregates: aggs.clone(),
                mode,
            }];
            assert_matches_oracle(&ops, &[lineitems()]);
        }
        // Global aggregate (no group keys).
        let ops = vec![Op::HashAggregate {
            group_by: vec![],
            aggregates: aggs,
            mode: AggMode::Single,
        }];
        assert_matches_oracle(&ops, &[lineitems()]);
    }

    #[test]
    fn join_sort_limit_matches_oracle() {
        let orders_schema = Schema::new(vec![
            Field::new("o_key", DataType::Int64),
            Field::new("prio", DataType::Utf8),
        ]);
        let orders = vec![Batch::new(
            orders_schema,
            vec![
                Column::Int64(vec![1, 2, 4, 2]),
                Column::utf8(["HI", "LO", "HI", "MED"]),
            ],
        )];
        let ops = vec![
            Op::HashJoin {
                build_input: 1,
                build_key: "o_key".into(),
                probe_key: "k".into(),
                build_columns: vec!["prio".into()],
            },
            Op::Sort {
                by: vec![("prio".into(), true), ("k".into(), false)],
            },
            Op::Limit { n: 3 },
        ];
        assert_matches_oracle(&ops, &[lineitems(), orders]);
    }
}
