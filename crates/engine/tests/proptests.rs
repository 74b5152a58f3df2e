//! Property-based tests over the engine's core invariants.

use proptest::prelude::*;
use skyrise_data::{Batch, Column, DataType, Field, KeyBuffer, Schema, Value};
use skyrise_engine::bind::execute_chain;
use skyrise_engine::expr::{evaluate_mask, ArithOp, CmpOp, Expr, NamedExpr, UdfRegistry};
use skyrise_engine::operators::partition_batch;
use skyrise_engine::plan::{AggExpr, AggFunc, AggMode, Op};
use skyrise_oracle::operators::{execute_ops, partition_batch_scalar, ScalarKey};
use std::collections::BTreeMap;
use std::rc::Rc;

fn kv_batch(keys: &[i64], vals: &[f64]) -> Batch {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]);
    Batch::new(
        schema,
        vec![Column::Int64(keys.to_vec()), Column::Float64(vals.to_vec())],
    )
}

proptest! {
    /// Hash join produces exactly the nested-loop join's multiset of pairs.
    #[test]
    fn hash_join_equals_nested_loop(
        probe_keys in prop::collection::vec(0i64..20, 0..60),
        build_keys in prop::collection::vec(0i64..20, 1..40),
    ) {
        let probe_vals: Vec<f64> = (0..probe_keys.len()).map(|i| i as f64).collect();
        let build_vals: Vec<f64> = (0..build_keys.len()).map(|i| 1000.0 + i as f64).collect();
        let probe = kv_batch(&probe_keys, &probe_vals);
        let build_schema = Schema::new(vec![
            Field::new("bk", DataType::Int64),
            Field::new("bv", DataType::Float64),
        ]);
        let build = Batch::new(
            build_schema,
            vec![Column::Int64(build_keys.clone()), Column::Float64(build_vals.clone())],
        );
        let ops = vec![Op::HashJoin {
            build_input: 1,
            build_key: "bk".into(),
            probe_key: "k".into(),
            build_columns: vec!["bv".into()],
        }];
        let (out, _) = execute_ops(&ops, &[vec![probe], vec![build]], &UdfRegistry::new()).unwrap();
        let out = Batch::concat(&out);

        // Nested loop reference.
        let mut expect: Vec<(f64, f64)> = Vec::new();
        for (pi, pk) in probe_keys.iter().enumerate() {
            for (bi, bk) in build_keys.iter().enumerate() {
                if pk == bk {
                    expect.push((probe_vals[pi], build_vals[bi]));
                }
            }
        }
        let mut got: Vec<(f64, f64)> = (0..out.num_rows())
            .map(|i| (out.column("v").as_f64()[i], out.column("bv").as_f64()[i]))
            .collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(got, expect);
    }

    /// Distributed aggregation (partial per split, then final) equals
    /// single-phase aggregation, however the rows are split.
    #[test]
    fn partial_final_agg_is_split_invariant(
        keys in prop::collection::vec(0i64..8, 1..80),
        split in 1usize..79,
    ) {
        let vals: Vec<f64> = keys.iter().map(|&k| k as f64 * 1.5 + 1.0).collect();
        let all = kv_batch(&keys, &vals);
        let split = split.min(keys.len());
        let aggs = vec![
            AggExpr::new(AggFunc::Sum, Expr::col("v"), "s"),
            AggExpr::new(AggFunc::Avg, Expr::col("v"), "a"),
            AggExpr::new(AggFunc::Count, Expr::lit_i64(1), "c"),
            AggExpr::new(AggFunc::Min, Expr::col("k"), "mn"),
            AggExpr::new(AggFunc::Max, Expr::col("k"), "mx"),
        ];
        let udfs = UdfRegistry::new();
        let partial = Op::HashAggregate {
            group_by: vec!["k".into()],
            aggregates: aggs.clone(),
            mode: AggMode::Partial,
        };
        let final_op = Op::HashAggregate {
            group_by: vec!["k".into()],
            aggregates: aggs.clone(),
            mode: AggMode::Final,
        };
        let single = Op::HashAggregate {
            group_by: vec!["k".into()],
            aggregates: aggs,
            mode: AggMode::Single,
        };
        let (p1, _) = execute_ops(
            std::slice::from_ref(&partial),
            &[vec![all.slice(0, split)]],
            &udfs,
        )
        .unwrap();
        let (p2, _) = execute_ops(
            std::slice::from_ref(&partial),
            &[vec![all.slice(split, all.num_rows())]],
            &udfs,
        )
        .unwrap();
        let merged: Vec<Batch> = p1.into_iter().chain(p2).collect();
        let (fin, _) = execute_ops(std::slice::from_ref(&final_op), &[merged], &udfs).unwrap();
        let (want, _) = execute_ops(std::slice::from_ref(&single), &[vec![all]], &udfs).unwrap();
        prop_assert_eq!(&fin[0].columns, &want[0].columns);
    }

    /// Shuffle partitioning is complete, disjoint, and key-stable: the
    /// same key never lands in two buckets, and bucket assignment is
    /// independent of which rows accompany it.
    #[test]
    fn partitioning_is_complete_and_stable(
        keys in prop::collection::vec(-50i64..50, 0..120),
        n_buckets in 1usize..12,
    ) {
        let vals: Vec<f64> = keys.iter().map(|&k| k as f64).collect();
        let batch = kv_batch(&keys, &vals);
        let parts = partition_batch(&batch, &["k".to_string()], n_buckets).unwrap();
        prop_assert_eq!(parts.len(), n_buckets);
        let total: usize = parts.iter().map(Batch::num_rows).sum();
        prop_assert_eq!(total, batch.num_rows());
        // Key-to-bucket mapping is a function.
        let mut seen: BTreeMap<i64, usize> = BTreeMap::new();
        for (b, part) in parts.iter().enumerate() {
            for &k in part.column("k").as_i64() {
                if let Some(&prev) = seen.get(&k) {
                    prop_assert_eq!(prev, b, "key {} split across buckets", k);
                }
                seen.insert(k, b);
            }
        }
        // Stability: a singleton batch maps each key to the same bucket.
        for (&k, &bucket) in &seen {
            let single = kv_batch(&[k], &[0.0]);
            let p = partition_batch(&single, &["k".to_string()], n_buckets).unwrap();
            prop_assert_eq!(p[bucket].num_rows(), 1);
        }
    }

    /// Boolean algebra over masks: De Morgan and double negation.
    #[test]
    fn expression_boolean_algebra(
        keys in prop::collection::vec(-10i64..10, 1..50),
        threshold in -10i64..10,
    ) {
        let vals: Vec<f64> = keys.iter().map(|&k| k as f64).collect();
        let batch = kv_batch(&keys, &vals);
        let udfs = UdfRegistry::new();
        let a = Expr::col("k").cmp(CmpOp::Lt, Expr::lit_i64(threshold));
        let b = Expr::col("v").cmp(CmpOp::Ge, Expr::lit_f64(0.0));
        let not_and = Expr::Not(Box::new(Expr::And(vec![a.clone(), b.clone()])));
        let or_nots = Expr::Or(vec![
            Expr::Not(Box::new(a.clone())),
            Expr::Not(Box::new(b.clone())),
        ]);
        prop_assert_eq!(
            evaluate_mask(&not_and, &batch, &udfs).unwrap(),
            evaluate_mask(&or_nots, &batch, &udfs).unwrap()
        );
        let double_neg = Expr::Not(Box::new(Expr::Not(Box::new(a.clone()))));
        prop_assert_eq!(
            evaluate_mask(&double_neg, &batch, &udfs).unwrap(),
            evaluate_mask(&a, &batch, &udfs).unwrap()
        );
    }

    /// Sort emits an ordered permutation of its input.
    #[test]
    fn sort_is_an_ordered_permutation(
        keys in prop::collection::vec(-100i64..100, 1..80),
        ascending in any::<bool>(),
    ) {
        let vals: Vec<f64> = (0..keys.len()).map(|i| i as f64).collect();
        let batch = kv_batch(&keys, &vals);
        let ops = vec![Op::Sort {
            by: vec![("k".into(), ascending)],
        }];
        let (out, _) = execute_ops(&ops, &[vec![batch]], &UdfRegistry::new()).unwrap();
        let out = Batch::concat(&out);
        let sorted = out.column("k").as_i64();
        prop_assert_eq!(sorted.len(), keys.len());
        for w in sorted.windows(2) {
            if ascending {
                prop_assert!(w[0] <= w[1]);
            } else {
                prop_assert!(w[0] >= w[1]);
            }
        }
        let mut a = keys.clone();
        let mut b = sorted.to_vec();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// ScalarKey partition hashing is deterministic and value-faithful.
    #[test]
    fn scalar_keys_round_trip(x in any::<i64>(), s in "[a-z]{0,12}") {
        let ki = ScalarKey::try_from_value(&Value::Int64(x)).unwrap();
        prop_assert_eq!(ki.partition_hash(), ScalarKey::try_from_value(&Value::Int64(x)).unwrap().partition_hash());
        prop_assert_eq!(ki.into_value(), Value::Int64(x));
        let ks = ScalarKey::try_from_value(&Value::Utf8(s.clone())).unwrap();
        prop_assert_eq!(ks.into_value(), Value::Utf8(s));
    }

    /// Limit keeps exactly min(n, rows) leading rows.
    #[test]
    fn limit_takes_a_prefix(
        keys in prop::collection::vec(any::<i64>(), 0..60),
        n in 0u64..80,
    ) {
        let vals: Vec<f64> = (0..keys.len()).map(|i| i as f64).collect();
        let batch = kv_batch(&keys, &vals);
        let ops = vec![Op::Limit { n }];
        let (out, _) = execute_ops(&ops, &[vec![batch]], &UdfRegistry::new()).unwrap();
        let out = Batch::concat(&out);
        let take = (n as usize).min(keys.len());
        prop_assert_eq!(out.num_rows(), take);
        prop_assert_eq!(out.column("k").as_i64(), &keys[..take]);
    }
}

/// Deterministic (non-proptest) regression: group columns survive a full
/// partial -> shuffle-partition -> final round trip.
#[test]
fn distributed_agg_through_partitioning() {
    let keys: Vec<i64> = (0..200).map(|i| i % 7).collect();
    let vals: Vec<f64> = (0..200).map(|i| i as f64).collect();
    let batch = kv_batch(&keys, &vals);
    let udfs = UdfRegistry::new();
    let aggs = vec![AggExpr::new(AggFunc::Sum, Expr::col("v"), "s")];
    let partial = Op::HashAggregate {
        group_by: vec!["k".into()],
        aggregates: aggs.clone(),
        mode: AggMode::Partial,
    };
    // Two "workers" aggregate halves, partition by key into 3 buckets.
    let (w1, _) = execute_ops(
        std::slice::from_ref(&partial),
        &[vec![batch.slice(0, 100)]],
        &udfs,
    )
    .unwrap();
    let (w2, _) = execute_ops(
        std::slice::from_ref(&partial),
        &[vec![batch.slice(100, 200)]],
        &udfs,
    )
    .unwrap();
    let mut buckets: Vec<Vec<Batch>> = vec![Vec::new(); 3];
    for out in [w1, w2] {
        for b in out {
            for (i, p) in partition_batch(&b, &["k".to_string()], 3)
                .unwrap()
                .into_iter()
                .enumerate()
            {
                buckets[i].push(p);
            }
        }
    }
    // Three "reducers" finalise their buckets; union must equal single-phase.
    let final_op = Op::HashAggregate {
        group_by: vec!["k".into()],
        aggregates: aggs.clone(),
        mode: AggMode::Final,
    };
    let mut got: Vec<(i64, f64)> = Vec::new();
    for bucket in buckets {
        let (fin, _) = execute_ops(std::slice::from_ref(&final_op), &[bucket], &udfs).unwrap();
        for i in 0..fin[0].num_rows() {
            got.push((
                fin[0].column("k").as_i64()[i],
                fin[0].column("s").as_f64()[i],
            ));
        }
    }
    got.sort_by_key(|a| a.0);
    let single = Op::HashAggregate {
        group_by: vec!["k".into()],
        aggregates: aggs,
        mode: AggMode::Single,
    };
    let (want, _) = execute_ops(std::slice::from_ref(&single), &[vec![batch]], &udfs).unwrap();
    let want_rows: Vec<(i64, f64)> = (0..want[0].num_rows())
        .map(|i| {
            (
                want[0].column("k").as_i64()[i],
                want[0].column("s").as_f64()[i],
            )
        })
        .collect();
    assert_eq!(got, want_rows);
}

// ---------------------------------------------------------------------------
// Normalized-key kernels vs the row-at-a-time ScalarKey oracle.
//
// The bound executor (`bind::execute_chain`) must produce *byte-identical*
// output to the oracle's `execute_ops` for every operator it
// rewrites, on batches mixing every key type (including NaN / -0.0 floats).
// ---------------------------------------------------------------------------

/// One row of mixed-type key material plus a payload value.
type MixedRow = (i64, String, u8, bool, f64);

fn mixed_rows() -> impl Strategy<Value = Vec<MixedRow>> {
    prop::collection::vec(
        (
            -4i64..4,
            "[a-c]{0,3}",
            0u8..7,
            any::<bool>(),
            -100.0f64..100.0,
        ),
        0..60,
    )
}

/// Float keys from a small palette so groups collide; slots 5/6 are the
/// nasty cases (NaN and -0.0) both encodings must agree on.
fn float_key(slot: u8) -> f64 {
    match slot {
        5 => f64::NAN,
        6 => -0.0,
        s => s as f64 * 0.5 - 1.0,
    }
}

fn mixed_batch(rows: &[MixedRow]) -> Batch {
    let schema = Schema::new(vec![
        Field::new("ki", DataType::Int64),
        Field::new("ks", DataType::Utf8),
        Field::new("kf", DataType::Float64),
        Field::new("kb", DataType::Bool),
        Field::new("v", DataType::Float64),
    ]);
    Batch::new(
        schema,
        vec![
            Column::Int64(rows.iter().map(|r| r.0).collect()),
            Column::utf8(rows.iter().map(|r| &r.1)),
            Column::Float64(rows.iter().map(|r| float_key(r.2)).collect()),
            Column::Bool(rows.iter().map(|r| r.3).collect()),
            Column::Float64(rows.iter().map(|r| r.4).collect()),
        ],
    )
}

/// Split rows into a stream of batches at `split` (both halves non-empty
/// batches unless the side is empty).
fn mixed_stream(rows: &[MixedRow], split: usize) -> Vec<Batch> {
    let split = split.min(rows.len());
    let mut out = Vec::new();
    if split > 0 {
        out.push(mixed_batch(&rows[..split]));
    }
    if split < rows.len() {
        out.push(mixed_batch(&rows[split..]));
    }
    if out.is_empty() {
        out.push(mixed_batch(rows));
    }
    out
}

/// Column equality at the bit level: NaN equals NaN, and -0.0 does *not*
/// equal 0.0 — stricter than f64's `==` in both directions, which is what
/// a byte-identical-output contract requires.
fn columns_bitwise_eq(a: &Column, b: &Column) -> bool {
    match (a, b) {
        (Column::Float64(x), Column::Float64(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => a == b,
    }
}

/// Bound and legacy executors must agree batch-for-batch: same schemas,
/// same columns, bit for bit.
fn assert_chain_matches_oracle(ops: &[Op], inputs: &[Vec<Batch>]) -> Result<(), TestCaseError> {
    let udfs = UdfRegistry::new();
    let (got, _) = execute_chain(ops, inputs, &udfs).unwrap();
    let (want, _) = execute_ops(ops, inputs, &udfs).unwrap();
    prop_assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        prop_assert_eq!(&g.schema.fields, &w.schema.fields);
        prop_assert_eq!(g.columns.len(), w.columns.len());
        for (gc, wc) in g.columns.iter().zip(&w.columns) {
            prop_assert!(
                columns_bitwise_eq(gc, wc),
                "column mismatch: {:?} vs {:?}",
                gc,
                wc
            );
        }
    }
    Ok(())
}

proptest! {
    /// Normalized-key aggregation (all modes, multi-type group keys)
    /// matches the BTreeMap-of-ScalarKey oracle bit for bit.
    #[test]
    fn bound_aggregate_matches_scalar_oracle(
        rows in mixed_rows(),
        split in 0usize..60,
        key_mask in 1usize..16,
    ) {
        let keys: Vec<String> = ["ki", "ks", "kf", "kb"]
            .iter()
            .enumerate()
            .filter(|(i, _)| key_mask & (1 << i) != 0)
            .map(|(_, k)| k.to_string())
            .collect();
        let aggs = vec![
            AggExpr::new(AggFunc::Sum, Expr::col("v"), "s"),
            AggExpr::new(AggFunc::Avg, Expr::col("v"), "a"),
            AggExpr::new(AggFunc::Count, Expr::lit_i64(1), "c"),
            AggExpr::new(AggFunc::Min, Expr::col("v"), "mn"),
            AggExpr::new(AggFunc::Max, Expr::col("v"), "mx"),
        ];
        let input = vec![mixed_stream(&rows, split)];
        for mode in [AggMode::Single, AggMode::Partial] {
            let op = Op::HashAggregate {
                group_by: keys.clone(),
                aggregates: aggs.clone(),
                mode,
            };
            assert_chain_matches_oracle(std::slice::from_ref(&op), &input)?;
        }
        // Final mode consumes partials produced by the (oracle) partial op.
        let partial = Op::HashAggregate {
            group_by: keys.clone(),
            aggregates: aggs.clone(),
            mode: AggMode::Partial,
        };
        let (partials, _) =
            execute_ops(std::slice::from_ref(&partial), &input, &UdfRegistry::new()).unwrap();
        let final_op = Op::HashAggregate {
            group_by: keys,
            aggregates: aggs,
            mode: AggMode::Final,
        };
        assert_chain_matches_oracle(std::slice::from_ref(&final_op), &[partials])?;
    }

    /// Dictionary-probe hash join (string and int keys, plus a cross-type
    /// probe that must match nothing) agrees with the oracle join.
    #[test]
    fn bound_join_matches_scalar_oracle(
        probe in mixed_rows(),
        build in prop::collection::vec((-4i64..4, "[a-c]{0,3}", -100.0f64..100.0), 1..30),
        key_is_string in any::<bool>(),
    ) {
        let build_schema = Schema::new(vec![
            Field::new("bi", DataType::Int64),
            Field::new("bs", DataType::Utf8),
            Field::new("bv", DataType::Float64),
        ]);
        let build_batch = Batch::new(
            build_schema,
            vec![
                Column::Int64(build.iter().map(|r| r.0).collect()),
                Column::utf8(build.iter().map(|r| &r.1)),
                Column::Float64(build.iter().map(|r| r.2).collect()),
            ],
        );
        let (build_key, probe_key) = if key_is_string {
            ("bs", "ks")
        } else {
            ("bi", "ki")
        };
        let ops = vec![Op::HashJoin {
            build_input: 1,
            build_key: build_key.into(),
            probe_key: probe_key.into(),
            build_columns: vec!["bv".into()],
        }];
        let inputs = vec![mixed_stream(&probe, 17), vec![build_batch.clone()]];
        assert_chain_matches_oracle(&ops, &inputs)?;
        // Cross-type probe (int probe column vs string build key): both
        // paths must yield zero matches rather than coercing.
        let cross = vec![Op::HashJoin {
            build_input: 1,
            build_key: "bs".into(),
            probe_key: "ki".into(),
            build_columns: vec!["bv".into()],
        }];
        assert_chain_matches_oracle(&cross, &inputs)?;
    }

    /// Normalized-key multi-column sort (mixed asc/desc) is byte-identical
    /// to the oracle's Vec<ScalarKey> comparator sort.
    #[test]
    fn bound_sort_matches_scalar_oracle(
        rows in mixed_rows(),
        split in 0usize..60,
        desc_mask in 0usize..8,
    ) {
        let by = vec![
            ("ks".to_string(), desc_mask & 1 == 0),
            ("kf".to_string(), desc_mask & 2 == 0),
            ("ki".to_string(), desc_mask & 4 == 0),
        ];
        let ops = vec![Op::Sort { by }];
        assert_chain_matches_oracle(&ops, &[mixed_stream(&rows, split)])?;
    }

    /// Filter/Project through the selection-vector path match the oracle,
    /// including stats-visible row counts downstream of a Limit.
    #[test]
    fn bound_filter_project_matches_scalar_oracle(
        rows in mixed_rows(),
        split in 0usize..60,
        threshold in -4i64..4,
        n in 0u64..50,
    ) {
        let ops = vec![
            Op::Filter {
                predicate: Expr::col("ki").cmp(CmpOp::Ge, Expr::lit_i64(threshold)),
            },
            Op::Project {
                exprs: vec![
                    NamedExpr::new("ks", Expr::col("ks")),
                    NamedExpr::new(
                        "v2",
                        Expr::col("v").arith(ArithOp::Mul, Expr::lit_f64(2.0)),
                    ),
                ],
            },
            Op::Limit { n },
        ];
        assert_chain_matches_oracle(&ops, &[mixed_stream(&rows, split)])?;
    }

    /// Vectorised column-at-a-time partitioning equals the row-at-a-time
    /// ScalarKey partitioner, bucket for bucket.
    #[test]
    fn vectorised_partition_matches_scalar_oracle(
        rows in mixed_rows(),
        n_buckets in 1usize..12,
        key_mask in 1usize..16,
    ) {
        let keys: Vec<String> = ["ki", "ks", "kf", "kb"]
            .iter()
            .enumerate()
            .filter(|(i, _)| key_mask & (1 << i) != 0)
            .map(|(_, k)| k.to_string())
            .collect();
        let batch = mixed_batch(&rows);
        let got = partition_batch(&batch, &keys, n_buckets).unwrap();
        let want = partition_batch_scalar(&batch, &keys, n_buckets).unwrap();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.columns.len(), w.columns.len());
            for (gc, wc) in g.columns.iter().zip(&w.columns) {
                prop_assert!(columns_bitwise_eq(gc, wc));
            }
        }
    }

    /// KeyBuffer's fixed-width byte order is exactly ScalarKey's Ord for
    /// every key-type mix: sorting by normalized words equals sorting by
    /// the legacy comparator.
    #[test]
    fn key_buffer_order_matches_scalar_key_ord(
        rows in mixed_rows(),
        key_mask in 1usize..16,
    ) {
        let cols: Vec<usize> = (0..4).filter(|i| key_mask & (1 << i) != 0).collect();
        let batch = mixed_batch(&rows);
        let kb = KeyBuffer::encode(&[&batch], &cols);
        let got: Vec<usize> = kb.sort_indices().into_iter().map(|i| i as usize).collect();
        let scalar_rows: Vec<Vec<ScalarKey>> = (0..batch.num_rows())
            .map(|r| {
                cols.iter()
                    .map(|&c| ScalarKey::from_column(&batch.columns[c], r))
                    .collect()
            })
            .collect();
        let mut want: Vec<usize> = (0..batch.num_rows()).collect();
        want.sort_by(|&a, &b| scalar_rows[a].cmp(&scalar_rows[b]));
        prop_assert_eq!(got, want);
        // Decode round-trips through the dictionary.
        for gi in 0..cols.len() {
            for (r, row) in scalar_rows.iter().enumerate() {
                prop_assert_eq!(
                    ScalarKey::try_from_value(&kb.value(r, gi)).unwrap(),
                    row[gi].clone()
                );
            }
        }
    }
}

/// `ki < threshold` over `mixed_rows` (ki in -4..4): threshold -4 selects
/// nothing, threshold 4 selects everything, values between split the
/// stream — exercising empty, full, and partial selection vectors.
fn ki_filter(threshold: i64) -> Op {
    Op::Filter {
        predicate: Expr::col("ki").cmp(CmpOp::Lt, Expr::lit_i64(threshold)),
    }
}

proptest! {
    /// A selection vector produced by Filter feeds the aggregate's
    /// accumulators directly (no materialise between operators); every
    /// mode must still match the filter-then-aggregate oracle bit for bit.
    #[test]
    fn filtered_aggregate_matches_scalar_oracle(
        rows in mixed_rows(),
        split in 0usize..60,
        threshold in -4i64..=4,
    ) {
        let aggs = vec![
            AggExpr::new(AggFunc::Sum, Expr::col("v"), "s"),
            AggExpr::new(AggFunc::Avg, Expr::col("v"), "a"),
            AggExpr::new(AggFunc::Count, Expr::lit_i64(1), "c"),
            AggExpr::new(AggFunc::Min, Expr::col("v"), "mn"),
            AggExpr::new(AggFunc::Max, Expr::col("v"), "mx"),
        ];
        let input = vec![mixed_stream(&rows, split)];
        for mode in [AggMode::Single, AggMode::Partial] {
            let ops = vec![
                ki_filter(threshold),
                Op::HashAggregate {
                    group_by: vec!["ks".into(), "kf".into()],
                    aggregates: aggs.clone(),
                    mode,
                },
            ];
            assert_chain_matches_oracle(&ops, &input)?;
        }
    }

    /// Filter on the probe side of a join: the probe is encoded and hashed
    /// under the selection vector, never gathered.
    #[test]
    fn filtered_join_probe_matches_scalar_oracle(
        probe in mixed_rows(),
        build in prop::collection::vec((-4i64..4, -100.0f64..100.0), 1..30),
        split in 0usize..60,
        threshold in -4i64..=4,
    ) {
        let build_schema = Schema::new(vec![
            Field::new("bi", DataType::Int64),
            Field::new("bv", DataType::Float64),
        ]);
        let build_batch = Batch::new(
            build_schema,
            vec![
                Column::Int64(build.iter().map(|r| r.0).collect()),
                Column::Float64(build.iter().map(|r| r.1).collect()),
            ],
        );
        let ops = vec![
            ki_filter(threshold),
            Op::HashJoin {
                build_input: 1,
                build_key: "bi".into(),
                probe_key: "ki".into(),
                build_columns: vec!["bv".into()],
            },
        ];
        let inputs = vec![mixed_stream(&probe, split), vec![build_batch]];
        assert_chain_matches_oracle(&ops, &inputs)?;
    }

    /// Filter feeding the sort's key encoder under the selection vector:
    /// the gather happens once, at emission, in sorted order. With
    /// `desc_mask & 4` the string is the only key, so that most rows tie
    /// and only a stable sort keeps the other columns in stream order.
    #[test]
    fn filtered_sort_matches_scalar_oracle(
        rows in mixed_rows(),
        split in 0usize..60,
        threshold in -4i64..=4,
        desc_mask in 0usize..8,
    ) {
        let mut by = vec![
            ("ks".to_string(), desc_mask & 1 == 0),
            ("kf".to_string(), desc_mask & 2 == 0),
        ];
        by.truncate(if desc_mask & 4 == 0 { 2 } else { 1 });
        let ops = vec![ki_filter(threshold), Op::Sort { by }];
        assert_chain_matches_oracle(&ops, &[mixed_stream(&rows, split)])?;
    }

    /// `sessionize_q3` against the oracle: clicks over several batches and
    /// under a leading filter (`Sel::Rows`), `(user, date, time)` triples
    /// that repeat (ties must keep stream order for the window to see the
    /// same priors), negative keys, and `i64::MIN` beside `i64::MAX` in the
    /// time column, whose span of 2^64 - 1 takes every bit of a sort key.
    #[test]
    fn bound_sessionize_matches_scalar_oracle(
        clicks in prop::collection::vec(
            (-2i64..3, -1i64..2, prop_oneof![4 => -3i64..4, 1 => Just(i64::MIN), 1 => Just(i64::MAX)], 1i64..7, 0i64..3),
            0..80,
        ),
        cuts in prop::collection::vec(0usize..80, 0..4),
        category in prop::collection::vec(1i64..7, 1..6),
        window in prop_oneof![1 => Just(0usize), 2 => Just(1usize), 3 => 2usize..6, 2 => Just(1000usize)],
        keep_below in 3i64..8,
    ) {
        let schema = skyrise_data::tpcxbb::clickstreams_schema();
        let column = |f: fn(&(i64, i64, i64, i64, i64)) -> i64, rows: &[(i64, i64, i64, i64, i64)]| {
            Column::Int64(rows.iter().map(f).collect())
        };
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (clicks.len() + 1)).collect();
        cuts.extend([0, clicks.len()]);
        cuts.sort_unstable();
        let stream: Vec<Batch> = cuts
            .windows(2)
            .map(|w| &clicks[w[0]..w[1]])
            .map(|rows| {
                Batch::new(
                    Rc::clone(&schema),
                    vec![
                        column(|r| r.0, rows),
                        column(|r| r.1, rows),
                        column(|r| r.2, rows),
                        column(|r| r.3, rows),
                        column(|r| r.4, rows),
                    ],
                )
            })
            .collect();
        let items = Batch::new(
            Schema::new(vec![Field::new("i_item_sk", DataType::Int64)]),
            vec![Column::Int64(category)],
        );
        let ops = vec![
            Op::Filter {
                predicate: Expr::col("wcs_item_sk").cmp(CmpOp::Lt, Expr::lit_i64(keep_below)),
            },
            Op::SessionizeQ3 { category_input: 1, window },
        ];
        assert_chain_matches_oracle(&ops, &[stream, vec![items]])?;
    }

    /// Limit over a Rows selection truncates the vector in place; over a
    /// full selection it degrades to a Prefix — either way the emitted
    /// rows match the oracle's slice semantics, including n = 0 and
    /// n >= survivors.
    #[test]
    fn limit_over_selection_matches_scalar_oracle(
        rows in mixed_rows(),
        split in 0usize..60,
        threshold in -4i64..=4,
        n in 0u64..70,
    ) {
        let ops = vec![ki_filter(threshold), Op::Limit { n }];
        assert_chain_matches_oracle(&ops, &[mixed_stream(&rows, split)])?;
    }
}
