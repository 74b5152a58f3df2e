//! Physical query plans.
//!
//! A plan is a DAG of **pipelines** (paper Sec. 3.2: "a plan contains
//! pipelines of physical operators as well as the dependencies between the
//! pipelines"). Each pipeline consumes one or more inputs (a base-table
//! scan or an upstream pipeline's shuffle output), applies a chain of
//! operators, and terminates in a sink (hash-partitioned shuffle write, or
//! the final result). The coordinator fragments each pipeline for
//! data-parallel execution.

use crate::error::EngineError;
use crate::expr::{Expr, NamedExpr};
use std::collections::BTreeSet;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Sum of the argument.
    Sum,
    /// Row count.
    Count,
    /// Arithmetic mean (distributed as sum + count).
    Avg,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
}
serde::impl_json! { enum AggFunc { Sum, Count, Avg, Min, Max } }

/// One aggregate in a `HashAggregate`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// Aggregate function to apply.
    pub func: AggFunc,
    /// Argument (ignored for `Count`).
    pub expr: Expr,
    /// Output column name.
    pub name: String,
}
serde::impl_json! { struct AggExpr { func, expr, name } }

impl AggExpr {
    /// Shorthand constructor.
    pub fn new(func: AggFunc, expr: Expr, name: &str) -> Self {
        AggExpr {
            func,
            expr,
            name: name.to_string(),
        }
    }
}

/// Aggregation phase in a distributed plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMode {
    /// Produce per-fragment partial states (sums and counts).
    Partial,
    /// Merge partial states into final values.
    Final,
    /// Single-phase (only valid when one fragment sees all data).
    Single,
}
serde::impl_json! { enum AggMode { Partial, Final, Single } }

/// A physical operator within a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Row filter.
    Filter {
        /// Predicate rows must satisfy.
        predicate: Expr,
    },
    /// Projection / computed columns.
    Project {
        /// Output columns.
        exprs: Vec<NamedExpr>,
    },
    /// Group-by aggregation.
    HashAggregate {
        /// Grouping key columns.
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggregates: Vec<AggExpr>,
        /// Phase within a distributed plan.
        mode: AggMode,
    },
    /// Inner equi-join: the probe side is the pipeline's stream (input 0),
    /// the build side is materialised from another pipeline input.
    HashJoin {
        /// Index of the pipeline input materialising the build side.
        build_input: usize,
        /// Join key on the build side.
        build_key: String,
        /// Join key on the probe (streamed) side.
        probe_key: String,
        /// Build-side columns carried into the output.
        build_columns: Vec<String>,
    },
    /// Sort by columns (`true` = ascending).
    Sort {
        /// `(column, ascending)` sort keys, most significant first.
        by: Vec<(String, bool)>,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Row budget.
        n: u64,
    },
    /// TPCx-BB Q3's sessionisation: consumes clicks (stream, sorted
    /// internally per user by time) and emits `(item_sk, views)` pairs
    /// counting views of category items within the last `window` clicks
    /// before a purchase. `category_input` materialises the filtered item
    /// dimension.
    SessionizeQ3 {
        /// Pipeline input materialising the filtered item dimension.
        category_input: usize,
        /// Number of preceding clicks inspected per purchase.
        window: usize,
    },
    /// Synchronisation barrier for subflow analysis (paper Sec. 3.2): the
    /// worker polls a shared queue object until the barrier opens.
    Barrier {
        /// Barrier object name.
        name: String,
    },
}
serde::impl_json! { enum Op {
    Filter { predicate },
    Project { exprs },
    HashAggregate { group_by, aggregates, mode },
    HashJoin { build_input, build_key, probe_key, build_columns },
    Sort { by },
    Limit { n },
    SessionizeQ3 { category_input, window },
    Barrier { name },
} }

impl Op {
    /// Stable name of the operator kind, in trace spans and `engine.op.*`
    /// counters.
    pub fn label(&self) -> &'static str {
        match self {
            Op::Filter { .. } => "filter",
            Op::Project { .. } => "project",
            Op::HashAggregate { .. } => "hash-aggregate",
            Op::HashJoin { .. } => "hash-join",
            Op::Sort { .. } => "sort",
            Op::Limit { .. } => "limit",
            Op::SessionizeQ3 { .. } => "sessionize",
            Op::Barrier { .. } => "barrier",
        }
    }
}

/// Where a pipeline's input rows come from.
#[derive(Debug, Clone, PartialEq)]
pub enum InputSpec {
    /// Scan a catalogued dataset with projection and an optional zone-map
    /// predicate pushed into the SPF reader.
    Scan {
        /// Catalogued dataset name.
        dataset: String,
        /// Columns to read (empty = all).
        projection: Vec<String>,
        /// Predicate pushed into the SPF reader's zone maps.
        predicate: Option<Expr>,
    },
    /// Read the shuffle output of an upstream pipeline (this fragment's
    /// partition from every upstream fragment).
    Shuffle {
        /// Producing pipeline id.
        from_pipeline: u32,
    },
}
serde::impl_json! { enum InputSpec {
    Scan { dataset, projection, predicate },
    Shuffle { from_pipeline },
} }

/// Pipeline sink.
#[derive(Debug, Clone, PartialEq)]
pub enum Sink {
    /// Hash-partition rows by key columns and write one object per
    /// `combine` downstream fragments. `combine > 1` is the paper's
    /// *write combining* (Sec. 5.3.2): fewer, larger shuffle objects to
    /// push access sizes over the object-storage break-even.
    ShuffleWrite {
        /// Hash-partitioning key columns (empty = everything to bucket 0).
        partition_by: Vec<String>,
        /// Buckets per written object (write combining).
        combine: u32,
    },
    /// Write the final query result object.
    Result,
}
serde::impl_json! { enum Sink { ShuffleWrite { partition_by, combine = 1 }, Result } }

/// One pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    /// Unique id within the plan.
    pub id: u32,
    /// Input sources; index 0 is the streamed side.
    pub inputs: Vec<InputSpec>,
    /// Operator chain applied to the stream.
    pub ops: Vec<Op>,
    /// Where the pipeline's output goes.
    pub sink: Sink,
    /// Fragment-count hint; `None` lets the coordinator size by input
    /// bytes.
    pub fragments: Option<u32>,
}
serde::impl_json! { struct Pipeline { id, inputs, ops, sink, fragments } }

/// A complete physical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// Human-readable query name (e.g. "tpch-q6").
    pub name: String,
    /// The pipeline DAG.
    pub pipelines: Vec<Pipeline>,
}
serde::impl_json! { struct PhysicalPlan { name, pipelines } }

impl PhysicalPlan {
    /// Check what the accessors below take for granted. A plan arrives at
    /// the coordinator as JSON from outside, so it is checked there before
    /// anything indexes it: pipeline ids are unique, every shuffle input
    /// names a pipeline of the plan, the dependencies have no cycle, and
    /// exactly one pipeline writes the result.
    pub fn check(&self) -> Result<(), EngineError> {
        let bad = |what: String| Err(EngineError::Plan(what));
        let mut ids = BTreeSet::new();
        for p in &self.pipelines {
            if !ids.insert(p.id) {
                return bad(format!("pipeline {} is defined twice", p.id));
            }
        }
        for p in &self.pipelines {
            if let Some(missing) = self.dependencies(p.id).iter().find(|d| !ids.contains(d)) {
                return bad(format!(
                    "pipeline {} reads the shuffle of pipeline {missing}, which the plan lacks",
                    p.id
                ));
            }
        }
        if let Err(cyclic) = self.try_stages() {
            return bad(format!(
                "pipelines {cyclic:?} depend on each other in a cycle"
            ));
        }
        let results: Vec<u32> = self
            .pipelines
            .iter()
            .filter(|p| matches!(p.sink, Sink::Result))
            .map(|p| p.id)
            .collect();
        if results.len() != 1 {
            return bad(format!(
                "exactly one pipeline writes the result, not {results:?}"
            ));
        }
        Ok(())
    }

    /// Pipeline by id. Panics on an id the plan lacks ([`Self::check`]).
    pub fn pipeline(&self, id: u32) -> &Pipeline {
        self.pipelines
            .iter()
            .find(|p| p.id == id)
            .unwrap_or_else(|| panic!("no pipeline {id}"))
    }

    /// Upstream pipeline ids a pipeline depends on.
    pub fn dependencies(&self, id: u32) -> Vec<u32> {
        let mut deps: Vec<u32> = self
            .pipeline(id)
            .inputs
            .iter()
            .filter_map(|i| match i {
                InputSpec::Shuffle { from_pipeline } => Some(*from_pipeline),
                InputSpec::Scan { .. } => None,
            })
            .collect();
        // HashJoin/SessionizeQ3 build inputs are already in `inputs`.
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    /// Pipelines in a dependency-respecting execution order (stages).
    /// Panics on cyclic plans ([`Self::check`]).
    pub fn stages(&self) -> Vec<u32> {
        self.try_stages().expect("cyclic pipeline dependencies")
    }

    /// [`Self::stages`], or the pipelines no order can reach.
    fn try_stages(&self) -> Result<Vec<u32>, Vec<u32>> {
        let mut done: Vec<u32> = Vec::new();
        let mut remaining: Vec<u32> = self.pipelines.iter().map(|p| p.id).collect();
        while !remaining.is_empty() {
            let ready: Vec<u32> = remaining
                .iter()
                .copied()
                .filter(|&id| self.dependencies(id).iter().all(|d| done.contains(d)))
                .collect();
            if ready.is_empty() {
                return Err(remaining);
            }
            for id in &ready {
                done.push(*id);
                remaining.retain(|r| r != id);
            }
        }
        Ok(done)
    }

    /// The terminal (result) pipeline. Panics without one ([`Self::check`]).
    pub fn result_pipeline(&self) -> &Pipeline {
        self.pipelines
            .iter()
            .find(|p| matches!(p.sink, Sink::Result))
            .expect("plan has a result pipeline")
    }

    /// JSON wire form (what the driver submits to the coordinator).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("plans serialise")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    fn join_plan() -> PhysicalPlan {
        PhysicalPlan {
            name: "test-join".into(),
            pipelines: vec![
                Pipeline {
                    id: 0,
                    inputs: vec![InputSpec::Scan {
                        dataset: "orders".into(),
                        projection: vec!["o_orderkey".into()],
                        predicate: None,
                    }],
                    ops: vec![],
                    sink: Sink::ShuffleWrite {
                        partition_by: vec!["o_orderkey".into()],
                        combine: 1,
                    },
                    fragments: Some(4),
                },
                Pipeline {
                    id: 1,
                    inputs: vec![InputSpec::Scan {
                        dataset: "lineitem".into(),
                        projection: vec!["l_orderkey".into()],
                        predicate: Some(Expr::col("l_orderkey").cmp(CmpOp::Gt, Expr::lit_i64(0))),
                    }],
                    ops: vec![],
                    sink: Sink::ShuffleWrite {
                        partition_by: vec!["l_orderkey".into()],
                        combine: 1,
                    },
                    fragments: Some(8),
                },
                Pipeline {
                    id: 2,
                    inputs: vec![
                        InputSpec::Shuffle { from_pipeline: 1 },
                        InputSpec::Shuffle { from_pipeline: 0 },
                    ],
                    ops: vec![Op::HashJoin {
                        build_input: 1,
                        build_key: "o_orderkey".into(),
                        probe_key: "l_orderkey".into(),
                        build_columns: vec![],
                    }],
                    sink: Sink::Result,
                    fragments: Some(4),
                },
            ],
        }
    }

    #[test]
    fn dependencies_and_stages() {
        let plan = join_plan();
        assert_eq!(plan.dependencies(0), Vec::<u32>::new());
        assert_eq!(plan.dependencies(2), vec![0, 1]);
        let stages = plan.stages();
        let pos = |id: u32| {
            stages
                .iter()
                .position(|&x| x == id)
                .expect("pipeline in stage order")
        };
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn result_pipeline_found() {
        assert_eq!(join_plan().result_pipeline().id, 2);
    }

    /// `join_plan()` damaged by `damage`, then checked: the error's text.
    fn check_after(damage: impl FnOnce(&mut PhysicalPlan)) -> String {
        let mut plan = join_plan();
        damage(&mut plan);
        match plan.check() {
            Err(EngineError::Plan(message)) => message,
            other => panic!("expected a plan error, got {other:?}"),
        }
    }

    #[test]
    fn check_names_each_defect_and_its_pipeline() {
        join_plan().check().expect("the undamaged plan is sound");
        let shuffle = |from_pipeline| InputSpec::Shuffle { from_pipeline };
        assert_eq!(
            check_after(|p| p.pipelines[1].id = 0),
            "pipeline 0 is defined twice"
        );
        assert_eq!(
            check_after(|p| p.pipelines[2].inputs[1] = shuffle(7)),
            "pipeline 2 reads the shuffle of pipeline 7, which the plan lacks"
        );
        assert_eq!(
            check_after(|p| p.pipelines[0].inputs.push(shuffle(2))),
            "pipelines [0, 2] depend on each other in a cycle"
        );
        assert_eq!(
            check_after(|p| p.pipelines[1].inputs[0] = shuffle(1)),
            "pipelines [1, 2] depend on each other in a cycle"
        );
        assert_eq!(
            check_after(|p| p.pipelines[2].sink = p.pipelines[0].sink.clone()),
            "exactly one pipeline writes the result, not []"
        );
        assert_eq!(
            check_after(|p| p.pipelines[0].sink = Sink::Result),
            "exactly one pipeline writes the result, not [0, 2]"
        );
        assert_eq!(
            check_after(|p| p.pipelines.clear()),
            "exactly one pipeline writes the result, not []"
        );
    }

    #[test]
    fn the_query_suite_passes_check() {
        for plan in crate::queries::suite() {
            plan.check()
                .unwrap_or_else(|e| panic!("{}: {e}", plan.name));
        }
    }

    #[test]
    fn json_round_trip() {
        let plan = join_plan();
        let json = plan.to_json();
        let back = PhysicalPlan::from_json(&json).unwrap();
        assert_eq!(plan, back);
        assert!(json.contains("ShuffleWrite"));
    }

    #[test]
    #[should_panic(expected = "cyclic")]
    fn cyclic_plans_rejected() {
        let plan = PhysicalPlan {
            name: "cycle".into(),
            pipelines: vec![
                Pipeline {
                    id: 0,
                    inputs: vec![InputSpec::Shuffle { from_pipeline: 1 }],
                    ops: vec![],
                    sink: Sink::ShuffleWrite {
                        partition_by: vec![],
                        combine: 1,
                    },
                    fragments: None,
                },
                Pipeline {
                    id: 1,
                    inputs: vec![InputSpec::Shuffle { from_pipeline: 0 }],
                    ops: vec![],
                    sink: Sink::Result,
                    fragments: None,
                },
            ],
        };
        plan.stages();
    }
}
