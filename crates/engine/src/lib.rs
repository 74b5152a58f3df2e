//! # skyrise-engine — the serverless query engine
//!
//! A Rust reimplementation of the paper's Skyrise engine (Sec. 3.2):
//! JSON physical plans over pipelines of vectorised operators, executed by
//! coordinator and worker *functions* on either a FaaS platform or a VM
//! cluster behind the shim layer, with all state in shared serverless
//! storage (Fig. 4).
//!
//! Entry point: [`Skyrise::deploy`], then [`Skyrise::run`] with a plan
//! from [`queries`].

#![warn(missing_docs)]

pub mod bind;
pub mod catalog;
pub mod coordinator;
pub mod cpu;
pub mod driver;
pub mod error;
pub mod expr;
pub mod operators;
pub mod plan;
pub mod profile;
pub mod pushdown;
pub mod queries;
pub mod worker;

pub use catalog::{load_dataset, DatasetLayout, DatasetMeta, PartitionMeta};
pub use coordinator::{QueryConfig, QueryRequest, QueryResponse, StageStats, TaskPolicy};
pub use driver::{Skyrise, COORDINATOR_FN, FANOUT_FN, WORKER_FN};
pub use error::EngineError;
pub use expr::{ArithOp, CmpOp, Expr, NamedExpr, UdfRegistry};
pub use plan::{AggExpr, AggFunc, AggMode, InputSpec, Op, PhysicalPlan, Pipeline, Sink};
pub use profile::QueryProfile;
pub use worker::WorkerTask;

/// A query's marginal bill, [`CostReport::delta`](skyrise_pricing::CostReport::delta)
/// of the usage meter across it. Kept under this name because `benchmark/`
/// names it.
pub type ProfileCost = skyrise_pricing::CostReport;
