//! # Skyrise — an evaluation platform for serverless data processing
//!
//! A Rust reproduction of *"An Empirical Evaluation of Serverless Cloud
//! Infrastructure for Large-Scale Data Processing"* (EDBT 2025): a
//! deterministic simulation of AWS serverless infrastructure (Lambda, EC2,
//! S3 Standard/Express, DynamoDB, EFS), a serverless query engine running
//! on top of it, a microbenchmark suite, and the benchmark harness that
//! regenerates every table and figure of the paper.
//!
//! ## Quick start
//!
//! ```
//! use skyrise::prelude::*;
//!
//! let mut sim = Sim::new(42);
//! let ctx = sim.ctx();
//! let h = sim.spawn(async move {
//!     let meter = shared_meter();
//!     // Serverless storage + compute.
//!     let storage = Storage::S3(S3Bucket::standard(&ctx, &meter));
//!     let lambda = LambdaPlatform::new(&ctx, &meter, Region::us_east_1());
//!     // Load a small TPC-H dataset.
//!     let tables = skyrise::data::tpch::generate(0.01, 7);
//!     skyrise::engine::load_dataset(
//!         &storage,
//!         &DatasetLayout {
//!             name: "h_lineitem".into(),
//!             partitions: 8,
//!             target_partition_logical_bytes: None,
//!             rows_per_group: 4096,
//!         },
//!         &tables.lineitem,
//!     )
//!     .unwrap();
//!     // Deploy the engine and run TPC-H Q6.
//!     let engine = Skyrise::deploy_simple(&ctx, ComputePlatform::Faas(lambda), storage);
//!     let response = engine
//!         .run_default(&skyrise::engine::queries::q6())
//!         .await
//!         .unwrap();
//!     let revenue = response.rows.unwrap()[0][0].as_f64();
//!     let usd = meter.borrow().report().total_usd();
//!     (revenue, usd)
//! });
//! sim.run();
//! let (revenue, usd) = h.try_take().unwrap();
//! assert!(revenue > 0.0 && usd > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `skyrise-sim` | virtual-time async kernel, RNG, metrics |
//! | [`net`] | `skyrise-net` | token buckets, NICs, fabric, transfers |
//! | [`pricing`] | `skyrise-pricing` | price catalog, usage meter, break-evens |
//! | [`storage`] | `skyrise-storage` | S3 / DynamoDB / EFS simulations |
//! | [`compute`] | `skyrise-compute` | Lambda platform, EC2 fleet, shim |
//! | [`data`] | `skyrise-data` | columnar batches, SPF format, TPC generators |
//! | [`engine`] | `skyrise-engine` | plans, operators, coordinator/workers |
//! | [`micro`] | `skyrise-micro` | microbenchmarks + experiment driver |

pub use skyrise_compute as compute;
pub use skyrise_data as data;
pub use skyrise_engine as engine;
pub use skyrise_micro as micro;
pub use skyrise_net as net;
pub use skyrise_pricing as pricing;
pub use skyrise_sim as sim;
pub use skyrise_storage as storage;

/// The names most experiments need, in one import.
pub mod prelude {
    pub use skyrise_compute::{
        ComputePlatform, Ec2Fleet, ExecEnv, FunctionConfig, LambdaPlatform, LaunchConfig, Region,
        ShimCluster,
    };
    pub use skyrise_data::{Batch, Column, DataType, Field, Schema, Value};
    pub use skyrise_engine::{
        load_dataset, DatasetLayout, PhysicalPlan, QueryConfig, QueryResponse, Skyrise,
    };
    pub use skyrise_net::{Fabric, Nic, RateLimiter, SharedNic, TransferOpts};
    pub use skyrise_pricing::{shared_meter, StorageService, UsageMeter};
    pub use skyrise_sim::{join_all, Sim, SimCtx, SimDuration, SimTime, GIB, KIB, MIB};
    pub use skyrise_storage::{
        Blob, ByteRange, DynamoTable, EfsFilesystem, RequestOpts, RetryingClient, S3Bucket,
        S3Class, S3Config, Storage,
    };
}
