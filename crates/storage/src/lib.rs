//! # skyrise-storage — simulated serverless storage services
//!
//! Deterministic models of the four AWS storage services the paper
//! evaluates, behind one [`Storage`] handle:
//!
//! * [`s3::S3Bucket`] — S3 Standard (prefix partitions, IOPS scale-up/down,
//!   heavy-tailed latency) and S3 Express One Zone.
//! * [`dynamodb::DynamoTable`] — on-demand key-value store with item-size
//!   and throughput ceilings.
//! * [`efs::EfsFilesystem`] — elastic-throughput shared filesystem.
//!
//! [`client::RetryingClient`] adds the paper's client behaviour: size-based
//! timeouts, retries, exponential backoff with jitter.

#![warn(missing_docs)]

pub mod client;
pub mod core;
pub mod dynamodb;
pub mod efs;
pub mod error;
pub mod object;
pub mod s3;

pub use client::{RetryPolicy, RetryStats, RetryingClient, Storage};
pub use core::{OpsLimiter, RequestOpts};
pub use dynamodb::{DynamoAccount, DynamoConfig, DynamoTable};
pub use efs::{EfsAccount, EfsConfig, EfsFilesystem};
pub use error::{Result, StorageError};
pub use object::{Blob, ByteRange, KeyedStore, ObjectRead};
pub use s3::{S3Bucket, S3Class, S3Config};
