//! # skyrise-micro — microbenchmark suite and experiment driver
//!
//! The resource-level half of the Skyrise evaluation framework (paper
//! Sec. 3.1): the network I/O, storage I/O, and minimal measurement
//! functions, plus result persistence and plotting. Application-level
//! experiments use `skyrise-engine` directly.

#![warn(missing_docs)]

pub mod minimal;
pub mod netio;
pub mod report;
pub mod storageio;

pub use minimal::{measure_startup, probe_idle_lifetime, StartupLatency};
pub use netio::{analyze_burst, measure, BurstProbe, Direction, NetIoConfig};
pub use report::{ascii_chart, text_table, ExperimentResult, NamedSeries};
pub use storageio::{open_loop_window, run_closed_loop, StorageIoConfig, StorageIoResult};
