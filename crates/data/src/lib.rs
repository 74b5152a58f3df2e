//! # skyrise-data — columnar data, the SPF file format, TPC generators
//!
//! * [`columnar`] — schemas, typed columns (strings as a sorted
//!   dictionary plus codes), vectorised [`Batch`]es, civil dates.
//! * [`keys`] — normalized fixed-width composite keys ([`KeyBuffer`])
//!   backing the engine's grouping/join/sort kernels.
//! * [`spf`] — the Parquet-like columnar file format with row groups,
//!   zone maps, and range-read-friendly footers.
//! * [`tpch`] / [`tpcxbb`] — deterministic generators for the tables the
//!   paper's query suite (TPC-H Q1/Q6/Q12, TPCx-BB Q3) touches.

#![warn(missing_docs)]

pub mod columnar;
pub mod keys;
pub mod spf;
pub mod tpch;
pub mod tpcxbb;

pub use columnar::{date, Batch, Column, DataType, Field, Schema, Utf8Column, Value};
pub use keys::{bits_to_f64, total_order_bits, KeyBuffer, SelSpec};
