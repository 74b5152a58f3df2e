//! # skyrise-oracle — what the engine's tests compare it against
//!
//! Independent, row-at-a-time implementations that no library crate may
//! depend on (`skyrise-engine` and `skyrise` name this crate under
//! `[dev-dependencies]` only):
//!
//! * [`operators`] — the engine's first operator chain, the oracle
//!   `crates/engine/tests/proptests.rs` holds `skyrise_engine::bind` to,
//!   bit for bit.
//! * [`mod@reference`] — the four queries computed directly over in-memory
//!   tables, the answers `tests/queries_e2e.rs` and
//!   `tests/fault_tolerance.rs` hold the distributed engine to.

mod bind;
pub mod operators;
pub mod reference;
